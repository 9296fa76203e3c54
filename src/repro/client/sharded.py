"""The shard-aware :class:`DecisionClient`: principals routed client-side.

Sessions are principal-private and labels are principal-free, so a
client can route every request to the shard owning its principal with
the same stable CRC-32 hash the replica pool dispatches by
(:func:`repro.server.partition.shard_for`) — no front-end hop, and each
per-shard client keeps its own v2 interner generation with the server
it actually talks to.  Batches split by shard with relative order
preserved (a principal never spans shards, so per-principal order is
all that matters) and reassemble in input order; ``metrics`` and
``snapshot`` aggregate exactly as the pool's merged views do, via the
same merge functions.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Sequence

from repro.client.base import ClientItem, DecisionClient
from repro.core.queries import ConjunctiveQuery


class ShardedClient(DecisionClient):
    """A :class:`DecisionClient` over one client per shard.

    *clients* is index-aligned with the deployment's shards: principal
    *p* is served by ``clients[shard_for(p, len(clients))]``.  Any mix
    of blocking :class:`DecisionClient` kinds works (they all speak the
    same protocol); the in-process services have a constructor,
    :meth:`for_services`; for N independent ``repro serve`` processes
    pass one :class:`~repro.client.HttpClient` per server.  An
    :class:`~repro.client.AsyncHttpClient` is refused with
    :class:`TypeError`: its methods are coroutines, which this client
    would hand back un-awaited.
    """

    def __init__(self, clients: Sequence[DecisionClient]):
        if not clients:
            raise ValueError("a ShardedClient needs at least one client")
        for client in clients:
            if not isinstance(client, DecisionClient):
                raise TypeError(
                    "a ShardedClient routes over DecisionClients, got "
                    f"{type(client).__name__}"
                )
        self.clients = list(clients)

    @classmethod
    def for_services(cls, services: Iterable[Any]) -> "ShardedClient":
        from repro.client.local import LocalClient

        return cls([LocalClient(service) for service in services])

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.clients)

    def client_for(self, principal: Hashable) -> DecisionClient:
        from repro.server.partition import shard_for

        return self.clients[shard_for(principal, len(self.clients))]

    # ------------------------------------------------------------------
    def _decide(
        self, principal: Hashable, query: ConjunctiveQuery, *, peek: bool
    ) -> Dict:
        return self.client_for(principal)._decide(principal, query, peek=peek)

    def _decide_many(
        self, items: Sequence[ClientItem], *, peek: bool
    ) -> List[Dict]:
        from repro.server.partition import shard_for

        count = len(self.clients)
        by_shard: Dict[int, List[int]] = {}
        for index, (principal, _) in enumerate(items):
            by_shard.setdefault(shard_for(principal, count), []).append(index)
        results: List[Dict] = [None] * len(items)  # type: ignore[list-item]
        for shard, indices in by_shard.items():
            decided = self.clients[shard]._decide_many(
                [items[i] for i in indices], peek=peek
            )
            for index, decision in zip(indices, decided):
                results[index] = decision
        return results

    # ------------------------------------------------------------------
    def register(self, principal: Hashable, policy: Any) -> None:
        self.client_for(principal).register(principal, policy)

    def reset(self, principal: Hashable) -> None:
        self.client_for(principal).reset(principal)

    def metrics(self) -> Dict:
        from repro.server.partition import aggregate_metrics

        return aggregate_metrics([client.metrics() for client in self.clients])

    def snapshot(self) -> Dict:
        from repro.server.partition import merge_snapshots

        return merge_snapshots(
            [client.snapshot() for client in self.clients]
        )

    def close(self) -> None:
        for client in self.clients:
            client.close()
