"""Seeded request streams: the only thing ``--seed`` changes.

A stream is the population (principal names and their Figure 6
policies), the Section 7.2 query shapes, and an ordered list of
operations over them.  The population and the shapes are part of the
workload's definition and are generated from :data:`POPULATION_SEED`;
``--seed`` decides who asks what, when — the order of operations and
the paced arrival schedule.  Two seeds therefore give different streams
over the same population, so the cost of an average decision does not
move with the seed (256 random shapes differ by over 10% in labeling
cost from one draw to the next, which would drown a 5% regression).
The program under test receives only these generated inputs; the same
``(workload, seed)`` yields the same stream, which :func:`Stream.digest`
witnesses.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from itertools import accumulate
from typing import List, NamedTuple, Sequence, Tuple

from repro.client.wire import query_to_datalog
from repro.core.queries import ConjunctiveQuery
from repro.facebook.workload import (
    WorkloadGenerator,
    generate_policies,
    zipf_weights,
)

from .spec import SHAPES, STREAM_OPS, Workload

SUBMIT, PEEK, REGISTER = "submit", "peek", "register"

#: Seed of every workload's principals' policies and query shapes.
POPULATION_SEED = 0


class Op(NamedTuple):
    """One operation: a decision on ``shapes[index]`` or a
    re-registration with ``policies[index]``."""

    kind: str
    principal: str
    index: int


class Stream:
    """A workload's generated inputs."""

    def __init__(self, workload: Workload, seed: int, view_names: Sequence[str]):
        self.workload = workload
        self.seed = seed
        self.policies: List[List[List[str]]] = generate_policies(
            view_names, workload.policies, max_partitions=5, max_elements=25,
            seed=POPULATION_SEED,
        )
        self.principals = [f"app-{i}" for i in range(workload.principals)]
        self.shapes: List[ConjunctiveQuery] = list(
            WorkloadGenerator(
                max_subqueries=workload.max_subqueries, seed=POPULATION_SEED
            ).stream(SHAPES)
        )
        self.ops: List[Op] = self._generate(random.Random(seed + 1))
        #: Principals some operation re-registers: their policy, not
        #: only their history, depends on how far the stream has run.
        self.churned = {op.principal for op in self.ops if op.kind == REGISTER}

    def policy_index(self, principal: str) -> int:
        """The policy a principal is first registered with."""
        return int(principal[4:]) % len(self.policies)

    def _generate(self, rng: random.Random) -> List[Op]:
        w = self.workload
        count = len(self.principals)
        if w.zipf:
            cumulative = list(accumulate(zipf_weights(count, w.zipf)))
            top = cumulative[-1]

            def pick() -> int:
                return min(bisect_right(cumulative, rng.random() * top), count - 1)
        else:
            def pick() -> int:
                return rng.randrange(count)

        ops: List[Op] = []
        for position in range(STREAM_OPS):
            if w.reregister_every and position % w.reregister_every == (
                w.reregister_every - 1
            ):
                ops.append(
                    Op(
                        REGISTER,
                        self.principals[rng.randrange(count)],
                        rng.randrange(len(self.policies)),
                    )
                )
                continue
            kind = PEEK if w.peek_share and rng.random() < w.peek_share else SUBMIT
            ops.append(Op(kind, self.principals[pick()], rng.randrange(SHAPES)))
        return ops

    def items(self, ops: Sequence[Op]) -> List[Tuple[str, ConjunctiveQuery]]:
        """``(principal, query)`` pairs for a run of decision ops."""
        shapes = self.shapes
        return [(op.principal, shapes[op.index]) for op in ops]

    def batches(self) -> List[List[Tuple[str, ConjunctiveQuery]]]:
        """The stream cut into whole requests of ``workload.batch`` items."""
        size = self.workload.batch
        return [
            self.items(self.ops[start : start + size])
            for start in range(0, len(self.ops) - size + 1, size)
        ]

    def digest(self) -> str:
        """SHA-256 over everything the program under test will receive."""
        sha = hashlib.sha256()
        for policy in self.policies:
            sha.update(repr(policy).encode())
        for shape in self.shapes:
            sha.update(query_to_datalog(shape).encode())
        for op in self.ops:
            sha.update(f"{op.kind}|{op.principal}|{op.index}\n".encode())
        return sha.hexdigest()


def poisson_offsets(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Due times (seconds from window start) of a Poisson arrival process."""
    offsets: List[float] = []
    clock = rng.expovariate(rate)
    while clock < seconds:
        offsets.append(clock)
        clock += rng.expovariate(rate)
    return offsets
