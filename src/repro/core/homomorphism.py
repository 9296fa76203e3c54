"""Homomorphisms, containment, and equivalence of conjunctive queries.

The classical Chandra–Merlin machinery [9]: a query ``Q1`` is contained in
``Q2`` (written ``Q1 ⊑ Q2``: on every database, ``Q1``'s answer is a subset
of ``Q2``'s) if and only if there is a *containment mapping* — a
homomorphism from ``Q2`` to ``Q1`` that maps body atoms to body atoms and
the head to the head.  Two queries are equivalent iff each contains the
other (Section 2.3: "two queries are equivalent if they return the same
answer on every dataset").

The search is a straightforward backtracking over body atoms, with atoms
indexed by relation name and ordered most-constrained-first.  Containment
of conjunctive queries is NP-complete in general; the queries handled here
(app queries with a handful of atoms) are small, matching the paper's own
use of brute-force search for query folding (Section 6.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.atoms import Atom
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant, Term, Variable, is_variable

#: A homomorphism: a total map from the source query's variables to terms
#: of the destination query.
Homomorphism = Dict[Variable, Term]


def _extend(
    mapping: Homomorphism, src: Term, dst: Term
) -> Optional[Homomorphism]:
    """Try to extend *mapping* with ``src -> dst``; return ``None`` on clash.

    Constants map only to themselves; variables map consistently.
    """
    if isinstance(src, Constant):
        return mapping if src == dst else None
    bound = mapping.get(src)
    if bound is not None:
        return mapping if bound == dst else None
    new_mapping = dict(mapping)
    new_mapping[src] = dst
    return new_mapping


def _match_atom(
    mapping: Homomorphism, src_atom: Atom, dst_atom: Atom
) -> Optional[Homomorphism]:
    """Extend *mapping* so that *src_atom* maps onto *dst_atom* exactly."""
    if src_atom.relation != dst_atom.relation or src_atom.arity != dst_atom.arity:
        return None
    current: Optional[Homomorphism] = mapping
    for s, d in zip(src_atom.terms, dst_atom.terms):
        current = _extend(current, s, d)
        if current is None:
            return None
    return current


def _order_atoms(atoms: Iterable[Atom], seed: Homomorphism) -> List[Atom]:
    """Order atoms most-constrained-first for the backtracking search.

    Constrained = many constants or already-bound variables.  A simple
    static heuristic; correctness does not depend on it.
    """
    def score(atom: Atom) -> Tuple[int, int]:
        bound = sum(
            1
            for t in atom.terms
            if isinstance(t, Constant) or (is_variable(t) and t in seed)
        )
        return (-bound, -atom.arity)

    return sorted(atoms, key=score)


def find_homomorphism(
    source: ConjunctiveQuery,
    target: ConjunctiveQuery,
    seed: Optional[Homomorphism] = None,
    require_head: bool = True,
) -> Optional[Homomorphism]:
    """Find a homomorphism from *source* to *target*.

    The mapping sends every body atom of *source* onto some body atom of
    *target* and, when *require_head* is true, sends *source*'s head term
    list exactly onto *target*'s (positionally; arities must agree).

    Parameters
    ----------
    seed:
        Optional pre-bindings that the homomorphism must respect.
    require_head:
        Pass ``False`` to search for a body-only homomorphism (used by the
        core computation, which constrains head variables via *seed*).

    Returns the mapping, or ``None`` if no homomorphism exists.
    """
    # Never mutated here: _extend copies on write, the search copies once.
    mapping: Optional[Homomorphism] = seed or {}

    if require_head:
        if len(source.head_terms) != len(target.head_terms):
            return None
        for s, d in zip(source.head_terms, target.head_terms):
            mapping = _extend(mapping, s, d)
            if mapping is None:
                return None

    return find_body_homomorphism(source.body, target.body, mapping)


def find_body_homomorphism(
    source: Sequence[Atom], target: Sequence[Atom], seed: Homomorphism
) -> Optional[Homomorphism]:
    """Find a map sending every *source* atom onto some *target* atom.

    The body-level search behind :func:`find_homomorphism`: it needs no
    query object on either side, so the core computation can test a
    candidate sub-body without constructing one.  *seed* holds the
    bindings the map must extend (it is copied, not mutated).
    """
    by_relation: Dict[str, List[Atom]] = {}
    for atom in target:
        by_relation.setdefault(atom.relation, []).append(atom)

    ordered = _order_atoms(source, seed)

    # Backtracking over a single mutable binding with an undo trail —
    # avoids a dict copy per extension attempt.
    binding: Homomorphism = dict(seed)

    def try_match(src_atom: Atom, dst_atom: Atom) -> "Optional[List[Variable]]":
        if src_atom.arity != dst_atom.arity:
            return None
        added: List[Variable] = []
        for s, d in zip(src_atom.terms, dst_atom.terms):
            if isinstance(s, Constant):
                if s == d:
                    continue
            else:
                bound = binding.get(s)
                if bound is None:
                    binding[s] = d
                    added.append(s)
                    continue
                if bound == d:
                    continue
            for var in added:
                del binding[var]
            return None
        return added

    def search(i: int) -> bool:
        if i == len(ordered):
            return True
        src_atom = ordered[i]
        for dst_atom in by_relation.get(src_atom.relation, ()):
            added = try_match(src_atom, dst_atom)
            if added is not None:
                if search(i + 1):
                    return True
                for var in added:
                    del binding[var]
        return False

    return binding if search(0) else None


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Is ``q1 ⊑ q2``, i.e. does ``q2``'s answer always include ``q1``'s?

    Checked via the Chandra–Merlin containment mapping from *q2* to *q1*.
    Returns ``False`` when head arities differ (the queries are then not
    comparable).
    """
    return find_homomorphism(q2, q1) is not None


def are_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Are the two queries equivalent (equal answers on every database)?"""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)


def count_homomorphisms(
    source: ConjunctiveQuery, target: ConjunctiveQuery, limit: int = 1_000_000
) -> int:
    """Count homomorphisms from *source* to *target* (head-preserving).

    Used only by tests and diagnostics; stops at *limit*.
    """
    if len(source.head_terms) != len(target.head_terms):
        return 0
    mapping: Optional[Homomorphism] = {}
    for s, d in zip(source.head_terms, target.head_terms):
        mapping = _extend(mapping, s, d)
        if mapping is None:
            return 0

    by_relation: Dict[str, List[Atom]] = {}
    for atom in target.body:
        by_relation.setdefault(atom.relation, []).append(atom)
    ordered = _order_atoms(source.body, mapping)

    count = 0

    def search(i: int, current: Homomorphism) -> None:
        nonlocal count
        if count >= limit:
            return
        if i == len(ordered):
            count += 1
            return
        src_atom = ordered[i]
        for dst_atom in by_relation.get(src_atom.relation, ()):
            extended = _match_atom(current, src_atom, dst_atom)
            if extended is not None:
                search(i + 1, extended)

    search(0, mapping)
    return count
