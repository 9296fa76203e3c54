"""Query folding: computing the core (minimal equivalent) of a query.

The paper's Dissect algorithm "begins by computing a folding [9] of Q,
which intuitively removes 'redundant' atoms from Q" (Section 5.2).  A
folding (the *core*) is the unique-up-to-isomorphism minimal query
equivalent to Q; it is obtained by repeatedly deleting body atoms whose
deletion preserves equivalence.

An atom ``a`` is deletable from ``Q`` precisely when there is a
homomorphism from ``Q`` into ``Q`` minus ``a`` that fixes the head: the
smaller query is always weaker (fewer constraints), and the homomorphism
witnesses the reverse containment.  As in the paper's implementation, the
search is brute force and exponential in the number of atoms in the worst
case (Section 6.1, "Complexity Analysis").
"""

from __future__ import annotations

from typing import AbstractSet, List, Sequence, Set

from repro.core.atoms import Atom
from repro.core.homomorphism import find_body_homomorphism, find_homomorphism
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Variable, is_variable


def fold(query: ConjunctiveQuery, prechecks: bool = True) -> ConjunctiveQuery:
    """Return the core of *query*: a minimal equivalent subquery.

    The result's body is a subset of the input's body (no renaming is
    applied), so head variables are untouched.  Deterministic: atoms are
    considered for deletion in body order.  When no atom is deletable the
    input object itself is returned.

    *prechecks* enables the cheap necessary-condition filters before each
    homomorphism search (see :func:`fold_body`); pass ``False`` only for
    the ablation benchmark and as the oracle of the property tests — that
    path is the brute-force search and always builds a new query.

    >>> from repro.core.parser import parse_query
    >>> q = parse_query("Q(x) :- M(x, y), M(x, z)")
    >>> str(fold(q))
    'Q(x) :- M(x, z)'
    """
    if not prechecks:
        return _fold_brute_force(query)
    body = fold_body(query.body, query.distinguished_variables())
    return query if len(body) == len(query.body) else query.with_body(body)


def fold_body(
    body: Sequence[Atom], head_vars: AbstractSet[Variable]
) -> Sequence[Atom]:
    """The core's body, for a query with body *body* and head *head_vars*.

    Pin before searching.  Let ``h`` be any head-fixing homomorphism from
    the body into a sub-body, and ``F`` a set of variables ``h`` is known
    to fix (at first, the head variables).  ``h`` sends an atom ``a``
    onto an atom that is :func:`_compatible` with it under ``F``; if no
    *other* atom is, then ``h(a) = a``: ``a`` cannot be deleted, and ``h``
    fixes ``a``'s variables, which join ``F`` — possibly pinning the next
    atom of a join chain, so the propagation runs to a fixpoint.  Pins
    survive deletions (a smaller body offers fewer partners), so ``F``
    carries over from round to round.  Only unpinned atoms are offered
    for deletion, and each search runs on atom tuples with identity on
    ``F`` as its seed: a safe candidate needs no separate check, since the
    sole atom holding a head variable is pinned.
    """
    fixed: Set[Variable] = set(head_vars)
    while True:
        free = _unpinned(body, fixed)
        seed = {var: var for var in fixed} if free else None
        for i in free:
            candidate = (*body[:i], *body[i + 1 :])
            if find_body_homomorphism(body, candidate, seed) is not None:
                body = candidate
                break
        else:
            return body


def _unpinned(body: Sequence[Atom], fixed: Set[Variable]) -> List[int]:
    """Indices of the atoms a folding may move; grows *fixed* in place."""
    free = list(range(len(body)))
    pinned_one = True
    while pinned_one and free:
        pinned_one = False
        for i in tuple(free):
            atom = body[i]
            for j, other in enumerate(body):
                if j != i and _compatible(atom, other, fixed):
                    break
            else:
                fixed.update(atom.variable_set())
                free.remove(i)
                pinned_one = True
    return free


def _fold_brute_force(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The unfiltered search: one candidate query per atom per round."""
    body: List = list(query.body)
    changed = True
    while changed and len(body) > 1:
        changed = False
        for i in range(len(body)):
            candidate_body = body[:i] + body[i + 1 :]
            if not _is_safe(query, candidate_body):
                continue
            candidate = query.with_body(candidate_body)
            # candidate ⊒ query always; equivalence needs candidate ⊑ query,
            # witnessed by a head-fixing homomorphism query -> candidate.
            seed = {v: v for v in query.distinguished_variables()}
            if (
                find_homomorphism(query, candidate, seed=seed, require_head=False)
                is not None
            ):
                body = candidate_body
                changed = True
                break
    return query.with_body(body)


def is_minimal(query: ConjunctiveQuery) -> bool:
    """Is *query* its own core (no atom deletable)?"""
    return fold(query) is query


def _compatible(source, target, fixed) -> bool:
    """Could a homomorphism that fixes *fixed* send *source* onto *target*?

    Necessary conditions only: same relation/arity, equal constants, and
    identical fixed variables position by position (a homomorphism maps
    constants and fixed variables to themselves).
    """
    if source.relation != target.relation or source.arity != target.arity:
        return False
    for s, t in zip(source.terms, target.terms):
        if is_variable(s):
            if s in fixed and s != t:
                return False
        elif s != t:
            return False
    return True


def _is_safe(query: ConjunctiveQuery, body: List) -> bool:
    """Would *body* still contain every head variable of *query*?"""
    if not body:
        return False
    remaining = set()
    for atom in body:
        remaining.update(atom.variable_set())
    return all(
        (not is_variable(t)) or t in remaining for t in query.head_terms
    )
