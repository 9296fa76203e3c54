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

from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.core.atoms import Atom
from repro.core.homomorphism import (
    Homomorphism,
    find_body_homomorphism,
    find_homomorphism,
)
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Term, Variable, is_variable

#: A term of either representation the pin rule runs on: a
#: :class:`~repro.core.terms.Variable` or a canonical-key ``int`` code.
V = TypeVar("V")


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
    the body into a sub-body, and ``F`` a set of terms ``h`` is known to
    fix (at first, the head variables; constants are fixed anyway).
    ``h`` sends an atom ``a`` onto an atom that is :func:`_compatible`
    with it under ``F``; if no *other* atom is, then ``h(a) = a``: ``a``
    cannot be deleted, and ``h`` fixes ``a``'s terms, which join ``F`` —
    possibly pinning the next atom of a join chain, so the propagation
    runs to a fixpoint.  Pins survive deletions (a smaller body offers
    fewer partners), so ``F`` carries over from round to round.  Only
    unpinned atoms are offered for deletion, and each search runs on atom
    tuples with identity on ``F`` as its seed: a safe candidate needs no
    separate check, since the sole atom holding a head variable is
    pinned.

    The pin rule is written once, :func:`pin_fixpoint`, over
    ``(relation, terms)`` pairs with the variable type as a parameter:
    this function runs it on :class:`Variable` terms, and the bit-vector
    labeler runs it on a canonical key's ``int`` codes, calling this
    function only when an atom stays free.
    """
    fixed: Set[Term] = set(head_vars)
    while True:
        free = _unpinned(body, fixed)
        seed: Optional[Homomorphism] = (
            {var: var for var in fixed if isinstance(var, Variable)} if free else None
        )
        for i in free:
            candidate = (*body[:i], *body[i + 1 :])
            if find_body_homomorphism(body, candidate, seed) is not None:
                body = candidate
                break
        else:
            return body


def _unpinned(body: Sequence[Atom], fixed: Set[Term]) -> List[int]:
    """Indices of the atoms a folding may move; grows *fixed* in place."""
    return pin_fixpoint([(atom.relation, atom.terms) for atom in body], fixed, Variable)


def pin_fixpoint(
    atoms: Sequence[Tuple[str, Sequence[V]]], fixed: Set[V], var_type: type
) -> List[int]:
    """Indices of the ``(relation, terms)`` *atoms* a folding may move.

    The pin rule of :func:`fold_body`, over either term representation:
    a term is a variable iff it is a *var_type* (:class:`Variable`, or
    ``int`` for a canonical key's codes).  *fixed* starts as the head's
    variables and grows in place by the terms of each pinned atom (its
    constants too, which every homomorphism fixes anyway).  Only atoms
    over one relation can be :func:`_compatible`, so an atom whose
    relation occurs once pins at once, and the fixpoint compares an atom
    only with the rest of its relation's group.  The result does not
    depend on the order atoms pin in: pinning only grows *fixed*, and a
    larger *fixed* only pins more.
    """
    groups: Dict[str, List[int]] = {}
    for index, (relation, _) in enumerate(atoms):
        groups.setdefault(relation, []).append(index)
    free: List[int] = []
    for indices in groups.values():
        if len(indices) == 1:
            fixed.update(atoms[indices[0]][1])
        else:
            free.extend(indices)
    free.sort()
    pinned_one = True
    while pinned_one and free:
        pinned_one = False
        for i in tuple(free):
            relation, terms = atoms[i]
            for j in groups[relation]:
                if j != i and _compatible(terms, atoms[j][1], fixed, var_type):
                    break
            else:
                fixed.update(terms)
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


def _compatible(source, target, fixed, var_type) -> bool:
    """Could a homomorphism that fixes *fixed* send the atom with terms
    *source* onto the atom with terms *target* (same relation)?

    Necessary conditions only: equal arity, and where the terms differ,
    a *source* term that is neither a constant nor in *fixed* (a
    homomorphism maps constants and fixed variables to themselves).
    """
    if len(source) != len(target):
        return False
    for s, t in zip(source, target):
        if s != t and (s in fixed or not isinstance(s, var_type)):
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
