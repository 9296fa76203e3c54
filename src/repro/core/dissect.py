"""The Dissect algorithm (Section 5.2): multi-atom → single-atom views.

Dissect converts an arbitrary conjunctive query into a set of single-atom
tagged views whose combined information suffices to answer the query:

1. compute a *folding* of the query (its core — see
   :mod:`repro.core.minimize`), removing redundant atoms;
2. split the folding into its constituent atoms, **promoting to
   distinguished** every existential variable that appears in at least two
   atoms (a join variable: any set of single-atom views that allows the
   join to be computed must reveal the join attribute's values).

Example 5.4: ``[M(xd, ye), C(ye, we, 'Intern')]`` dissects to
``{[M(xd, yd)], [C(yd, we, 'Intern')]}``.

Dissect is itself a disclosure labeler with domain ℘(U_cv) and image
℘(U_atom); composing it with the single-atom labeler of Section 5.1 yields
the full conjunctive-query labeler (see
:mod:`repro.labeling.cq_labeler` and :mod:`repro.labeling.pipeline`).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set

from repro.core.minimize import fold_body
from repro.core.queries import ConjunctiveQuery
from repro.core.tagged import TaggedAtom
from repro.core.terms import Variable


def dissect(query: ConjunctiveQuery) -> FrozenSet[TaggedAtom]:
    """Dissect *query* into a set of normalized single-atom tagged views.

    >>> from repro.core.parser import parse_query
    >>> q = parse_query("Q2(x) :- M(x, y), C(y, w, 'Intern')")
    >>> sorted(str(t) for t in dissect(q))
    ["[C(x0d, x1e, 'Intern')]", '[M(x0d, x1d)]']
    """
    head_vars = query.distinguished_variables()
    body = fold_body(query.body, head_vars)

    # A join variable lies in two atoms' (cached) variable sets.
    promoted: Set[Variable] = set(head_vars)
    seen: Set[Variable] = set()
    for atom in body:
        variables = atom.variable_set()
        promoted.update(seen & variables)
        seen.update(variables)

    return frozenset(TaggedAtom.from_atom(atom, promoted) for atom in body)


def dissect_all(queries: Iterable[ConjunctiveQuery]) -> FrozenSet[TaggedAtom]:
    """Dissect a set of queries and union the results.

    This is the first stage of labeling a query *set* (the paper labels
    sets of queries; the union is sound because the disclosure order
    satisfies Definition 3.1(b)).
    """
    out: Set[TaggedAtom] = set()
    for query in queries:
        out.update(dissect(query))
    return frozenset(out)
