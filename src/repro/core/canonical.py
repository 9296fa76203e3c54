"""The canonical-key protocol on immutable queries.

A *canonical key* is the renaming-invariant structural form of a
conjunctive query: variables are replaced by their first-occurrence
index over ``(head, body)`` and constants are kept verbatim.  Two
queries with equal keys are identical up to a bijective variable
renaming, and disclosure labeling is invariant under renaming
(dissection normalizes atoms to indexed :class:`TaggedVar` patterns),
so every label-producing cache in the system may key on canonical keys
instead of query objects.

The head *name* is deliberately excluded (labels do not depend on it);
head positions are included so distinguished-ness is preserved.

The protocol has three parts:

* :func:`canonical_key` — the key itself, memoized on the (immutable)
  query object through the ``_canonical_key`` slot, so serving traffic
  that cycles parsed query objects pays the structural walk once per
  object, not once per decision.
* :func:`query_from_key` — a *representative* query rebuilt from a key
  (variables named ``v0, v1, ...``, head predicate ``Q``).  Because
  labeling is renaming-invariant, labeling the representative yields
  exactly the label of every query with that key — this is what lets
  the decision kernel re-derive a label from a bare interned query id
  with no query object in hand.
* the ``_interned`` slot — scratch space for
  :class:`repro.server.interning.QueryInterner` to pin a dense integer
  id on the object itself (see there for the invalidation rule).

Since canonical keys travel — snapshot files store them, the replica
pool ships them between processes, and the v2 wire protocol sends them as
interner deltas — the module also owns their JSON-safe codec
(:func:`encode_key` / :func:`decode_key`): one encoding shared by every
consumer, so a key written anywhere decodes identically everywhere.

This module is the *core*-layer end of the ID plane: everything above
it (interners, kernel, caches, snapshots) speaks dense integers; this
is where those integers bottom out in query structure.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.atoms import Atom
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant, Variable, is_variable

#: A canonical key: head term codes + per-atom (relation, term codes).
CanonicalKey = Tuple

#: Head predicate of representative queries (the name is not in the key).
_REPRESENTATIVE_HEAD = "Q"


def canonical_key(query: ConjunctiveQuery) -> CanonicalKey:
    """The renaming-invariant structural key of *query*.

    Variables become integers in order of first occurrence (head first,
    then body atoms left to right); constants stay themselves (they are
    hashable and compare by type and value).

    Queries are immutable, so the key is memoized on the query object
    (the ``_canonical_key`` slot) after the first computation.
    """
    key = getattr(query, "_canonical_key", None)
    if key is not None:
        return key
    indices: Dict = {}

    def code(term):
        if is_variable(term):
            index = indices.get(term)
            if index is None:
                index = len(indices)
                indices[term] = index
            return index
        return ("c", term)

    head = tuple(code(t) for t in query.head_terms)
    body = tuple(
        (atom.relation, tuple(code(t) for t in atom.terms))
        for atom in query.body
    )
    key = (head, body)
    try:
        query._canonical_key = key
    except AttributeError:
        pass  # a duck-typed query without the memo slot: still correct
    return key


def query_from_key(key: CanonicalKey) -> ConjunctiveQuery:
    """A representative query whose :func:`canonical_key` equals *key*.

    Variable codes become ``Variable("v<code>")``; constant codes keep
    their :class:`~repro.core.terms.Constant` verbatim.  The rebuilt
    query is equivalent to every query with this key up to variable
    renaming (and the irrelevant head name), so any renaming-invariant
    computation — labeling above all — may run on the representative in
    place of the original.
    """
    head_codes, body_codes = key
    variables: Dict[int, Variable] = {}

    def term(code):
        if isinstance(code, int):
            variable = variables.get(code)
            if variable is None:
                variable = Variable(f"v{code}")
                variables[code] = variable
            return variable
        return code[1]  # ("c", Constant)

    body = tuple(
        Atom(relation, tuple(term(c) for c in codes))
        for relation, codes in body_codes
    )
    head = tuple(term(c) for c in head_codes)
    return ConjunctiveQuery(_REPRESENTATIVE_HEAD, head, body)


# ----------------------------------------------------------------------
# The JSON-safe key codec
# ----------------------------------------------------------------------
def encode_key(obj):
    """A canonical key (or key element) as a JSON-round-trippable value.

    Keys mix variable indices (ints), relation names (strings), nested
    tuples, and :class:`~repro.core.terms.Constant` terms whose values
    may be str, int, float, bool, or ``None`` — distinctions JSON
    flattens (tuples become lists, ``Constant(1)`` ≠ ``Constant(True)``
    ≠ ``1``).  Everything non-int is therefore tagged: ``["s", x]``
    strings, ``["t", [...]]`` tuples, ``["c", ...]`` constants,
    ``["b", x]`` bools, ``["f", x]`` floats, ``["z"]`` None.

    Used by snapshot files (:mod:`repro.server.persist`) and by the v2
    wire protocol's interner deltas — one codec, so a key encoded for
    either consumer decodes identically for both.
    """
    if isinstance(obj, bool):  # before int: bool is an int subclass
        return ["b", obj]
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return ["f", obj]
    if isinstance(obj, str):
        return ["s", obj]
    if obj is None:
        return ["z"]
    if isinstance(obj, tuple):
        return ["t", [encode_key(item) for item in obj]]
    if isinstance(obj, Constant):
        return ["c", encode_key(obj.value)]
    raise ValueError(
        f"cannot serialize canonical-key element of type {type(obj).__name__}"
    )


def decode_key(obj):
    """Inverse of :func:`encode_key`; raises ``ValueError`` on garbage."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    if isinstance(obj, list) and obj:
        tag = obj[0]
        if tag == "s" and len(obj) == 2 and isinstance(obj[1], str):
            return obj[1]
        if tag == "t" and len(obj) == 2 and isinstance(obj[1], list):
            return tuple(decode_key(item) for item in obj[1])
        if tag == "c" and len(obj) == 2:
            return Constant(decode_key(obj[1]))
        if tag == "b" and len(obj) == 2:
            return bool(obj[1])
        if tag == "f" and len(obj) == 2 and isinstance(obj[1], (int, float)):
            return float(obj[1])
        if tag == "z" and len(obj) == 1:
            return None
    raise ValueError(f"unrecognized encoded canonical-key element {obj!r}")
