"""Conjunctive queries ``H :- B``.

Section 2.3 of the paper: a conjunctive query has a head atom ``H`` and a
body ``B`` that is a conjunction of relational atoms.  Variables appearing
in the head are *distinguished*; variables appearing only in the body are
*existential*.  Every head variable must appear in the body (safety).

:class:`ConjunctiveQuery` is the ordered-head representation used by the
parser, the SQL front end, and the SQLite evaluator.  The labeling
algorithms of Section 5 use the order-free *tagged* representation
(:mod:`repro.core.tagged`), obtained via :meth:`ConjunctiveQuery.tagged_atoms`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

from repro.core.atoms import Atom
from repro.core.schema import Schema
from repro.core.terms import (
    Constant,
    FreshVariableFactory,
    Term,
    Variable,
    is_variable,
)
from repro.errors import QueryError


class ConjunctiveQuery:
    """An immutable conjunctive query with an ordered head.

    Parameters
    ----------
    head_name:
        Name of the head predicate (e.g. ``"Q"`` or ``"V1"``).
    head_terms:
        The head argument list.  May contain variables (each of which must
        occur in the body) and constants.
    body:
        The body atoms.  Must be non-empty: boolean queries are expressed
        with an empty *head* (``Q() :- ...``), not an empty body.
    """

    __slots__ = (
        "head_name",
        "head_terms",
        "body",
        "_hash",
        "_canonical_key",
        "_interned",
    )

    def __init__(
        self,
        head_name: str,
        head_terms: Iterable[Term],
        body: Iterable[Atom],
    ):
        if not head_name:
            raise QueryError("query head name must be non-empty")
        head = tuple(head_terms)
        atoms = tuple(body)
        if not atoms:
            raise QueryError(f"query {head_name!r} must have a non-empty body")
        body_vars = frozenset(
            t for atom in atoms for t in atom.terms if is_variable(t)
        )
        for t in head:
            if is_variable(t) and t not in body_vars:
                raise QueryError(
                    f"unsafe query {head_name!r}: head variable {t} "
                    "does not appear in the body"
                )
        self.head_name = head_name
        self.head_terms: Tuple[Term, ...] = head
        self.body: Tuple[Atom, ...] = atoms
        self._hash = hash((head_name, head, atoms))
        # Lazily filled by repro.core.canonical.canonical_key: the
        # renaming-invariant structural key is a function of the (frozen)
        # head and body alone, so it is computed at most once per object.
        self._canonical_key = None
        # Scratch slot for repro.server.interning.QueryInterner: the
        # (interner, qid) pair of the interner that last saw this object.
        self._interned = None

    # ------------------------------------------------------------------
    # Variable classification
    # ------------------------------------------------------------------
    def variables(self) -> FrozenSet[Variable]:
        """All distinct variables of the query (head and body)."""
        out = set()
        for atom in self.body:
            out.update(atom.variable_set())
        for t in self.head_terms:
            if is_variable(t):
                out.add(t)
        return frozenset(out)

    def distinguished_variables(self) -> FrozenSet[Variable]:
        """Variables that appear in the head (Section 2.3)."""
        return frozenset(t for t in self.head_terms if is_variable(t))

    def existential_variables(self) -> FrozenSet[Variable]:
        """Variables that appear only in the body."""
        return self.variables() - self.distinguished_variables()

    def is_boolean(self) -> bool:
        """``True`` iff the head has no arguments (a yes/no query)."""
        return not self.head_terms

    def is_single_atom(self) -> bool:
        """``True`` iff the body consists of exactly one atom."""
        return len(self.body) == 1

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def substitute(self, mapping: Dict[Variable, Term]) -> "ConjunctiveQuery":
        """Apply *mapping* to head and body simultaneously.

        The result must remain safe; a mapping that drops a head variable's
        body occurrences without touching the head raises
        :class:`~repro.errors.QueryError` via the constructor.
        """
        new_head = tuple(
            mapping.get(t, t) if is_variable(t) else t for t in self.head_terms
        )
        new_body = tuple(atom.substitute(mapping) for atom in self.body)
        return ConjunctiveQuery(self.head_name, new_head, new_body)

    def rename_apart(self, avoid: "frozenset[str] | set[str]") -> "ConjunctiveQuery":
        """Rename every variable to a fresh name not in *avoid*.

        Used before unification to guarantee the two inputs share no
        variables.
        """
        fresh = FreshVariableFactory(set(avoid) | {v.name for v in self.variables()})
        mapping: Dict[Variable, Term] = {v: fresh() for v in sorted_vars(self.variables())}
        return self.substitute(mapping)

    def with_body(self, body: Iterable[Atom]) -> "ConjunctiveQuery":
        """Return a copy of this query with a different body."""
        return ConjunctiveQuery(self.head_name, self.head_terms, body)

    def relations(self) -> FrozenSet[str]:
        """The set of relation names referenced by the body."""
        return frozenset(atom.relation for atom in self.body)

    def validate(self, schema: Schema) -> None:
        """Validate every body atom against *schema*."""
        for atom in self.body:
            atom.validate(schema)

    # ------------------------------------------------------------------
    # Tagged representation (Section 5)
    # ------------------------------------------------------------------
    def tagged_atoms(self) -> "tuple":
        """The body as a tuple of :class:`~repro.core.tagged.TaggedAtom`.

        This is the paper's modified representation: "we associate each
        query with a list of its body atoms and discard the head", keeping
        track of distinguished vs existential variables via tags.  Note
        that for a *multi-atom* query the tagged atoms share variable
        identity only through the original query; use
        :func:`repro.core.dissect.dissect` to obtain independent
        single-atom views.
        """
        from repro.core.tagged import TaggedAtom  # local import to avoid a cycle

        dist = self.distinguished_variables()
        return tuple(TaggedAtom.from_atom(atom, dist) for atom in self.body)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self.head_name == other.head_name
            and self.head_terms == other.head_terms
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (ConjunctiveQuery, (self.head_name, self.head_terms, self.body))

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self.head_name!r}, {list(self.head_terms)!r}, {list(self.body)!r})"

    def __str__(self) -> str:
        head = f"{self.head_name}({', '.join(str(t) for t in self.head_terms)})"
        body = " ∧ ".join(str(a) for a in self.body)
        return f"{head} :- {body}"


def sorted_vars(variables: Iterable[Variable]) -> "list[Variable]":
    """Sort variables by name for deterministic iteration order."""
    return sorted(variables, key=lambda v: v.name)


def make_query(
    head_name: str,
    head_vars: Iterable[str],
    body: Iterable[Tuple[str, Iterable[object]]],
) -> ConjunctiveQuery:
    """Convenience constructor from plain Python values.

    Strings in term positions become variables; any value wrapped in a
    one-element tuple, or any non-string value, becomes a constant::

        >>> q = make_query("Q", ["x"], [("Meetings", ["x", ("Cathy",)])])
        >>> str(q)
        "Q(x) :- Meetings(x, 'Cathy')"
    """
    def to_term(value: object) -> Term:
        if isinstance(value, (Variable, Constant)):
            return value
        if isinstance(value, tuple):
            if len(value) != 1:
                raise QueryError("constant wrapper must be a 1-tuple")
            return Constant(value[0])
        if isinstance(value, str):
            return Variable(value)
        return Constant(value)  # numbers, bools, None

    atoms = [Atom(rel, [to_term(t) for t in terms]) for rel, terms in body]
    head_terms = [to_term(v) for v in head_vars]
    return ConjunctiveQuery(head_name, head_terms, atoms)


def cross_rename(queries: Iterable[ConjunctiveQuery]) -> "list[ConjunctiveQuery]":
    """Rename a collection of queries pairwise apart from one another."""
    used: set = set()
    out = []
    for q in queries:
        if {v.name for v in q.variables()} & used:
            q = q.rename_apart(frozenset(used))
        used.update(v.name for v in q.variables())
        out.append(q)
    return out

