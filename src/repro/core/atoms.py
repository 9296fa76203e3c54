"""Relational atoms: a relation name applied to a tuple of terms.

An atom such as ``Meetings(x, 'Cathy')`` is the building block of both
query bodies and query heads.  Atoms are immutable and hashable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from repro.core.schema import Schema
from repro.core.terms import Constant, Term, Variable, is_variable
from repro.errors import QueryError, SchemaError


class Atom:
    """An application of a relation symbol to terms.

    Parameters
    ----------
    relation:
        Relation name (a string — the schema object is kept separate so
        atoms can be constructed before a schema exists, e.g. in tests).
    terms:
        The argument terms, a mix of :class:`Variable` and
        :class:`Constant`.
    """

    __slots__ = ("relation", "terms", "_hash", "_varset")

    def __init__(self, relation: str, terms: Iterable[Term]):
        if not relation:
            raise QueryError("atom relation name must be non-empty")
        tms = tuple(terms)
        for t in tms:
            if not isinstance(t, (Variable, Constant)):
                raise QueryError(
                    f"atom term must be Variable or Constant, got {type(t).__name__}"
                )
        self.relation = relation
        self.terms: Tuple[Term, ...] = tms
        self._hash = hash((relation, tms))
        self._varset: "frozenset[Variable] | None" = None

    @property
    def arity(self) -> int:
        """Number of argument terms."""
        return len(self.terms)

    def variables(self) -> "tuple[Variable, ...]":
        """All variable occurrences, in positional order (with repeats)."""
        return tuple(t for t in self.terms if is_variable(t))

    def variable_set(self) -> "frozenset[Variable]":
        """The set of distinct variables in this atom (cached)."""
        if self._varset is None:
            self._varset = frozenset(t for t in self.terms if is_variable(t))
        return self._varset

    def constants(self) -> "frozenset[Constant]":
        """The set of distinct constants in this atom."""
        return frozenset(t for t in self.terms if isinstance(t, Constant))

    def substitute(self, mapping: Dict[Variable, Term]) -> "Atom":
        """Return a copy with each variable replaced per *mapping*.

        Variables absent from *mapping* are left unchanged.
        """
        return Atom(
            self.relation,
            tuple(mapping.get(t, t) if is_variable(t) else t for t in self.terms),
        )

    def positions_of(self, term: Term) -> "tuple[int, ...]":
        """Return all positions at which *term* occurs."""
        return tuple(i for i, t in enumerate(self.terms) if t == term)

    def validate(self, schema: Schema) -> None:
        """Check relation existence and arity against *schema*.

        Raises :class:`~repro.errors.SchemaError` on mismatch.
        """
        rel = schema.relation(self.relation)
        if rel.arity != self.arity:
            raise SchemaError(
                f"atom {self} has arity {self.arity} but relation "
                f"{rel.name!r} has arity {rel.arity}"
            )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Atom)
            and self.relation == other.relation
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Atom, (self.relation, self.terms))

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {list(self.terms)!r})"

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(t) for t in self.terms)})"
