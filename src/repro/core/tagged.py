"""The tagged-atom representation of single-atom views (Section 5).

The paper labels queries using a modified representation in which a query
is a list of body atoms whose variables are *tagged* as distinguished
(``d``) or existential (``e``), and the head is discarded.  For example,
the query ``Q2(x) :- Meetings(x, y) ∧ Contacts(y, w, 'Intern')`` becomes::

    [M(x_d, y_e), C(y_e, w_e, 'Intern')]

A :class:`TaggedAtom` is one such atom in *normalized* form: variables are
renumbered ``0, 1, 2, ...`` in order of first occurrence, so two tagged
atoms are equal as Python values exactly when they are equivalent queries
(a single-atom conjunctive query is always minimal, and equivalence of
minimal queries is isomorphism; discarding head order is deliberate — the
paper treats ``V1(x,y) :- M(x,y)`` and ``V1'(y,x) :- M(x,y)`` as revealing
identical information).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.atoms import Atom
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.errors import QueryError

DISTINGUISHED = "d"
EXISTENTIAL = "e"


class TaggedVar:
    """A tagged variable slot in a normalized tagged atom.

    ``index`` is the variable's normalization index (0-based, in order of
    first occurrence); ``tag`` is ``"d"`` or ``"e"``.
    """

    __slots__ = ("tag", "index", "_hash")

    def __init__(self, tag: str, index: int):
        if tag not in (DISTINGUISHED, EXISTENTIAL):
            raise QueryError(f"invalid variable tag {tag!r}")
        self.tag = tag
        self.index = index
        self._hash = hash(("TaggedVar", tag, index))

    def __reduce__(self):
        return (TaggedVar, (self.tag, self.index))

    @property
    def is_distinguished(self) -> bool:
        return self.tag == DISTINGUISHED

    @property
    def is_existential(self) -> bool:
        return self.tag == EXISTENTIAL

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TaggedVar)
            and self.tag == other.tag
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TaggedVar({self.tag!r}, {self.index})"

    def __str__(self) -> str:
        return f"x{self.index}{self.tag}"


#: An entry of a tagged atom: a constant or a tagged variable.
Entry = Union[Constant, TaggedVar]

#: Interning table: tagged variables are tiny immutable value objects and
#: the labeling hot path creates millions, so share them.
_INTERNED: Dict[Tuple[str, int], TaggedVar] = {}


def interned_var(tag: str, index: int) -> TaggedVar:
    """A shared :class:`TaggedVar` instance for ``(tag, index)``."""
    key = (tag, index)
    cached = _INTERNED.get(key)
    if cached is None:
        cached = _INTERNED[key] = TaggedVar(tag, index)
    return cached


class TaggedAtom:
    """A normalized single-atom view in the Section 5 representation.

    Construct via :meth:`from_atom`, :meth:`from_query`, or
    :meth:`from_pattern`; the constructor itself expects entries that are
    already normalized and re-normalizes defensively.
    """

    __slots__ = ("relation", "entries", "_hash", "_classes")

    def __init__(self, relation: str, entries: Iterable[Entry]):
        if not relation:
            raise QueryError("tagged atom relation name must be non-empty")
        normalized = _normalize(tuple(entries))
        self.relation = relation
        self.entries: Tuple[Entry, ...] = normalized
        self._hash = hash((relation, normalized))
        self._classes: "Optional[Dict[int, Tuple[int, ...]]]" = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_atom(
        cls, atom: Atom, distinguished: AbstractSet[Variable]
    ) -> "TaggedAtom":
        """Tag *atom*'s variables using the set of *distinguished* variables.

        Variables are numbered in first-occurrence order, so the entry
        list is born normalized and the hot-path constructor below can
        skip re-normalization.
        """
        slots: Dict[Variable, TaggedVar] = {}
        entries: List[Entry] = []
        for term in atom.terms:
            if type(term) is Variable:
                entry = slots.get(term)
                if entry is None:
                    tag = DISTINGUISHED if term in distinguished else EXISTENTIAL
                    entry = slots[term] = interned_var(tag, len(slots))
                entries.append(entry)
            else:
                entries.append(term)
        return cls._prenormalized(atom.relation, tuple(entries))

    @classmethod
    def _prenormalized(cls, relation: str, entries: Tuple[Entry, ...]) -> "TaggedAtom":
        """Internal fast constructor for entries already in normal form."""
        self = object.__new__(cls)
        self.relation = relation
        self.entries = entries
        self._hash = hash((relation, entries))
        self._classes = None
        return self

    @classmethod
    def from_query(cls, query: ConjunctiveQuery) -> "TaggedAtom":
        """Convert a *single-atom* conjunctive query.

        Raises :class:`~repro.errors.QueryError` for multi-atom queries —
        those must go through :func:`repro.core.dissect.dissect` first.
        """
        if not query.is_single_atom():
            raise QueryError(
                f"TaggedAtom.from_query requires a single-atom query, got "
                f"{len(query.body)} atoms; dissect the query first"
            )
        return cls.from_atom(query.body[0], query.distinguished_variables())

    @classmethod
    def from_pattern(cls, relation: str, pattern: Iterable[object]) -> "TaggedAtom":
        """Build from a compact test-friendly pattern.

        Pattern items: ``"x:d"`` / ``"x:e"`` for tagged variables (shared
        names share the variable), or any other value for a constant::

            >>> str(TaggedAtom.from_pattern("M", ["x:d", "y:e"]))
            '[M(x0d, x1e)]'
        """
        indices: Dict[str, Tuple[int, str]] = {}
        entries: List[Entry] = []
        for item in pattern:
            if isinstance(item, str) and item.endswith((":d", ":e")):
                name, tag = item[:-2], item[-1]
                if name in indices:
                    idx, prev_tag = indices[name]
                    if prev_tag != tag:
                        raise QueryError(
                            f"variable {name!r} used with conflicting tags"
                        )
                else:
                    idx = len(indices)
                    indices[name] = (idx, tag)
                entries.append(TaggedVar(tag, idx))
            elif isinstance(item, Constant):
                entries.append(item)
            else:
                entries.append(Constant(item))
        return cls(relation, entries)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.entries)

    def is_boolean(self) -> bool:
        """``True`` iff no entry is distinguished (the view is yes/no)."""
        return not any(
            isinstance(e, TaggedVar) and e.is_distinguished for e in self.entries
        )

    def variable_classes(self) -> Dict[int, Tuple[int, ...]]:
        """Map variable index -> tuple of positions where it occurs.

        Computed once and cached (tagged atoms are immutable); the
        labeling hot loop calls this heavily.
        """
        if self._classes is None:
            classes: Dict[int, List[int]] = {}
            for pos, entry in enumerate(self.entries):
                if isinstance(entry, TaggedVar):
                    classes.setdefault(entry.index, []).append(pos)
            self._classes = {idx: tuple(ps) for idx, ps in classes.items()}
        return self._classes

    def distinguished_classes(self) -> "list[tuple[int, ...]]":
        """Position classes of distinguished variables, in index order.

        These correspond to the output columns of the view: a repeated
        distinguished variable is a single output column plus an equality
        selection.
        """
        out = []
        classes = self.variable_classes()
        for idx in sorted(classes):
            positions = classes[idx]
            entry = self.entries[positions[0]]
            if isinstance(entry, TaggedVar) and entry.is_distinguished:
                out.append(positions)
        return out

    def existential_classes(self) -> "list[tuple[int, ...]]":
        """Position classes of existential variables, in index order."""
        out = []
        classes = self.variable_classes()
        for idx in sorted(classes):
            positions = classes[idx]
            entry = self.entries[positions[0]]
            if isinstance(entry, TaggedVar) and entry.is_existential:
                out.append(positions)
        return out

    def constant_positions(self) -> "list[tuple[int, Constant]]":
        """All ``(position, constant)`` pairs, in position order."""
        return [
            (pos, entry)
            for pos, entry in enumerate(self.entries)
            if isinstance(entry, Constant)
        ]

    def tag_at(self, position: int) -> Optional[str]:
        """Tag of the variable at *position*, or ``None`` for a constant."""
        entry = self.entries[position]
        return entry.tag if isinstance(entry, TaggedVar) else None

    # ------------------------------------------------------------------
    # Conversion back to an ordered-head query
    # ------------------------------------------------------------------
    def to_query(self, head_name: str = "V") -> ConjunctiveQuery:
        """Materialize as a :class:`ConjunctiveQuery`.

        The head lists one variable per distinguished class, in normalized
        (first-occurrence) order; this is the canonical column order used
        by the storage layer when materializing security views.
        """
        var_for_index: Dict[int, Variable] = {}
        terms = []
        for entry in self.entries:
            if isinstance(entry, TaggedVar):
                var = var_for_index.setdefault(entry.index, Variable(f"x{entry.index}"))
                terms.append(var)
            else:
                terms.append(entry)
        head = [
            var_for_index[self.entries[positions[0]].index]
            for positions in self.distinguished_classes()
        ]
        return ConjunctiveQuery(head_name, head, [Atom(self.relation, terms)])

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TaggedAtom)
            and self.relation == other.relation
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (TaggedAtom._prenormalized, (self.relation, self.entries))

    def __repr__(self) -> str:
        return f"TaggedAtom({self.relation!r}, {list(self.entries)!r})"

    def __str__(self) -> str:
        inner = ", ".join(
            str(e) if isinstance(e, TaggedVar) else str(e) for e in self.entries
        )
        return f"[{self.relation}({inner})]"


def _normalize(entries: Tuple[Entry, ...]) -> Tuple[Entry, ...]:
    """Renumber variables by first occurrence, preserving tags.

    Also validates that a variable index is used with a single tag.
    """
    remap: Dict[int, int] = {}
    tags: Dict[int, str] = {}
    out: List[Entry] = []
    for entry in entries:
        if isinstance(entry, TaggedVar):
            if entry.index in tags and tags[entry.index] != entry.tag:
                raise QueryError(
                    f"variable index {entry.index} used with conflicting tags"
                )
            tags[entry.index] = entry.tag
            new_index = remap.setdefault(entry.index, len(remap))
            out.append(TaggedVar(entry.tag, new_index))
        elif isinstance(entry, Constant):
            out.append(entry)
        else:
            raise QueryError(
                f"tagged atom entry must be Constant or TaggedVar, got "
                f"{type(entry).__name__}"
            )
    return tuple(out)
