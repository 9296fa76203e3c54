"""Terms of conjunctive queries: variables and constants.

The paper (Section 2.3) works with conjunctive queries whose atoms contain
*variables* (``x``, ``y``, ``z``) and *constants* (``a``, ``b``, ``'Cathy'``,
``9``).  A variable is *distinguished* if it appears in the head of its
query and *existential* otherwise.  Following Section 5, distinguished-ness
is a property of a variable's role *within a query*, so it is not stored on
the :class:`Variable` itself; queries carry the set of distinguished
variables (see :mod:`repro.core.queries`).

Both term classes are immutable and hashable so they can be used freely in
sets, dict keys, and frozen query representations.
"""

from __future__ import annotations

from typing import Union


class Variable:
    """A named logic variable.

    Two variables are equal iff their names are equal.  Names are arbitrary
    non-empty strings; the parser produces identifier-like names but nothing
    in the engine depends on that.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError("variable name must be a non-empty string")
        self.name = name
        self._hash = hash(("Variable", name))

    def __reduce__(self):
        # Through the constructor: string hashes are seeded per process,
        # so a cached hash must never cross a pickle.
        return (Variable, (self.name,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Constant:
    """A constant value appearing in a query atom.

    Values may be strings, integers, floats, booleans, or ``None`` — the
    types storable in SQLite.  Two constants are equal iff their values are
    equal *and* of the same type, so ``Constant(1)`` differs from
    ``Constant('1')`` and from ``Constant(True)``.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Union[str, int, float, bool, None]):
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise ValueError(f"unsupported constant type: {type(value).__name__}")
        self.value = value
        self._hash = hash(("Constant", type(value).__name__, value))

    def __reduce__(self):
        return (Constant, (self.value,))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constant)
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


#: A term is either a variable or a constant.
Term = Union[Variable, Constant]


def is_variable(term: object) -> bool:
    """Return ``True`` iff *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: object) -> bool:
    """Return ``True`` iff *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


class FreshVariableFactory:
    """Generates variables guaranteed not to clash with a set of used names.

    Used by unification, dissection, and rewriting expansion, which all
    need fresh existential variables.

    >>> fresh = FreshVariableFactory({"x", "y"})
    >>> fresh().name
    '_v0'
    >>> fresh().name
    '_v1'
    """

    def __init__(self, used_names: "set[str] | frozenset[str]" = frozenset()):
        self._used = set(used_names)
        self._counter = 0

    def __call__(self, hint: str = "_v") -> Variable:
        """Return a new variable whose name starts with *hint*."""
        while True:
            name = f"{hint}{self._counter}"
            self._counter += 1
            if name not in self._used:
                self._used.add(name)
                return Variable(name)

    def reserve(self, name: str) -> None:
        """Mark *name* as used so it will never be generated."""
        self._used.add(name)
