"""Compressed rewritability checks for the bit-vector labeler.

Section 6 motivates the bit-vector implementation: "we store disclosure
labels in a heavily compressed format that makes comparisons between
different disclosure labels very fast".  Computing an atom's ``ℓ+`` mask
requires one rewritability test per candidate security view, so the
compressed path pre-compiles each security view's *pattern* into integer
bitmasks and reduces every test to a few machine-word operations:

For a source view ``V'`` over an ``n``-ary relation, precompute

* ``const_checks`` — ``(position, constant)`` pairs of its selection;
* ``exist_classes`` — one bitmask per existential variable class;
* ``dist_classes`` — one bitmask per distinguished variable class.

For a dissected target atom, compute a one-pass :class:`AtomSignature`:
per-position term-class bitmasks (which positions hold the *same* term),
an existential-positions mask, and the constant at each position.  The
positional rewritability conditions of :mod:`repro.core.rewriting` then
become, per view class, a single mask comparison:

* constants:   the target holds the identical constant at each ``V'``
  constant position;
* existential: the lowest position ``i`` of the class ``K`` satisfies
  ``sig.class_mask[i] == K`` and ``i`` is existential in the target
  (occurrence classes match exactly);
* distinguished: the lowest position ``i`` of ``K`` satisfies
  ``K ⊆ sig.class_mask[i]`` (the target carries one term across the
  whole visible class — variable or constant).

The structural checker in :mod:`repro.core.rewriting` remains the
reference implementation; the property-based tests assert bit-for-bit
agreement between the two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.tagged import EXISTENTIAL, TaggedAtom, TaggedVar
from repro.core.terms import Constant


class AtomSignature:
    """One-pass compressed summary of a dissected target atom."""

    __slots__ = ("relation", "arity", "class_mask", "exist_mask", "constants")

    def __init__(self, atom: TaggedAtom):
        self.relation = atom.relation
        self.arity = atom.arity
        entries = atom.entries

        #: Bitmask of positions holding existential variables.
        exist_mask = 0
        #: Constant value at each position (None for variables).
        constants: List[Optional[Constant]] = [None] * self.arity

        # One pass: the mask of positions holding each term, keyed by
        # variable index or by the constant (an int never equals one).
        masks: Dict[object, int] = {}
        keys: List[object] = []
        for position, entry in enumerate(entries):
            bit = 1 << position
            if isinstance(entry, TaggedVar):
                key: object = entry.index
                if entry.tag == EXISTENTIAL:
                    exist_mask |= bit
            else:
                key = constants[position] = entry
            keys.append(key)
            masks[key] = masks.get(key, 0) | bit
        #: For each position, the bitmask of positions holding the same
        #: term (same variable, or equal constant).
        class_mask = [masks[key] for key in keys]

        self.class_mask = class_mask
        self.exist_mask = exist_mask
        self.constants = constants


class CompiledView:
    """A security view pre-compiled for fast rewritability testing."""

    __slots__ = (
        "view",
        "relation",
        "arity",
        "const_checks",
        "exist_classes",
        "dist_classes",
    )

    def __init__(self, view: TaggedAtom):
        self.view = view
        self.relation = view.relation
        self.arity = view.arity

        self.const_checks: Tuple[Tuple[int, Constant], ...] = tuple(
            view.constant_positions()
        )
        exist_classes: List[int] = []
        dist_classes: List[int] = []
        for positions in view.variable_classes().values():
            mask = 0
            for position in positions:
                mask |= 1 << position
            entry = view.entries[positions[0]]
            assert isinstance(entry, TaggedVar)
            if entry.tag == EXISTENTIAL:
                exist_classes.append(mask)
            else:
                dist_classes.append(mask)
        # Store (lowest position, mask) per class for one-probe checks.
        self.exist_classes: Tuple[Tuple[int, int], ...] = tuple(
            (_lowest_bit_index(m), m) for m in exist_classes
        )
        self.dist_classes: Tuple[Tuple[int, int], ...] = tuple(
            (_lowest_bit_index(m), m) for m in dist_classes
        )

    def matches(self, sig: AtomSignature) -> bool:
        """Is the signature's atom equivalently rewritable from this view?

        Assumes the caller already matched the relation name (the
        bit-vector labeler partitions views by relation).
        """
        if sig.arity != self.arity:
            return False
        constants = sig.constants
        for position, constant in self.const_checks:
            if constants[position] != constant:
                return False
        class_mask = sig.class_mask
        exist_mask = sig.exist_mask
        for probe, mask in self.exist_classes:
            # Exact class match on a hidden column, and the target's term
            # there is an existential variable.
            if class_mask[probe] != mask or not (exist_mask >> probe) & 1:
                return False
            if constants[probe] is not None:  # pragma: no cover - guarded above
                return False
        for probe, mask in self.dist_classes:
            # One term across the whole visible class.
            if (class_mask[probe] & mask) != mask:
                return False
        return True


def _lowest_bit_index(mask: int) -> int:
    assert mask
    return (mask & -mask).bit_length() - 1


def compile_views(
    views: Sequence[Tuple[int, TaggedAtom]]
) -> "list[tuple[int, CompiledView]]":
    """Compile ``(bit, view)`` pairs for a relation's security views."""
    return [(bit, CompiledView(view)) for bit, view in views]
