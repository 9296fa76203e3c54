"""Whole-atom rewritability checks for the bit-vector labeler.

Section 6 motivates the bit-vector implementation: "we store disclosure
labels in a heavily compressed format that makes comparisons between
different disclosure labels very fast".  Computing an atom's ``ℓ+`` mask
requires one rewritability test per candidate security view, so the
compressed path works on whole-atom bitsets rather than per position.

A dissected atom arrives as the term codes of its canonical key
(:func:`repro.core.canonical.canonical_key`: a variable is an ``int``, a
constant is its :func:`~repro.core.canonical.constant_code`) plus the set of *promoted* codes — the
head and join variables that dissection tags distinguished.  :func:`sign`
reads it once into

* ``masks`` — term code → bitmask of the positions holding that term;
* ``once`` — the positions holding an existential variable that occurs
  nowhere else in the atom;
* ``hidden`` — the positions holding any existential variable.

When the caller knows that no term of the atom occupies two positions
(the labeler learns it from its promotion walk, for free), ``sign``
builds no ``masks`` (``None``) and ``once`` is ``hidden``: every class
of such an atom is a single position, so a view's multi-position class
cannot match it.  :func:`dissected_form` is the atom's tagged form as a
tuple, which the labeler builds only to dedupe atoms that pack alike.

Each security view ``V'`` over an ``n``-ary relation is precompiled
(:class:`CompiledView`) to its arity, its ``(position, constant code)``
checks, one mask of its single-position existential classes, and only its
multi-position classes — a single-position distinguished class always
matches.  The positional rewritability conditions of
:mod:`repro.core.rewriting` then become:

* arity: equal;
* existential, single position: ``single & ~once == 0`` — one AND-NOT
  for all of them;
* constants: the target holds the identical constant at each ``V'``
  constant position;
* existential, several positions ``K``: the target's term at the lowest
  position of ``K`` occupies exactly ``K`` and is existential;
* distinguished, several positions ``K``: that term covers ``K`` (one
  term, variable or constant, across the whole visible class).

The structural checker in :mod:`repro.core.rewriting` remains the
reference implementation; the tests assert bit-for-bit agreement between
the two: a hypothesis property, every pair of ternary tagged atoms, and
every dissected atom of the perf ledger's shapes against every Facebook
view of its relation.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Optional, Set, Tuple

from repro.core.canonical import constant_code
from repro.core.tagged import EXISTENTIAL, TaggedAtom, TaggedVar

#: A signed atom: ``(codes, masks, once, hidden)`` — exactly what
#: :meth:`CompiledView.matches` reads.  *masks* is ``None`` when no term
#: occupies two positions.
Signature = Tuple[tuple, Optional[Dict[object, int]], int, int]

#: ``_BITS[i]`` is the mask of position ``i``.
_BITS = tuple(1 << position for position in range(64))


def sign(
    codes: tuple, promoted: AbstractSet[object], repeats: bool = True
) -> Signature:
    """Sign the atom with term *codes*; *promoted* codes are distinguished.

    ``repeats=False`` is the caller's promise that no term occupies two
    positions: then ``once`` is ``hidden`` and no ``masks`` are built.
    """
    if not repeats and len(codes) <= len(_BITS):
        hidden = 0
        for bit, code in zip(_BITS, codes):
            if code.__class__ is int and code not in promoted:
                hidden |= bit
        return codes, None, hidden, hidden
    masks = _position_masks(codes)
    once = hidden = 0
    for code, mask in masks.items():
        if code.__class__ is int and code not in promoted:
            hidden |= mask
            if not mask & (mask - 1):
                once |= mask
    return codes, masks, once, hidden


def dissected_form(
    codes: tuple, promoted: AbstractSet[object], repeats: bool = True
) -> tuple:
    """Equal for two atoms of one relation iff they dissect to equal
    tagged atoms.

    Per term in first-occurrence order: its positions, and either its
    constant code or whether it is promoted.  ``repeats=False`` is
    :func:`sign`'s promise; the form is then one entry per position.
    """
    if not repeats:
        return tuple(
            code in promoted if code.__class__ is int else code for code in codes
        )
    return tuple(
        (mask, code in promoted if code.__class__ is int else code)
        for code, mask in _position_masks(codes).items()
    )


def _position_masks(codes: tuple) -> Dict[object, int]:
    """Term code → bitmask of the positions holding it."""
    masks: Dict[object, int] = {}
    get = masks.get
    bit = 1
    for code in codes:
        masks[code] = get(code, 0) | bit
        bit <<= 1
    return masks


def tagged_codes(atom: TaggedAtom) -> Tuple[tuple, Set[int]]:
    """:func:`sign`'s arguments for a tagged atom: its entries as term
    codes (variable indices for variables) and its distinguished ones."""
    codes = tuple(
        entry.index if isinstance(entry, TaggedVar) else constant_code(entry)
        for entry in atom.entries
    )
    promoted = {
        entry.index
        for entry in atom.entries
        if isinstance(entry, TaggedVar) and entry.tag != EXISTENTIAL
    }
    return codes, promoted


class CompiledView:
    """A security view pre-compiled for whole-atom rewritability tests."""

    __slots__ = ("arity", "constants", "single", "hidden_classes", "visible_classes")

    def __init__(self, view: TaggedAtom):
        self.arity = view.arity
        self.constants: Tuple[Tuple[int, tuple], ...] = tuple(
            (position, constant_code(constant))
            for position, constant in view.constant_positions()
        )
        single = 0
        hidden_classes = []
        visible_classes = []
        for positions in view.variable_classes().values():
            mask = 0
            for position in positions:
                mask |= 1 << position
            entry = view.entries[positions[0]]
            assert isinstance(entry, TaggedVar)
            if entry.tag == EXISTENTIAL:
                if len(positions) == 1:
                    single |= mask
                else:
                    hidden_classes.append((positions[0], mask))
            elif len(positions) > 1:
                visible_classes.append((positions[0], mask))
        #: Positions of the view's single-position existential classes.
        self.single = single
        #: ``(lowest position, mask)`` of each multi-position class.
        self.hidden_classes: Tuple[Tuple[int, int], ...] = tuple(hidden_classes)
        self.visible_classes: Tuple[Tuple[int, int], ...] = tuple(visible_classes)

    def matches(
        self,
        codes: tuple,
        masks: Optional[Dict[object, int]],
        once: int,
        hidden: int,
    ) -> bool:
        """Is the signed atom (:func:`sign`'s four fields) equivalently
        rewritable from this view?

        Assumes the caller already matched the relation name (the
        bit-vector labeler partitions views by relation).
        """
        if len(codes) != self.arity or self.single & ~once:
            return False
        for position, code in self.constants:
            if codes[position] != code:
                return False
        if masks is None:
            # One position per term: no class of the atom covers a
            # multi-position class of the view.
            return not (self.hidden_classes or self.visible_classes)
        for position, mask in self.hidden_classes:
            if masks[codes[position]] != mask or not (hidden >> position) & 1:
                return False
        for position, mask in self.visible_classes:
            if masks[codes[position]] & mask != mask:
                return False
        return True
