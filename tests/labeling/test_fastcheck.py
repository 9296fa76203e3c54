"""The whole-atom matcher against the structural checker, exhaustively.

Every pair of normalized ternary tagged atoms is checked, and every dissected atom of the perf ledger's 256 shapes per
``max_subqueries`` (1–4, ``POPULATION_SEED`` 0) is tested against every
Facebook security view over its relation — the 34-column ``User`` views
included — and :meth:`CompiledView.matches` must answer exactly as
:func:`repro.core.rewriting.is_rewritable`.
"""

from itertools import product

import pytest

from repro.core.dissect import dissect
from repro.core.rewriting import is_rewritable
from repro.core.tagged import TaggedAtom
from repro.facebook.permissions import facebook_security_views
from repro.facebook.workload import WorkloadGenerator
from repro.labeling.fastcheck import CompiledView, dissected_form, sign, tagged_codes


@pytest.fixture(scope="module")
def compiled():
    views = facebook_security_views()
    return {
        relation: [
            (view, CompiledView(view))
            for _, view in views.for_relation(relation)
        ]
        for relation in views.relations()
    }


@pytest.mark.parametrize("max_subqueries", (1, 2, 3, 4))
def test_matches_equals_is_rewritable_on_ledger_shapes(compiled, max_subqueries):
    atoms = set()
    for query in WorkloadGenerator(max_subqueries=max_subqueries, seed=0).stream(256):
        atoms.update(dissect(query))
    checked = hits = 0
    for atom in atoms:
        codes, promoted = tagged_codes(atom)
        signatures = [sign(codes, promoted)]
        if len(set(codes)) == len(codes):
            signatures.append(sign(codes, promoted, False))
        for view, compiled_view in compiled[atom.relation]:
            expected = is_rewritable(atom, view)
            for signature in signatures:
                assert compiled_view.matches(*signature) == expected, (atom, view)
            checked += 1
            hits += expected
    assert 0 < hits < checked
    assert any(atom.relation == "User" for atom in atoms)


def _all_atoms(relation, arity):
    """Every normalized tagged atom of *arity* over two constants and
    three variables of either tag."""
    items = [0, 1] + [f"{v}:{t}" for v in "xyz" for t in "de"]
    out = set()
    for pattern in product(items, repeat=arity):
        tags = {}
        if all(
            tags.setdefault(item[0], item[-1]) == item[-1]
            for item in pattern
            if isinstance(item, str)
        ):
            out.add(TaggedAtom.from_pattern(relation, list(pattern)))
    return sorted(out, key=str)


def test_matches_equals_is_rewritable_on_every_ternary_pair():
    """Repeated variables, constants and both tags, every combination."""
    atoms = _all_atoms("S", 3)
    signed = []
    for target in atoms:
        codes, promoted = tagged_codes(target)
        signatures = [sign(codes, promoted)]
        if len(set(codes)) == len(codes):
            signatures.append(sign(codes, promoted, False))
        signed.append((target, signatures))
    for view in atoms:
        compiled_view = CompiledView(view)
        for target, signatures in signed:
            expected = is_rewritable(target, view)
            for signature in signatures:
                assert compiled_view.matches(*signature) == expected, (target, view)


def test_dissected_form_tells_ternary_atoms_apart_up_to_renaming():
    """Equal forms iff equal tagged atoms: distinct normalized atoms get
    distinct forms, and renaming the variables changes no form — on the
    mask path and, for atoms that repeat no term, the per-position one."""
    forms = {}
    for atom in _all_atoms("S", 3):
        codes, promoted = tagged_codes(atom)
        renamed = tuple(c + 7 if isinstance(c, int) else c for c in codes)
        moved = {c + 7 for c in promoted}
        flat = len(set(codes)) == len(codes)
        for repeats in (True, False) if flat else (True,):
            form = dissected_form(codes, promoted, repeats)
            assert dissected_form(renamed, moved, repeats) == form, atom
            assert forms.setdefault((repeats, form), atom) == atom
