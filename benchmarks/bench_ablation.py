"""Ablation benchmarks for the design choices ``docs/architecture.md`` calls out.

Not figures from the paper — these isolate the contribution of each
implementation decision in *our* system:

1. **whole-atom bitset matching** (``labeling/fastcheck.py``: sign the
   atom once, then one compiled test per view) vs the structural
   rewritability checker, for ℓ+ mask computation;
2. **folding pre-checks** (``core/minimize.py``): the brute-force
   search, the pin fixpoint on the Term body before each search, and
   the same fixpoint on the canonical key's codes that the bit-vector
   labeler runs (the Term search only when it leaves an atom free);
3. **GLB antichain pruning** (``labeling/glb.py``): maximal-antichain
   reduction of pairwise GenMGU results vs keeping raw unions.

Run with::

    pytest benchmarks/bench_ablation.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.core.canonical import canonical_key
from repro.core.dissect import dissect
from repro.core.minimize import fold, pin_fixpoint
from repro.core.rewriting import is_rewritable
from repro.facebook.workload import WorkloadGenerator
from repro.labeling.fastcheck import CompiledView, sign, tagged_codes

BATCH = 150


@pytest.fixture(scope="module")
def atoms(schema):
    generator = WorkloadGenerator(schema, max_subqueries=2, seed=42)
    out = []
    for query in generator.stream(BATCH):
        out.extend(dissect(query))
    return out


@pytest.fixture(scope="module")
def user_views(security_views):
    return [security_views.view(name) for name, _ in
            security_views.for_relation("User")]


class TestRewritabilityCheckAblation:
    def test_structural_checker(self, benchmark, atoms, security_views):
        views = {
            rel: [v for _, v in security_views.for_relation(rel)]
            for rel in security_views.relations()
        }

        def run():
            hits = 0
            for atom in atoms:
                for view in views.get(atom.relation, ()):
                    if is_rewritable(atom, view):
                        hits += 1
            return hits

        result = benchmark(run)
        benchmark.extra_info["ablation"] = "structural is_rewritable"
        benchmark.extra_info["hits"] = result

    def test_compiled_checker(self, benchmark, atoms, security_views):
        compiled = {
            rel: [CompiledView(v) for _, v in security_views.for_relation(rel)]
            for rel in security_views.relations()
        }
        # The labeler signs canonical-key codes; build the equivalent
        # codes once, outside the timed loop.
        coded = [(atom.relation, *tagged_codes(atom)) for atom in atoms]

        def run():
            hits = 0
            for relation, codes, promoted in coded:
                signature = sign(codes, promoted)
                for view in compiled.get(relation, ()):
                    if view.matches(*signature):
                        hits += 1
            return hits

        result = benchmark(run)
        benchmark.extra_info["ablation"] = "whole-atom sign and match"
        benchmark.extra_info["hits"] = result

    def test_both_agree(self, atoms, security_views):
        """The ablation is fair: both checkers count identical hits."""
        for atom in atoms:
            signature = sign(*tagged_codes(atom))
            for _, view in security_views.for_relation(atom.relation):
                assert CompiledView(view).matches(*signature) == is_rewritable(
                    atom, view
                ), (atom, view)


def fold_by_key(query):
    """The labeler's fold: pin on the key's codes, search only if needed."""
    head, atoms = canonical_key(query)
    if pin_fixpoint(atoms, set(head), int):
        return fold(query)
    return query


FOLD_ARMS = {
    "brute-force": lambda query: fold(query, prechecks=False),
    "term-pin": fold,
    "key-pin": fold_by_key,
}


class TestFoldPrecheckAblation:
    @pytest.fixture(scope="class")
    def queries(self, schema):
        return list(
            WorkloadGenerator(schema, max_subqueries=4, seed=9).stream(BATCH)
        )

    @pytest.mark.parametrize("arm", sorted(FOLD_ARMS))
    def test_fold(self, benchmark, queries, arm):
        fold_arm = FOLD_ARMS[arm]

        def run():
            for query in queries:
                fold_arm(query)

        benchmark(run)
        benchmark.extra_info["ablation"] = f"fold {arm}"

    def test_prechecks_preserve_results(self, queries):
        for query in queries:
            expected = fold(query, prechecks=False)
            for arm, fold_arm in FOLD_ARMS.items():
                assert fold_arm(query) == expected, (arm, query)


class TestGlbPruneAblation:
    def test_pruned_glb_sets_stay_small(self, user_views):
        """Antichain pruning keeps GLB results at most the input size."""
        from repro.labeling.glb import glb_view_sets

        for i, a in enumerate(user_views):
            for b in user_views[i + 1 :]:
                merged = glb_view_sets([a], [b])
                assert len(merged) <= 1  # singletons meet in ≤ 1 view

    def test_glb_many_on_full_vocabulary(self, benchmark, user_views):
        from repro.labeling.glb import glb_many

        def run():
            return glb_many([[v] for v in user_views])

        result = benchmark(run)
        benchmark.extra_info["ablation"] = "glb_many over 16 User views"
        assert isinstance(result, frozenset)
