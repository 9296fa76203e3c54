"""Property-based tests (hypothesis) for the core invariants of the paper.

Each property is one of the paper's formal claims, checked on randomized
inputs:

* GenMGU computes a *greatest* lower bound (Section 5.1);
* ``⇓GLB(W1, W2) = ⇓W1 ∩ ⇓W2`` (Theorem 3.3b);
* rewriting is semantically sound: if ``{V} ⪯ {V'}`` then ``V``'s answer
  is computable from ``V'``'s answer alone, on any database;
* containment mappings are semantically sound (Chandra–Merlin);
* folding preserves query equivalence;
* the bit-vector labeler's whole-atom matcher equals the structural
  rewritability checker, and its labels decode to the reference
  labeler's (Section 6.1);
* the ``ℓ+`` superset rule equals the disclosure comparison, in both the
  symbolic and the packed-integer representations (Section 6.1);
* the stateless and cumulative monitors agree for one partition
  (Section 6.2);
* SQLite execution agrees with the reference evaluator.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.atoms import Atom
from repro.core.homomorphism import are_equivalent, is_contained_in
from repro.core.minimize import fold
from repro.core.queries import ConjunctiveQuery
from repro.core.rewriting import is_rewritable, rewrite_plan
from repro.core.schema import Relation, Schema
from repro.core.tagged import TaggedAtom
from repro.core.terms import Constant, Variable
from repro.core.unification import gen_mgu
from repro.storage.evaluator import evaluate_query, evaluate_view

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

RELATIONS = {"R": 2, "S": 3}
VALUES = [0, 1, 2]

SCHEMA = Schema([
    Relation("R", ["a", "b"]),
    Relation("S", ["a", "b", "c"]),
])


@st.composite
def tagged_atoms(draw, relation: "str | None" = None):
    """A random normalized tagged atom over R/2 or S/3."""
    name = relation or draw(st.sampled_from(sorted(RELATIONS)))
    arity = RELATIONS[name]
    pattern = []
    for _ in range(arity):
        kind = draw(st.sampled_from(["const", "var"]))
        if kind == "const":
            pattern.append(draw(st.sampled_from(VALUES)))
        else:
            var = draw(st.sampled_from(["x", "y", "z"]))
            tag = draw(st.sampled_from(["d", "e"]))
            pattern.append(f"{var}:{tag}")
    # repair tag conflicts: force a variable's tag to its first occurrence
    seen = {}
    repaired = []
    for item in pattern:
        if isinstance(item, str) and item.endswith((":d", ":e")):
            var, tag = item[:-2], item[-1]
            tag = seen.setdefault(var, tag)
            repaired.append(f"{var}:{tag}")
        else:
            repaired.append(item)
    return TaggedAtom.from_pattern(name, repaired)


@st.composite
def instances(draw):
    """A small random instance of the R/S schema."""
    out = {}
    for name, arity in RELATIONS.items():
        rows = draw(
            st.frozensets(
                st.tuples(*[st.sampled_from(VALUES) for _ in range(arity)]),
                max_size=8,
            )
        )
        out[name] = rows
    return out


@st.composite
def conjunctive_queries(draw):
    """A random small conjunctive query over R/2 and S/3."""
    n_atoms = draw(st.integers(1, 3))
    variables = [Variable(n) for n in ("x", "y", "z", "w")]
    body = []
    for _ in range(n_atoms):
        name = draw(st.sampled_from(sorted(RELATIONS)))
        terms = [
            draw(
                st.one_of(
                    st.sampled_from(variables),
                    st.sampled_from([Constant(v) for v in VALUES]),
                )
            )
            for _ in range(RELATIONS[name])
        ]
        body.append(Atom(name, terms))
    body_vars = sorted(
        {t for atom in body for t in atom.variable_set()},
        key=lambda v: v.name,
    )
    if body_vars:
        head = draw(st.lists(st.sampled_from(body_vars), max_size=3, unique=True))
    else:
        head = []
    return ConjunctiveQuery("Q", head, body)


# ----------------------------------------------------------------------
# GenMGU / GLB properties (Section 5.1, Theorem 3.3)
# ----------------------------------------------------------------------

class TestGenMguProperties:
    @given(tagged_atoms(), tagged_atoms())
    @settings(max_examples=150, deadline=None)
    def test_commutative(self, a, b):
        assert gen_mgu(a, b) == gen_mgu(b, a)

    @given(tagged_atoms())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, a):
        assert gen_mgu(a, a) == a

    @given(tagged_atoms("R"), tagged_atoms("R"))
    @settings(max_examples=150, deadline=None)
    def test_is_lower_bound(self, a, b):
        glb = gen_mgu(a, b)
        if glb is not None:
            assert is_rewritable(glb, a)
            assert is_rewritable(glb, b)

    @given(tagged_atoms("R"), tagged_atoms("R"), tagged_atoms("R"))
    @settings(max_examples=200, deadline=None)
    def test_is_greatest(self, a, b, c):
        """Any common lower bound c is below GLB(a, b); in particular a
        common lower bound existing implies the GLB is not ⊥."""
        if is_rewritable(c, a) and is_rewritable(c, b):
            glb = gen_mgu(a, b)
            assert glb is not None, (a, b, c)
            assert is_rewritable(c, glb), (a, b, c, glb)

    @given(tagged_atoms("S"), tagged_atoms("S"), tagged_atoms("S"))
    @settings(max_examples=200, deadline=None)
    def test_down_set_identity(self, a, b, probe):
        """⇓GLB(a,b) = ⇓a ∩ ⇓b, sampled via random probe views."""
        glb = gen_mgu(a, b)
        in_both = is_rewritable(probe, a) and is_rewritable(probe, b)
        in_glb = glb is not None and is_rewritable(probe, glb)
        assert in_both == in_glb


# ----------------------------------------------------------------------
# Rewriting: order properties and semantic soundness
# ----------------------------------------------------------------------

class TestRewritingProperties:
    @given(tagged_atoms())
    @settings(max_examples=100, deadline=None)
    def test_reflexive(self, a):
        assert is_rewritable(a, a)

    @given(tagged_atoms("R"), tagged_atoms("R"), tagged_atoms("R"))
    @settings(max_examples=200, deadline=None)
    def test_transitive(self, a, b, c):
        if is_rewritable(a, b) and is_rewritable(b, c):
            assert is_rewritable(a, c)

    @given(tagged_atoms(), tagged_atoms(), instances())
    @settings(max_examples=200, deadline=None)
    def test_semantic_soundness(self, target, source, instance):
        """If {target} ⪯ {source}, the plan computes target's true answer
        from source's answer alone — on every database."""
        plan = rewrite_plan(target, source)
        if plan is None:
            return
        source_answer = evaluate_view(source, instance)
        target_answer = evaluate_view(target, instance)
        assert plan.evaluate(source_answer) == target_answer

    @given(
        st.sampled_from(sorted(RELATIONS)).flatmap(
            lambda name: st.tuples(tagged_atoms(name), tagged_atoms(name))
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_compiled_matcher_equals_structural(self, pair):
        """``CompiledView.matches`` is ``is_rewritable``, bit for bit —
        over repeated variables, constants and both tags, and on the
        mask-free signature of an atom that repeats no term."""
        from repro.labeling.fastcheck import CompiledView, sign, tagged_codes

        target, view = pair
        codes, promoted = tagged_codes(target)
        expected = is_rewritable(target, view)
        compiled = CompiledView(view)
        assert compiled.matches(*sign(codes, promoted)) == expected
        if len(set(codes)) == len(codes):
            assert compiled.matches(*sign(codes, promoted, False)) == expected

    @given(tagged_atoms("R"), tagged_atoms("R"))
    @settings(max_examples=150, deadline=None)
    def test_antisymmetry_on_normal_forms(self, a, b):
        """Normalization makes equivalence literal equality: mutual
        rewritability of distinct normalized atoms cannot happen."""
        if is_rewritable(a, b) and is_rewritable(b, a):
            assert a == b


# ----------------------------------------------------------------------
# Containment / folding semantics (Chandra–Merlin)
# ----------------------------------------------------------------------

class TestContainmentSemantics:
    @given(conjunctive_queries(), conjunctive_queries(), instances())
    @settings(max_examples=150, deadline=None)
    def test_containment_sound(self, q1, q2, instance):
        if len(q1.head_terms) != len(q2.head_terms):
            return
        if is_contained_in(q1, q2):
            assert evaluate_query(q1, instance) <= evaluate_query(q2, instance)

    @given(conjunctive_queries(), instances())
    @settings(max_examples=150, deadline=None)
    def test_fold_preserves_answers(self, query, instance):
        folded = fold(query)
        assert are_equivalent(folded, query)
        assert evaluate_query(folded, instance) == evaluate_query(query, instance)

    @given(conjunctive_queries())
    @settings(max_examples=100, deadline=None)
    def test_fold_idempotent(self, query):
        folded = fold(query)
        assert len(fold(folded).body) == len(folded.body)


# ----------------------------------------------------------------------
# Label representation (Section 6.1)
# ----------------------------------------------------------------------

class TestLabelRepresentationProperties:
    from repro.labeling.cq_labeler import SecurityViews

    VIEW_POOL = [
        TaggedAtom.from_pattern("R", ["x:d", "y:d"]),
        TaggedAtom.from_pattern("R", ["x:d", "y:e"]),
        TaggedAtom.from_pattern("R", ["x:e", "y:d"]),
        TaggedAtom.from_pattern("S", ["x:d", "y:d", "z:d"]),
        TaggedAtom.from_pattern("S", ["x:d", "y:d", "z:e"]),
        TaggedAtom.from_pattern("S", ["x:d", "y:e", "z:e"]),
        TaggedAtom.from_pattern("S", ["x:e", "y:e", "z:d"]),
    ]

    def setup_method(self):
        from repro.labeling.bitvector import BitVectorRegistry
        from repro.labeling.cq_labeler import ConjunctiveQueryLabeler, SecurityViews

        self.views = SecurityViews(
            {f"v{i}": v for i, v in enumerate(self.VIEW_POOL)}
        )
        self.labeler = ConjunctiveQueryLabeler(self.views)
        self.registry = BitVectorRegistry(self.views)

    @given(tagged_atoms(), tagged_atoms())
    @settings(max_examples=200, deadline=None)
    def test_packed_equals_symbolic(self, a, b):
        """The packed-int comparison equals the ℓ+ superset comparison."""
        symbolic = self.labeler.label(a).leq(self.labeler.label(b))
        packed = self.registry.leq(
            self.registry.pack_label([a]), self.registry.pack_label([b])
        )
        assert symbolic == packed

    @given(tagged_atoms(), tagged_atoms())
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b):
        """Labeler axiom (d) on single atoms: a ⪯ b → ℓ(a) ⪯ ℓ(b)."""
        if is_rewritable(a, b):
            assert self.labeler.label(a).leq(self.labeler.label(b))

    @given(conjunctive_queries())
    @settings(max_examples=300, deadline=None)
    def test_bitvector_labeler_equals_reference(self, query):
        """Labeling from the canonical key (promotion and dedupe on term
        codes) decodes to the determiners of the dissect-based labeler."""
        from repro.labeling.pipeline import BitVectorLabeler

        bits = BitVectorLabeler(self.views)
        expected = tuple(
            sorted((a.determiners for a in self.labeler.label(query)), key=sorted)
        )
        assert bits.decode(bits.label_query(query)) == expected

    @given(tagged_atoms())
    @settings(max_examples=100, deadline=None)
    def test_never_underestimates(self, a):
        """Labeler axiom (c): every determiner really determines the atom."""
        label = self.labeler.label(a)
        for name in label.atoms[0].determiners:
            assert is_rewritable(a, self.views.view(name))


# ----------------------------------------------------------------------
# Monitor equivalence (Section 6.2)
# ----------------------------------------------------------------------

class TestMonitorProperties:
    @given(
        st.lists(tagged_atoms(), min_size=1, max_size=10),
        st.sets(st.integers(0, 6), min_size=1, max_size=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_stateless_equals_cumulative_single_partition(
        self, stream, grant_indices
    ):
        from repro.labeling.cq_labeler import ConjunctiveQueryLabeler, SecurityViews
        from repro.policy.monitor import ReferenceMonitor
        from repro.policy.policy import PartitionPolicy

        pool = TestLabelRepresentationProperties.VIEW_POOL
        views = SecurityViews({f"v{i}": v for i, v in enumerate(pool)})
        grant = [f"v{i}" for i in grant_indices]
        policy = PartitionPolicy([grant], views)
        labeler = ConjunctiveQueryLabeler(views)
        monitor = ReferenceMonitor(labeler, policy)

        for atom in stream:
            stateless = policy.permits_fresh(labeler.label(atom))
            cumulative = monitor.submit(atom).accepted
            assert stateless == cumulative


# ----------------------------------------------------------------------
# SQLite agreement
# ----------------------------------------------------------------------

class TestSqliteAgreement:
    @given(conjunctive_queries(), instances())
    @settings(max_examples=100, deadline=None)
    def test_sql_matches_reference_evaluator(self, query, instance):
        from repro.storage.database import Database

        db = Database(SCHEMA)
        try:
            for name, rows in instance.items():
                db.insert(name, rows)
            assert db.execute_query(query) == evaluate_query(query, instance)
        finally:
            db.close()
