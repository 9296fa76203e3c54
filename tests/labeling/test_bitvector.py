"""Tests for packed bit-vector labels (Section 6.1)."""

import pytest

from repro.core.parser import parse_query
from repro.core.tagged import TaggedAtom
from repro.errors import LabelingError
from repro.labeling.bitvector import BitVectorRegistry, PackedLayout
from repro.labeling.cq_labeler import ConjunctiveQueryLabeler, SecurityViews
from repro.labeling.pipeline import (
    BaselineLabeler,
    BitVectorLabeler,
    HashPartitionedLabeler,
)


def pat(rel, *items):
    return TaggedAtom.from_pattern(rel, list(items))


V3 = pat("C", "x:d", "y:d", "z:d")
V6 = pat("C", "x:d", "y:d", "z:e")
V7 = pat("C", "x:d", "y:e", "z:d")
V8 = pat("C", "x:e", "y:d", "z:d")
V9 = pat("C", "x:d", "y:e", "z:e")
V12 = pat("C", "x:e", "y:e", "z:e")


@pytest.fixture
def registry():
    views = SecurityViews({"V3": V3, "V6": V6, "V7": V7, "V8": V8})
    return BitVectorRegistry(views)


class TestPackedLayout:
    def test_roundtrip(self):
        layout = PackedLayout()
        packed = layout.pack(5, 0b1011)
        assert layout.unpack(packed) == (5, 0b1011)

    def test_paper_layout_is_64_bits(self):
        layout = PackedLayout()
        packed = layout.pack((1 << 32) - 1, (1 << 32) - 1)
        assert packed < (1 << 64)

    def test_custom_widths(self):
        layout = PackedLayout(relation_bits=8, view_bits=16)
        packed = layout.pack(200, 0xFFFF)
        assert layout.unpack(packed) == (200, 0xFFFF)

    def test_overflow_rejected(self):
        layout = PackedLayout(relation_bits=4, view_bits=4)
        with pytest.raises(LabelingError):
            layout.pack(16, 0)
        with pytest.raises(LabelingError):
            layout.pack(0, 16)

    def test_leq_same_relation_superset(self):
        layout = PackedLayout()
        low = layout.pack(3, 0b111)
        high = layout.pack(3, 0b010)
        assert layout.leq(low, high)   # more determiners = lower label
        assert not layout.leq(high, low)

    def test_leq_cross_relation_false(self):
        layout = PackedLayout()
        a = layout.pack(1, 0b1)
        b = layout.pack(2, 0b1)
        assert not layout.leq(a, b)


class TestRegistry:
    def test_example_6_1(self, registry):
        """ℓ+(V9) = {V3,V6,V7}, ℓ+(V12) ⊇ ℓ+(V9), so ℓ(V12) ⪯ ℓ(V9)."""
        p9 = registry.pack_label([V9])
        p12 = registry.pack_label([V12])
        assert registry.leq(p12, p9)
        assert not registry.leq(p9, p12)

    def test_atom_mask_decodes_to_determiners(self, registry):
        mask = registry.atom_mask(V9)
        assert registry.names_for_mask("C", mask) == {"V3", "V6", "V7"}

    def test_unknown_relation_packs_to_top(self, registry):
        packed = registry.pack_atom(pat("Zzz", "x:d"))
        assert packed == 0
        assert not registry.satisfies((packed,), registry.grant_masks(["V3"]))

    def test_empty_mask_never_satisfied(self, registry):
        # a constant on a hidden column of every view -> undetermined
        atom = pat("C", "x:d", "y:d", "z:d")  # V3 itself: determined by V3
        assert registry.atom_mask(atom) != 0
        undetermined = pat("D", "x:d")
        assert registry.pack_atom(undetermined) == 0

    def test_grant_mask_validation(self, registry):
        with pytest.raises(LabelingError):
            registry.grant_mask("C", ["missing"])
        with pytest.raises(LabelingError):
            registry.grant_mask("M", ["V3"])

    def test_satisfies(self, registry):
        label = registry.pack_label([V9])
        assert registry.satisfies(label, registry.grant_masks(["V6"]))
        assert registry.satisfies(label, registry.grant_masks(["V3"]))
        assert not registry.satisfies(label, registry.grant_masks(["V8"]))

    def test_satisfying_partitions_mask(self, registry):
        label = registry.pack_label([V9])
        grants = [
            registry.grant_masks(["V6"]),   # satisfies -> bit 0
            registry.grant_masks(["V8"]),   # does not  -> bit 1 clear
            registry.grant_masks(["V3"]),   # satisfies -> bit 2
        ]
        mask = registry.satisfying_partitions_mask(label, grants)
        assert mask == 0b101
        # Agrees with the single-partition test, partition by partition.
        for index, grant in enumerate(grants):
            assert bool(mask >> index & 1) == registry.satisfies(label, grant)
        assert registry.satisfying_partitions_mask(label, []) == 0

    def test_too_many_views_per_relation(self):
        layout = PackedLayout(view_bits=2)
        views = SecurityViews({"A": V3, "B": V6, "C": V7})
        with pytest.raises(LabelingError):
            BitVectorRegistry(views, layout)


FACEBOOK_STYLE_VIEWS = """
UserAll(a, b, c) :- User(a, b, c)
UserName(a, b)   :- User(a, b, c)
UserBday(a, c)   :- User(a, b, c)
UserTwin(a, b)   :- User(a, b, b)
FriendAll(x, y)  :- Friend(x, y)
"""


class TestPipelineAgreement:
    """The three Figure 5 labeler variants produce equivalent labels.

    Baseline and hashing return the LabelGen view-set (a GLB union);
    the bit-vector variant returns packed ℓ+ masks.  The two
    representations must describe the same lattice point: the GLB union
    reconstructed from ℓ+ is ≡ the symbolic label.
    """

    QUERIES = [
        "Q(a) :- User(a, b, c)",
        "Q(a, b) :- User(a, b, c)",
        "Q(a) :- User(a, b, c), Friend(a, f)",
        "Q(b) :- User(a, b, c), Friend(a, f), Friend(f, g)",
        "Q(a) :- User(a, 'x', c)",
        "Q(x) :- Friend(x, y), Friend(y, x)",
        "Q(a, c) :- User(a, b, c), User(a, b, c)",
        # Two kept atoms that dissect alike: one label entry.
        "Q(a, b) :- Friend(a, x), Friend(b, z)",
        # No security view over Poke: its ⊤ entry (packed 0) is kept.
        "Q(a) :- User(a, b, c), Poke(a, d)",
        # A constant across UserTwin's two-position distinguished class.
        "Q(a) :- User(a, 'x', 'x')",
        "Q(a) :- User(a, 'x', 'y')",
    ]

    def setup_method(self):
        self.views = SecurityViews.from_definitions(FACEBOOK_STYLE_VIEWS)
        self.baseline = BaselineLabeler(self.views)
        self.hashed = HashPartitionedLabeler(self.views)
        self.bits = BitVectorLabeler(self.views)
        self.cq_labeler = ConjunctiveQueryLabeler(self.views)

    @pytest.mark.parametrize("text", QUERIES)
    def test_baseline_equals_hashing(self, text):
        query = parse_query(text)
        assert self.baseline.label_query(query) == self.hashed.label_query(query)

    @pytest.mark.parametrize("text", QUERIES)
    def test_bitvector_decodes_to_reference_determiners(self, text):
        query = parse_query(text)
        packed = self.bits.label_query(query)
        reference = tuple(
            sorted(
                (a.determiners for a in self.cq_labeler.label(query)),
                key=sorted,
            )
        )
        assert self.bits.decode(packed) == reference

    @pytest.mark.parametrize("text", QUERIES)
    def test_symbolic_label_equivalent_to_lplus_reconstruction(self, text):
        from repro.labeling.pipeline import TOP
        from repro.order.disclosure_order import RewritingOrder

        query = parse_query(text)
        symbolic = self.baseline.label_query(query)
        reference = self.cq_labeler.label(query)
        if symbolic is TOP:
            assert reference.is_top
            return
        assert not reference.is_top
        reconstructed = self.cq_labeler.label_views(reference)
        assert RewritingOrder().equivalent(symbolic, reconstructed)


def test_repeated_relation_dedupe_on_facebook_views():
    """Two Friend atoms that dissect to one tagged atom: one entry."""
    from repro.facebook.permissions import facebook_security_views

    views = facebook_security_views()
    bits = BitVectorLabeler(views)
    query = parse_query("Q(a, b) :- Friend(a, x, y), Friend(b, z, w)")
    label = bits.label_query(query)
    assert label == (17179869185,)
    reference = ConjunctiveQueryLabeler(views).label(query)
    assert bits.decode(label) == tuple(a.determiners for a in reference)
