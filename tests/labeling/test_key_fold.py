"""The bit-vector labeler on queries whose fold is not decided by pins.

``BitVectorLabeler.label_query`` runs the fold's pin fixpoint on the
canonical key's codes and falls back to the Term-level search only when
an atom stays free.  No perf-ledger shape reaches that fallback, so the
ledger's verify prefix and the packed-label pins never run it; these
tests do, on Facebook self-joins built the way ``tests/core/
test_minimize.py``'s strategy builds them: fresh atoms, chain links and
renamed copies, over shared constants.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.atoms import Atom
from repro.core.canonical import canonical_key, query_from_key
from repro.core.minimize import fold, pin_fixpoint
from repro.core.parser import parse_query
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.facebook.permissions import facebook_security_views
from repro.labeling.cq_labeler import ConjunctiveQueryLabeler, SecurityViews
from repro.labeling.pipeline import BitVectorLabeler

ARITIES = {"Friend": 3, "Status": 5, "User": 3}
POOL = [Variable(name) for name in "abxyzwu"]
TERMS = st.one_of(
    st.sampled_from(POOL),
    st.sampled_from([Constant("self"), Constant("friend"), Constant("x")]),
)

#: User views with a two-position class, so the masks path is reached.
TWIN_VIEWS = """
UserAll(a, b, c) :- User(a, b, c)
UserName(a, b)   :- User(a, b, c)
UserTwin(a, b)   :- User(a, b, b)
UserSelf(a, b)   :- User(a, b, 'self')
"""

VIEW_SETS = {
    "facebook": facebook_security_views(),
    "twin": SecurityViews.from_definitions(TWIN_VIEWS),
}

NAMED = {
    "redundant copy": "Q(a) :- Friend(a, x, y), Friend(a, x, z)",
    "three-hop self-join": (
        "Q(a) :- Friend(a, x, y), Friend(a, z, w), Friend(z, u, y)"
    ),
}


@st.composite
def facebook_self_joins(draw):
    """Small Friend/Status/User queries that repeat relations."""
    body = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["fresh", "chain", "copy"])) if body else "fresh"
        if kind == "copy":
            source = draw(st.sampled_from(body))
            renaming = {
                var: draw(st.sampled_from(POOL))
                for var in sorted(source.variable_set(), key=str)
                if draw(st.booleans())
            }
            body.append(source.substitute(renaming))
            continue
        relation = body[-1].relation if kind == "chain" else draw(
            st.sampled_from(["Friend", "Friend", "Status", "User"])
        )
        terms = [draw(TERMS) for _ in range(ARITIES[relation])]
        if kind == "chain":
            terms[0] = body[-1].terms[-1]
        body.append(Atom(relation, terms))
    variables = sorted({v for atom in body for v in atom.variable_set()}, key=str)
    head = draw(st.lists(st.sampled_from(variables), unique=True, max_size=3)) if variables else []
    return ConjunctiveQuery("Q", head, body)


def key_pin_frees(query) -> bool:
    head, atoms = canonical_key(query)
    return bool(pin_fixpoint(atoms, set(head), int))


def reference_label(views, query):
    labels = ConjunctiveQueryLabeler(views).label(query)
    return tuple(sorted((a.determiners for a in labels), key=sorted))


@pytest.fixture(scope="module", params=sorted(VIEW_SETS))
def views(request):
    return VIEW_SETS[request.param]


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_self_joins_take_the_fallback_and_match_the_reference(name):
    views = VIEW_SETS["facebook"]
    query = parse_query(NAMED[name])
    assert key_pin_frees(query)
    bits = BitVectorLabeler(views)
    assert bits.decode(bits.label_query(query)) == reference_label(views, query)


def test_the_search_decides_what_the_pins_leave_open():
    """The copy folds to one atom; the three-hop join keeps all three
    (its search runs and deletes nothing)."""
    bits = BitVectorLabeler(VIEW_SETS["facebook"])
    copy = parse_query(NAMED["redundant copy"])
    assert len(fold(copy).body) == 1
    assert len(bits.label_query(copy)) == 1
    hops = parse_query(NAMED["three-hop self-join"])
    assert fold(hops) is hops


@given(query=facebook_self_joins())
@settings(max_examples=300, deadline=None)
def test_labels_match_the_reference_on_self_joins(views, query):
    bits = BitVectorLabeler(views)
    assert bits.decode(bits.label_query(query)) == reference_label(views, query)


@given(query=facebook_self_joins())
@settings(max_examples=300, deadline=None)
def test_label_is_invariant_under_renaming(views, query):
    """The kernel labels a bare qid through its key's representative."""
    bits = BitVectorLabeler(views)
    representative = query_from_key(canonical_key(query))
    assert bits.label_query(query) == bits.label_query(representative)


def test_strategy_reaches_the_fallback_and_folds():
    """Enough drawn queries leave an atom free, and enough of those fold,
    for the properties above to test the fallback."""
    seen = {"free": 0, "folded": 0}

    @given(facebook_self_joins())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def collect(query):
        if key_pin_frees(query):
            seen["free"] += 1
            if len(fold(query, prechecks=False).body) < len(query.body):
                seen["folded"] += 1

    collect()
    assert seen["free"] >= 50 and seen["folded"] >= 40, seen
