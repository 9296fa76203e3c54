"""The pinned fold (``core/minimize.py``) against its brute-force oracle.

``fold(q, prechecks=False)`` is the unfiltered search of Section 6.1;
the default path pins the atoms no folding can move before it searches.
The two must return the same query on everything — in particular on
self-joins, which the R/S strategy of ``tests/test_properties.py`` rarely
draws and which are the only inputs where pinning decides anything.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import minimize
from repro.core.atoms import Atom
from repro.core.homomorphism import are_equivalent
from repro.core.minimize import fold
from repro.core.parser import parse_query
from repro.core.queries import ConjunctiveQuery
from repro.core.terms import Constant, Variable

ARITIES = {"R": 2, "S": 3}
POOL = [Variable(name) for name in "xyzwuv"]
TERMS = st.one_of(
    st.sampled_from(POOL), st.sampled_from([Constant(0), Constant(1)])
)


@st.composite
def self_join_queries(draw):
    """Small queries built to repeat relations.

    Each new atom is a fresh R/S atom, the next link of an existential
    chain (``R(x, y), R(y, z), ...``), or a copy of an earlier atom with
    some variables renamed — a duplicate up to renaming, which is what a
    folding deletes.  The head is any subset of the body's variables, so
    head variables land on join positions and on copied atoms alike.
    """
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
            st.sampled_from(["R", "R", "S"])
        )
        terms = [draw(TERMS) for _ in range(ARITIES[relation])]
        if kind == "chain":
            terms[0] = body[-1].terms[-1]
        body.append(Atom(relation, terms))
    variables = sorted({v for atom in body for v in atom.variable_set()}, key=str)
    head = draw(st.lists(st.sampled_from(variables), unique=True, max_size=3)) if variables else []
    return ConjunctiveQuery("Q", head, body)


class TestPinnedFoldMatchesBruteForce:
    @given(self_join_queries())
    @settings(max_examples=400, deadline=None)
    def test_same_core_as_the_oracle(self, query):
        folded = fold(query)
        assert folded == fold(query, prechecks=False)
        assert are_equivalent(folded, query)

    @given(self_join_queries())
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_returns_input_iff_nothing_deleted(self, query):
        folded = fold(query)
        assert (folded is query) == (len(folded.body) == len(query.body))
        assert fold(folded) is folded

    def test_strategy_draws_foldable_self_joins(self):
        """The strategy is worth something only if it produces queries the
        fold shortens and queries with repeated relations it must not."""
        seen = {"shortened": 0, "kept": 0}

        @given(self_join_queries())
        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        def collect(query):
            relations = [atom.relation for atom in query.body]
            if len(set(relations)) < len(relations):
                shorter = len(fold(query, prechecks=False).body) < len(query.body)
                seen["shortened" if shorter else "kept"] += 1

        collect()
        assert seen["shortened"] >= 20 and seen["kept"] >= 20, seen


def count_searches(monkeypatch):
    calls = []
    real = minimize.find_body_homomorphism

    def counting(source, target, seed):
        calls.append((source, target))
        return real(source, target, seed)

    monkeypatch.setattr(minimize, "find_body_homomorphism", counting)
    return calls


class TestNamedCases:
    def test_redundant_existential_copy_folds_to_one_atom(self):
        query = parse_query("Q(x) :- M(x, y), M(x, z)")
        assert str(fold(query)) == "Q(x) :- M(x, z)"

    def test_two_hop_chain_is_pinned_without_a_search(self, monkeypatch):
        # The friends-of-friends shape of the Section 7.2 workload: Page
        # is alone in its relation and fixes g; g tells the two Friend
        # atoms apart and fixes m; m pins the first hop.
        query = parse_query(
            "Q(name) :- Friend(u, m, f1), Friend(m, g, f2), Page(g, e, name, 'fof')"
        )
        searches = count_searches(monkeypatch)
        assert fold(query) is query
        assert searches == []
        assert fold(query, prechecks=False) == query

    def test_boolean_triangle_is_left_alone(self):
        query = parse_query("Q() :- R(x, y), R(y, z), R(z, x)")
        assert fold(query) is query
        assert fold(query, prechecks=False) == query

    def test_nothing_fixed_nothing_pinned(self, monkeypatch):
        # No head variable and no sole atom: pinning must not fire, and
        # the search still finds the folding.
        query = parse_query("Q() :- R(x, y), R(x, z)")
        searches = count_searches(monkeypatch)
        folded = fold(query)
        assert len(folded.body) == 1
        assert searches
        assert folded == fold(query, prechecks=False)

    def test_head_variable_on_a_chain_pins_only_what_it_reaches(self):
        # x is fixed, so R(x, y) cannot move onto R(y, z) — but the copy
        # R(x, w) of the first link is still redundant.
        query = parse_query("Q(x) :- R(x, y), R(y, z), R(x, w)")
        folded = fold(query)
        assert folded == fold(query, prechecks=False)
        assert len(folded.body) == 2

    def test_duplicate_atoms(self):
        atom = Atom("R", [Variable("x"), Variable("y")])
        query = ConjunctiveQuery("Q", [Variable("x")], [atom, atom])
        assert fold(query).body == (atom,)
