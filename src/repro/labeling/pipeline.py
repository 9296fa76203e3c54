"""The three labeler implementations benchmarked in Figure 5.

Section 7.2 evaluates "three different versions of our disclosure
labeling algorithm":

1. **baseline** — "a straightforward adaptation of the LabelGen algorithm
   from Section 4.2": for every dissected atom, scan *every* security
   view in the system and fold the matching views into a running **GLB**
   via GenMGU (the GLBLabel inner loop), returning the label as a set of
   views;
2. **hashing** — "used a hashtable to partition views based on the
   relation they referenced": the same GLB computation, but the per-atom
   scan touches only the views over the atom's relation;
3. **bit vectors + hashing** — the Section 6.1 representation change:
   "computing the GLB is completely unnecessary.  Instead, we compute
   ℓ+({V})" — the set of determining views as a packed bit mask.  This
   variant dissects on the query's canonical key
   (:func:`~repro.core.canonical.canonical_key`, memoized on the query)
   rather than through :func:`~repro.core.dissect.dissect`, from start
   to finish.  The fold's pin rule
   (:func:`~repro.core.minimize.pin_fixpoint`) runs on the key's integer
   codes; only when it leaves an atom free does the Term-level search
   (:func:`~repro.core.minimize.fold_body`) pick the core's atoms.  One
   walk over the key promotes join variables (dissect's own rule) and
   notes whether any atom repeats a term; one pass over the kept atoms
   then signs each into whole-atom bitsets and tests them against
   pre-compiled views (:mod:`repro.labeling.fastcheck`).  Atoms that
   dissect alike pack alike, so dissect's dedupe builds its keys only
   when a relation repeats and two packed labels are equal.  No tagged
   atom is built, and nothing outlives the call.

The three produce *equivalent* labels in different representations — the
GLB view-set of (1)/(2) discloses exactly what the ℓ+ mask of (3)
encodes — and the test-suite cross-validates that equivalence.  The
benchmark harness runs each over the Section 7.2 workload and reports
time per million queries.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.canonical import canonical_key
from repro.core.dissect import dissect, promoted_terms
from repro.core.minimize import fold_body, pin_fixpoint
from repro.core.queries import ConjunctiveQuery
from repro.core.rewriting import is_rewritable
from repro.core.tagged import TaggedAtom
from repro.labeling.bitvector import BitVectorRegistry, PackedLabel
from repro.labeling.cq_labeler import SecurityViews
from repro.labeling.fastcheck import CompiledView, dissected_form, sign
from repro.labeling.glb import glb_view_sets

#: The ⊤ label: some dissected atom is determined by no security view.
TOP = None

#: A symbolic label: the LabelGen output (a set of views), or TOP.
SymbolicLabel = Optional[FrozenSet[TaggedAtom]]


def _glb_of_matches(matches: List[TaggedAtom]) -> FrozenSet[TaggedAtom]:
    """The GLBLabel fold: running GLB of all matching singleton sets."""
    result = frozenset([matches[0]])
    for view in matches[1:]:
        result = glb_view_sets(result, [view])
    return result


class BaselineLabeler:
    """LabelGen without partitioning: every atom scans every view."""

    name = "baseline"

    def __init__(self, security_views: SecurityViews):
        self._views: List[TaggedAtom] = [
            security_views.view(name) for name in security_views.names
        ]

    def label_query(self, query: ConjunctiveQuery) -> SymbolicLabel:
        label: FrozenSet[TaggedAtom] = frozenset()
        for atom in dissect(query):
            matches = [v for v in self._views if is_rewritable(atom, v)]
            if not matches:
                return TOP
            label |= _glb_of_matches(matches)
        return label


class HashPartitionedLabeler:
    """LabelGen with views partitioned by base relation (hashtable)."""

    name = "hashing"

    def __init__(self, security_views: SecurityViews):
        self._by_relation: Dict[str, List[TaggedAtom]] = {
            rel: [view for _, view in security_views.for_relation(rel)]
            for rel in security_views.relations()
        }

    def label_query(self, query: ConjunctiveQuery) -> SymbolicLabel:
        label: FrozenSet[TaggedAtom] = frozenset()
        for atom in dissect(query):
            views = self._by_relation.get(atom.relation, ())
            matches = [v for v in views if is_rewritable(atom, v)]
            if not matches:
                return TOP
            label |= _glb_of_matches(matches)
        return label


class BitVectorLabeler:
    """Hash partitioning plus packed-integer labels (Section 6.1).

    Labels are packed integers, and the per-view rewritability tests
    compare whole-atom bitsets against pre-compiled view patterns
    (:mod:`repro.labeling.fastcheck`) — the "heavily compressed format
    that makes comparisons ... very fast".
    """

    name = "bitvectors"

    def __init__(self, security_views: SecurityViews):
        self.registry = BitVectorRegistry(security_views)
        relation_ids = self.registry.relation_ids
        # Per relation: its id and its (view mask bit, compiled view)
        # pairs, for the hot loop.
        self._relations: Dict[str, tuple] = {
            relation: (
                relation_ids[relation],
                tuple(
                    (1 << self.registry.view_bits[name], CompiledView(view))
                    for name, view in security_views.for_relation(relation)
                ),
            )
            for relation in security_views.relations()
        }
        self._relation_ids = relation_ids
        self._relation_bits = self.registry.layout.relation_bits

    def label_query(self, query: ConjunctiveQuery) -> PackedLabel:
        head, atoms = canonical_key(query)
        # One walk: dissect's promotion on the key's codes (a code in
        # two atoms is a join variable), and whether any atom holds a
        # code at two positions.
        promoted = set(head)
        seen: set = set()
        repeats = False
        for _, codes in atoms:
            joined = seen.intersection(codes)
            size = len(seen)
            seen.update(codes)
            if len(seen) - size + len(joined) < len(codes):
                repeats = True
            promoted |= joined
        # Only atoms over a repeated relation can fold away, or dissect
        # alike.
        shared = len(atoms) > 1 and len({r for r, _ in atoms}) < len(atoms)
        if shared and pin_fixpoint(atoms, set(head), int):
            atoms = _folded_atoms(query, atoms)
            promoted = promoted_terms(head, (codes for _, codes in atoms))
        relations = self._relations
        relation_bits = self._relation_bits
        packed_atoms: List[int] = []
        for relation, codes in atoms:
            compiled = relations.get(relation)
            if compiled is None:
                packed_atoms.append(0)  # ⊤
                continue
            relation_id, views = compiled
            signature = sign(codes, promoted, repeats)
            mask = 0
            for bit, view in views:
                if view.matches(*signature):
                    mask |= bit
            packed_atoms.append((mask << relation_bits) | relation_id)
        if shared and len(set(packed_atoms)) < len(packed_atoms):
            # Atoms that dissect alike pack alike, so dissect's dedupe
            # needs their forms only when two packed labels are equal.
            packed_atoms = list({
                (relation, dissected_form(codes, promoted, repeats)): packed
                for (relation, codes), packed in zip(atoms, packed_atoms)
            }.values())
        packed_atoms.sort()
        return tuple(packed_atoms)

    def decode(self, label: PackedLabel) -> Tuple[FrozenSet[str], ...]:
        """Expand a packed label back into name sets (for cross-validation)."""
        id_to_relation = {v: k for k, v in self._relation_ids.items()}
        out = []
        for packed in label:
            relation_id, mask = self.registry.layout.unpack(packed)
            if mask == 0:
                out.append(frozenset())
                continue
            relation = id_to_relation[relation_id]
            out.append(self.registry.names_for_mask(relation, mask))
        return tuple(sorted(out, key=sorted))


def _folded_atoms(query: ConjunctiveQuery, atoms: tuple) -> tuple:
    """The key *atoms* of *query*'s core, found by the Term-level search.

    Runs only when the key-level pin fixpoint leaves an atom free.  The
    fold keeps a subsequence of the body's own atoms, and the key holds
    one coded atom per body atom, in order.
    """
    body = query.body
    folded = fold_body(body, query.distinguished_variables())
    if len(folded) == len(body):
        return atoms
    kept = []
    for atom, coded in zip(body, atoms):
        if atom is folded[len(kept)]:
            kept.append(coded)
            if len(kept) == len(folded):
                break
    return tuple(kept)


#: The labeler variants in benchmark order.
LABELER_VARIANTS = (BaselineLabeler, HashPartitionedLabeler, BitVectorLabeler)
