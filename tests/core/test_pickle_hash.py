"""Cached hashes must not cross a process boundary.

``Variable``, ``Constant``, ``Atom``, ``ConjunctiveQuery``, ``TaggedVar``
and ``TaggedAtom`` precompute their hash, and string hashing is seeded
per process.  ``ReplicaPool`` spawns replicas with the security views
pickled into ``service_kwargs``, so an unpickled object must hash like
one built in the receiving process.  Each test pickles in one child
interpreter and loads in another under a different ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

DUMP = """
import pickle, sys
from repro.core.parser import parse_query
from repro.core.tagged import TaggedAtom
from repro.facebook import facebook_security_views

query = parse_query("Q(x) :- M(x, 'a'), C(x, y, 7)")
tagged = TaggedAtom.from_query(parse_query("V(x) :- M(x, 'a')"))
payload = (facebook_security_views(), query, tagged)
open(sys.argv[1], "wb").write(pickle.dumps(payload))
"""

LOAD = """
import json, pickle, sys
from repro.core.parser import parse_query
from repro.core.tagged import TaggedAtom
from repro.facebook import facebook_security_views
from repro.facebook.workload import WorkloadGenerator
from repro.labeling.pipeline import BitVectorLabeler

views, query, tagged = pickle.loads(open(sys.argv[1], "rb").read())
fresh_views = facebook_security_views()
fresh_query = parse_query("Q(x) :- M(x, 'a'), C(x, y, 7)")
fresh_tagged = TaggedAtom.from_query(parse_query("V(x) :- M(x, 'a')"))

def same(loaded, fresh):
    return {
        "eq": loaded == fresh,
        "hash": hash(loaded) == hash(fresh),
        "member": fresh in {loaded} and {fresh: 1}.get(loaded) == 1,
    }

shapes = list(WorkloadGenerator(max_subqueries=2, seed=0).stream(32))
loaded_labeler, fresh_labeler = BitVectorLabeler(views), BitVectorLabeler(fresh_views)
print(json.dumps({
    "query": same(query, fresh_query),
    "atom": same(query.body[0], fresh_query.body[0]),
    "variable": same(query.body[0].terms[0], fresh_query.body[0].terms[0]),
    "constant": same(query.body[0].terms[1], fresh_query.body[0].terms[1]),
    "tagged_atom": same(tagged, fresh_tagged),
    "tagged_var": same(tagged.entries[0], fresh_tagged.entries[0]),
    "name_of": [views.name_of(fresh_views.view(n)) for n in fresh_views.names]
    == list(fresh_views.names),
    "labels": [loaded_labeler.label_query(q) for q in shapes]
    == [fresh_labeler.label_query(q) for q in shapes],
}))
"""


def run(script: str, hash_seed: str, path: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_unpickled_objects_hash_like_fresh_ones(tmp_path):
    path = tmp_path / "payload.pickle"
    run(DUMP, "7", path)
    report = json.loads(run(LOAD, "123", path))
    all_true = {"eq": True, "hash": True, "member": True}
    for kind in ("variable", "constant", "atom", "query", "tagged_var", "tagged_atom"):
        assert report[kind] == all_true, (kind, report[kind])
    assert report["name_of"] is True
    assert report["labels"] is True
