"""repro — Fine-Grained Disclosure Control for App Ecosystems.

A from-scratch reproduction of Bender, Kot, Gehrke, and Koch (SIGMOD
2013).  The package implements the paper's disclosure-labeling model —
disclosure orders and lattices, disclosure labelers, generating sets —
its conjunctive-query labeling algorithms (GenMGU, Dissect), the
bit-vector label and policy-partition optimizations, a reference monitor,
an SQLite-backed enforcement layer, the full Section 7 evaluation
(Facebook API audit, labeler throughput, policy-checker throughput), and
an online multi-principal decision service (``repro.server``) with a
shared label cache, a JSON HTTP API, and a load generator.

Quick start::

    from repro import (
        SecurityViews, ConjunctiveQueryLabeler, PartitionPolicy,
        EnforcedConnection, seed_figure1,
    )

    views = SecurityViews.from_definitions('''
        V1(x, y)    :- Meetings(x, y)
        V2(x)       :- Meetings(x, y)
        V3(x, y, z) :- Contacts(x, y, z)
    ''')
    db = seed_figure1()
    conn = EnforcedConnection(db, views, PartitionPolicy.stateless(["V2"], views))
    conn.execute("SELECT time FROM Meetings")          # permitted
    conn.execute("SELECT * FROM Meetings")             # QueryRefusedError
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

_EXPORTS = {
    "repro.core": (
        "Atom", "ConjunctiveQuery", "Constant", "Relation", "Schema", "TaggedAtom",
        "Variable", "are_equivalent", "dissect", "fold", "gen_mgu", "is_contained_in",
        "is_rewritable", "make_query", "parse_query", "parse_views", "rewrite_plan",
    ),
    "repro.core.sqlparser": ("sql_to_query",),
    "repro.errors": (
        "LabelingError", "ParseError", "PolicyError", "QueryError", "QueryRefusedError",
        "ReproError", "SchemaError", "StorageError", "UnsupportedQueryError",
    ),
    "repro.facebook": (
        "WorkloadGenerator", "audit_documentation", "facebook_schema",
        "facebook_security_views", "machine_labels",
    ),
    "repro.labeling": (
        "BitVectorLabeler", "BitVectorRegistry", "ConjunctiveQueryLabeler",
        "DisclosureLabel", "NaiveLabeler", "SecurityViews",
    ),
    "repro.order": (
        "DisclosureLattice", "DisclosureOrder", "RewritingOrder", "SetInclusionOrder",
    ),
    "repro.policy": ("PartitionPolicy", "PolicyChecker", "ReferenceMonitor"),
    "repro.server": ("DisclosureService", "LabelCache", "ServiceDecision"),
    "repro.storage": (
        "Database", "EnforcedConnection", "seed_facebook", "seed_figure1",
    ),
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.core import (
        Atom,
        ConjunctiveQuery,
        Constant,
        Relation,
        Schema,
        TaggedAtom,
        Variable,
        are_equivalent,
        dissect,
        fold,
        gen_mgu,
        is_contained_in,
        is_rewritable,
        make_query,
        parse_query,
        parse_views,
        rewrite_plan,
    )
    from repro.core.sqlparser import sql_to_query
    from repro.errors import (
        LabelingError,
        ParseError,
        PolicyError,
        QueryError,
        QueryRefusedError,
        ReproError,
        SchemaError,
        StorageError,
        UnsupportedQueryError,
    )
    from repro.facebook import (
        WorkloadGenerator,
        audit_documentation,
        facebook_schema,
        facebook_security_views,
        machine_labels,
    )
    from repro.labeling import (
        BitVectorLabeler,
        BitVectorRegistry,
        ConjunctiveQueryLabeler,
        DisclosureLabel,
        NaiveLabeler,
        SecurityViews,
    )
    from repro.order import (
        DisclosureLattice,
        DisclosureOrder,
        RewritingOrder,
        SetInclusionOrder,
    )
    from repro.policy import (
        PartitionPolicy,
        PolicyChecker,
        ReferenceMonitor,
    )
    from repro.server import (
        DisclosureService,
        LabelCache,
        ServiceDecision,
    )
    from repro.storage import (
        Database,
        EnforcedConnection,
        seed_facebook,
        seed_figure1,
    )

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "BitVectorLabeler",
    "BitVectorRegistry",
    "ConjunctiveQuery",
    "ConjunctiveQueryLabeler",
    "Constant",
    "Database",
    "DisclosureLabel",
    "DisclosureLattice",
    "DisclosureOrder",
    "DisclosureService",
    "EnforcedConnection",
    "LabelCache",
    "LabelingError",
    "NaiveLabeler",
    "ParseError",
    "PartitionPolicy",
    "PolicyChecker",
    "PolicyError",
    "QueryError",
    "QueryRefusedError",
    "ReferenceMonitor",
    "Relation",
    "ReproError",
    "RewritingOrder",
    "Schema",
    "SchemaError",
    "SecurityViews",
    "ServiceDecision",
    "SetInclusionOrder",
    "StorageError",
    "TaggedAtom",
    "UnsupportedQueryError",
    "Variable",
    "WorkloadGenerator",
    "are_equivalent",
    "audit_documentation",
    "dissect",
    "facebook_schema",
    "facebook_security_views",
    "fold",
    "gen_mgu",
    "is_contained_in",
    "is_rewritable",
    "machine_labels",
    "make_query",
    "parse_query",
    "parse_views",
    "rewrite_plan",
    "seed_facebook",
    "seed_figure1",
    "sql_to_query",
    "__version__",
]
