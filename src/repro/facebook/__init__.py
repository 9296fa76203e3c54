"""The Facebook case study (Section 7): schema, permissions, docs, audit,
and the random query workload."""

from typing import TYPE_CHECKING

from repro._lazy import attach

_EXPORTS = {
    "repro.facebook.audit": (
        "AuditReport", "AuditRow", "MachineLabelRow", "audit_documentation",
        "cross_api_consistency", "machine_labels",
    ),
    "repro.facebook.docs": (
        "ANY", "DOCUMENTED_VIEWS", "NONE", "DocumentedView", "PermissionLabel",
        "consistent_views", "inconsistent_views", "perms",
    ),
    "repro.facebook.fql": (
        "FQL_COLUMNS", "FQL_TABLES", "fql_to_query", "normalize_fql",
    ),
    "repro.facebook.graphapi": (
        "GRAPH_EDGES", "GRAPH_FIELDS", "GraphRequest", "graph_to_query",
        "parse_graph_request",
    ),
    "repro.facebook.permissions": (
        "PUBLIC_PROFILE_ATTRIBUTES", "USER_PERMISSION_GROUPS",
        "facebook_security_views", "permission_group_of", "projection_view",
        "relation_security_views", "user_security_views", "wide_schema_security_views",
    ),
    "repro.facebook.schema": (
        "REL_FOF", "REL_FRIEND", "REL_NONE", "REL_SELF", "REL_VALUES",
        "USER_ATTRIBUTES", "facebook_schema", "wide_schema",
    ),
    "repro.facebook.workload": ("TARGETS", "WorkloadGenerator", "generate_policies"),
}
__getattr__, __dir__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.facebook.audit import (
        AuditReport,
        AuditRow,
        MachineLabelRow,
        audit_documentation,
        cross_api_consistency,
        machine_labels,
    )
    from repro.facebook.docs import (
        ANY,
        DOCUMENTED_VIEWS,
        NONE,
        DocumentedView,
        PermissionLabel,
        consistent_views,
        inconsistent_views,
        perms,
    )
    from repro.facebook.fql import FQL_COLUMNS, FQL_TABLES, fql_to_query, normalize_fql
    from repro.facebook.graphapi import (
        GRAPH_EDGES,
        GRAPH_FIELDS,
        GraphRequest,
        graph_to_query,
        parse_graph_request,
    )
    from repro.facebook.permissions import (
        PUBLIC_PROFILE_ATTRIBUTES,
        USER_PERMISSION_GROUPS,
        facebook_security_views,
        permission_group_of,
        projection_view,
        relation_security_views,
        user_security_views,
        wide_schema_security_views,
    )
    from repro.facebook.schema import (
        REL_FOF,
        REL_FRIEND,
        REL_NONE,
        REL_SELF,
        REL_VALUES,
        USER_ATTRIBUTES,
        facebook_schema,
        wide_schema,
    )
    from repro.facebook.workload import TARGETS, WorkloadGenerator, generate_policies

__all__ = [
    "ANY",
    "AuditReport",
    "AuditRow",
    "DOCUMENTED_VIEWS",
    "DocumentedView",
    "FQL_COLUMNS",
    "FQL_TABLES",
    "GRAPH_EDGES",
    "GRAPH_FIELDS",
    "GraphRequest",
    "MachineLabelRow",
    "NONE",
    "PUBLIC_PROFILE_ATTRIBUTES",
    "PermissionLabel",
    "REL_FOF",
    "REL_FRIEND",
    "REL_NONE",
    "REL_SELF",
    "REL_VALUES",
    "TARGETS",
    "USER_ATTRIBUTES",
    "USER_PERMISSION_GROUPS",
    "WorkloadGenerator",
    "audit_documentation",
    "consistent_views",
    "cross_api_consistency",
    "facebook_schema",
    "facebook_security_views",
    "fql_to_query",
    "graph_to_query",
    "normalize_fql",
    "parse_graph_request",
    "generate_policies",
    "inconsistent_views",
    "machine_labels",
    "permission_group_of",
    "perms",
    "projection_view",
    "relation_security_views",
    "user_security_views",
    "wide_schema",
    "wide_schema_security_views",
]
