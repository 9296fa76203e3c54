"""SQLite-backed storage: the concrete database under the app ecosystem.

Wraps :mod:`sqlite3` with schema-aware table creation, bulk loading, and
conjunctive-query execution via SQL compilation.  All query parameters
are bound (never interpolated), and identifiers are validated against the
schema before they reach SQL text.
"""

from __future__ import annotations

import random
import re
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.core.queries import ConjunctiveQuery
from repro.core.schema import Schema
from repro.core.tagged import TaggedAtom
from repro.core.terms import Constant, Variable, is_variable
from repro.errors import StorageError
from repro.facebook.schema import facebook_schema

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _check_identifier(name: str) -> str:
    if not _IDENTIFIER_RE.match(name):
        raise StorageError(f"invalid SQL identifier {name!r}")
    return name


class Database:
    """An in-process SQLite database conforming to a :class:`Schema`."""

    def __init__(self, schema: Schema, path: str = ":memory:"):
        import sqlite3  # here, not above: a decision service opens no database

        self.schema = schema
        self._conn = sqlite3.connect(path)
        self._create_tables()

    # ------------------------------------------------------------------
    def _create_tables(self) -> None:
        cursor = self._conn.cursor()
        for relation in self.schema:
            table = _check_identifier(relation.name)
            columns = ", ".join(
                f'"{_check_identifier(a)}"' for a in relation.attributes
            )
            cursor.execute(f'CREATE TABLE IF NOT EXISTS "{table}" ({columns})')
        self._conn.commit()

    def insert(self, relation: str, rows: Iterable[Sequence]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        rel = self.schema.relation(relation)
        placeholders = ", ".join("?" for _ in rel.attributes)
        table = _check_identifier(rel.name)
        rows = [tuple(r) for r in rows]
        for row in rows:
            if len(row) != rel.arity:
                raise StorageError(
                    f"row arity {len(row)} does not match {relation} "
                    f"(arity {rel.arity})"
                )
        self._conn.executemany(
            f'INSERT INTO "{table}" VALUES ({placeholders})', rows
        )
        self._conn.commit()
        return len(rows)

    def rows(self, relation: str) -> FrozenSet[Tuple]:
        """All rows of *relation* as a set of tuples."""
        rel = self.schema.relation(relation)
        table = _check_identifier(rel.name)
        cursor = self._conn.execute(f'SELECT * FROM "{table}"')
        return frozenset(tuple(row) for row in cursor.fetchall())

    def instance(self) -> Dict[str, FrozenSet[Tuple]]:
        """The full database as a name -> tuple-set mapping."""
        return {rel.name: self.rows(rel.name) for rel in self.schema}

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Conjunctive-query execution
    # ------------------------------------------------------------------
    def execute_query(self, query: ConjunctiveQuery) -> FrozenSet[Tuple]:
        """Evaluate a conjunctive query (set semantics).

        Compiles the query to ``SELECT DISTINCT`` SQL with bound
        parameters.  Boolean queries return ``{()}`` / ``frozenset()``.
        """
        sql, params = compile_query(query, self.schema)
        cursor = self._conn.execute(sql, params)
        rows = cursor.fetchall()
        if query.is_boolean():
            return frozenset([()]) if rows else frozenset()
        return frozenset(tuple(row) for row in rows)

    def execute_view(self, view: TaggedAtom) -> FrozenSet[Tuple]:
        """Materialize a single-atom security view's answer."""
        return self.execute_query(view.to_query())


def compile_query(
    query: ConjunctiveQuery, schema: Schema
) -> Tuple[str, List]:
    """Compile a CQ to ``(sql, params)``.

    One table alias per body atom; join conditions from shared variables;
    constants become bound parameters.
    """
    query.validate(schema)

    select_parts: List[str] = []
    select_params: List = []
    where_params: List = []
    where: List[str] = []

    # First cell of each variable, for joins and head projection.
    first_cell: Dict[Variable, str] = {}
    for index, atom in enumerate(query.body):
        rel = schema.relation(atom.relation)
        alias = f"t{index}"
        for position, term in enumerate(atom.terms):
            column = f'{alias}."{_check_identifier(rel.attributes[position])}"'
            if isinstance(term, Constant):
                if term.value is None:
                    where.append(f"{column} IS NULL")
                else:
                    where.append(f"{column} = ?")
                    where_params.append(term.value)
            else:
                if term in first_cell:
                    where.append(f"{column} = {first_cell[term]}")
                else:
                    first_cell[term] = column

    for term in query.head_terms:
        if is_variable(term):
            select_parts.append(first_cell[term])
        else:
            select_parts.append("?")
            select_params.append(term.value)
    # SELECT-clause parameters bind before WHERE-clause parameters.
    params = select_params + where_params

    from_clause = ", ".join(
        f'"{_check_identifier(atom.relation)}" AS t{index}'
        for index, atom in enumerate(query.body)
    )
    select_clause = ", ".join(select_parts) if select_parts else "1"
    sql = f"SELECT DISTINCT {select_clause} FROM {from_clause}"
    if where:
        sql += " WHERE " + " AND ".join(where)
    if not select_parts:
        sql += " LIMIT 1"
    return sql, params


# ----------------------------------------------------------------------
# Data seeding
# ----------------------------------------------------------------------

def seed_figure1(database: "Database | None" = None) -> Database:
    """Alice's calendar and contacts from Figure 1(a)."""
    from repro.core.schema import example_schema

    database = database or Database(example_schema())
    database.insert(
        "Meetings", [(9, "Jim"), (10, "Cathy"), (12, "Bob")]
    )
    database.insert(
        "Contacts",
        [
            ("Jim", "jim@e.com", "Manager"),
            ("Cathy", "cathy@e.com", "Intern"),
            ("Bob", "bob@e.com", "Consultant"),
        ],
    )
    return database


def seed_facebook(
    users: int = 50,
    seed: int = 0,
    database: "Database | None" = None,
) -> Database:
    """Synthetic Facebook-shaped data for the eight-relation schema.

    Generates *users* User rows (with group-structured attribute values),
    a random friendship graph, and a handful of rows per user in each of
    the satellite relations.  ``rel`` columns are assigned from the
    perspective of user 1 (the "current principal").
    """
    schema = facebook_schema()
    database = database or Database(schema)
    rng = random.Random(seed)

    friends_of_1 = set(rng.sample(range(2, users + 1), max(1, users // 5)))
    fof_of_1 = {
        uid
        for uid in range(2, users + 1)
        if uid not in friends_of_1 and rng.random() < 0.3
    }

    def rel_of(uid: int) -> str:
        if uid == 1:
            return "self"
        if uid in friends_of_1:
            return "friend"
        if uid in fof_of_1:
            return "fof"
        return "none"

    user_rows = []
    for uid in range(1, users + 1):
        row = []
        for attribute in schema.relation("User").attributes:
            if attribute == "uid":
                row.append(uid)
            elif attribute == "rel":
                row.append(rel_of(uid))
            elif attribute == "timezone":
                row.append(rng.randint(-11, 12))
            else:
                row.append(f"{attribute}_{uid}")
        user_rows.append(tuple(row))
    database.insert("User", user_rows)

    friend_rows = []
    for uid in friends_of_1:
        friend_rows.append((1, uid, "self"))
        friend_rows.append((uid, 1, rel_of(uid)))
    for _ in range(users):
        a, b = rng.randint(2, users), rng.randint(2, users)
        if a != b:
            friend_rows.append((a, b, rel_of(a)))
    database.insert("Friend", sorted(set(friend_rows)))

    for relation in schema:
        if relation.name in ("User", "Friend"):
            continue
        rows = []
        for uid in range(1, users + 1):
            for item in range(rng.randint(0, 3)):
                row = []
                for attribute in relation.attributes:
                    if attribute == "uid":
                        row.append(uid)
                    elif attribute == "rel":
                        row.append(rel_of(uid))
                    elif attribute in ("timestamp", "created", "time", "size",
                                       "latitude", "longitude", "start_time",
                                       "end_time", "fan_count"):
                        row.append(rng.randint(0, 10_000))
                    else:
                        row.append(f"{relation.name}_{attribute}_{uid}_{item}")
                rows.append(tuple(row))
        database.insert(relation.name, rows)
    return database


def random_instance(
    schema: Schema,
    seed: int = 0,
    rows_per_relation: int = 8,
    domain: "Sequence | None" = None,
) -> Dict[str, FrozenSet[Tuple]]:
    """A small random instance (plain dict) for property-based tests.

    Values are drawn from a tiny *domain* so that joins, repeated values,
    and selection matches actually occur.
    """
    rng = random.Random(seed)
    values = list(domain) if domain is not None else [0, 1, 2, "a", "b"]
    out: Dict[str, FrozenSet[Tuple]] = {}
    for relation in schema:
        rows = set()
        for _ in range(rows_per_relation):
            rows.add(tuple(rng.choice(values) for _ in relation.attributes))
        out[relation.name] = frozenset(rows)
    return out
