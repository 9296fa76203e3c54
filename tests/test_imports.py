"""Import closure of a kernel replica, and completeness of the facades.

A replica is a plain interpreter running ``repro.server.replica``; it
stays small only while that entry imports the kernel stack and nothing
else.  The package facades (``repro``, ``repro.server``,
``repro.client``, ``repro.facebook``) import what they export on first
use, so their runtime name table, their ``TYPE_CHECKING`` block and
their ``__all__`` must agree.  Each check runs in a fresh interpreter:
what one test imported must not hide what another would have to.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
import textwrap

import pytest

FACADES = ("repro", "repro.server", "repro.client", "repro.facebook")

#: Modules a replica has no use for: the front end, its event loop and
#: TLS, the wire codec, the SQLite substrate, the documentation audit.
NOT_IN_A_REPLICA = (
    "asyncio",
    "ssl",
    "repro.server.aio",
    "repro.server.wire2",
    "repro.storage",
    "repro.facebook.audit",
    "repro.facebook.docs",
)


def _fresh(code: str) -> object:
    """Run *code* in a new interpreter; it prints one JSON value."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _type_checking_names(facade: str) -> dict:
    """``{name: module}`` from the facade's ``if TYPE_CHECKING:`` block."""
    path = importlib.util.find_spec(facade).origin
    with open(path) as source:
        tree = ast.parse(source.read())
    homes = {}
    for node in tree.body:
        if getattr(getattr(node, "test", None), "id", None) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom), ast.dump(statement)
                for alias in statement.names:
                    homes[alias.asname or alias.name] = statement.module
    return homes


def test_replica_entry_loads_only_the_kernel_stack():
    loaded = _fresh(
        f"""
        import json, sys
        import repro.server.replica
        from repro.server.service import DisclosureService
        DisclosureService().close()  # what a replica builds at boot
        print(json.dumps([m for m in {NOT_IN_A_REPLICA!r} if m in sys.modules]))
        """
    )
    assert loaded == []


@pytest.mark.parametrize("facade", FACADES)
def test_every_exported_name_is_its_defining_modules_object(facade):
    homes = _type_checking_names(facade)
    seen = _fresh(
        f"""
        import importlib, json
        facade = importlib.import_module({facade!r})
        print(json.dumps({{
            "all": sorted(facade.__all__),
            "mismatched": sorted(
                name for name, module in {homes!r}.items()
                if getattr(facade, name)
                is not getattr(importlib.import_module(module), name)
                or name not in dir(facade)
            ),
        }}))
        """
    )
    assert sorted(homes) == sorted(set(seen["all"]) - {"__version__"})
    assert seen["mismatched"] == []


@pytest.mark.parametrize("facade", FACADES)
def test_star_import_binds_every_exported_name(facade):
    unbound = _fresh(
        f"""
        import importlib, json
        namespace = {{}}
        exec("from {facade} import *", namespace)
        facade = importlib.import_module({facade!r})
        print(json.dumps([n for n in facade.__all__ if n not in namespace]))
        """
    )
    assert unbound == []
