"""One kernel replica process: ``python -m repro.server.replica FD INDEX``.

:class:`repro.server.pool.ReplicaPool` launches this module as a plain
child interpreter, one per replica, on one end of a socketpair the
child inherits as descriptor *FD*.  The parent wraps its own end in a
:class:`multiprocessing.connection.Connection`, and so does this
entry, so every frame is length-prefixed exactly as a
``multiprocessing`` pipe frames it.

The first frame is two pickles back to back: the parent's
``sys.path``, applied before anything else is unpickled, then the
keyword arguments of the replica's
:class:`~repro.server.service.DisclosureService` (they hold
``SecurityViews`` and ``Schema`` objects, so they cannot ride as
JSON).  After that the replica speaks the JSON frame protocol of
:func:`repro.server.pool._replica_worker_main` until a ``stop`` frame
or end of file: a replica whose parent dies exits on its own.  It
ignores SIGTERM and SIGINT, which reach it with its parent when they
are sent to the process group (``killpg``, a terminal's Ctrl-C): the
parent's shutdown stops it after the last decision it dispatched.

The entry imports the kernel stack and nothing else — no asyncio, no
HTTP front end, no wire codec, no storage substrate — which is what
keeps a replica small.
"""

from __future__ import annotations

import io
import pickle
import signal
import sys
from multiprocessing.connection import Connection
from typing import List

from repro.server.pool import _replica_worker_main


def main(argv: List[str]) -> int:
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_IGN)
    fd, index = int(argv[0]), int(argv[1])
    conn = Connection(fd)
    try:
        first = io.BytesIO(conn.recv_bytes())
    except EOFError:
        return 0  # the parent went away before it configured us
    sys.path[:] = pickle.load(first)
    service_kwargs = pickle.load(first)
    _replica_worker_main(index, conn, service_kwargs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
