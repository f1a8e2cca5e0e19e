"""Length-prefixed frame protocol between the front door and workers.

Every message on a worker pipe is one frame::

    "RPF1" | uint8 kind | uint8 status | uint16 reserved | uint32 length
    | payload (length bytes)

Payloads are either pickled Python objects (requests, stats, errors —
:func:`pack` / :func:`unpack`) or raw bytes (query results, which ride
the ``service/formats.py`` ``SPB1`` binary row format so the front door
can forward them to a binary-format HTTP client without re-encoding).
Error frames (``status = ERR``) carry ``{"code", "message"}`` mapping
straight onto the :mod:`repro.errors` taxonomy.

Frames travel over ``multiprocessing.connection.Connection`` objects
(which add their own transport framing); the explicit header keeps the
protocol self-describing and lets either side reject garbage instead
of unpickling it. :func:`recv_frame` polls with a timeout plus an
``is_alive`` probe, so a caller waiting on a ``kill -9``'d worker gets
:class:`~repro.errors.WorkerCrashError` promptly instead of hanging.
"""

from __future__ import annotations

import pickle
import struct
import time

from repro.errors import ClusterError, WorkerCrashError

HEADER = struct.Struct("<4sBBHI")
MAGIC = b"RPF1"

# Frame kinds.
HELLO = 1  # worker -> parent: attach outcome {epoch, data_version, pid}
QUERY = 2  # {text, parameters, ...} -> SPB1 binary rows
UPDATE = 3  # CommittedUpdate -> {data_version}
STATS = 4  # {} -> per-worker counters
PING = 5  # {} -> {pid, data_version}
EXPLAIN = 6  # {text, parameters} -> {text}
SHUTDOWN = 7  # {} -> {} then the worker exits
FRAGMENT = 8  # {query: bound ConjunctiveQuery} -> {name, attributes, columns}

# Frame statuses.
OK = 0
ERR = 1

#: Poll slice while waiting for a frame (death checks between slices).
_POLL_S = 0.05


def pack(payload: object) -> bytes:
    """Pickle a structured payload."""
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def unpack(data: bytes) -> object:
    """Inverse of :func:`pack`."""
    return pickle.loads(data)


def send_frame(
    conn, kind: int, payload: bytes, status: int = OK
) -> None:
    """Write one frame (payload already in wire form)."""
    conn.send_bytes(
        HEADER.pack(MAGIC, kind, status, 0, len(payload)) + payload
    )


def parse_frame(data: bytes) -> tuple[int, int, bytes]:
    """Split raw frame bytes into ``(kind, status, payload)``."""
    if len(data) < HEADER.size:
        raise ClusterError(f"truncated frame ({len(data)} bytes)")
    magic, kind, status, _, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ClusterError(f"bad frame magic {magic!r}")
    payload = data[HEADER.size :]
    if len(payload) != length:
        raise ClusterError(
            f"frame length mismatch ({len(payload)} != {length})"
        )
    return kind, status, payload


def recv_frame(
    conn,
    timeout_s: float | None = None,
    is_alive=None,
) -> tuple[int, int, bytes]:
    """Read one frame, bounding the wait and detecting peer death.

    ``is_alive`` (a callable) is probed between poll slices: when it
    turns false the peer died mid-request and
    :class:`~repro.errors.WorkerCrashError` is raised — the pool's
    signal to retry on a sibling. A timeout raises
    :class:`~repro.errors.ClusterError` (the worker is alive but
    wedged); ``timeout_s=None`` waits forever (worker side, whose peer
    is the always-alive parent).
    """
    deadline = (
        time.monotonic() + timeout_s if timeout_s is not None else None
    )
    while True:
        wait = _POLL_S
        if deadline is not None:
            wait = min(wait, max(deadline - time.monotonic(), 0.0))
        try:
            ready = conn.poll(wait)
        except (EOFError, OSError):
            raise WorkerCrashError("worker pipe closed") from None
        if ready:
            try:
                return parse_frame(conn.recv_bytes())
            except (EOFError, OSError):
                raise WorkerCrashError("worker pipe closed") from None
        if is_alive is not None and not is_alive():
            raise WorkerCrashError("worker died mid-request")
        if deadline is not None and time.monotonic() >= deadline:
            raise ClusterError(
                f"no frame within {timeout_s:g}s (worker wedged?)"
            )


def error_payload(exc: BaseException) -> bytes:
    """The ERR-frame payload for an exception (taxonomy code + text)."""
    from repro.errors import error_code

    return pack({"code": error_code(exc), "message": str(exc)})


__all__ = [
    "ERR",
    "EXPLAIN",
    "FRAGMENT",
    "HELLO",
    "OK",
    "PING",
    "QUERY",
    "SHUTDOWN",
    "STATS",
    "UPDATE",
    "error_payload",
    "pack",
    "parse_frame",
    "recv_frame",
    "send_frame",
    "unpack",
]
