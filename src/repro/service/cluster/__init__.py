"""Multi-process serving tier: shared segments, workers, a backend.

The GIL serializes every hot loop that is not inside numpy, so one
process cannot scale query serving past one core. This package is the
scale-out answer, built from three pieces layered over the existing
storage/engine/service stack:

* :mod:`repro.service.cluster.shm` — a **segment publisher** that
  places each epoch's immutable main segments and dictionary blocks
  into ``multiprocessing.shared_memory``. Attaching is zero-copy
  (``np.ndarray`` views over the shared buffer); epochs are refcounted
  so a reader never sees a torn or unlinked segment.
* :mod:`repro.service.cluster.worker` / ``pool`` — a **worker pool** of
  N forked/spawned processes. Each attaches the shared store, replays
  the publisher's update log to the current epoch, builds its engine
  locally, and answers framed requests from its pipe. The pool health-
  checks workers, detects crashes, respawns replacements, and retries
  in-flight requests on siblings.
* :mod:`repro.service.cluster.service` — the **backend**:
  :class:`ClusterQueryService` answers the protocol layer's four calls
  (:mod:`repro.service.protocol`) with frame exchanges (results ride
  the ``service/formats.py`` binary row format), so the one
  :class:`~repro.service.protocol.Session` /
  :class:`~repro.service.protocol.Cursor` and the one
  :class:`~repro.service.http.SparqlHttpServer` serve the pool exactly
  as they serve an in-process :class:`~repro.service.QueryService`.
  There is no second HTTP server: :data:`ClusterHttpServer` is a name
  for ``SparqlHttpServer``, kept for callers written against the
  earlier two-server layout.
"""

from repro.service.cluster.pool import WorkerPool
from repro.service.cluster.service import ClusterQueryService
from repro.service.http import SparqlHttpServer as ClusterHttpServer
from repro.service.cluster.shm import (
    SegmentPublisher,
    attach_snapshot,
    detach,
    publish_snapshot,
    reclaim_stale,
    shm_supported,
)

__all__ = [
    "ClusterHttpServer",
    "ClusterQueryService",
    "SegmentPublisher",
    "WorkerPool",
    "attach_snapshot",
    "detach",
    "publish_snapshot",
    "reclaim_stale",
    "shm_supported",
]
