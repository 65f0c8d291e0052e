"""Distributed campaign fabric: lease-based multi-host fault injection.

A coordinator process owns the SQLite experiment journal and hands out
*work leases* — cost-balanced shards of any campaign style's units — to
worker processes over TCP: forks of the campaign's own process for
``jobs=N`` and ``scan --jobs N`` (:class:`~repro.campaign.dist
.coordinator.LocalFabric`), or ``repro worker`` processes anywhere.
Workers re-verify the golden run before executing (a stale checkout can
never pollute results) and stream unit results back a send window at a
time; the coordinator reassigns expired leases with exponential backoff
and a retry budget, merges duplicate submissions idempotently through
the journal keys, and degrades permanently lost shards into
:class:`~repro.campaign.pipeline.ExecutionReport` completeness
accounting.  The result is bit-for-bit identical to a serial run —
see :mod:`repro.campaign.dist.coordinator` for the argument.

Lease retry plus first-wins merge is the whole failure policy.  On top
of it sit only layers that catch what retry and merge cannot: a
per-unit CRC and shape check (a payload damaged between a worker's
executor and the journal), the fingerprint/golden re-verification (a
worker built from other code),
and the ``crosscheck`` determinism audit (two verified builds that
still compute different outcomes — reported and left missing, never
outvoted).

Everything is stdlib (``socket``, ``asyncio``, ``json``); there is no
new dependency and no pickle on the wire.
"""

from .coordinator import (DistCoordinator, LocalFabric, run_distributed_scan,
                          serve_scan)
from .leases import LeaseBoard, ShardLease
from .protocol import (
    PROTOCOL_VERSION,
    FrameStream,
    ProtocolError,
    decode_frame,
    encode_frame,
    read_frame,
    result_digest,
    write_frame,
)
from .worker import DistWorker, WorkerRejected

__all__ = [
    "DistCoordinator",
    "DistWorker",
    "FrameStream",
    "LeaseBoard",
    "LocalFabric",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ShardLease",
    "WorkerRejected",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "result_digest",
    "run_distributed_scan",
    "serve_scan",
    "write_frame",
]
