"""Campaign fabric: lease-based fault injection on forked workers.

A coordinator owns the SQLite experiment journal and hands out *work
leases* — cost-balanced shards of any campaign style's units — over
loopback TCP to the workers it forks from the campaign's own process
for ``jobs=N`` and ``scan --jobs N`` (:class:`~repro.campaign.dist
.coordinator.LocalFabric`).  The campaign it serves — golden run,
domain, executor config — is the style's
(:class:`~repro.campaign.pipeline.CampaignStyle`); coordinator and
fleet hold only how work moves.  Workers re-verify the golden run before
executing (a stale checkout can never pollute results) and stream unit
results back a send window at a time; the coordinator reassigns
expired leases with exponential backoff and a retry budget, takes each
unit once (its lease board drops duplicate submissions), and degrades
permanently lost shards into
:class:`~repro.campaign.pipeline.ExecutionReport` completeness
accounting.  The result is bit-for-bit identical to a serial run —
see :mod:`repro.campaign.dist.coordinator` for the argument.

Lease retry plus that one duplicate filter is the whole failure policy.
On top of it sit only the checks on what arrives over the socket,
which any local process can reach: the handshake's protocol version,
the fingerprint/golden re-verification (a worker built from other
code), and a per-unit CRC and shape check (a payload damaged between a
worker's executor and the journal).

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
