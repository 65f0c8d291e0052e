"""Campaign fabric: lease-based fault injection on forked workers.

A coordinator journals results (when the campaign has a journal) and
hands out *work leases* — cost-balanced shards of the units a
campaign of any style has left to do — to the workers it forks from
the campaign's own process for ``jobs=N`` and ``scan --jobs N``
(:class:`~repro.campaign.dist.coordinator.LocalFabric`), each over its
end of one socket pair.  A fork inherits
the campaign — golden run, domain, units, executor config — as the
style (:class:`~repro.campaign.pipeline.CampaignStyle`) holds it, so
nothing about it crosses the wire; coordinator and fleet hold only how
work moves.  The wire has four frames: ``request`` and ``results``
from a worker, ``lease`` and ``done`` from the coordinator
(:mod:`~repro.campaign.dist.protocol`).  A lease lasts until its
worker's next ``request`` or its hang-up, and workers stream unit
results back a send window at a time.  A worker's end is the hang-up of
its socket: the coordinator re-queues its lease at once, charged against the shard's retry budget, asks the
fleet to replace it, takes each unit once (its lease board drops
duplicate submissions), and degrades permanently lost shards into
:class:`~repro.campaign.pipeline.ExecutionReport` completeness
accounting.  Nothing waits on a clock: the fabric promises what the
in-process transport promises, no deadline and no more.  The result is
bit-for-bit identical to a serial run — see
:mod:`repro.campaign.dist.coordinator` for the argument.

Lease retry plus that one duplicate filter is the whole failure policy.
On top of it sit only the checks on what a worker sends: the frame
length cap, decoding and the typed-message check, each unit's shape
and key (a payload damaged between a worker's executor and the
journal), and a frame of no known type, or results from a connection
holding no lease, ending only its own connection.  No socket outside the program reaches the coordinator.

Everything is stdlib (``socket``, ``selectors``, ``json``,
``multiprocessing``); there is no new dependency and no pickle on the
wire.  ``multiprocessing`` loads when a fleet is first started, not
on import: a serial campaign never pays for it.
"""

from .coordinator import (DistCoordinator, LocalFabric, run_distributed_scan,
                          serve_scan)
from .leases import LeaseBoard
from .protocol import FrameStream, ProtocolError, decode_frame, encode_frame
from .worker import DistWorker

__all__ = [
    "DistCoordinator",
    "DistWorker",
    "FrameStream",
    "LeaseBoard",
    "LocalFabric",
    "ProtocolError",
    "decode_frame",
    "encode_frame",
    "run_distributed_scan",
    "serve_scan",
]
