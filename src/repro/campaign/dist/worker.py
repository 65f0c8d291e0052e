"""Campaign worker: pulls leases, executes experiments, streams results.

A worker is a plain blocking-socket client.  On connect it introduces
itself, receives the campaign spec, and **re-derives everything
locally**: the program is re-assembled from the shipped source, its
content fingerprint and the re-recorded golden run's cycle count must
match the coordinator's, and the def/use partition and the campaign
style the spec names (its units: live classes, slots, or the re-drawn
samples' experiments) are rebuilt from the local golden run.  A worker
running a stale checkout — an assembler that emits different code, a
CPU whose timing changed — fails one of those checks, or is leased a
key its own style does not hold, and is refused work
(:class:`WorkerRejected`), so it can never pollute the campaign with
results computed under a different machine model.

While holding a lease the worker runs the lease's units through one
``style.execute`` generator — the same generator every transport uses,
so a full scan's classes that share an injection slot go to the
executor as one group, in ascending slot order (preserving the
executor's snapshot fast-forward) — and streams the finished units back
in **send windows**: one ``results`` frame per :data:`WINDOW_CLASSES`
units or :data:`WINDOW_S` seconds, whichever comes first, and always
before ``lease_done``.  The coordinator journals progress continuously and a
worker lost mid-shard forfeits only the window in flight (re-executed
through the lease re-grant).  The worker is one thread and sends no
liveness frames: progress is what keeps a lease alive, and a dead peer
is TCP's to notice.  Every connection failure is survivable: the worker
reconnects with jittered exponential backoff and simply asks for work
again — the coordinator's lease board and idempotent journal make the
retried deliveries harmless.

Every unit leaves as its own item of the window, as its style's
``execute`` yielded it — its ``run``, three space-joined strings in the
journal's stored form (:mod:`~.protocol` docstring) — with its
own :func:`~.protocol.result_digest` CRC over its key and run, computed
*before* the window is handed to the transport, so the coordinator can
detect any corruption between this worker's executor and its own
journal, unit by unit.
"""

from __future__ import annotations

import os
import random
import socket
import time

from ...faultspace.domain import get_domain
from ...isa.assembler import assemble
from ..database import program_fingerprint
from ..experiment import ExecutorConfig
from ..golden import record_golden
from ..pipeline import ExecutorCounters, campaign_params
from ..runner import style_from_spec
from .protocol import (PROTOCOL_VERSION, FrameStream, ProtocolError,
                       result_digest)


#: The send window: finished classes leave as one ``results`` frame when
#: this many are buffered, or when the oldest of them began executing
#: :data:`WINDOW_S` ago.  Constants chosen by measurement, like the
#: journal's ``COMMIT_WINDOW_S`` (``scan_dist_mem``: 7 164 frames → 147,
#: ≈ 5.5 → ≈ 4.4 reference s; 16 classes was slower, 256 and 1 024 no
#: faster); they bound what a killed worker loses and how late the
#: coordinator sees progress.
WINDOW_CLASSES = 64
WINDOW_S = 0.25

#: The window's clock and the reconnect backoff's sleeper (module-level
#: so tests can substitute virtual ones).
_clock = time.monotonic
_sleep = time.sleep


class WorkerRejected(RuntimeError):
    """The coordinator refused this worker (or verification failed).

    Permanent: reconnecting cannot help — the worker's checkout
    disagrees with the coordinator's campaign, or the protocol versions
    diverge — so the run loop raises instead of retrying.
    """


class DistWorker:
    """One worker process's client loop.

    ``max_reconnects`` bounds *consecutive* failed connection attempts
    (``None`` retries forever — the right default for a fleet waiting
    out a coordinator restart); any successful session resets the
    count.
    """

    def __init__(self, host: str, port: int, *, name: str | None = None,
                 reconnect_delay: float = 0.2,
                 max_reconnect_delay: float = 5.0,
                 max_reconnects: int | None = None,
                 connect_timeout: float = 5.0):
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.reconnect_delay = reconnect_delay
        self.max_reconnect_delay = max_reconnect_delay
        self.max_reconnects = max_reconnects
        self.connect_timeout = connect_timeout
        self._rng = random.Random(self.name)
        self._finished = False
        #: Units executed locally (not counting duplicates).
        self.executed = 0
        #: Verified campaign state, cached by fingerprint and ladder
        #: stride so reconnects skip the golden re-run and the partition
        #: and style rebuild.
        self._campaigns: dict[tuple[str, int], tuple] = {}

    # -- main loop --------------------------------------------------------------

    def run(self) -> int:
        """Serve until the coordinator says the campaign is done.

        Returns the number of units this worker executed.  Raises
        :class:`WorkerRejected` on permanent refusal.
        """
        failures = 0
        while not self._finished:
            try:
                self._session()
                failures = 0
            except WorkerRejected:
                raise
            except (ConnectionError, ProtocolError, OSError):
                if self._finished:
                    break
                failures += 1
                if (self.max_reconnects is not None
                        and failures > self.max_reconnects):
                    raise
                self._backoff(failures)
        return self.executed

    def _backoff(self, failures: int) -> None:
        delay = min(self.max_reconnect_delay,
                    self.reconnect_delay * (2.0 ** (failures - 1)))
        # Full jitter: a fleet of workers orphaned by the same
        # coordinator crash must not reconnect in step.
        _sleep(delay * (0.5 + 0.5 * self._rng.random()))

    # -- one connection ---------------------------------------------------------

    def _session(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout)
        sock.settimeout(None)
        # Result frames are small and latency-bound; Nagle-delaying
        # them stalls the per-class submit loop for nothing.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = FrameStream(sock)
        try:
            stream.send({"type": "hello", "version": PROTOCOL_VERSION,
                         "name": self.name})
            frame = stream.read(timeout=self.connect_timeout)
            if frame is None:
                raise ConnectionError("coordinator closed during handshake")
            if frame.get("type") == "reject":
                raise WorkerRejected(str(frame.get("reason", "rejected")))
            if frame.get("type") != "campaign":
                raise ProtocolError(
                    f"expected campaign spec, got {frame.get('type')!r}")
            executor, style = self._verify(stream, frame)
            stream.send({"type": "ready"})
            try:
                self._work(stream, executor, style)
            except (ConnectionError, OSError):
                # The campaign can finish while our next request is
                # mid-send: the send fails, but the coordinator's done
                # frame may already sit in the receive buffer.  Check
                # it before treating this as a lost connection.
                if not self._poll_done(stream):
                    raise
        finally:
            sock.close()

    def _poll_done(self, stream: FrameStream) -> bool:
        """Drain already-received frames, looking for ``done``."""
        try:
            while True:
                frame = stream.poll()
                if frame is None:
                    return False
                if frame.get("type") == "done":
                    self._finished = True
                    return True
        except (ConnectionError, ProtocolError, OSError):
            return False

    # -- campaign verification --------------------------------------------------

    def _verify(self, stream: FrameStream, spec: dict):
        """Rebuild the campaign locally; refuse to run if it differs."""
        fingerprint = str(spec["fingerprint"])
        stride = int(spec["stride"])  # the coordinator's ladder stride
        cached = self._campaigns.get((fingerprint, stride))
        if cached is not None \
                and cached[2] == (spec["config"], spec["style"]):
            return cached[:2]
        try:
            program = assemble(spec["program"]["source"],
                               name=spec["program"]["name"],
                               ram_size=spec["program"]["ram_size"])
            local = program_fingerprint(program)
            if local != fingerprint:
                raise WorkerRejected(
                    f"program fingerprint mismatch: coordinator sent "
                    f"{fingerprint}, this checkout assembles {local} — "
                    f"worker is running different code; update it")
            golden = record_golden(program, checkpoint_stride=stride)
            if golden.cycles != spec["cycles"]:
                raise WorkerRejected(
                    f"golden run mismatch: coordinator recorded "
                    f"Δt={spec['cycles']} cycles, this checkout runs "
                    f"Δt={golden.cycles} — simulator semantics differ; "
                    f"update the worker")
            config = ExecutorConfig(**spec["config"])
            domain = get_domain(config.domain)
            partition = domain.build_partition(golden)
            try:
                style = style_from_spec(spec["style"], golden, domain,
                                        campaign_params(golden, config),
                                        partition)
            except (KeyError, TypeError, ValueError) as exc:
                raise WorkerRejected(
                    f"cannot rebuild the campaign style {spec['style']!r}: "
                    f"{exc}") from exc
        except WorkerRejected as exc:
            # Ship the diagnostic before giving up, so the operator sees
            # the stale worker from the coordinator's logs too.
            try:
                stream.send({"type": "error", "reason": str(exc)})
            except (ConnectionError, OSError):
                pass
            raise
        executor = config.build(golden)
        self._campaigns[fingerprint, stride] = (
            executor, style, (spec["config"], spec["style"]))
        return executor, style

    # -- lease execution --------------------------------------------------------

    def _work(self, stream: FrameStream, executor, style) -> None:
        while True:
            stream.send({"type": "request"})
            frame = stream.read(timeout=None)
            if frame is None:
                raise ConnectionError("coordinator closed the connection")
            kind = frame.get("type")
            if kind == "done":
                self._finished = True
                return
            if kind == "wait":
                if self._wait(stream, min(float(frame["seconds"]), 1.0)):
                    return
                continue
            if kind != "lease":
                raise ProtocolError(f"expected lease, got {kind!r}")
            if self._run_lease(stream, frame, executor, style):
                return  # saw "done" mid-lease

    def _wait(self, stream: FrameStream, seconds: float) -> bool:
        """Wait out a ``wait`` grant on the stream, not in a sleep: True
        as soon as the coordinator says ``done`` (the campaign ended
        meanwhile), False once ``seconds`` pass without a frame."""
        try:
            frame = stream.read(timeout=seconds)
        except socket.timeout:
            return False
        if frame is None:
            raise ConnectionError("coordinator closed the connection")
        if frame.get("type") != "done":
            raise ProtocolError(
                f"expected done during a wait, got {frame.get('type')!r}")
        self._finished = True
        return True

    def _run_lease(self, stream: FrameStream, lease: dict, executor,
                   style) -> bool:
        lease_id = int(lease["lease"])
        shard = int(lease["shard"])
        units = style.units
        work = []
        for raw_key in lease["keys"]:
            key = tuple(int(v) for v in raw_key)
            item = units.get(key)
            if item is None:
                raise WorkerRejected(
                    f"lease names unit {key} this worker's campaign does "
                    f"not contain — def/use analysis or sample draw "
                    f"differs; update the worker")
            work.append(item)
        counters = ExecutorCounters(executor)
        window: list[dict] = []
        # Age counts from the start of execution, so a unit slower
        # than the window leaves as it finishes.
        opened = _clock()
        # One style generator for the lease; the unit stays the unit of
        # integrity (one item and one CRC each).
        for key, run in style.execute(executor, work):
            self.executed += 1
            hits, skips = counters.take()
            window.append({
                "shard": shard, "key": list(key), "run": run,
                "crc": result_digest(key, run),
                "hits": hits, "skips": skips,
            })
            if len(window) >= WINDOW_CLASSES \
                    or _clock() - opened >= WINDOW_S:
                if self._flush(stream, window):
                    return True  # saw "done" mid-lease
                opened = _clock()
        if self._flush(stream, window):
            return True
        stream.send({"type": "lease_done", "lease": lease_id,
                     "shard": shard})
        return False

    def _flush(self, stream: FrameStream, window: list[dict]) -> bool:
        """Send the window as one ``results`` frame and empty it; True
        when the coordinator has meanwhile said ``done`` (another worker
        re-submitted our expired lease) — polled once per window."""
        if window:
            stream.send({"type": "results", "items": list(window)})
            window.clear()
        polled = stream.poll()
        if polled is not None and polled.get("type") == "done":
            self._finished = True
            return True
        return False
