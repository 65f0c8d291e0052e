"""Campaign worker: pulls leases, executes experiments, streams results.

A worker is a fork of the campaign's own process: it inherits the
campaign style — golden run, domain, units, executor config — and
talks to the coordinator over its end of one socket pair.  Nothing is
rebuilt or re-verified: the style it executes is the coordinator's,
object for object, so a unit has one possible value and the result is
bit-for-bit serial.

While holding a lease the worker runs the lease's units through one
``style.execute`` generator — the same generator every transport uses,
so a full scan's classes that share an injection slot go to the
executor as one group, in ascending slot order (preserving the
executor's snapshot fast-forward) — and streams the finished units back
in **send windows**: one ``results`` frame per :data:`WINDOW_CLASSES`
units or :data:`WINDOW_S` seconds, whichever comes first, the last
window when the lease is run.  Its next ``request`` ends the lease.
The coordinator journals progress continuously and a worker lost
mid-shard forfeits only the window in flight (re-executed through the
lease re-grant).  The worker is one thread and sends nothing but
requests and results: a request it makes when no shard is pending is
simply answered later, and nothing needs proof that it is alive — its
end is the hang-up of its socket.  When its stream ends — the
coordinator said ``done``, or hung up — the worker returns; there is
no reconnect, and a worker that dies is the fleet's to replace.

Every unit leaves as its own item of the window, as its style's
``execute`` yielded it — its ``run``, three space-joined strings in the
journal's stored form (:mod:`~.protocol` docstring) — so the
coordinator checks the shape of each unit on its own.
"""

from __future__ import annotations

import socket
import time

from ..pipeline import ExecutorCounters
from .protocol import FrameStream, ProtocolError


#: The send window: finished classes leave as one ``results`` frame when
#: this many are buffered, or when the oldest of them began executing
#: :data:`WINDOW_S` ago.  Constants chosen by measurement, like the
#: journal's ``COMMIT_WINDOW_S`` (``scan_dist_mem``: 7 164 frames → 147,
#: ≈ 5.5 → ≈ 4.4 reference s; 16 classes was slower, 256 and 1 024 no
#: faster); they bound what a killed worker loses and how late the
#: coordinator sees progress.
WINDOW_CLASSES = 64
WINDOW_S = 0.25

#: The window's clock (module-level so tests can substitute a virtual
#: one).
_clock = time.monotonic


class DistWorker:
    """One worker's client loop over ``sock``, its end of a socket pair,
    executing leases of ``style``, the campaign style it inherited."""

    def __init__(self, sock: socket.socket, style):
        self._stream = FrameStream(sock)
        self.style = style
        #: Units executed locally (not counting duplicates).
        self.executed = 0

    def run(self) -> int:
        """Serve leases until the coordinator says ``done`` or hangs up;
        returns the number of units this worker executed."""
        executor = self.style.config.build(self.style.golden)
        try:
            self._work(self._stream, executor, self.style)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the coordinator hung up: nothing is left to serve
        finally:
            self._stream.close()
        return self.executed

    # -- lease execution --------------------------------------------------------

    def _work(self, stream: FrameStream, executor, style) -> None:
        while True:
            stream.send({"type": "request"})
            frame = stream.read()
            if frame is None or frame.get("type") == "done":
                return
            if frame.get("type") != "lease":
                raise ProtocolError(
                    f"expected lease, got {frame.get('type')!r}")
            self._run_lease(stream, frame, executor, style)

    def _run_lease(self, stream: FrameStream, lease: dict, executor,
                   style) -> None:
        units = style.units
        work = [units[tuple(int(v) for v in key)] for key in lease["keys"]]
        counters = ExecutorCounters(executor)
        window: list[dict] = []
        # Age counts from the start of execution, so a unit slower
        # than the window leaves as it finishes.
        opened = _clock()
        # One style generator for the lease; the unit stays the unit of
        # integrity (one item each).
        for key, run in style.execute(executor, work):
            self.executed += 1
            hits, skips = counters.take()
            window.append({"key": list(key), "run": run, "hits": hits,
                           "skips": skips})
            if len(window) >= WINDOW_CLASSES \
                    or _clock() - opened >= WINDOW_S:
                _flush(stream, window)
                opened = _clock()
        _flush(stream, window)


def _flush(stream: FrameStream, window: list[dict]) -> None:
    """Send the window as one ``results`` frame and empty it."""
    if window:
        stream.send({"type": "results", "items": list(window)})
        window.clear()
