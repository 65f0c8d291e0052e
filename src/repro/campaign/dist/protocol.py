"""Wire protocol of the campaign fabric.

Length-prefixed JSON frames: every message is one UTF-8 JSON object
preceded by a 4-byte big-endian byte count, on one socket pair per
forked worker.  JSON (not pickle) keeps the protocol inspectable and
safe — a coordinator never executes anything a worker sent; it checks
every unit's shape against the campaign it holds before any
accounting.  A worker is a fork of the coordinator's process, so the
campaign itself — program, golden run, style — never crosses the
wire.

Message vocabulary (``type`` field):

==================  =========  ==============================================
type                direction  meaning
==================  =========  ==============================================
``request``         w → c      give me work
``lease``           c → w      a shard lease: id, shard, unit keys
``done``            c → w      campaign finished; disconnect
``results``         w → c      one send window of finished units:
                               ``items``, each a unit's ``shard``,
                               ``key``, ``run`` and executor counters —
                               checked per item, merged per window
``lease_done``      w → c      every key of the lease was submitted
==================  =========  ==============================================

A ``request`` is answered by a ``lease`` or by ``done``, whenever one
is due: a request that finds no pending shard waits at the coordinator
until a shard returns to pending or the campaign ends, and its worker
waits reading.  Nothing on the wire carries a time.

A unit crosses the wire as its key, a list of integers, and a ``run``
of three space-joined strings, exactly as its campaign style's
``execute`` yields it (``CampaignStyle``).  A full-scan class travels
in the form the journal stores it: ``[outcomes, end_cycles, traps]``,
the class's per-bit values from bit 0 — the three value columns of one
``class_results`` row (:mod:`repro.campaign.journal`), which nothing
between the worker's executor and the journal converts.  A sampled
experiment is a run of one value each.  Any type not in the table is
a :class:`ProtocolError`.

Coordinator and worker share one binding of the codec,
:class:`FrameStream` over a blocking ``socket``: the worker reads its
answers blocking; the coordinator polls, without blocking, every
stream its selector reports readable, and :attr:`FrameStream.eof`
tells it that the peer hung up.
"""

from __future__ import annotations

import json
import socket
import struct

#: Refuse absurd frame lengths outright — a peer speaking a different
#: protocol (or garbage) would otherwise make us allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer violated the framing or message contract."""


def encode_frame(message: dict) -> bytes:
    """One message as length-prefixed JSON bytes."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> dict:
    """Decode one frame body (the bytes after the length prefix)."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(
            f"frame is not a typed message: {message!r:.80}")
    return message


class FrameStream:
    """Blocking-socket binding of the frame codec.

    Owns a receive buffer so partially delivered frames survive between
    reads — in particular, :meth:`poll` may consume half a frame
    without blocking and a later :meth:`read` completes it.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()
        #: The peer hung up: a read saw the end of the stream.
        self.eof = False

    def close(self) -> None:
        self._sock.close()

    def send(self, message: dict) -> None:
        """Send one frame."""
        self._sock.sendall(encode_frame(message))

    def _extract(self) -> dict | None:
        """Pop one complete frame from the buffer, if present."""
        if len(self._buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"peer announced a {length}-byte frame (limit "
                f"{MAX_FRAME_BYTES}); not speaking this protocol?")
        end = _HEADER.size + length
        if len(self._buffer) < end:
            return None
        payload = bytes(self._buffer[_HEADER.size:end])
        del self._buffer[:end]
        return decode_frame(payload)

    def read(self, timeout: float | None = None) -> dict | None:
        """Read one frame, blocking up to ``timeout``; None on clean EOF.

        Raises ``socket.timeout`` (an ``OSError``) when the deadline
        passes mid-frame — callers treat that as a lost connection.
        """
        self._sock.settimeout(timeout)
        while True:
            frame = self._extract()
            if frame is not None:
                return frame
            chunk = self._sock.recv(65536)
            if not chunk:
                self.eof = True
                if self._buffer:
                    raise ProtocolError("connection closed mid-frame")
                return None
            self._buffer.extend(chunk)

    def poll(self) -> dict | None:
        """Return a buffered frame without blocking, else None — then
        :attr:`eof` tells a peer that hung up (cleanly or mid-frame)
        from one that has sent nothing more yet."""
        frame = self._extract()
        if frame is not None:
            return frame
        self._sock.settimeout(0.0)
        try:
            while True:
                chunk = self._sock.recv(65536)
                if not chunk:
                    self.eof = True
                    return self._extract()
                self._buffer.extend(chunk)
                frame = self._extract()
                if frame is not None:
                    return frame
        except (BlockingIOError, InterruptedError):
            return None
        finally:
            self._sock.settimeout(None)
