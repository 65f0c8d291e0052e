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
``wait``            c → w      no assignable work right now; retry in N s
``done``            c → w      campaign finished; disconnect
``results``         w → c      one send window of finished units:
                               ``items``, each a unit's ``shard``,
                               ``key``, ``run`` and executor counters —
                               checked per item, merged per window
``lease_done``      w → c      every key of the lease was submitted
==================  =========  ==============================================

A unit crosses the wire as its key, a list of integers, and a ``run``
of three space-joined strings, exactly as its campaign style's
``execute`` yields it (``CampaignStyle``).  A full-scan class travels
in the form the journal stores it: ``[outcomes, end_cycles, traps]``,
the class's per-bit values from bit 0 — the three value columns of one
``class_results`` row (:mod:`repro.campaign.journal`), which nothing
between the worker's executor and the journal converts.  A sampled
experiment is a run of one value each.  Any type not in the table is
a :class:`ProtocolError`.

Two transport bindings share the codec: :class:`FrameStream` wraps a
blocking ``socket`` for the worker (with a non-blocking :meth:`poll` so
a worker can notice a mid-lease ``done`` between send windows), and
:func:`read_frame` / :func:`write_frame` bind the same frames to
``asyncio`` streams for the coordinator.
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


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (limit "
            f"{MAX_FRAME_BYTES}); not speaking this protocol?")


class FrameStream:
    """Blocking-socket binding of the frame codec (worker side).

    Owns a receive buffer so partially delivered frames survive between
    reads — in particular, :meth:`poll` may consume half a frame
    without blocking and a later :meth:`read` completes it.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = bytearray()

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
        _check_length(length)
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
                if self._buffer:
                    raise ProtocolError("connection closed mid-frame")
                return None
            self._buffer.extend(chunk)

    def poll(self) -> dict | None:
        """Return a buffered frame without blocking, else None."""
        frame = self._extract()
        if frame is not None:
            return frame
        self._sock.settimeout(0.0)
        try:
            while True:
                chunk = self._sock.recv(65536)
                if not chunk:
                    # EOF: surface it on the next blocking read.
                    return self._extract()
                self._buffer.extend(chunk)
                frame = self._extract()
                if frame is not None:
                    return frame
        except (BlockingIOError, InterruptedError):
            return None
        finally:
            self._sock.settimeout(None)


# -- asyncio binding (coordinator side) ----------------------------------------


async def read_frame(reader) -> dict | None:
    """Read one frame from an asyncio stream; None on clean EOF."""
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("connection closed mid-frame") from exc
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_frame(payload)


def write_frame(writer, message: dict) -> None:
    """Queue one frame on an asyncio stream writer.

    A single ``write()`` call appends the whole frame to the transport
    buffer, so frames from different tasks can interleave but never
    tear; callers ``await writer.drain()`` at their own cadence.
    """
    writer.write(encode_frame(message))
