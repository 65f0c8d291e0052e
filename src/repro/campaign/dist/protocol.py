"""Wire protocol of the distributed campaign fabric.

Length-prefixed JSON frames: every message is one UTF-8 JSON object
preceded by a 4-byte big-endian byte count.  JSON (not pickle) keeps the
protocol inspectable, language-agnostic and safe — a coordinator never
executes anything a worker sent, and vice versa; both sides validate
structure and re-derive every object (programs are re-assembled from
source, intervals are looked up in a locally built partition) instead of
trusting the peer's serialization.

Message vocabulary (``type`` field):

==================  =========  ==============================================
type                direction  meaning
==================  =========  ==============================================
``hello``           w → c      worker introduces itself (name, version)
``campaign``        c → w      campaign spec: program source, fingerprint,
                               golden facts (Δt, ladder ``stride``),
                               executor config, campaign ``style``
``ready``           w → c      worker rebuilt + verified the golden run
``reject``          c → w      verification failed; worker must not execute
``error``           w → c      worker-side verification failure (diagnostic)
``request``         w → c      give me work
``lease``           c → w      a shard lease: id, unit keys, deadline
``wait``            c → w      no assignable work right now; retry in N s
``done``            c → w      campaign finished; disconnect
``results``         w → c      one send window of finished units:
                               ``items``, each a unit's ``shard``,
                               ``key``, ``run``, executor counters and
                               the :func:`result_digest` ``crc`` the
                               coordinator re-derives before merging —
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
experiment is a run of one value each; a brute-force slot is
``[axes, bits, outcomes]``.

Version 2 added end-to-end result integrity: every class result
carries ``crc`` (:func:`result_digest` over its key and rows), and
``lease`` frames may carry ``verify: true`` with a negative lease id —
a cross-check lease asking the worker to re-execute classes another
worker already delivered so the coordinator can byte-compare the two
(workers execute verify leases identically; only the coordinator treats
the results differently).  Version 3 replaced the per-class ``result``
frame with the windowed ``results`` frame (a window of one class is a
``results`` frame with one item): the integrity unit is still the class,
the wire unit is the worker's send window, so a frame, a coordinator
wake-up and a ``done`` poll are paid per window instead of per class.
Version 4 removed the ``heartbeat`` frame, which nothing read: accepted
results are what extends a lease, and TCP notices a dead peer.
Version 5 replaced each item's per-bit ``rows`` lists with the stored
``run`` strings, and the digest's canonical JSON with a CRC over those
strings.  Version 6 added the ``campaign`` frame's ``stride``, the
golden checkpoint ladder's (``0``: none), which the worker records its
golden run with.  Version 7 made the fabric serve every campaign style:
the ``campaign`` frame's ``style`` names it (``kind``, plus ``seed``,
``sampler`` and ``samples`` for sampling), the worker rebuilds it from
its verified golden run, and keys are integer lists of any length.  Any
type not in the table is a :class:`ProtocolError`.

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
import zlib

#: Bumped on incompatible protocol changes; both sides send it in the
#: handshake and refuse mismatching peers.  Version 2: result CRCs and
#: cross-check verify leases.  Version 3: one ``results`` frame per send
#: window instead of one ``result`` frame per class.  Version 4: no
#: ``heartbeat`` frame.  Version 5: a class travels as its stored run.
#: Version 6: the campaign frame carries the ladder stride.  Version 7:
#: the campaign frame names the style; keys of any length.  Version 8:
#: no ``auto`` engine (a version-7 default config names it).
PROTOCOL_VERSION = 8

#: Refuse absurd frame lengths outright — a peer speaking a different
#: protocol (or garbage) would otherwise make us allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer violated the framing or message contract."""


def result_digest(key, run) -> int:
    """CRC-32 of one unit result's semantic content.

    Computed over the unit's integer key (a class's ``(axis,
    first_slot)``, a sampled experiment's ``(axis, first_slot, bit)``, a
    brute-force ``(slot,)``), space-joined, and the three strings of its
    ``run``, one per line, so it is invariant to framing and to field
    order elsewhere in the message.  The worker stamps it on each item
    of a ``results`` frame; the coordinator re-derives it from the
    decoded payload before merging, which catches corruption anywhere
    between the worker's executor and the coordinator's journal
    (including a serialization bug on either side).  It is also the
    byte-comparison unit of cross-check sampling: two honest executions
    of the same unit necessarily produce equal digests.  A ``run``
    member that is not a string raises ``TypeError``.
    """
    first, second, third = run
    return zlib.crc32("\n".join(
        (" ".join([str(int(v)) for v in key]), first, second, third))
        .encode("utf-8"))


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
