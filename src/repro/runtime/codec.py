"""Wire codec: :class:`~repro.core.packet.AskPacket` ⇄ UDP datagram bytes.

The discrete-event backend moves packet *objects* between nodes; the
asyncio backend moves real datagrams, so it needs a byte encoding.  The
format is a straightforward binary framing of the ASK header of Fig. 5
(it is not byte-identical to the paper's P4 header — endpoint names ride
along because the simulator addresses by name, not by IP):

======  =====  ==========================================================
offset  size   field
======  =====  ==========================================================
0       1      magic (0xA5)
1       1      version (2)
2       1      flags (:class:`~repro.core.packet.PacketFlag` bits)
3       1      ECN congestion-experienced mark (0/1)
4       8      task id (unsigned)
12      8      sequence number / swap epoch (signed)
20      2      channel index (signed; -1 for swap notifications)
22      8      bitmap
30      1+n    src name (length-prefixed UTF-8)
..      1+n    dst name (length-prefixed UTF-8)
..      2      slot count
..      ...    slots
end-4   4      CRC32 integrity trailer (version >= 2 only)
======  =====  ==========================================================

Each slot is ``present(1) [key_len(2) key value(8)]``; blank slots
(``present == 0``) carry no payload.  Values are the masked unsigned
integers the aggregation pipeline works in (§3.2.1), so 8 bytes always
suffice.

Version 2 appends a CRC32 (IEEE, :func:`zlib.crc32`) of everything
before the trailer.  On Tofino the Ethernet FCS provides this for free;
over localhost UDP nothing does, and a single flipped bit in a value or
bitmap would otherwise decode cleanly and silently corrupt the final
aggregate.  With the trailer, corruption degrades to *loss* — the frame
is rejected, the sender retransmits, and exactly-once recovery (§3.3)
applies unchanged.  Version-1 frames (the seed encoding, no trailer)
still decode for compatibility; :func:`encode_packet` can emit them on
request for fabrics running with integrity disabled.

The codec is total: every packet the stack can build round-trips, and
:func:`decode_packet` raises :class:`CodecError` (never an unhandled
struct/unicode error) on truncated, mutated, or foreign datagrams, so a
stray UDP sender cannot crash a serving rack.  Each :class:`CodecError`
carries a stable ``reason`` tag (``"magic"``, ``"version"``, ``"flags"``,
``"truncated"``, ``"checksum"``, ``"malformed"``) that ingress counters
key on.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional

from repro.core.errors import AskError
from repro.core.packet import AskPacket, PacketFlag, Slot

MAGIC = 0xA5
#: Current frame version: CRC32 integrity trailer.
VERSION = 2
#: Seed frame version: no trailer.  Still decodable; encodable on request.
VERSION_LEGACY = 1

#: Every flag bit the protocol defines.  Frames with bits outside this
#: mask are rejected (``IntFlag`` would otherwise KEEP unknown bits and
#: hand the stack a flag value no dispatch path expects).
_DEFINED_FLAGS = 0
for _flag in PacketFlag:
    _DEFINED_FLAGS |= int(_flag)

_FIXED = struct.Struct("!BBBBQqhQ")
_SLOT_HEAD = struct.Struct("!H")
_VALUE = struct.Struct("!Q")
_CRC = struct.Struct("!I")
_VALUE_MASK = (1 << 64) - 1
#: Batch container framing: frame count, then per-frame byte length.
_BATCH_HEAD = struct.Struct("!I")
_FRAME_LEN = struct.Struct("!I")


class CodecError(AskError, ValueError):
    """A datagram could not be decoded as an ASK packet.

    ``reason`` is a stable machine-readable tag for drop accounting:
    one of ``"magic"``, ``"version"``, ``"flags"``, ``"truncated"``,
    ``"checksum"``, ``"malformed"``.
    """

    def __init__(self, message: str, reason: str = "malformed") -> None:
        super().__init__(message)
        self.reason = reason


def encode_packet(packet: AskPacket, version: int = VERSION) -> bytes:
    """Serialize ``packet`` into one self-contained datagram payload.

    ``version=2`` (default) appends the CRC32 trailer; ``version=1``
    emits the seed framing for integrity-disabled fabrics.
    """
    if version not in (VERSION, VERSION_LEGACY):
        raise CodecError(f"cannot encode frame version {version}", reason="version")
    src = packet.src.encode("utf-8")
    dst = packet.dst.encode("utf-8")
    if len(src) > 255 or len(dst) > 255:
        raise CodecError("endpoint names longer than 255 bytes cannot be framed")
    parts = [
        _FIXED.pack(
            MAGIC,
            version,
            int(packet.flags) & 0xFF,
            1 if packet.ecn else 0,
            packet.task_id & _VALUE_MASK,
            packet.seq,
            packet.channel_index,
            packet.bitmap & _VALUE_MASK,
        ),
        bytes((len(src),)),
        src,
        bytes((len(dst),)),
        dst,
        _SLOT_HEAD.pack(len(packet.slots)),
    ]
    for slot in packet.slots:
        if slot is None:
            parts.append(b"\x00")
            continue
        if len(slot.key) > 0xFFFF:
            raise CodecError(f"slot key of {len(slot.key)} bytes cannot be framed")
        parts.append(b"\x01")
        parts.append(struct.pack("!H", len(slot.key)))
        parts.append(slot.key)
        parts.append(_VALUE.pack(slot.value & _VALUE_MASK))
    body = b"".join(parts)
    if version == VERSION_LEGACY:
        return body
    return body + _CRC.pack(zlib.crc32(body))


class _Reader:
    """Bounds-checked cursor over one datagram."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError(
                f"truncated datagram: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}",
                reason="truncated",
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]


def decode_packet(data: bytes) -> AskPacket:
    """Parse one datagram back into an :class:`AskPacket`.

    Accepts version-2 frames (CRC32 verified) and legacy version-1
    frames (no trailer).  Raises :class:`CodecError` on anything else.
    """
    if len(data) < _FIXED.size:
        raise CodecError(
            f"datagram of {len(data)} bytes is shorter than the fixed header",
            reason="truncated",
        )
    magic, version, flags, ecn, task_id, seq, channel_index, bitmap = _FIXED.unpack(
        data[: _FIXED.size]
    )
    if magic != MAGIC:
        raise CodecError(f"bad magic 0x{magic:02x} (not an ASK frame)", reason="magic")
    if version == VERSION:
        # Verify the trailer before trusting a single field: a corrupted
        # frame must look exactly like a lost one.
        if len(data) < _FIXED.size + _CRC.size:
            raise CodecError(
                "version-2 frame too short to carry its CRC32 trailer",
                reason="truncated",
            )
        body, trailer = data[: -_CRC.size], data[-_CRC.size :]
        (expected,) = _CRC.unpack(trailer)
        actual = zlib.crc32(body)
        if actual != expected:
            raise CodecError(
                f"CRC32 mismatch: trailer 0x{expected:08x}, computed 0x{actual:08x}",
                reason="checksum",
            )
    elif version == VERSION_LEGACY:
        body = data
    else:
        raise CodecError(f"unsupported frame version {version}", reason="version")
    if flags & ~_DEFINED_FLAGS:
        raise CodecError(
            f"undefined flag bits 0x{flags & ~_DEFINED_FLAGS:02x} in 0x{flags:02x}",
            reason="flags",
        )
    if ecn > 1:
        raise CodecError(f"bad ECN byte {ecn} (must be 0 or 1)")
    reader = _Reader(body)
    reader.pos = _FIXED.size
    try:
        src = reader.take(reader.byte()).decode("utf-8")
        dst = reader.take(reader.byte()).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable endpoint name: {exc}") from exc
    (slot_count,) = _SLOT_HEAD.unpack(reader.take(_SLOT_HEAD.size))
    slots: List[Optional[Slot]] = []
    for _ in range(slot_count):
        present = reader.byte()
        if present == 0:
            slots.append(None)
        elif present == 1:
            (key_len,) = struct.unpack("!H", reader.take(2))
            key = reader.take(key_len)
            (value,) = _VALUE.unpack(reader.take(_VALUE.size))
            slots.append(Slot(key, value))
        else:
            raise CodecError(f"bad slot presence byte {present}")
    if reader.pos != len(body):
        raise CodecError(f"{len(body) - reader.pos} trailing bytes after packet")
    return AskPacket(
        flags=PacketFlag(flags),
        task_id=task_id,
        src=src,
        dst=dst,
        channel_index=channel_index,
        seq=seq,
        bitmap=bitmap,
        slots=tuple(slots),
        ecn=bool(ecn),
    )


# ---------------------------------------------------------------------------
# Batch framing: several datagrams in one length-prefixed container.
#
# A batch container is ``count(!I)`` followed by ``count`` frames, each
# prefixed with its byte length (``!I``).  Each frame is one ordinary
# :func:`encode_packet` datagram (its own version byte, its own CRC32
# trailer when version 2), so any batch member decodes with the scalar
# decoder and integrity failures stay per-frame, never per-batch.
# ---------------------------------------------------------------------------


def encode_packet_batch(packets: List[AskPacket], version: int = VERSION) -> bytes:
    """Serialize ``packets`` into one length-prefixed batch container."""
    parts = [_BATCH_HEAD.pack(len(packets))]
    for packet in packets:
        frame = encode_packet(packet, version)
        parts.append(_FRAME_LEN.pack(len(frame)))
        parts.append(frame)
    return b"".join(parts)


def iter_packet_frames(buffer: bytes) -> List[memoryview]:
    """Split a batch container into zero-copy per-frame views.

    The returned :class:`memoryview` slices alias ``buffer`` — no frame
    bytes are copied by the split.  Raises :class:`CodecError` on a
    malformed container (truncated lengths, trailing bytes).
    """
    view = memoryview(buffer)
    total = len(view)
    if total < _BATCH_HEAD.size:
        raise CodecError(
            f"batch container of {total} bytes is shorter than its count header",
            reason="truncated",
        )
    (count,) = _BATCH_HEAD.unpack_from(view, 0)
    pos = _BATCH_HEAD.size
    frames: List[memoryview] = []
    for _ in range(count):
        if pos + _FRAME_LEN.size > total:
            raise CodecError(
                "batch container truncated inside a frame-length prefix",
                reason="truncated",
            )
        (length,) = _FRAME_LEN.unpack_from(view, pos)
        pos += _FRAME_LEN.size
        end = pos + length
        if end > total:
            raise CodecError(
                f"batch frame of {length} bytes overruns the container",
                reason="truncated",
            )
        frames.append(view[pos:end])
        pos = end
    if pos != total:
        raise CodecError(f"{total - pos} trailing bytes after batch container")
    return frames


def decode_packet_batch(buffer: bytes) -> List[AskPacket]:
    """Decode every frame of a batch container.

    The container is *split* without copying (:func:`iter_packet_frames`);
    each frame is then materialized to ``bytes`` for :func:`decode_packet`,
    whose parsed fields (names, slot keys) need real byte strings anyway.
    """
    return [decode_packet(bytes(frame)) for frame in iter_packet_frames(buffer)]
