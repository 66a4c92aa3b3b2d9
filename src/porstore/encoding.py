"""Byte-level encodings: little-endian counters and bitstream chunking.

The bitstream layout is MSB-first: byte 0's most significant bit is the
first bit of the stream.  Chunking a byte string into w-bit symbols pads
the tail with zero bits; the inverse truncates back to the recorded byte
length, so round-trips are exact.

Both directions work one group of lcm(w, 8) bits at a time: a group is a
whole number of bytes and a whole number of symbols (15 bytes for eight
15-bit symbols, 15 bytes for two 60-bit chunks), so each group converts
with one int.from_bytes or to_bytes and no int ever grows past the group.
Time is linear in the data length.
"""

from __future__ import annotations

from math import lcm
from operator import lshift

from .errors import MalformedInput


def le64(value: int) -> bytes:
    """Encode a non-negative integer as 8 little-endian bytes."""
    return value.to_bytes(8, "little")


def _group(bits: int) -> tuple[int, range]:
    """Bytes per lcm(bits, 8)-bit group, and each symbol's shift in it."""
    if bits < 1:
        raise ValueError("symbol width must be positive")
    group_bits = lcm(bits, 8)
    return group_bits // 8, range(group_bits - bits, -1, -bits)


def bytes_to_symbols(data: bytes, bits: int) -> list[int]:
    """Chunk `data` into `bits`-wide integers, zero-padding the tail."""
    group_bytes, shifts = _group(bits)
    count = (8 * len(data) + bits - 1) // bits
    data = bytes(data) + bytes(-len(data) % group_bytes)
    mask = (1 << bits) - 1
    groups = (int.from_bytes(data[i : i + group_bytes], "big") for i in range(0, len(data), group_bytes))
    symbols = [(g >> s) & mask for g in groups for s in shifts]
    del symbols[count:]
    return symbols


def symbols_to_bytes(symbols, bits: int, byte_len: int) -> bytes:
    """Inverse of bytes_to_symbols: repack symbols and cut to byte_len.

    A symbol outside [0, 2^bits) has no place in the stream and raises
    MalformedInput.
    """
    group_bytes, shifts = _group(bits)
    symbols = list(symbols)
    if symbols and (min(symbols) < 0 or max(symbols) >> bits):
        raise MalformedInput(f"a symbol does not fit in {bits} bits")
    stream_len = (len(symbols) * bits + 7) // 8
    per = len(shifts)
    symbols += [0] * (-len(symbols) % per)
    raw = b"".join(
        sum(map(lshift, symbols[i : i + per], shifts)).to_bytes(group_bytes, "big")
        for i in range(0, len(symbols), per)
    )
    return raw[:stream_len][:byte_len]
