"""Systematic Reed-Solomon erasure coding over GF(65537).

Each data block is chunked into 15-bit symbols (always valid field
elements).  Column j across the k_data blocks is read as evaluations of a
degree-(k_data - 1) polynomial at x = 1..k_data and extended to
x = 1..n_total; shard i carries the evaluations at x = i + 1.  Any k_data
shards with distinct indices recover the data exactly; this handles
erasures (known-missing shards) only, since corruption is caught by the
Merkle layer.

Shard serialization: data shards (index < k_data) are the original block
bytes.  Parity symbols can reach 65536, which does not fit a 16-bit slot,
so parity shards store each symbol as 3 little-endian bytes.

Packed columns (Kronecker substitution): encode and decode pack each
shard's symbols once into one int with a 64-bit little-endian slot per
symbol.  An output row sum(c_j * f(x_j)) is then k big-int scalar
multiplies and adds over whole columns, and one C-level map reduces every
slot mod 65537.  Slots never carry into each other: coefficients are below
2^17 and symbols at most 2^16, so a slot stays below k * 2^34 <= 2^50,
since CodeParams caps n_total (and so k) at 65536.  Parity shards move
between 3-byte and 8-byte slots by byte interleaving, without a
per-symbol step.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import ClassVar

from .encoding import bytes_to_symbols, symbols_to_bytes
from .errors import DuplicateShard, InsufficientShards, InvalidParams, MalformedInput, RaggedInput
from .field import lagrange_at

SYMBOL_BITS = 15
PARITY_SYMBOL_BYTES = 3
DEFAULT_REDUNDANCY = 2  # shipped n_total / k_data ratio
_SLOT_BYTES = 8  # one packed-column slot


@dataclass(frozen=True)
class CodeParams:
    """Systematic Reed-Solomon shape: k_data in, n_total out.

    The field is fixed: 15-bit symbols and 3-byte parity slots are sized
    for GF(65537), and any other modulus would corrupt data.
    """

    k_data: int
    n_total: int
    field_modulus: ClassVar[int] = 65537

    def __post_init__(self):
        if not 1 <= self.k_data <= self.n_total:
            raise InvalidParams("need 1 <= k_data <= n_total")
        if self.n_total > self.field_modulus - 1:
            raise InvalidParams("n_total exceeds available evaluation points")


@dataclass(frozen=True)
class EncodedBlocks:
    params: CodeParams
    shards: tuple[tuple[int, bytes], ...]


def _slots(data: bytes) -> array:
    """8-byte little-endian slots as an array of unsigned 64-bit ints."""
    slots = array("Q", data)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _slot_bytes(symbols) -> bytes:
    """Inverse of _slots."""
    slots = array("Q", symbols)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tobytes()


def parity_to_bytes(symbols) -> bytes:
    raw = _slot_bytes(symbols)
    out = bytearray(PARITY_SYMBOL_BYTES * len(symbols))
    for b in range(PARITY_SYMBOL_BYTES):
        out[b::PARITY_SYMBOL_BYTES] = raw[b::_SLOT_BYTES]
    return bytes(out)


def _parity_slot_bytes(data: bytes) -> bytes:
    """A parity shard widened to 8-byte slots; a slot >= 65537 raises."""
    if len(data) % PARITY_SYMBOL_BYTES:
        raise InvalidParams("parity shard length not a multiple of the symbol width")
    raw = bytearray(_SLOT_BYTES * (len(data) // PARITY_SYMBOL_BYTES))
    for b in range(PARITY_SYMBOL_BYTES):
        raw[b::_SLOT_BYTES] = data[b::PARITY_SYMBOL_BYTES]
    if raw and max(_slots(raw)) >= CodeParams.field_modulus:
        raise MalformedInput(f"parity shard holds a symbol >= {CodeParams.field_modulus}")
    return bytes(raw)


def _combine(rows: list[list[int]], columns: list[bytes]) -> list[list[int]]:
    """Each row's combination sum(c_j * column_j) mod 65537, symbol by
    symbol.  Columns arrive as 8-byte slots and are packed into ints once."""
    p = CodeParams.field_modulus
    packed = [int.from_bytes(col, "little") for col in columns]
    width = len(columns[0])
    return [
        list(map(p.__rmod__, _slots(sum(c * col for c, col in zip(row, packed)).to_bytes(width, "little"))))
        for row in rows
    ]


def encode(data_blocks: list[bytes], params: CodeParams) -> EncodedBlocks:
    """Extend k_data equal-length blocks to n_total shards."""
    if len(data_blocks) != params.k_data:
        raise InvalidParams(f"expected {params.k_data} blocks, got {len(data_blocks)}")
    if len({len(b) for b in data_blocks}) > 1:
        raise RaggedInput("data blocks must share a length")
    k, n = params.k_data, params.n_total
    shards = [(i, data_blocks[i]) for i in range(k)]
    if n > k:
        columns = [_slot_bytes(bytes_to_symbols(b, SYMBOL_BITS)) for b in data_blocks]
        # One coefficient row per parity point; encoding is then k mul-adds
        # per column instead of a fresh interpolation.
        data_xs = list(range(1, k + 1))
        rows = [lagrange_at(data_xs, x, params.field_modulus) for x in range(k + 1, n + 1)]
        parity = _combine(rows, columns)
        shards += [(i, parity_to_bytes(symbols)) for i, symbols in zip(range(k, n), parity)]
    return EncodedBlocks(params=params, shards=tuple(shards))


def decode(shards: list[tuple[int, bytes]], params: CodeParams, block_len: int | None = None) -> list[bytes]:
    """Recover the k_data original blocks from any k_data distinct shards.

    block_len (the data block byte length) is inferred from any present
    data shard; it must be passed explicitly when only parity shards are
    supplied, since parity symbol counts do not pin the byte length.
    """
    k = params.k_data
    seen: dict[int, bytes] = {}
    for idx, data in shards:
        if idx in seen:
            raise DuplicateShard(f"shard index {idx} supplied twice")
        if not 0 <= idx < params.n_total:
            raise InvalidParams(f"shard index {idx} not in [0, {params.n_total})")
        seen[idx] = data
    if len(seen) < k:
        raise InsufficientShards(f"need {k} shards, got {len(seen)}")

    for idx in seen:
        if idx < k:
            if block_len is None:
                block_len = len(seen[idx])
            elif block_len != len(seen[idx]):
                raise RaggedInput("data shard length disagrees with block_len")
    if block_len is None:
        raise InvalidParams("block_len required when no data shard is present")
    sym_count = (8 * block_len + SYMBOL_BITS - 1) // SYMBOL_BITS

    chosen = sorted(seen)[:k]
    columns = []
    for idx in chosen:
        raw = seen[idx]
        slot_bytes = _slot_bytes(bytes_to_symbols(raw, SYMBOL_BITS)) if idx < k else _parity_slot_bytes(raw)
        if len(slot_bytes) != _SLOT_BYTES * sym_count:
            raise RaggedInput(f"shard {idx} has {len(slot_bytes) // _SLOT_BYTES} symbols, expected {sym_count}")
        columns.append(slot_bytes)

    xs = [idx + 1 for idx in chosen]
    missing = [target for target in range(k) if target not in seen]
    rows = [lagrange_at(xs, target + 1, params.field_modulus) for target in missing]
    recovered = dict(zip(missing, _combine(rows, columns)))
    return [
        seen[target] if target in seen else symbols_to_bytes(recovered[target], SYMBOL_BITS, block_len)
        for target in range(k)
    ]
