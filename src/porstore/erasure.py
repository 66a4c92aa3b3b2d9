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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .encoding import bytes_to_symbols, symbols_to_bytes
from .errors import DuplicateShard, InsufficientShards, InvalidParams, RaggedInput
from .field import lagrange_at

SYMBOL_BITS = 15
PARITY_SYMBOL_BYTES = 3
DEFAULT_REDUNDANCY = 2  # shipped n_total / k_data ratio


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


def _symbol_count(block_len: int) -> int:
    return (8 * block_len + SYMBOL_BITS - 1) // SYMBOL_BITS


def shard_byte_length(params: CodeParams, block_len: int, index: int) -> int:
    """Serialized size of shard `index` for data blocks of block_len bytes."""
    if index < params.k_data:
        return block_len
    return PARITY_SYMBOL_BYTES * _symbol_count(block_len)


def parity_to_bytes(symbols: list[int]) -> bytes:
    return b"".join(s.to_bytes(PARITY_SYMBOL_BYTES, "little") for s in symbols)


def parity_from_bytes(data: bytes) -> list[int]:
    if len(data) % PARITY_SYMBOL_BYTES:
        raise InvalidParams("parity shard length not a multiple of the symbol width")
    return [int.from_bytes(data[i : i + PARITY_SYMBOL_BYTES], "little") for i in range(0, len(data), PARITY_SYMBOL_BYTES)]


def encode(data_blocks: list[bytes], params: CodeParams) -> EncodedBlocks:
    """Extend k_data equal-length blocks to n_total shards."""
    if len(data_blocks) != params.k_data:
        raise InvalidParams(f"expected {params.k_data} blocks, got {len(data_blocks)}")
    if len({len(b) for b in data_blocks}) > 1:
        raise RaggedInput("data blocks must share a length")
    p = params.field_modulus
    k, n = params.k_data, params.n_total
    columns = [bytes_to_symbols(b, SYMBOL_BITS) for b in data_blocks]

    shards = [(i, data_blocks[i]) for i in range(k)]
    if n > k:
        data_xs = list(range(1, k + 1))
        # One coefficient row per parity point; encoding is then k mul-adds
        # per symbol instead of a fresh interpolation.
        rows = [lagrange_at(data_xs, x, p) for x in range(k + 1, n + 1)]
        sym_count = _symbol_count(len(data_blocks[0]))
        for row, i in zip(rows, range(k, n)):
            out = [sum(c * col[j] for c, col in zip(row, columns)) % p for j in range(sym_count)]
            shards.append((i, parity_to_bytes(out)))
    return EncodedBlocks(params=params, shards=tuple(shards))


def decode(shards: list[tuple[int, bytes]], params: CodeParams, block_len: int | None = None) -> list[bytes]:
    """Recover the k_data original blocks from any k_data distinct shards.

    block_len (the data block byte length) is inferred from any present
    data shard; it must be passed explicitly when only parity shards are
    supplied, since parity symbol counts do not pin the byte length.
    """
    p = params.field_modulus
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
    sym_count = _symbol_count(block_len)

    chosen = sorted(seen)[:k]
    columns = {}
    for idx in chosen:
        raw = seen[idx]
        columns[idx] = bytes_to_symbols(raw, SYMBOL_BITS) if idx < k else parity_from_bytes(raw)
        if len(columns[idx]) != sym_count:
            raise RaggedInput(f"shard {idx} has {len(columns[idx])} symbols, expected {sym_count}")

    xs = [idx + 1 for idx in chosen]
    out: list[bytes] = []
    for target in range(k):
        if target in seen and target < k:
            out.append(seen[target])
            continue
        row = lagrange_at(xs, target + 1, p)
        cols = [columns[idx] for idx in chosen]
        symbols = [sum(c * col[j] for c, col in zip(row, cols)) % p for j in range(sym_count)]
        out.append(symbols_to_bytes(symbols, SYMBOL_BITS, block_len))
    return out
