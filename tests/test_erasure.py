import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from porstore.encoding import bytes_to_symbols, symbols_to_bytes
from porstore.erasure import _parity_slot_bytes, _slots, decode, encode
from porstore.errors import DuplicateShard, InsufficientShards, InvalidParams, MalformedInput, RaggedInput
from porstore.field import inv_mod, lagrange_at
from porstore.erasure import CodeParams

P = 65537


def _parity(shard):
    """A parity shard's symbols, widened and range-checked as decode reads them."""
    return _slots(_parity_slot_bytes(shard)).tolist()


def _random_blocks(k, size, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(k)]


class TestEncode:
    def test_identity_code(self):
        blocks = _random_blocks(4, 128)
        enc = encode(blocks, CodeParams(4, 4))
        assert [s for _, s in enc.shards] == blocks

    def test_constant_polynomial(self):
        # k=1: every shard carries the same symbol sequence as the input,
        # and any single shard reconstructs it.
        block = _random_blocks(1, 200, seed=1)[0]
        enc = encode([block], CodeParams(1, 3))
        data_syms = bytes_to_symbols(block, 15)
        assert enc.shards[0][1] == block
        for idx, shard in enc.shards[1:]:
            assert _parity(shard) == data_syms
            assert decode([(idx, shard)], enc.params, block_len=len(block)) == [block]

    def test_line_through_two_points(self):
        # Hand-interpolated: f(x) = a + (b-a)(x-1), so f(3) = 2b - a and f(4) = 3b - 2a.
        a_block, b_block = _random_blocks(2, 64, seed=2)
        enc = encode([a_block, b_block], CodeParams(2, 4))
        a_syms = bytes_to_symbols(a_block, 15)
        b_syms = bytes_to_symbols(b_block, 15)
        shard3 = _parity(enc.shards[2][1])
        shard4 = _parity(enc.shards[3][1])
        assert shard3 == [(2 * b - a) % P for a, b in zip(a_syms, b_syms)]
        assert shard4 == [(3 * b - 2 * a) % P for a, b in zip(a_syms, b_syms)]

    def test_systematic_prefix(self):
        blocks = _random_blocks(5, 96, seed=3)
        enc = encode(blocks, CodeParams(5, 9))
        assert [s for _, s in enc.shards[:5]] == blocks

    def test_ragged_input(self):
        with pytest.raises(RaggedInput):
            encode([b"aa", b"bbb"], CodeParams(2, 3))

    def test_wrong_block_count(self):
        with pytest.raises(InvalidParams):
            encode([b"aa"], CodeParams(2, 3))


    def test_field_modulus_is_fixed(self):
        # 15-bit symbols and 3-byte parity slots are sized for GF(65537).
        assert CodeParams(2, 4).field_modulus == P
        with pytest.raises(TypeError):
            CodeParams(2, 4, 257)


class TestDecode:
    def test_full_round_trip(self):
        blocks = _random_blocks(4, 256, seed=4)
        enc = encode(blocks, CodeParams(4, 8))
        assert decode(list(enc.shards), enc.params) == blocks

    def test_every_4_subset_of_8(self):
        blocks = _random_blocks(4, 1024, seed=5)
        enc = encode(blocks, CodeParams(4, 8))
        for subset in itertools.combinations(range(8), 4):
            shards = [enc.shards[i] for i in subset]
            assert decode(shards, enc.params, block_len=1024) == blocks

    def test_insufficient_shards(self):
        blocks = _random_blocks(4, 64, seed=6)
        enc = encode(blocks, CodeParams(4, 8))
        with pytest.raises(InsufficientShards):
            decode(list(enc.shards[:3]), enc.params, block_len=64)

    def test_duplicate_shard(self):
        blocks = _random_blocks(2, 64, seed=7)
        enc = encode(blocks, CodeParams(2, 4))
        with pytest.raises(DuplicateShard):
            decode([enc.shards[0], enc.shards[0], enc.shards[1]], enc.params)

    def test_invalid_shard_index(self):
        blocks = _random_blocks(2, 64, seed=8)
        enc = encode(blocks, CodeParams(2, 4))
        with pytest.raises(InvalidParams):
            decode([(9, b"\x00" * 64), enc.shards[0]], enc.params, block_len=64)

    def test_block_len_required_for_parity_only(self):
        blocks = _random_blocks(2, 64, seed=9)
        enc = encode(blocks, CodeParams(2, 4))
        parity_only = [enc.shards[2], enc.shards[3]]
        with pytest.raises(InvalidParams):
            decode(parity_only, enc.params)
        assert decode(parity_only, enc.params, block_len=64) == blocks

    def test_overflow_symbol_round_trips(self):
        # a=1, b=0 makes f(3) = -1 = 65536, the one value that needs a wide slot.
        a = symbols_to_bytes([1], 15, 2)
        b = symbols_to_bytes([0], 15, 2)
        enc = encode([a, b], CodeParams(2, 4))
        assert 65536 in _parity(enc.shards[2][1])
        assert decode([enc.shards[2], enc.shards[3]], enc.params, block_len=2) == [a, b]

    def test_parity_slot_above_the_field_is_rejected(self):
        enc = encode(_random_blocks(2, 64, seed=10), CodeParams(2, 4))
        for slot in (P, 0xFFFFFF):
            bad = enc.shards[2][1][:-3] + slot.to_bytes(3, "little")
            with pytest.raises(MalformedInput):
                _parity(bad)
            with pytest.raises(MalformedInput):
                decode([(2, bad), enc.shards[3]], enc.params, block_len=64)
        assert _parity((P - 1).to_bytes(3, "little")) == [P - 1]


def _shards_digest(shards):
    h = hashlib.sha256()
    for i, shard in shards:
        h.update(i.to_bytes(4, "big") + len(shard).to_bytes(4, "big") + shard)
    return h.hexdigest()


class TestPinnedOutput:
    """Shard and decode bytes recorded from the per-symbol implementation
    that the packed-column code replaced."""

    @pytest.mark.parametrize("k, n, size, seed, digest", [
        (8, 16, 16384, 19, "6c8338c8c439406501b04fd4aaed7ca664dcaa2cece5f8b9c58389029be6c46a"),
        (4, 8, 4096, 20, "66eec08a659e7b64fe324c5ff969a98cd8b38a367e247b72557cace5bf2b9768"),
        (1, 3, 1000, 21, "057202a8b27a4696989ad8568f5011b23e9be4ceca355423fd1e5b92ab3abd90"),
    ])
    def test_encode(self, k, n, size, seed, digest):
        assert _shards_digest(encode(_random_blocks(k, size, seed), CodeParams(k, n)).shards) == digest

    def test_decode(self):
        enc = encode(_random_blocks(8, 16384, 19), CodeParams(8, 16))
        parity_only = decode(list(enc.shards[8:]), enc.params, block_len=16384)
        assert hashlib.sha256(b"".join(parity_only)).hexdigest() == (
            "f742039ce3980b46e90e37c78297e199713bf716a4c0f419b56307552ed5a281")
        enc = encode(_random_blocks(4, 4096, 20), CodeParams(4, 8))
        mixed = decode([enc.shards[i] for i in (1, 5, 6, 7)], enc.params)
        assert hashlib.sha256(b"".join(mixed)).hexdigest() == (
            "b28bbf19b5cd096c499f740b1092254f99edb5bc7ba88e3dd7bd83eea8d0784c")

    @given(
        shape=st.integers(min_value=1, max_value=16).flatmap(
            lambda n: st.tuples(st.integers(min_value=1, max_value=min(n, 8)), st.just(n))),
        length=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_parity_matches_the_per_symbol_formula(self, shape, length, seed):
        k, n = shape
        blocks = _random_blocks(k, length, seed)
        columns = [bytes_to_symbols(b, 15) for b in blocks]
        enc = encode(blocks, CodeParams(k, n))
        for x in range(k + 1, n + 1):
            row = lagrange_at(list(range(1, k + 1)), x, P)
            expected = [sum(c * col[j] for c, col in zip(row, columns)) % P for j in range(len(columns[0]))]
            assert enc.shards[x - 1] == (x - 1, b"".join(s.to_bytes(3, "little") for s in expected))


class TestFieldArithmetic:
    @given(
        x=st.integers(min_value=0, max_value=P - 1),
        y=st.integers(min_value=0, max_value=P - 1),
        z=st.integers(min_value=0, max_value=P - 1),
    )
    def test_field_axioms(self, x, y, z):
        assert (x + y) % P == (y + x) % P
        assert (x * y) % P == (y * x) % P
        assert ((x + y) + z) % P == (x + (y + z)) % P
        assert ((x * y) * z) % P == (x * (y * z)) % P
        assert (x * (y + z)) % P == (x * y + x * z) % P

    @given(x=st.integers(min_value=1, max_value=P - 1))
    def test_inverse(self, x):
        assert x * inv_mod(x, P) % P == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            inv_mod(0, P)


class TestBitChunking:
    @given(data=st.binary(max_size=200), bits=st.sampled_from([15, 60]))
    def test_round_trip(self, data, bits):
        symbols = bytes_to_symbols(data, bits)
        assert all(0 <= s < (1 << bits) for s in symbols)
        assert symbols_to_bytes(symbols, bits, len(data)) == data

    def test_symbol_count(self):
        assert len(bytes_to_symbols(b"\xff" * 15, 15)) == 8  # 120 bits / 15
        assert len(bytes_to_symbols(b"\xff", 15)) == 1
        assert bytes_to_symbols(b"", 15) == []
