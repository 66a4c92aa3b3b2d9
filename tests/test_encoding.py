"""The group-wise symbol packers against a bit-by-bit reference."""

import random

import pytest

from porstore.encoding import bytes_to_symbols, symbols_to_bytes
from porstore.errors import MalformedInput

WIDTHS = [1, 7, 13, 15, 60, 61]  # 15 and 60 are the widths in use
LENGTHS = [*range(65), 4095, 4096, 4097, 65535, 65536, 65537]


def reference_bytes_to_symbols(data: bytes, bits: int) -> list[int]:
    """Spell the stream out one bit at a time, MSB first, and cut it."""
    stream = "".join(format(byte, "08b") for byte in data)
    stream += "0" * (-len(stream) % bits)
    return [int(stream[i : i + bits], 2) for i in range(0, len(stream), bits)]


def reference_symbols_to_bytes(symbols: list[int], bits: int, byte_len: int) -> bytes:
    stream = "".join(format(s, f"0{bits}b") for s in symbols)
    stream += "0" * (-len(stream) % 8)
    return bytes(int(stream[i : i + 8], 2) for i in range(0, len(stream), 8))[:byte_len]


@pytest.mark.parametrize("bits", WIDTHS)
def test_packers_match_the_reference(bits):
    for length in LENGTHS:
        data = random.Random(length * 100 + bits).randbytes(length)
        symbols = bytes_to_symbols(data, bits)
        assert symbols == reference_bytes_to_symbols(data, bits), length
        assert symbols_to_bytes(symbols, bits, length) == data, length
        if length <= 64:
            # Arbitrary in-range symbols, cut short of, at and past their bytes,
            # and from the end as a slice would.
            rng = random.Random(length)
            wide = [rng.getrandbits(bits) for _ in range(length)]
            for byte_len in (0, length, (length * bits + 7) // 8, length * bits, -1):
                assert symbols_to_bytes(wide, bits, byte_len) == reference_symbols_to_bytes(wide, bits, byte_len)


@pytest.mark.parametrize("bits", WIDTHS)
def test_over_wide_symbol_is_rejected(bits):
    # Only the last symbol is out of range: the rest would pack cleanly.
    for bad in (1 << bits, (1 << bits) + 5, -1):
        with pytest.raises(MalformedInput):
            symbols_to_bytes([0, (1 << bits) - 1, bad], bits, 3 * bits)
