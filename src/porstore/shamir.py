"""Shamir t-of-n secret sharing with the reconstruction exposed as a
linear combination.

Data is chunked into 60-bit field elements over p = 2^61 - 1.  Each chunk
becomes the constant term of a degree-(t - 1) polynomial with seed-derived
coefficients; share j holds the evaluations at x = j + 1.  Reconstruction
is Lagrange interpolation at x = 0, i.e. secret == sum(lambda_j * y_j)
with coefficients that depend only on the x values. That linearity is the
point: a downstream homomorphic layer can run the same combination over
encrypted shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .encoding import bytes_to_symbols, symbols_to_bytes
from .errors import DuplicateShare, InsufficientShares, InvalidParams
from .field import FieldSampler, lagrange_at, poly_eval

DEFAULT_PRIME = (1 << 61) - 1
CHUNK_BITS = 60


@dataclass(frozen=True)
class ShareParams:
    """t-of-n shape.  The field is fixed: 60-bit chunks need p > 2^60, and
    any other modulus would corrupt data."""

    threshold: int
    share_count: int
    field_modulus: ClassVar[int] = DEFAULT_PRIME

    def __post_init__(self):
        if not 1 <= self.threshold <= self.share_count:
            raise InvalidParams("need 1 <= threshold <= share_count")
        if self.share_count >= self.field_modulus:
            raise InvalidParams("share_count must be below the field modulus")


@dataclass(frozen=True)
class ShareSet:
    params: ShareParams
    shares: tuple[tuple[int, tuple[int, ...]], ...]  # (x, y per chunk)


def share_polynomial(secret: int, coeffs: list[int], xs: list[int], p: int) -> list[int]:
    """Evaluate secret + sum(coeffs[m] * x^(m+1)) at each x."""
    poly = [secret] + list(coeffs)
    return [poly_eval(poly, x, p) for x in xs]


def split_secret(data: bytes, params: ShareParams, seed: bytes) -> ShareSet:
    """Split into share_count shares, any threshold of which reconstruct."""
    p = params.field_modulus
    chunks = bytes_to_symbols(data, CHUNK_BITS)
    xs = list(range(1, params.share_count + 1))
    ys: list[list[int]] = [[] for _ in xs]
    for j, chunk in enumerate(chunks):
        sampler = FieldSampler(seed, j, p)
        coeffs = [sampler.next_element() for _ in range(params.threshold - 1)]
        for slot, y in zip(ys, share_polynomial(chunk, coeffs, xs, p)):
            slot.append(y)
    return ShareSet(params=params, shares=tuple((x, tuple(y)) for x, y in zip(xs, ys)))


def reconstruction_coefficients(x_values: list[int], p: int = DEFAULT_PRIME) -> list[int]:
    """Lagrange weights at x = 0: secret == sum(lambda_j * y_j)."""
    if len(set(x_values)) != len(x_values):
        raise DuplicateShare("duplicate x values")
    if any(x % p == 0 for x in x_values):
        raise InvalidParams("x values must be nonzero")
    return lagrange_at(x_values, 0, p)


def reconstruct(shares: list[tuple[int, tuple[int, ...]]], params: ShareParams, original_length: int) -> bytes:
    """Rebuild the secret bytes from >= threshold shares."""
    if len(shares) < params.threshold:
        raise InsufficientShares(f"need {params.threshold} shares, got {len(shares)}")
    p = params.field_modulus
    xs = [x for x, _ in shares]
    lambdas = reconstruction_coefficients(xs, p)
    chunk_count = len(shares[0][1])
    if any(len(y) != chunk_count for _, y in shares):
        raise InvalidParams("shares disagree on chunk count")
    secrets = []
    for j in range(chunk_count):
        secrets.append(sum(lam * y[j] for lam, (_, y) in zip(lambdas, shares)) % p)
    return symbols_to_bytes(secrets, CHUNK_BITS, original_length)
