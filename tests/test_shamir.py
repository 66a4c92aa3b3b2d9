import hashlib
import itertools
import random
from collections import Counter

import pytest

from porstore.encoding import bytes_to_symbols
from porstore.errors import DuplicateShare, InsufficientShares, InvalidParams, MalformedInput
from porstore.field import inv_mod
from porstore.shamir import (
    DEFAULT_PRIME,
    ShareParams,
    reconstruct,
    reconstruction_coefficients,
    share_polynomial,
    split_secret,
)

P = DEFAULT_PRIME
SEED = bytes(reversed(range(32)))


class TestSplitAndReconstruct:
    def test_threshold_one_copies_the_secret(self):
        data = b"threshold one means every share is the secret"
        ss = split_secret(data, ShareParams(1, 4), SEED)
        chunks = tuple(bytes_to_symbols(data, 60))
        for _, ys in ss.shares:
            assert ys == chunks

    def test_two_of_two_forced_by_line(self):
        # shares (1, s+a), (2, s+2a) reconstruct s for any a.
        s, a = 123456789, 987654321
        y1, y2 = share_polynomial(s, [a], [1, 2], P)
        assert (y1, y2) == ((s + a) % P, (s + 2 * a) % P)
        lam = reconstruction_coefficients([1, 2], P)
        assert (lam[0] * y1 + lam[1] * y2) % P == s

    def test_three_of_five_exhaustive(self):
        rng = random.Random(10)
        data = rng.randbytes(1024)
        params = ShareParams(3, 5)
        ss = split_secret(data, params, SEED)
        for subset in itertools.combinations(ss.shares, 3):
            assert reconstruct(list(subset), params, len(data)) == data

    def test_threshold_completeness_exhaustive_small_n(self):
        rng = random.Random(11)
        data = rng.randbytes(64)
        for n in range(1, 7):
            for t in range(1, n + 1):
                params = ShareParams(t, n)
                ss = split_secret(data, params, SEED)
                for size in range(t, n + 1):
                    for subset in itertools.combinations(ss.shares, size):
                        assert reconstruct(list(subset), params, len(data)) == data

    def test_errors(self):
        params = ShareParams(3, 5)
        ss = split_secret(b"shared", params, SEED)
        with pytest.raises(InsufficientShares):
            reconstruct(list(ss.shares[:2]), params, 6)
        dup = [ss.shares[0], ss.shares[0], ss.shares[1]]
        with pytest.raises(DuplicateShare):
            reconstruct(dup, params, 6)
        with pytest.raises(InvalidParams):
            ShareParams(3, 2)

    def test_output_pinned(self):
        # Digests recorded from the quadratic packers these replaced.
        secret = random.Random(22).randbytes(16384)
        ss = split_secret(secret, ShareParams(3, 5), bytes(range(32)))
        assert hashlib.sha256(repr(ss.shares).encode()).hexdigest() == (
            "7898aa2276b21bbb6680bba6611e9534ff75071b21f2aa724cce6af6a49e013d")
        restored = reconstruct([ss.shares[i] for i in (0, 3, 4)], ss.params, len(secret))
        assert hashlib.sha256(restored).hexdigest() == (
            "616b66f7ac28f770ed485bd7448a6c64f9c33f037bff32dadf487671cbbdacc5")

    def test_inconsistent_last_chunk_rejected(self):
        # Shift share 1's last y so that chunk alone reconstructs to p - 1,
        # which no 60-bit chunk can be; every earlier chunk stays right.
        data = random.Random(14).randbytes(1000)
        params = ShareParams(3, 5)
        shares = list(split_secret(data, params, SEED).shares[:3])
        chunks = bytes_to_symbols(data, 60)
        lam = reconstruction_coefficients([x for x, _ in shares], P)
        x, ys = shares[0]
        shift = (P - 1 - chunks[-1]) * inv_mod(lam[0], P) % P
        shares[0] = (x, ys[:-1] + ((ys[-1] + shift) % P,))
        with pytest.raises(MalformedInput):
            reconstruct(shares, params, len(data))

    def test_field_modulus_is_fixed(self):
        # 60-bit chunks only survive reduction mod a prime above 2^60.
        assert ShareParams(2, 3).field_modulus == P
        with pytest.raises(TypeError):
            ShareParams(2, 3, 13)


class TestReconstructionCoefficients:
    def test_two_points(self):
        assert reconstruction_coefficients([1, 2]) == [2, P - 1]

    def test_single_point(self):
        assert reconstruction_coefficients([1]) == [1]

    def test_three_points(self):
        assert reconstruction_coefficients([1, 2, 3]) == [3, P - 3, 1]

    def test_duplicate_x(self):
        with pytest.raises(DuplicateShare):
            reconstruction_coefficients([1, 1, 2])

    def test_zero_x_rejected(self):
        with pytest.raises(InvalidParams):
            reconstruction_coefficients([0, 1])

    def test_linearity_identity_on_every_subset(self):
        # reconstruct() must equal the explicit linear combination.
        rng = random.Random(12)
        data = rng.randbytes(200)
        chunks = bytes_to_symbols(data, 60)
        params = ShareParams(3, 6)
        ss = split_secret(data, params, SEED)
        for subset in itertools.combinations(ss.shares, 3):
            lam = reconstruction_coefficients([x for x, _ in subset], P)
            for j, chunk in enumerate(chunks):
                linear = sum(l * ys[j] for l, (_, ys) in zip(lam, subset)) % P
                assert linear == chunk
            assert reconstruct(list(subset), params, len(data)) == data


class TestSecrecyAndHomomorphism:
    def test_perfect_secrecy_exact_over_p13(self):
        # t=2, n=3 over GF(13): for every secret, exhausting the coefficient
        # makes each share's value exactly uniform, so one share reveals nothing.
        p = 13
        xs = [1, 2, 3]
        for x_pos in range(3):
            distributions = []
            for secret in range(p):
                dist = Counter(share_polynomial(secret, [a], xs, p)[x_pos] for a in range(p))
                distributions.append(dist)
            uniform = Counter({v: 1 for v in range(p)})
            assert all(dist == uniform for dist in distributions)

    def test_pairs_of_shares_do_determine_secret_at_threshold(self):
        # Complement of secrecy: two shares pin the secret exactly (t=2).
        p = 13
        xs = [1, 2]
        for secret in range(p):
            for a in range(p):
                ys = share_polynomial(secret, [a], xs, p)
                lam = reconstruction_coefficients(xs, p)
                assert (lam[0] * ys[0] + lam[1] * ys[1]) % p == secret

    def test_share_addition_is_secret_addition(self):
        rng = random.Random(13)
        d1, d2 = rng.randbytes(120), rng.randbytes(120)
        params = ShareParams(3, 5)
        s1 = split_secret(d1, params, SEED)
        s2 = split_secret(d2, params, bytes(32))
        c1 = bytes_to_symbols(d1, 60)
        c2 = bytes_to_symbols(d2, 60)
        summed = [
            (x1, tuple((a + b) % P for a, b in zip(y1, y2)))
            for (x1, y1), (_, y2) in zip(s1.shares, s2.shares)
        ]
        for subset in itertools.combinations(summed, 3):
            lam = reconstruction_coefficients([x for x, _ in subset], P)
            for j in range(len(c1)):
                combined = sum(l * ys[j] for l, (_, ys) in zip(lam, subset)) % P
                assert combined == (c1[j] + c2[j]) % P
