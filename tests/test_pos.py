import random

import pytest
from hypothesis import given, settings, strategies as st

from porstore.errors import EmptyInput, InvalidParams, NonceReplay
from porstore.merkle import hash_bytes
from porstore.pos import (
    CodeParams,
    FileManifest,
    build_manifest,
    challenge_from_dict,
    challenge_to_dict,
    derive_sampling_challenge,
    prepare_nonce_challenges,
    respond_nonce,
    respond_sampling,
    response_from_dict,
    response_to_dict,
    split_blocks,
    verify_nonce,
    verify_sampling,
)

SEED = bytes(range(32))


class TestNonceProtocol:
    def test_round_trip_all_entries(self):
        file = b"the stored file contents" * 50
        cs = prepare_nonce_challenges(file, 20, SEED)
        for entry in cs.entries:
            assert respond_nonce(file, entry.nonce) == entry.expected

    def test_deterministic(self):
        file = b"data" * 100
        a = prepare_nonce_challenges(file, 10, SEED)
        b = prepare_nonce_challenges(file, 10, SEED)
        assert [e.nonce for e in a.entries] == [e.nonce for e in b.entries]
        assert [e.expected for e in a.entries] == [e.expected for e in b.entries]

    def test_empty_file_concatenation_identity(self):
        cs = prepare_nonce_challenges(b"", 3, SEED)
        for entry in cs.entries:
            assert entry.expected == hash_bytes(entry.nonce)
            assert respond_nonce(b"", entry.nonce) == hash_bytes(entry.nonce)

    def test_one_byte_change_breaks_every_entry(self):
        rng = random.Random(3)
        file = rng.randbytes(512)
        cs = prepare_nonce_challenges(file, 100, SEED)
        for trial in range(10):
            altered = bytearray(file)
            pos = rng.randrange(len(file))
            altered[pos] ^= 1 + rng.randrange(255)
            altered = bytes(altered)
            for entry in cs.entries:
                assert respond_nonce(altered, entry.nonce) != entry.expected

    def test_truncated_file_misses_all_nonces(self):
        rng = random.Random(4)
        file = rng.randbytes(4096)
        truncated = file[:-1024]
        cs = prepare_nonce_challenges(file, 1000, SEED)
        assert all(respond_nonce(truncated, e.nonce) != e.expected for e in cs.entries)

    def test_verify_marks_used_and_replay_raises(self):
        file = b"once"
        cs = prepare_nonce_challenges(file, 2, SEED)
        assert verify_nonce(cs, 0, respond_nonce(file, cs.entries[0].nonce))
        with pytest.raises(NonceReplay):
            verify_nonce(cs, 0, respond_nonce(file, cs.entries[0].nonce))
        # A wrong answer burns the entry too.
        assert not verify_nonce(cs, 1, hash_bytes(b"wrong"))
        with pytest.raises(NonceReplay):
            verify_nonce(cs, 1, respond_nonce(file, cs.entries[1].nonce))

    def test_zero_count_rejected(self):
        with pytest.raises(EmptyInput):
            prepare_nonce_challenges(b"x", 0, SEED)


class TestChallengeDerivation:
    def test_full_range_when_k_prime_equals_k(self):
        ch = derive_sampling_challenge(SEED, 0, 12, 12)
        assert ch.indices == tuple(range(12))

    def test_deterministic(self):
        a = derive_sampling_challenge(SEED, 7, 100, 10)
        b = derive_sampling_challenge(SEED, 7, 100, 10)
        assert a == b

    def test_indices_distinct_sorted_in_range(self):
        for epoch in range(50):
            ch = derive_sampling_challenge(SEED, epoch, 97, 13)
            assert list(ch.indices) == sorted(set(ch.indices))
            assert all(0 <= i < 97 for i in ch.indices)
            assert len(ch.indices) == 13

    def test_uniformity_over_epochs(self):
        # 10,000 epochs, k=100, k'=10: each index lands with frequency 0.10 +- 0.01.
        k, k_prime, epochs = 100, 10, 10_000
        counts = [0] * k
        for epoch in range(epochs):
            for i in derive_sampling_challenge(SEED, epoch, k, k_prime).indices:
                counts[i] += 1
        for c in counts:
            assert abs(c / epochs - 0.10) <= 0.01

    def test_distinct_seed_epoch_pairs_rarely_collide(self):
        # < 1e-3 duplicate frequency over 1e5 pairs at k=1024, k'=10.
        seen = set()
        duplicates = 0
        for epoch in range(100_000):
            ch = derive_sampling_challenge(SEED, epoch, 1024, 10)
            if ch.indices in seen:
                duplicates += 1
            seen.add(ch.indices)
        assert duplicates / 100_000 < 1e-3

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            derive_sampling_challenge(SEED, 0, 10, 11)
        with pytest.raises(InvalidParams):
            derive_sampling_challenge(SEED, 0, 10, 0)


class TestSampledAudit:
    @given(
        k=st.integers(min_value=1, max_value=64),
        epoch=st.integers(min_value=0, max_value=1 << 32),
        seed=st.binary(min_size=32, max_size=32),
        data=st.data(),
    )
    @settings(max_examples=80)
    def test_honest_completeness(self, k, epoch, seed, data):
        k_prime = data.draw(st.integers(min_value=1, max_value=k))
        manifest, blocks, tree = build_manifest("f", b"\xab" * (k * 16), 16)
        assert manifest.k == k
        store = {b.index: b.data for b in blocks}
        ch = derive_sampling_challenge(seed, epoch, k, k_prime)
        assert verify_sampling(manifest, ch, respond_sampling(store, tree, ch))

    def test_missing_challenged_blocks_reject(self):
        manifest, blocks, tree = build_manifest("f", bytes(range(256)) * 8, 64)
        ch = derive_sampling_challenge(SEED, 1, manifest.k, 4)
        store = {b.index: b.data for b in blocks if b.index not in ch.indices}
        assert not verify_sampling(manifest, ch, respond_sampling(store, tree, ch))

    def test_response_length_mismatch_rejects(self):
        manifest, blocks, tree = build_manifest("f", b"z" * 512, 64)
        ch = derive_sampling_challenge(SEED, 0, manifest.k, 3)
        resp = respond_sampling({b.index: b.data for b in blocks}, tree, ch)
        short = type(resp)(items=resp.items[:-1])
        assert not verify_sampling(manifest, ch, short)

    def test_soundness_curve_direct_protocol(self):
        # Bernoulli-retained store accepted with rate (1-delta)^k' within 3 sigma.
        manifest, blocks, tree = build_manifest("f", b"\xcd" * (256 * 16), 16)
        full = {b.index: b.data for b in blocks}
        rng = random.Random(11)
        trials = 4000
        for delta, k_prime in ((0.5, 5), (0.5, 10), (0.25, 10)):
            accepts = 0
            for epoch in range(trials):
                kept = {i: d for i, d in full.items() if rng.random() >= delta}
                ch = derive_sampling_challenge(SEED, epoch, manifest.k, k_prime)
                if verify_sampling(manifest, ch, respond_sampling(kept, tree, ch)):
                    accepts += 1
            expected = (1 - delta) ** k_prime
            sigma = (expected * (1 - expected) / trials) ** 0.5
            assert abs(accepts / trials - expected) <= 3 * sigma


class TestManifestAndTranscripts:
    def test_split_blocks_pads_last(self):
        blocks = split_blocks(b"abcde", 4)
        assert [b.data for b in blocks] == [b"abcd", b"e\x00\x00\x00"]

    def test_manifest_block_count_invariant(self):
        manifest, blocks, _ = build_manifest("f", b"x" * 1000, 256)
        assert manifest.k == len(blocks) == -(-manifest.total_length // manifest.block_size)

    def test_coded_manifest_commits_to_shards(self):
        data = b"v" * 200
        manifest, blocks, tree = build_manifest("f", data, 64, coding=CodeParams(4, 8))
        assert manifest.k == len(blocks) == 8 and manifest.coding == CodeParams(4, 8)
        assert manifest.total_length == len(data) and tree.root == manifest.merkle_root
        assert [b.data for b in blocks] == [b.data for b in split_blocks(data, 64)] + [b.data for b in blocks[4:]]
        assert FileManifest.from_dict(manifest.to_dict()) == manifest

    def test_manifest_json_round_trip(self):
        manifest, _, _ = build_manifest("f", b"y" * 100, 32)
        assert FileManifest.from_dict(manifest.to_dict()) == manifest

    def test_challenge_and_response_round_trip(self):
        manifest, blocks, tree = build_manifest("f", b"w" * 640, 64)
        ch = derive_sampling_challenge(SEED, 5, manifest.k, 3)
        resp = respond_sampling({b.index: b.data for b in blocks}, tree, ch)
        ch_doc = challenge_to_dict(manifest, ch, 3)
        assert ch_doc["k"] == manifest.k and ch_doc["k_prime"] == 3
        assert challenge_from_dict(ch_doc) == ch
        assert response_from_dict(response_to_dict(resp)) == resp
        # The decoded transcript still verifies.
        assert verify_sampling(manifest, challenge_from_dict(ch_doc), response_from_dict(response_to_dict(resp)))
