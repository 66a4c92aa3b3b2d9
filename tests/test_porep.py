import random

import pytest
from hypothesis import given, strategies as st

from porstore.costs import CostModel, TimingPolicy, default_t_max
from porstore.encoding import le64
from porstore.errors import EmptyInput, InvalidParams
from porstore.merkle import Block, hash_bytes
from porstore.porep import (
    PoRepProof,
    SealParams,
    honest_response_cost,
    keystream,
    porep_respond,
    porep_verify,
    seal_block,
    seal_blocks,
    sealed_tree,
    unseal_block,
)
from porstore.pos import build_manifest, derive_sampling_challenge

SALT = b"\x11" * 32


def _sealed_world(k=16, block_size=64, d=3, tag=b"node-a"):
    manifest, blocks, _ = build_manifest("f", bytes(range(256)) * (k * block_size // 256), block_size)
    assert manifest.k == k
    params = SealParams(delay_iters=d, node_tag=tag, salt=SALT)
    return manifest, blocks, params, seal_blocks(blocks, params)


def _held(sealed):
    """What an honest prover holds: the sealed blocks as a store, and their tree."""
    return dict(enumerate(sealed)), sealed_tree(sealed)


class TestKeystream:
    def test_definition_unrolled_for_d1(self):
        params = SealParams(delay_iters=1, node_tag=b"tag", salt=SALT)
        s0 = hash_bytes(b"tag" + SALT + le64(5))
        s1 = hash_bytes(s0)
        expected = (hash_bytes(s1 + le64(0)) + hash_bytes(s1 + le64(1)))[:40]
        assert keystream(params, 5, 40) == expected

    def test_deterministic(self):
        params = SealParams(delay_iters=7, node_tag=b"x", salt=SALT)
        assert keystream(params, 2, 100) == keystream(params, 2, 100)

    def test_distinct_tags_distinct_keystreams(self):
        rng = random.Random(20)
        for _ in range(1000):
            t1, t2 = rng.randbytes(8), rng.randbytes(8)
            if t1 == t2:
                continue
            a = keystream(SealParams(1, t1, SALT), 0, 32)
            b = keystream(SealParams(1, t2, SALT), 0, 32)
            assert a != b

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            SealParams(delay_iters=0, node_tag=b"x", salt=SALT)
        with pytest.raises(InvalidParams):
            SealParams(delay_iters=1, node_tag=b"", salt=SALT)


class TestSealUnseal:
    @given(data=st.binary(min_size=1, max_size=256), index=st.integers(min_value=0, max_value=1000))
    def test_unseal_inverts_seal(self, data, index):
        params = SealParams(delay_iters=2, node_tag=b"n", salt=SALT)
        assert unseal_block(seal_block(data, params, index), params, index) == data

    @pytest.mark.parametrize("length", [0, 1, 7, 4096])
    def test_seal_matches_bytewise_xor(self, length):
        params = SealParams(delay_iters=1, node_tag=b"n", salt=SALT)
        ks = keystream(params, 9, length)
        rng = random.Random(length)
        middle = rng.randbytes(max(0, length - 2))
        cases = [
            bytes(length),
            (b"\x00" + middle + b"\x00")[:length],  # zero bytes at both ends of the input
            ks,  # seals to all zeros
            (ks[:1] + middle + ks[-1:])[:length],  # sealed output starts and ends with a zero byte
        ]
        for data in cases:
            sealed = seal_block(data, params, 9)
            assert sealed == bytes(a ^ b for a, b in zip(data, ks))
            assert unseal_block(sealed, params, 9) == data

    def test_zero_block_unseals_to_keystream(self):
        params = SealParams(delay_iters=2, node_tag=b"n", salt=SALT)
        zeros = b"\x00" * 50
        assert unseal_block(zeros, params, 3) == keystream(params, 3, 50)

    def test_wrong_tag_does_not_unseal(self):
        rng = random.Random(21)
        right = SealParams(delay_iters=1, node_tag=b"right", salt=SALT)
        wrong = SealParams(delay_iters=1, node_tag=b"wrong", salt=SALT)
        for i in range(1000):
            data = rng.randbytes(32)
            assert unseal_block(seal_block(data, right, i), wrong, i) != data

    def test_seal_blocks_round_trip(self):
        _, blocks, params, sealed = _sealed_world()
        for b in blocks:
            assert sealed[b.index] != b.data
            assert unseal_block(sealed[b.index], params, b.index) == b.data

    def test_seal_empty_rejected(self):
        with pytest.raises(EmptyInput):
            sealed_tree(())

    def test_identity_binding_distinct_roots(self):
        # 10^4 distinct tags must give 10^4 distinct replica roots.
        block = [Block(0, b"\xaa" * 32)]
        roots = set()
        for i in range(10_000):
            params = SealParams(delay_iters=1, node_tag=b"tag" + le64(i), salt=SALT)
            roots.add(sealed_tree(seal_blocks(block, params)).root)
        assert len(roots) == 10_000


class TestTimedAudit:
    def test_honest_holder_accepted(self):
        manifest, _, params, sealed = _sealed_world()
        cost = CostModel()
        ch = derive_sampling_challenge(b"\x22" * 32, 0, manifest.k, 5)
        proof = porep_respond(*_held(sealed), ch, 0, cost)
        policy = TimingPolicy(t_max=default_t_max(5, cost), k_prime=5)
        assert porep_verify(manifest, sealed_tree(sealed).root, proof, policy)

    def test_generation_attacker_rejected_on_timing(self):
        # Recomputing the keystream on demand costs k' * d * hash_cost,
        # which is forced over t_max whenever t_max < d * hash_cost.
        manifest, _, params, sealed = _sealed_world()
        cost = CostModel()
        d = 10_000
        k_prime = 5
        policy = TimingPolicy(t_max=default_t_max(k_prime, cost), k_prime=k_prime)
        assert policy.t_max < d * cost.hash_cost
        ch = derive_sampling_challenge(b"\x23" * 32, 0, manifest.k, k_prime)
        honest = porep_respond(*_held(sealed), ch, 0, cost)
        reseal = k_prime * d * cost.hash_cost  # the reseal penalty
        slow = PoRepProof(challenge=ch, response=honest.response, started_at=0, finished_at=honest.finished_at + reseal)
        assert not porep_verify(manifest, sealed_tree(sealed).root, slow, policy)

    def test_valid_timing_substituted_block_rejected(self):
        manifest, _, _, sealed = _sealed_world()
        cost = CostModel()
        ch = derive_sampling_challenge(b"\x24" * 32, 0, manifest.k, 4)
        proof = porep_respond(*_held(sealed), ch, 0, cost)
        block, path = proof.response.items[0]
        swapped = (Block(block.index, b"\x99" * len(block.data)), path)
        bad_response = type(proof.response)(items=(swapped,) + proof.response.items[1:])
        bad = PoRepProof(ch, bad_response, proof.started_at, proof.finished_at)
        assert not porep_verify(manifest, sealed_tree(sealed).root, bad, TimingPolicy(default_t_max(4, cost), 4))

    def test_wrong_k_prime_rejected(self):
        manifest, _, _, sealed = _sealed_world()
        cost = CostModel()
        ch = derive_sampling_challenge(b"\x25" * 32, 0, manifest.k, 2)
        proof = porep_respond(*_held(sealed), ch, 0, cost)
        policy = TimingPolicy(t_max=10_000, k_prime=5)
        assert not porep_verify(manifest, sealed_tree(sealed).root, proof, policy)

    def test_exact_cost_policy_binds_elapsed(self):
        manifest, _, _, sealed = _sealed_world()
        cost = CostModel()
        ch = derive_sampling_challenge(b"\x26" * 32, 0, manifest.k, 3)
        proof = porep_respond(*_held(sealed), ch, 0, cost)
        strict = TimingPolicy(t_max=10_000, k_prime=3, expected_cost=cost)
        assert porep_verify(manifest, sealed_tree(sealed).root, proof, strict)
        nudged = PoRepProof(ch, proof.response, proof.started_at, proof.finished_at + 1)
        assert not porep_verify(manifest, sealed_tree(sealed).root, nudged, strict)

    def test_timing_separation_inequality_for_defaults(self):
        # honest cost < t_max < single-audit reseal cost, with shipped defaults.
        cost = CostModel()
        k, k_prime, d = 64, 20, 10_000
        manifest, _, _, sealed = _sealed_world(k=k, block_size=64, d=1)
        ch = derive_sampling_challenge(b"\x27" * 32, 0, k, k_prime)
        honest = honest_response_cost(k, ch.indices, cost)
        t_max = default_t_max(k_prime, cost)
        reseal = k_prime * d * cost.hash_cost
        assert honest < t_max < reseal

    def test_negative_elapsed_rejected(self):
        manifest, _, _, sealed = _sealed_world()
        cost = CostModel()
        ch = derive_sampling_challenge(b"\x28" * 32, 0, manifest.k, 2)
        proof = porep_respond(*_held(sealed), ch, 0, cost)
        bad = PoRepProof(ch, proof.response, proof.started_at + 10**6, proof.finished_at)
        assert not porep_verify(manifest, sealed_tree(sealed).root, bad, TimingPolicy(default_t_max(2, cost), 2))

    def test_reject_names_the_failed_check(self):
        manifest, _, _, sealed = _sealed_world()
        cost = CostModel()
        ch = derive_sampling_challenge(b"\x29" * 32, 0, manifest.k, 3)
        proof = porep_respond(*_held(sealed), ch, 0, cost)
        root = sealed_tree(sealed).root
        strict = TimingPolicy(t_max=default_t_max(3, cost), k_prime=3, expected_cost=cost)
        block, path = proof.response.items[0]
        zeroed = (Block(block.index, bytes(len(block.data))), path)
        swapped = type(proof.response)(items=(zeroed,) + proof.response.items[1:])
        start, end = proof.started_at, proof.finished_at

        def reason(response, finished_at, policy=strict):
            return porep_verify(manifest, root, PoRepProof(ch, response, start, finished_at), policy).reason

        assert reason(proof.response, end) is None
        assert reason(swapped, start + strict.t_max + 1) == "timing"  # content fails too
        assert reason(swapped, end) == "sampling"
        assert reason(proof.response, end + 1) == "chain"
        assert reason(proof.response, end, TimingPolicy(strict.t_max, k_prime=4)) == "chain"
