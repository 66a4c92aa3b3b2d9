import json
import random
from dataclasses import replace

import pytest

from mutation import canonical_length, mutate_proof_byte
from porstore.costs import CostModel, TimingPolicy, default_t_max
from porstore.encoding import le64
from porstore.errors import InvalidParams
from porstore.merkle import hash_bytes
from porstore.porep import SealParams, honest_response_cost, seal_blocks, sealed_tree
from porstore.pos import build_manifest
from porstore.post import (
    PoStProof,
    canonical_encode,
    chain_seed,
    generate_post,
    post_from_dict,
    post_to_dict,
    transcript_stats,
    verify_post,
)

C0 = b"\x31" * 32
K_PRIME = 4


def _world(k=16, block_size=64, d=3):
    manifest, blocks, _ = build_manifest("f", bytes(range(256)) * (k * block_size // 256), block_size)
    sealed = seal_blocks(blocks, SealParams(delay_iters=d, node_tag=b"post-node", salt=b"\x32" * 32))
    return manifest, dict(enumerate(sealed)), sealed_tree(sealed)


def _strict_policy(cost):
    return TimingPolicy(t_max=default_t_max(K_PRIME, cost), k_prime=K_PRIME, expected_cost=cost)


class TestGeneration:
    def test_single_link_base_case(self):
        manifest, store, tree = _world()
        cost = CostModel()
        post = generate_post(store, tree, C0, 1, cost, k_prime=K_PRIME)
        assert post.length == 1
        assert post.proofs[0].challenge.seed == hash_bytes(C0 + le64(0))
        assert verify_post(manifest, tree.root, post, _strict_policy(cost))

    def test_chain_linkage_invariant(self):
        manifest, store, tree = _world()
        cost = CostModel()
        post = generate_post(store, tree, C0, 5, cost, k_prime=K_PRIME)
        previous = None
        for i, proof in enumerate(post.proofs):
            assert proof.challenge.seed == chain_seed(C0, i, previous)
            previous = proof

    def test_sequential_accounting(self):
        manifest, store, tree = _world()
        cost = CostModel()
        post = generate_post(store, tree, C0, 3, cost, k_prime=K_PRIME)
        elapsed = [p.finished_at - p.started_at for p in post.proofs]
        assert post.total_cost == sum(elapsed)
        assert post.total_cost >= 3 * min(elapsed)
        for prev, cur in zip(post.proofs, post.proofs[1:]):
            assert cur.started_at == prev.finished_at
        for proof in post.proofs:
            expected = honest_response_cost(manifest.k, proof.challenge.indices, cost)
            assert proof.finished_at - proof.started_at == expected

    def test_first_link_starts_at_zero_and_links_abut(self):
        # Each chain owns its simulated time: nothing before it moves its stamps.
        _, store, tree = _world()
        post = generate_post(store, tree, C0, 4, CostModel(), k_prime=K_PRIME)
        assert [p.started_at for p in post.proofs] == [0] + [p.finished_at for p in post.proofs[:-1]]
        assert post.total_cost == post.proofs[-1].finished_at

    def test_reruns_are_byte_identical(self):
        _, store, tree = _world()
        cost = CostModel()
        a = generate_post(store, tree, C0, 3, cost, k_prime=K_PRIME)
        b = generate_post(store, tree, C0, 3, cost, k_prime=K_PRIME)
        assert a == b
        assert json.dumps(post_to_dict(a), sort_keys=True) == json.dumps(post_to_dict(b), sort_keys=True)
        assert all(canonical_encode(x) == canonical_encode(y) for x, y in zip(a.proofs, b.proofs))

    def test_zero_length_rejected(self):
        _, store, tree = _world()
        with pytest.raises(InvalidParams):
            generate_post(store, tree, C0, 0, CostModel(), k_prime=K_PRIME)


class TestVerification:
    def test_honest_chain_accepts(self):
        manifest, store, tree = _world()
        cost = CostModel()
        post = generate_post(store, tree, C0, 6, cost, k_prime=K_PRIME)
        assert verify_post(manifest, tree.root, post, _strict_policy(cost))

    def test_foreign_proof_breaks_the_chain(self):
        manifest, store, tree = _world()
        cost = CostModel()
        post = generate_post(store, tree, C0, 3, cost, k_prime=K_PRIME)
        other = generate_post(store, tree, b"\x33" * 32, 3, cost, k_prime=K_PRIME)
        proofs = list(post.proofs)
        proofs[1] = other.proofs[1]
        forged = PoStProof(C0, tuple(proofs))
        assert not verify_post(manifest, tree.root, forged, _strict_policy(cost))

    def test_mutating_any_sampled_byte_rejects(self):
        manifest, store, tree = _world()
        cost = CostModel()
        post = generate_post(store, tree, C0, 4, cost, k_prime=K_PRIME)
        policy = _strict_policy(cost)
        rng = random.Random(40)
        for proof_idx in range(post.length):
            total = canonical_length(post.proofs[proof_idx])
            positions = set(rng.sample(range(total), 12))
            # Always include the weakest spots: last index byte, timestamps.
            positions.update({0, total - 16, total - 9, total - 8, total - 1})
            for pos in positions:
                mutated = mutate_proof_byte(post, proof_idx, pos)
                assert canonical_encode(mutated.proofs[proof_idx]) != canonical_encode(post.proofs[proof_idx])
                assert not verify_post(manifest, tree.root, mutated, policy)

    def test_nonchained_timestamp_tampering_needs_strict_policy(self):
        # Without strict binding, a one-unit shave off the final proof's
        # elapsed time still passes t_max; the strict policy closes that.
        manifest, store, tree = _world()
        cost = CostModel()
        post = generate_post(store, tree, C0, 2, cost, k_prime=K_PRIME)
        last = canonical_length(post.proofs[1])
        shaved = mutate_proof_byte(post, 1, last - 8)  # finished_at low byte
        lax = TimingPolicy(t_max=default_t_max(K_PRIME, cost), k_prime=K_PRIME)
        strict = _strict_policy(cost)
        assert not verify_post(manifest, tree.root, shaved, strict)
        # The lax policy's only timestamp constraints are ordering and t_max.
        tampered = shaved.proofs[1]
        if tampered.started_at <= tampered.finished_at <= post.proofs[1].finished_at:
            assert verify_post(manifest, tree.root, shaved, lax)

    def test_drop_then_reseal_rejected(self):
        # Link 0 honest, link 1 carries an on-demand reseal penalty.
        manifest, store, tree = _world(d=3)
        cost = CostModel()
        d_heavy = 10_000
        proofs = []
        previous = None
        from porstore.porep import PoRepProof, porep_respond
        from porstore.pos import derive_sampling_challenge

        for i in range(2):
            seed = chain_seed(C0, i, previous)
            challenge = derive_sampling_challenge(seed, i, manifest.k, K_PRIME)
            honest = porep_respond(store, tree, challenge, previous.finished_at if previous else 0, cost)
            penalty = K_PRIME * d_heavy * cost.hash_cost if i == 1 else 0
            previous = PoRepProof(challenge, honest.response, honest.started_at, honest.finished_at + penalty)
            proofs.append(previous)
        post = PoStProof(C0, tuple(proofs))
        assert not verify_post(manifest, tree.root, post, _strict_policy(cost))

    def test_seed_unpredictable_before_previous_proof(self):
        manifest, store, tree = _world()
        cost = CostModel()
        post = generate_post(store, tree, C0, 2, cost, k_prime=K_PRIME)
        perturbed = mutate_proof_byte(post, 0, 8 * K_PRIME)  # first block byte
        assert chain_seed(C0, 1, perturbed.proofs[0]) != chain_seed(C0, 1, post.proofs[0])

    def test_verification_replays_from_transcript_alone(self):
        manifest, store, tree = _world()
        cost = CostModel()
        post = generate_post(store, tree, C0, 3, cost, k_prime=K_PRIME)
        wire = json.dumps(post_to_dict(post), sort_keys=True)
        revived = post_from_dict(json.loads(wire))
        assert revived == post
        assert verify_post(manifest, tree.root, revived, _strict_policy(cost))


def test_reject_names_the_highest_ranked_failure():
    # Link 0 fails a chain check, link 1 its content and link 2 its deadline.
    # The verdict names timing over sampling over chain, whatever the link.
    manifest, store, tree = _world()
    cost = CostModel()
    policy = _strict_policy(cost)
    post = generate_post(store, tree, C0, 3, cost, k_prime=K_PRIME)
    honest = post.proofs
    nudged = replace(honest[0], finished_at=honest[0].finished_at + 1)
    flipped = mutate_proof_byte(post, 1, 8 * K_PRIME).proofs[1]  # first block byte
    late = replace(honest[2], finished_at=honest[2].started_at + policy.t_max + 1)

    def reason(*links):
        return verify_post(manifest, tree.root, PoStProof(C0, links), policy).reason

    assert reason(nudged, flipped, late) == "timing"
    assert reason(nudged, flipped, honest[2]) == "sampling"
    assert reason(nudged, honest[1], honest[2]) == "chain"
    assert reason(*honest) is None


def test_transcript_stats_measures_chain_size():
    _, store, tree = _world()
    cost = CostModel()
    post = generate_post(store, tree, C0, 5, cost, k_prime=K_PRIME)
    stats = transcript_stats(post)
    assert stats["length"] == 5
    assert stats["total_bytes"] == sum(len(canonical_encode(p)) for p in post.proofs)
    assert len(stats["proof_bytes"]) == 5
