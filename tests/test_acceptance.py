"""Acceptance suite: one test per shipped guarantee, at full stated scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every tolerance is pinned here, not computed at run time.
"""

import itertools
import random
from collections import Counter

import pytest

from mutation import canonical_length, mutate_proof_byte
from porstore.costs import CostModel, TimingPolicy, default_t_max
from porstore.encoding import bytes_to_symbols
from porstore.erasure import decode, encode
from porstore.errors import InsufficientShards, NonceReplay
from porstore.merkle import Block
from porstore.porep import SealParams, honest_response_cost, porep_respond, porep_verify, seal_blocks, sealed_tree
from porstore.pos import (
    CodeParams,
    build_manifest,
    derive_sampling_challenge,
    prepare_nonce_challenges,
    respond_nonce,
    respond_sampling,
    verify_nonce,
    verify_sampling,
)
from porstore.post import generate_post, verify_post
from porstore.shamir import ShareParams, reconstruct, reconstruction_coefficients, share_polynomial, split_secret
from porstore.sim import (
    Dropper,
    ExperimentConfig,
    GenerationAttacker,
    Honest,
    OutsourcingAttacker,
    SybilAttacker,
    run_experiment,
)

COST = CostModel()  # shipped defaults: hash 1, read 2, latency 5, fetch 50


def _passed(criterion: int, text: str) -> None:
    print(f"\n[criterion {criterion}] {text}: PASS")


def test_criterion_1_detection_bound():
    # Dropper losing each block independently with p=0.5, k=1024, k'=10:
    # accept rate over 100,000 audits equals 2^-10 within +-0.0005.
    cfg = ExperimentConfig(
        protocol="pos", k=1024, k_prime=10, block_size=64,
        behaviors=(Dropper(0.5),), trials=100_000, rng_seed=bytes.fromhex("aa" * 32),
    )
    (row,) = run_experiment(cfg, cost=COST).rows
    expected = 2 ** -10
    assert abs(row.accept_rate - expected) <= 0.0005
    _passed(1, f"accept rate {row.accept_rate:.6f} vs 2^-10 = {expected:.6f} (tol 0.0005)")


def test_criterion_2_detection_curve():
    # Accept rate matches (1 - delta)^k' within 3 binomial sigma on the full grid.
    for delta, k_prime in itertools.product((0.1, 0.25, 0.5), (5, 10, 20)):
        trials = 20_000
        cfg = ExperimentConfig(
            protocol="pos", k=256, k_prime=k_prime, block_size=64,
            behaviors=(Dropper(delta),), trials=trials, rng_seed=bytes.fromhex("bb" * 32),
        )
        (row,) = run_experiment(cfg, cost=COST).rows
        p = (1 - delta) ** k_prime
        sigma = (p * (1 - p) / trials) ** 0.5
        assert abs(row.accept_rate - p) <= 3 * sigma, (delta, k_prime, row.accept_rate, p)
    _passed(2, "accept rate within 3 sigma of (1-delta)^k' for all 9 grid points")


def test_criterion_3_erasure_completeness():
    rng = random.Random(3)
    file_bytes = rng.randbytes(64 * 1024)
    block_size = 16 * 1024
    blocks = [file_bytes[i : i + block_size] for i in range(0, len(file_bytes), block_size)]
    params = CodeParams(4, 8)
    encoded = encode(blocks, params)
    for subset in itertools.combinations(range(8), 4):
        shards = [encoded.shards[i] for i in subset]
        restored = decode(shards, params, block_len=block_size)
        assert b"".join(restored) == file_bytes
    for subset in itertools.combinations(range(8), 3):
        with pytest.raises(InsufficientShards):
            decode([encoded.shards[i] for i in subset], params, block_len=block_size)
    _passed(3, "all 70 four-subsets reconstruct 64 KiB bit-exactly; every 3-subset raises InsufficientShards")


def test_criterion_4_porep_timing_soundness():
    # Under shipped defaults (d=10^4): generation, sybil's second identity,
    # and outsourcing all rejected in 1000/1000 trials; honest accepted in all.
    k, k_prime, d = 64, 20, 10_000
    t_max = default_t_max(k_prime, COST)
    depth_cost = honest_response_cost(k, tuple(range(k_prime)), COST)  # worst-shape honest bound
    reseal_cost = k_prime * d * COST.hash_cost
    fetch_cost = COST.network_latency + k_prime * COST.fetch_remote_cost
    assert depth_cost < t_max < min(reseal_cost, fetch_cost)

    cfg = ExperimentConfig(
        protocol="porep", k=k, k_prime=k_prime, block_size=256,
        behaviors=(Honest(), GenerationAttacker(), SybilAttacker(2), OutsourcingAttacker()),
        trials=1000, rng_seed=bytes.fromhex("cc" * 32), delay_iters=d,
    )
    report = run_experiment(cfg, cost=COST)
    lanes = {(r.behavior, r.identity): r for r in report.rows}
    assert lanes[("honest", 0)].accepts == 1000
    assert lanes[("sybil", 0)].accepts == 1000
    for lane in (("generation", 0), ("sybil", 1), ("outsourcing", 0)):
        assert lanes[lane].rejects == 1000
        assert lanes[lane].reject_reasons == {"timing": 1000}
    _passed(4, f"honest < t_max < attack cost ({depth_cost} < {t_max} < {min(reseal_cost, fetch_cost)}); "
               "all three attackers rejected 1000/1000, honest accepted 1000/1000")


def test_criterion_5_post_chain_integrity():
    k, block_size, k_prime, length = 32, 64, 10, 12
    manifest, blocks, _ = build_manifest("f", bytes(range(256)) * (k * block_size // 256), block_size)
    sealed = seal_blocks(blocks, SealParams(delay_iters=10_000, node_tag=b"post-acceptance", salt=b"\x61" * 32))
    store, tree = dict(enumerate(sealed)), sealed_tree(sealed)
    policy = TimingPolicy(t_max=default_t_max(k_prime, COST), k_prime=k_prime, expected_cost=COST)

    # (a) honest chain verifies
    post = generate_post(store, tree, b"\x62" * 32, length, COST, k_prime=k_prime)
    assert verify_post(manifest, tree.root, post, policy)

    # (b) 12 proofs x 20 sampled byte positions, all rejected
    rng = random.Random(5)
    mutations = 0
    for proof_idx in range(length):
        total = canonical_length(post.proofs[proof_idx])
        # 16 uniform positions plus one from each canonical segment.
        k_idx = 8 * k_prime
        blocks_end = k_idx + sum(len(b.data) for b, _ in post.proofs[proof_idx].response.items)
        positions = set(rng.sample(range(total), 16))
        positions.update({
            rng.randrange(0, k_idx),
            rng.randrange(k_idx, blocks_end),
            rng.randrange(blocks_end, total - 16),
            rng.randrange(total - 16, total),
        })
        while len(positions) < 20:
            positions.add(rng.randrange(total))
        for pos in sorted(positions)[:20]:
            mutated = mutate_proof_byte(post, proof_idx, pos)
            assert not verify_post(manifest, tree.root, mutated, policy), (proof_idx, pos)
            mutations += 1
    assert mutations == length * 20

    # (c) drop-then-reseal node rejected
    cfg = ExperimentConfig(
        protocol="post", k=k, k_prime=k_prime, block_size=block_size,
        behaviors=(GenerationAttacker(),), trials=20, rng_seed=bytes.fromhex("dd" * 32),
        delay_iters=10_000, post_length=length,
    )
    (row,) = run_experiment(cfg, cost=COST).rows
    assert row.rejects == 20 and row.reject_reasons == {"timing": 20}

    # (d) exact sequential accounting
    elapsed = [p.finished_at - p.started_at for p in post.proofs]
    assert post.total_cost == sum(elapsed)
    assert post.total_cost >= length * min(elapsed)
    _passed(5, f"honest chain verifies; {mutations}/240 mutations rejected; "
               "drop-then-reseal rejected 20/20; total cost == sum of links >= 12x min link")


def test_criterion_6_secret_sharing_properties():
    rng = random.Random(6)
    seed = b"\x63" * 32

    # Exhaustive threshold reconstruction for n <= 6.
    data = rng.randbytes(256)
    checked = 0
    for n in range(1, 7):
        for t in range(1, n + 1):
            params = ShareParams(t, n)
            share_set = split_secret(data, params, seed)
            for size in range(t, n + 1):
                for subset in itertools.combinations(share_set.shares, size):
                    assert reconstruct(list(subset), params, len(data)) == data
                    checked += 1

    # Exact perfect secrecy over p=13, t=2, n=3: all secrets x all coefficients.
    p = 13
    uniform = Counter({v: 1 for v in range(p)})
    for position in range(3):
        for secret in range(p):
            dist = Counter(share_polynomial(secret, [a], [1, 2, 3], p)[position] for a in range(p))
            assert dist == uniform

    # Linear-coefficient identity on every tested subset.
    params = ShareParams(3, 6)
    share_set = split_secret(data, params, seed)
    chunks = bytes_to_symbols(data, 60)
    for subset in itertools.combinations(share_set.shares, 3):
        lam = reconstruction_coefficients([x for x, _ in subset], params.field_modulus)
        for j, chunk in enumerate(chunks):
            assert sum(l * ys[j] for l, (_, ys) in zip(lam, subset)) % params.field_modulus == chunk
    _passed(6, f"{checked} exhaustive subset reconstructions; exact p=13 secrecy; linearity identity holds")


def test_criterion_7_completeness_and_soundness_suite():
    # Completeness: honest provers accepted with rate 1 across protocols and grids.
    for protocol, grid in (
        ("pos", ((1, 1), (16, 4), (64, 20), (256, 10))),
        ("porep", ((16, 8), (64, 20))),
        ("post", ((16, 8),)),
    ):
        for k, k_prime in grid:
            cfg = ExperimentConfig(
                protocol=protocol, k=k, k_prime=k_prime, block_size=64,
                behaviors=(Honest(),), trials=25 if protocol != "post" else 5,
                rng_seed=bytes.fromhex("ee" * 32), delay_iters=200, post_length=3,
            )
            (row,) = run_experiment(cfg, cost=COST).rows
            assert row.accept_rate == 1.0, (protocol, k, k_prime)

    # Soundness: tampering of every protocol artifact rejects.
    manifest, blocks, tree = build_manifest("f", bytes(range(256)) * 16, 64)
    store = {b.index: b.data for b in blocks}
    ch = derive_sampling_challenge(b"\x64" * 32, 0, manifest.k, 8)
    resp = respond_sampling(store, tree, ch)
    assert verify_sampling(manifest, ch, resp)
    for i in range(len(resp.items)):
        block, path = resp.items[i]
        bad_block = Block(block.index, bytes([block.data[0] ^ 1]) + block.data[1:])
        items = resp.items[:i] + ((bad_block, path),) + resp.items[i + 1 :]
        assert not verify_sampling(manifest, ch, type(resp)(items=items))
        flipped = tuple(bytes([d[0] ^ 1]) + d[1:] for d in path)
        items = resp.items[:i] + ((block, flipped),) + resp.items[i + 1 :]
        assert not verify_sampling(manifest, ch, type(resp)(items=items))

    file = b"nonce audit corpus"
    nonce_set = prepare_nonce_challenges(file, 4, b"\x65" * 32)
    assert verify_nonce(nonce_set, 0, respond_nonce(file, nonce_set.entries[0].nonce))
    assert not verify_nonce(nonce_set, 1, respond_nonce(file + b"!", nonce_set.entries[1].nonce))
    with pytest.raises(NonceReplay):
        verify_nonce(nonce_set, 0, respond_nonce(file, nonce_set.entries[0].nonce))

    sealed = seal_blocks(blocks, SealParams(delay_iters=100, node_tag=b"c7", salt=b"\x66" * 32))
    replica_tree = sealed_tree(sealed)
    proof = porep_respond(dict(enumerate(sealed)), replica_tree, ch, 0, COST)
    policy = TimingPolicy(t_max=default_t_max(8, COST), k_prime=8)
    assert porep_verify(manifest, replica_tree.root, proof, policy)
    wrong_root = bytes([replica_tree.root[0] ^ 1]) + replica_tree.root[1:]
    assert not porep_verify(manifest, wrong_root, proof, policy)
    _passed(7, "honest acceptance rate 1.0 on all grids; every tamper mutation rejected")


def test_criterion_8_deterministic_reports():
    cfg = ExperimentConfig(
        protocol="porep", k=16, k_prime=8, block_size=64,
        behaviors=(Honest(), Dropper(0.5), SybilAttacker(2)), trials=60,
        rng_seed=bytes.fromhex("ff" * 32), delay_iters=300,
    )
    serial_1 = run_experiment(cfg, cost=COST)
    serial_2 = run_experiment(cfg, cost=COST)
    parallel = run_experiment(cfg, cost=COST, workers=3)
    assert serial_1.to_json() == serial_2.to_json() == parallel.to_json()
    assert serial_1.to_csv() == parallel.to_csv()

    pos_cfg = ExperimentConfig(
        protocol="pos", k=128, k_prime=10, block_size=32,
        behaviors=(Dropper(0.25),), trials=500, rng_seed=bytes.fromhex("ab" * 32),
    )
    assert run_experiment(pos_cfg).to_json() == run_experiment(pos_cfg, workers=4).to_json()

    # Under post a dropper's verdicts and proof sizes, and at k = 12 the path
    # lengths, depend on which blocks each link challenges.
    post_cfg = ExperimentConfig(
        protocol="post", k=12, k_prime=4, block_size=64,
        behaviors=(Honest(), Dropper(0.3), GenerationAttacker()), trials=30,
        rng_seed=bytes.fromhex("cd" * 32), delay_iters=50, post_length=4,
    )
    post_serial = run_experiment(post_cfg, cost=COST)
    post_parallel = run_experiment(post_cfg, cost=COST, workers=3)
    assert post_serial.to_json() == post_parallel.to_json()
    assert post_serial.to_csv() == post_parallel.to_csv()
    _passed(8, "re-runs byte-identical (JSON and CSV), serial and parallel")
