import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys

import pytest

from porstore import cli
from porstore.cli import main
from porstore.costs import CostModel, SimClock
from porstore.encoding import le64
from porstore.merkle import Block, build_tree, decode_tree, hash_bytes
from porstore.porep import SealParams, seal_blocks, sealed_tree, split_ranges
from porstore.pos import FileManifest, derive_sampling_challenge, respond_sampling, response_to_dict
from porstore.post import generate_post, post_to_dict

SEED_HEX = "ab" * 32


@pytest.fixture
def stored_file(tmp_path):
    data = bytes(range(256)) * 64  # 16 KiB
    src = tmp_path / "data.bin"
    src.write_bytes(data)
    store = tmp_path / "store"
    rc = main(["store", str(src), "--out-dir", str(store), "--block-size", "512", "--file-id", "f0"])
    assert rc == 0
    return data, src, store, store / "f0.manifest.json"


def _audit(manifest, store, epoch=0, k_prime=8, extra=()):
    return main([
        "audit", str(manifest), "--store-dir", str(store),
        "--k-prime", str(k_prime), "--seed", SEED_HEX, "--epoch", str(epoch), *extra,
    ])


class TestStoreAndAudit:
    def test_store_then_audit_accepts(self, stored_file):
        _, _, store, manifest = stored_file
        assert _audit(manifest, store) == 0
        # Transcripts land next to the store.
        assert (store / "f0.challenge.0.json").exists()
        assert (store / "f0.response.0.json").exists()

    def test_audit_json_output(self, stored_file, capsys):
        _, _, store, manifest = stored_file
        assert _audit(manifest, store, extra=("--json",)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "accept"
        assert payload["seed_hex"] == SEED_HEX

    def test_deleting_challenged_block_rejects(self, stored_file):
        _, _, store, manifest_path = stored_file
        manifest = FileManifest.from_dict(json.loads(manifest_path.read_text()))
        ch = derive_sampling_challenge(bytes.fromhex(SEED_HEX), 0, manifest.k, 8)
        (store / f"f0.block{ch.indices[0]}").unlink()
        assert _audit(manifest_path, store) == 1

    def test_tampering_stored_block_rejects(self, stored_file):
        _, _, store, manifest_path = stored_file
        manifest = FileManifest.from_dict(json.loads(manifest_path.read_text()))
        ch = derive_sampling_challenge(bytes.fromhex(SEED_HEX), 0, manifest.k, 8)
        victim = store / f"f0.block{ch.indices[0]}"
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert _audit(manifest_path, store) == 1

    def test_missing_manifest_is_usage_error(self, tmp_path):
        assert main(["audit", str(tmp_path / "nope.json"), "--store-dir", str(tmp_path)]) == 2

    def test_unreadable_input_is_usage_error(self, tmp_path):
        assert main(["store", str(tmp_path / "ghost.bin"), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("k", "256"), ("block_size", 512.0), ("merkle_root_hex", 5), ("coding", {"k_data": True, "n_total": 64}),
    ])
    def test_mistyped_manifest_is_usage_error(self, stored_file, field, value, capsys):
        _, _, store, manifest = stored_file
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), field: value}))
        capsys.readouterr()
        _assert_one_line_usage_error(_audit(manifest, store), capsys)

    def test_half_dropped_store_accept_count_tracks_closed_form(self, tmp_path):
        # 1000 epochs against a store missing half its blocks: accepts ~ (1/2)^10.
        data = os.urandom(2 * 1024)
        src = tmp_path / "big.bin"
        src.write_bytes(data)
        store = tmp_path / "store"
        assert main(["store", str(src), "--out-dir", str(store), "--block-size", "16", "--file-id", "big"]) == 0
        manifest = FileManifest.from_dict(json.loads((store / "big.manifest.json").read_text()))
        assert manifest.k == 128
        for i in range(0, manifest.k, 2):
            (store / f"big.block{i}").unlink()
        accepts = sum(
            1
            for epoch in range(1000)
            if _audit(store / "big.manifest.json", store, epoch=epoch, k_prime=10) == 0
        )
        assert accepts <= 6  # hypergeometric mean ~0.8

    def test_coded_store_and_audit(self, tmp_path):
        data = os.urandom(4096)
        src = tmp_path / "c.bin"
        src.write_bytes(data)
        store = tmp_path / "store"
        rc = main(["store", str(src), "--out-dir", str(store), "--block-size", "1024",
                   "--code", "4", "8", "--file-id", "c0"])
        assert rc == 0
        manifest = FileManifest.from_dict(json.loads((store / "c0.manifest.json").read_text()))
        assert manifest.k == 8 and manifest.coding.k_data == 4
        assert (store / "c0.shard7").exists()
        assert _audit(store / "c0.manifest.json", store, k_prime=4) == 0
        # Delete a shard the epoch-3 challenge provably samples.
        ch = derive_sampling_challenge(bytes.fromhex(SEED_HEX), 3, 8, 4)
        (store / f"c0.shard{ch.indices[0]}").unlink()
        assert _audit(store / "c0.manifest.json", store, epoch=3, k_prime=4) == 1

    def test_code_default_redundancy_doubles_shards(self, tmp_path):
        src = tmp_path / "c.bin"
        src.write_bytes(os.urandom(4096))
        store = tmp_path / "store"
        rc = main(["store", str(src), "--out-dir", str(store), "--block-size", "1024",
                   "--code", "4", "--file-id", "c1"])
        assert rc == 0
        manifest = FileManifest.from_dict(json.loads((store / "c1.manifest.json").read_text()))
        assert manifest.coding.n_total == 8

    def test_code_block_count_mismatch_is_usage_error(self, tmp_path):
        src = tmp_path / "c.bin"
        src.write_bytes(os.urandom(4096))
        assert main(["store", str(src), "--out-dir", str(tmp_path / "s"), "--block-size", "512",
                     "--code", "4", "8"]) == 2


@pytest.mark.parametrize("command", [
    ["audit", "m.json", "--store-dir", "s"],
    ["post", "gen", "--manifest", "m.json", "--replica-manifest", "r.json", "--replica-dir", "r", "--out", "t.json"],
])
def test_negative_epoch_refused_at_parse_time(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--epoch", "-1"])
    assert exc.value.code == 2
    assert "epoch must be an integer in [0, 2^64)" in capsys.readouterr().err


@pytest.fixture
def sealed(stored_file, tmp_path):
    _, _, store, manifest = stored_file
    replica_dir = tmp_path / "replica"
    rc = main([
        "seal", str(manifest), "--store-dir", str(store), "--out-dir", str(replica_dir),
        "--node-tag", "miner-1", "--salt", "cd" * 32, "--delay-iters", "50",
    ])
    assert rc == 0
    return store, manifest, replica_dir, replica_dir / "f0.replica.json"


def _post_gen(manifest, replica_dir, out, *extra):
    return main([
        "post", "gen", "--manifest", str(manifest), "--replica-manifest", str(replica_dir / "f0.replica.json"),
        "--replica-dir", str(replica_dir), "--length", "3", "--k-prime", "6", "--out", str(out), *extra,
    ])


@pytest.mark.parametrize("flag", ["audit --seed", "share split --seed", "seal --salt", "post gen --c0"])
def test_seed_salt_and_c0_must_be_32_bytes(flag, sealed, tmp_path, capsys):
    store, manifest, replica_dir, _ = sealed
    commands = {
        "audit --seed": lambda v: _audit(manifest, store, extra=("--seed", v)),
        "share split --seed": lambda v: main([
            "share", "split", str(manifest), "--threshold", "2", "--shares", "3",
            "--out-dir", str(tmp_path / "shares"), "--seed", v]),
        "seal --salt": lambda v: main([
            "seal", str(manifest), "--store-dir", str(store), "--out-dir", str(tmp_path / "resealed"),
            "--node-tag", "m", "--delay-iters", "1", "--salt", v]),
        "post gen --c0": lambda v: _post_gen(manifest, replica_dir, tmp_path / "chain.json", "--c0", v),
    }
    for value in ("ab", "zz" * 32):
        capsys.readouterr()
        assert commands[flag](value) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "64 hex characters" in err
    assert not (tmp_path / "shares").exists() and not (tmp_path / "resealed").exists()
    assert not (tmp_path / "chain.json").exists()


def _assert_one_line_usage_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


class TestTreeFile:
    """store and seal write a tree file; audit and post gen read it and the
    challenged blocks, and nothing else."""

    def test_store_and_seal_write_the_tree(self, sealed):
        store, manifest, replica_dir, _ = sealed
        blocks = [Block(i, (store / f"f0.block{i}").read_bytes()) for i in range(32)]
        assert decode_tree((store / "f0.tree").read_bytes(), 32) == build_tree(blocks)
        sealed_blocks = [(replica_dir / f"f0.sealed{i}").read_bytes() for i in range(32)]
        assert decode_tree((replica_dir / "f0.sealed.tree").read_bytes(), 32) == sealed_tree(sealed_blocks)

    def test_missing_tree_file_is_usage_error(self, sealed, tmp_path, capsys):
        store, manifest, replica_dir, _ = sealed
        (store / "f0.tree").unlink()
        (replica_dir / "f0.sealed.tree").unlink()
        capsys.readouterr()
        _assert_one_line_usage_error(_audit(manifest, store), capsys)
        _assert_one_line_usage_error(_post_gen(manifest, replica_dir, tmp_path / "chain.json"), capsys)

    def test_mis_sized_tree_file_is_usage_error(self, sealed, tmp_path, capsys):
        store, manifest, replica_dir, _ = sealed
        tree_file, sealed_tree_file = store / "f0.tree", replica_dir / "f0.sealed.tree"
        tree_file.write_bytes(tree_file.read_bytes()[:-32])
        sealed_tree_file.write_bytes(sealed_tree_file.read_bytes() + bytes(32))
        capsys.readouterr()
        _assert_one_line_usage_error(_audit(manifest, store), capsys)
        _assert_one_line_usage_error(_post_gen(manifest, replica_dir, tmp_path / "chain.json"), capsys)

    def test_flipped_tree_digest_rejects(self, stored_file):
        _, _, store, manifest = stored_file
        tree_file = store / "f0.tree"
        raw = bytearray(tree_file.read_bytes())
        # The first challenged leaf's level-0 sibling lies on its path.
        k = json.loads(manifest.read_text())["k"]
        first = derive_sampling_challenge(bytes.fromhex(SEED_HEX), 0, k, 8).indices[0]
        raw[32 * (first ^ 1)] ^= 1
        tree_file.write_bytes(bytes(raw))
        assert _audit(manifest, store) == 1

    def test_prover_reads_only_the_challenged_blocks(self, sealed, tmp_path):
        store, manifest, replica_dir, replica_manifest = sealed
        doc = json.loads(manifest.read_text())
        ch = derive_sampling_challenge(bytes.fromhex(SEED_HEX), 0, doc["k"], 8)
        bare = tmp_path / "bare-store"
        bare.mkdir()
        for name in ["f0.manifest.json", "f0.tree"] + [f"f0.block{i}" for i in ch.indices]:
            shutil.copy(store / name, bare / name)
        assert _audit(bare / "f0.manifest.json", bare) == 0

        chain = tmp_path / "chain.json"
        assert _post_gen(manifest, replica_dir, chain) == 0
        held = {item["index"] for proof in json.loads(chain.read_text())["proofs"] for item in proof["items"]}
        bare_replica = tmp_path / "bare-replica"
        bare_replica.mkdir()
        for name in ["f0.replica.json", "f0.sealed.tree"] + [f"f0.sealed{i}" for i in held]:
            shutil.copy(replica_dir / name, bare_replica / name)
        assert _post_gen(manifest, bare_replica, tmp_path / "bare-chain.json") == 0
        assert (tmp_path / "bare-chain.json").read_bytes() == chain.read_bytes()

    def test_honest_transcripts_equal_a_full_rebuild(self, sealed, tmp_path):
        store, manifest, replica_dir, replica_manifest = sealed
        doc = FileManifest.from_dict(json.loads(manifest.read_text()))
        blocks = {i: (store / f"f0.block{i}").read_bytes() for i in range(doc.k)}
        ch = derive_sampling_challenge(bytes.fromhex(SEED_HEX), 0, doc.k, 8)
        expected = respond_sampling(blocks, build_tree([Block(i, d) for i, d in blocks.items()]), ch)
        assert _audit(manifest, store) == 0
        assert json.loads((store / "f0.response.0.json").read_text()) == response_to_dict(expected)

        sealed_blocks = {i: (replica_dir / f"f0.sealed{i}").read_bytes() for i in range(doc.k)}
        root = bytes.fromhex(json.loads(replica_manifest.read_text())["replica_root_hex"])
        post = generate_post(sealed_blocks, sealed_tree(list(sealed_blocks.values())),
                             hash_bytes(root + le64(0)), 3, SimClock(), CostModel(), k_prime=6)
        chain = tmp_path / "chain.json"
        assert _post_gen(manifest, replica_dir, chain) == 0
        assert json.loads(chain.read_text()) == post_to_dict(post)


def _seal(manifest, store, out, delay_iters="7"):
    return main([
        "seal", str(manifest), "--store-dir", str(store), "--out-dir", str(out),
        "--node-tag", "miner-1", "--salt", "cd" * 32, "--delay-iters", delay_iters,
    ])


def _no_pool(*args, **kwargs):
    raise AssertionError("seal started a process pool")


class TestPooledSeal:
    """seal splits the blocks into one contiguous range per CPU, seals each
    range in a worker process, and keeps only the leaf digests."""

    @pytest.mark.parametrize("k", [1, 3, 33])
    def test_replica_equals_a_serial_seal(self, k, tmp_path, monkeypatch):
        # Four ranges: 33 blocks split 8/8/8/9, 3 blocks one each, 1 block in-process.
        monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
        if k == 1:
            monkeypatch.setattr(cli, "ProcessPoolExecutor", _no_pool)
        src = tmp_path / "data.bin"
        src.write_bytes(random.Random(k).randbytes(64 * k - 5))
        store, replica = tmp_path / "store", tmp_path / "replica"
        assert main(["store", str(src), "--out-dir", str(store), "--block-size", "64", "--file-id", "f0"]) == 0
        assert _seal(store / "f0.manifest.json", store, replica) == 0
        assert multiprocessing.active_children() == []

        blocks = [Block(i, (store / f"f0.block{i}").read_bytes()) for i in range(k)]
        expected = seal_blocks(blocks, SealParams(delay_iters=7, node_tag=b"miner-1", salt=bytes.fromhex("cd" * 32)))
        assert [(replica / f"f0.sealed{i}").read_bytes() for i in range(k)] == list(expected)
        tree = sealed_tree(expected)
        assert (replica / "f0.sealed.tree").read_bytes() == b"".join(d for level in tree.levels for d in level)
        assert json.loads((replica / "f0.replica.json").read_text())["replica_root_hex"] == tree.root.hex()
        assert sorted(p.name for p in replica.iterdir()) == sorted(
            ["f0.replica.json", "f0.sealed.tree"] + [f"f0.sealed{i}" for i in range(k)])

    def test_ranges_give_the_same_leaves_as_one_job(self, stored_file, tmp_path):
        _, _, store, _ = stored_file
        params = SealParams(delay_iters=3, node_tag=b"n", salt=bytes(32))
        whole, parts = tmp_path / "whole", tmp_path / "parts"
        whole.mkdir()
        parts.mkdir()
        leaves = cli._seal_range(str(store / "f0.block"), str(whole / "f0.sealed"), params, 0, 32)
        pieces = [cli._seal_range(str(store / "f0.block"), str(parts / "f0.sealed"), params, lo, hi)
                  for lo, hi in split_ranges(32, 5)]
        assert [d for piece in pieces for d in piece] == leaves
        assert len(leaves) == 32 and all(len(d) == 32 for d in leaves)
        assert sorted(p.read_bytes() for p in whole.iterdir()) == sorted(p.read_bytes() for p in parts.iterdir())

    def test_missing_block_is_refused_before_any_write(self, stored_file, tmp_path, capsys, monkeypatch):
        _, _, store, manifest = stored_file
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _no_pool)
        (store / "f0.block17").unlink()
        capsys.readouterr()
        assert _seal(manifest, store, tmp_path / "replica") == 2
        assert capsys.readouterr().err == "error: store is missing 1 of 32 blocks\n"
        assert not (tmp_path / "replica").exists()

    def test_worker_io_error_is_usage_error_after_the_pool_stops(self, stored_file, tmp_path, capsys, monkeypatch):
        _, _, store, manifest = stored_file
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        replica = tmp_path / "replica"
        (replica / "f0.sealed20").mkdir(parents=True)  # the worker cannot open it for writing
        capsys.readouterr()
        _assert_one_line_usage_error(_seal(manifest, store, replica), capsys)
        assert multiprocessing.active_children() == []
        assert not (replica / "f0.replica.json").exists() and not (replica / "f0.sealed.tree").exists()


class TestSealAndPost:

    def test_seal_writes_replica(self, sealed):
        _, _, replica_dir, replica_manifest = sealed
        doc = json.loads(replica_manifest.read_text())
        assert doc["node_tag"] == "miner-1" and doc["delay_iters"] == 50
        assert (replica_dir / "f0.sealed0").exists()

    def test_post_gen_verify_stats(self, sealed, tmp_path, capsys):
        store, manifest, replica_dir, replica_manifest = sealed
        transcript = tmp_path / "chain.json"
        rc = main([
            "post", "gen", "--manifest", str(manifest), "--replica-manifest", str(replica_manifest),
            "--replica-dir", str(replica_dir), "--length", "4", "--k-prime", "6",
            "--out", str(transcript), "--json",
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "post", "verify", "--manifest", str(manifest), "--replica-manifest", str(replica_manifest),
            "--transcript", str(transcript), "--strict", "--json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "accept"
        rc = main(["post", "stats", "--transcript", str(transcript), "--json"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["length"] == 4 and stats["total_bytes"] > 0

    def test_post_verify_rejects_tampered_transcript(self, sealed, tmp_path):
        store, manifest, replica_dir, replica_manifest = sealed
        transcript = tmp_path / "chain.json"
        main([
            "post", "gen", "--manifest", str(manifest), "--replica-manifest", str(replica_manifest),
            "--replica-dir", str(replica_dir), "--length", "3", "--k-prime", "6", "--out", str(transcript),
        ])
        doc = json.loads(transcript.read_text())
        doc["proofs"][1]["items"][0]["block_b64"] = doc["proofs"][0]["items"][0]["block_b64"]
        transcript.write_text(json.dumps(doc))
        rc = main([
            "post", "verify", "--manifest", str(manifest), "--replica-manifest", str(replica_manifest),
            "--transcript", str(transcript),
        ])
        assert rc == 1

    @pytest.mark.parametrize("rewrite", [
        lambda h: {"digest_hex": h, "side": "left"},  # the older format, with a side per sibling
        lambda h: "zz" + h[2:],
    ], ids=["sided-entry", "non-hex-entry"])
    def test_post_verify_malformed_path_is_usage_error(self, sealed, tmp_path, capsys, rewrite):
        store, manifest, replica_dir, replica_manifest = sealed
        transcript = tmp_path / "chain.json"
        main([
            "post", "gen", "--manifest", str(manifest), "--replica-manifest", str(replica_manifest),
            "--replica-dir", str(replica_dir), "--length", "2", "--k-prime", "6", "--out", str(transcript),
        ])
        doc = json.loads(transcript.read_text())
        for proof in doc["proofs"]:
            for item in proof["items"]:
                item["path"] = [rewrite(h) for h in item["path"]]
        transcript.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main([
            "post", "verify", "--manifest", str(manifest), "--replica-manifest", str(replica_manifest),
            "--transcript", str(transcript), "--strict",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_mistyped_replica_manifest_is_usage_error(self, sealed, tmp_path, capsys):
        store, manifest, replica_dir, replica_manifest = sealed
        transcript = tmp_path / "chain.json"
        assert _post_gen(manifest, replica_dir, transcript) == 0
        replica_manifest.write_text(json.dumps({**json.loads(replica_manifest.read_text()), "replica_root_hex": 5}))
        capsys.readouterr()
        _assert_one_line_usage_error(main([
            "post", "verify", "--manifest", str(manifest), "--replica-manifest", str(replica_manifest),
            "--transcript", str(transcript), "--strict",
        ]), capsys)
        _assert_one_line_usage_error(_post_gen(manifest, replica_dir, tmp_path / "again.json"), capsys)
        assert not (tmp_path / "again.json").exists()

    @pytest.mark.parametrize("rewrite", [
        lambda doc: {**doc, "proofs": [{**doc["proofs"][0], "started_at": "0"}, *doc["proofs"][1:]]},
        lambda doc: [doc],
    ], ids=["string-started-at", "top-level-list"])
    def test_post_verify_mistyped_transcript_is_usage_error(self, sealed, tmp_path, capsys, rewrite):
        store, manifest, replica_dir, replica_manifest = sealed
        transcript = tmp_path / "chain.json"
        assert _post_gen(manifest, replica_dir, transcript) == 0
        transcript.write_text(json.dumps(rewrite(json.loads(transcript.read_text()))))
        capsys.readouterr()
        _assert_one_line_usage_error(main([
            "post", "verify", "--manifest", str(manifest), "--replica-manifest", str(replica_manifest),
            "--transcript", str(transcript), "--strict",
        ]), capsys)
        _assert_one_line_usage_error(main(["post", "stats", "--transcript", str(transcript)]), capsys)


class TestShare:
    def test_split_join_round_trip(self, tmp_path):
        data = os.urandom(3000)
        src = tmp_path / "secret.bin"
        src.write_bytes(data)
        out_dir = tmp_path / "shares"
        rc = main(["share", "split", str(src), "--threshold", "3", "--shares", "5",
                   "--seed", "ef" * 32, "--out-dir", str(out_dir)])
        assert rc == 0
        shares = sorted(out_dir.glob("secret.bin.share*.json"))
        assert len(shares) == 5
        out = tmp_path / "restored.bin"
        rc = main(["share", "join", str(shares[4]), str(shares[1]), str(shares[2]), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == data

    def test_too_few_shares_is_usage_error(self, tmp_path):
        src = tmp_path / "s.bin"
        src.write_bytes(b"small secret")
        out_dir = tmp_path / "shares"
        main(["share", "split", str(src), "--threshold", "2", "--shares", "3",
              "--seed", "ee" * 32, "--out-dir", str(out_dir)])
        shares = sorted(out_dir.glob("s.bin.share*.json"))
        assert main(["share", "join", str(shares[0]), "--out", str(tmp_path / "x.bin")]) == 2

    def test_share_file_with_other_field_modulus_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "s.bin"
        src.write_bytes(b"small secret")
        out_dir = tmp_path / "shares"
        main(["share", "split", str(src), "--threshold", "2", "--shares", "3",
              "--seed", "ee" * 32, "--out-dir", str(out_dir)])
        shares = sorted(out_dir.glob("s.bin.share*.json"))
        tampered = json.loads(shares[1].read_text())
        tampered["params"]["field_modulus"] = "13"
        shares[1].write_text(json.dumps(tampered))
        capsys.readouterr()
        assert main(["share", "join", str(shares[0]), str(shares[1]), "--out", str(tmp_path / "x.bin")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.bin").exists()


    def test_inconsistent_shares_are_usage_error(self, tmp_path, capsys):
        src = tmp_path / "s.bin"
        src.write_bytes(random.Random(15).randbytes(1000))
        out_dir = tmp_path / "shares"
        main(["share", "split", str(src), "--threshold", "3", "--shares", "5",
              "--seed", "ee" * 32, "--out-dir", str(out_dir)])
        # Share 1 claims share 4's values as its own.
        first = out_dir / "s.bin.share1.json"
        tampered = json.loads(first.read_text())
        tampered["y_values"] = json.loads((out_dir / "s.bin.share4.json").read_text())["y_values"]
        first.write_text(json.dumps(tampered))
        capsys.readouterr()
        rc = main(["share", "join", *[str(out_dir / f"s.bin.share{x}.json") for x in (1, 2, 3)],
                   "--out", str(tmp_path / "x.bin")])
        _assert_one_line_usage_error(rc, capsys)
        assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("field, value", [
    ("params", [3, 5]),
    ("params.threshold", "3"),
    ("params.share_count", 5.0),
    ("params.field_modulus", 2 ** 61 - 1),
    ("x", "1"),
    ("x", True),
    ("original_length", "1000"),
    ("original_length", -1),
    ("original_length", 5000),
    ("original_length", 999 - 7),
    ("y_values", "1 2 3"),
    ("y_values[0]", 1),
    ("y_values[0]", "1e3"),
    ("y_values[0]", " 12"),
    ("y_values[0]", ""),
    ("y_values[0]", "\u0663"),  # ARABIC-INDIC DIGIT THREE: int() takes it, a share file must not
])
def test_mistyped_share_file_is_usage_error(field, value, tmp_path, capsys):
    src = tmp_path / "s.bin"
    src.write_bytes(random.Random(4).randbytes(1000))
    out_dir = tmp_path / "shares"
    assert main(["share", "split", str(src), "--threshold", "3", "--shares", "5",
                 "--seed", "ee" * 32, "--out-dir", str(out_dir)]) == 0
    paths = [out_dir / f"s.bin.share{x}.json" for x in (1, 2, 3)]
    doc = json.loads(paths[1].read_text())
    if field.startswith("params."):
        doc["params"][field.split(".")[1]] = value
    elif field == "y_values[0]":  # one bad value in an otherwise valid list
        doc["y_values"][0] = value
    else:
        doc[field] = value
    paths[1].write_text(json.dumps(doc))
    capsys.readouterr()
    _assert_one_line_usage_error(main(["share", "join", *map(str, paths), "--out", str(tmp_path / "x.bin")]), capsys)
    assert not (tmp_path / "x.bin").exists()


class TestExperimentCommand:
    def _config_file(self, tmp_path, trials=200):
        cfg = {
            "protocol": "pos",
            "k": 64,
            "k_prime": 10,
            "block_size": 32,
            "coding": None,
            "seal": {"d": 100, "t_max": None},
            "post_length": 2,
            "behaviors": [{"type": "honest"}, {"type": "dropper", "drop_fraction": 0.5}],
            "trials": trials,
            "rng_seed_hex": "77" * 32,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_experiment_writes_reports(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        out, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
        rc = main(["experiment", str(cfg), "--out", str(out), "--csv", str(csv_path), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == report
        rows = report["rows"]
        assert {r["behavior"] for r in rows} == {"honest", "dropper"}
        csv_lines = csv_path.read_text().strip().splitlines()
        assert len(csv_lines) == 3

    def test_experiment_deterministic_output(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        main(["experiment", str(cfg), "--json"])
        first = capsys.readouterr().out
        main(["experiment", str(cfg), "--json"])
        assert capsys.readouterr().out == first

    def test_experiment_refuses_workers_below_one(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        for value in ("0", "-3"):
            assert main(["experiment", str(cfg), "--workers", value]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "--workers must be >= 1" in err

    def test_experiment_clamps_workers_to_cpu_count(self, tmp_path, capsys, monkeypatch):
        cfg = self._config_file(tmp_path)
        seen = []
        real = cli.run_experiment

        def record(config, cost=None, workers=1):
            seen.append(workers)
            return real(config, cost=cost)  # serial: start no process

        monkeypatch.setattr(cli, "run_experiment", record)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for value in ("1", "2", "3", "4096"):
            assert main(["experiment", str(cfg), "--workers", value, "--json"]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert main(["experiment", str(cfg), "--workers", "8", "--json"]) == 0
        assert seen == [1, 2, 2, 2, 1]

    @pytest.mark.parametrize("path, value", [
        (("behaviors", 1, "drop_fraction"), "a"),
        (("rng_seed_hex",), "00"),
        (("rng_seed_hex",), "77" * 33),
        (("rng_seed_hex",), 7),
        (("k",), "64"),
        (("trials",), 2.0),
        (("behaviors",), {"type": "honest"}),
        (("behaviors", 0), "honest"),
        (("behaviors", 0, "type"), ["honest"]),
        (("behaviors", 1, "mode"), 1),
        (("seal", "d"), "100"),
        (("seal", "t_max"), 1.5),
        (("coding",), {"k_data": "32", "n_total": 64}),
        (("post_length",), None),
    ])
    def test_mistyped_config_is_usage_error(self, path, value, tmp_path, capsys):
        cfg = self._config_file(tmp_path, trials=1)
        doc = json.loads(cfg.read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        _assert_one_line_usage_error(main(["experiment", str(cfg)]), capsys)

    def test_cost_model_env_override(self, tmp_path, capsys, monkeypatch):
        # t_max defaults to 10 * k' * block_read_cost, so the override shows up.
        cost_file = tmp_path / "cost.json"
        cost_file.write_text(json.dumps({
            "hash_cost": 1, "block_read_cost": 7, "network_latency": 5, "fetch_remote_cost": 50,
        }))
        monkeypatch.setenv("PORSTORE_COST_MODEL", str(cost_file))
        data = os.urandom(1024)
        src = tmp_path / "d.bin"
        src.write_bytes(data)
        store = tmp_path / "store"
        main(["store", str(src), "--out-dir", str(store), "--block-size", "256", "--file-id", "d0"])
        replica_dir = tmp_path / "rep"
        main(["seal", str(store / "d0.manifest.json"), "--store-dir", str(store), "--out-dir", str(replica_dir),
              "--node-tag", "m", "--salt", "aa" * 32, "--delay-iters", "10"])
        transcript = tmp_path / "t.json"
        main(["post", "gen", "--manifest", str(store / "d0.manifest.json"),
              "--replica-manifest", str(replica_dir / "d0.replica.json"),
              "--replica-dir", str(replica_dir), "--length", "2", "--k-prime", "3", "--out", str(transcript)])
        capsys.readouterr()
        rc = main(["post", "verify", "--manifest", str(store / "d0.manifest.json"),
                   "--replica-manifest", str(replica_dir / "d0.replica.json"),
                   "--transcript", str(transcript), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["t_max"] == 10 * 3 * 7

    def test_malformed_cost_model_is_usage_error(self, tmp_path, capsys, monkeypatch):
        cfg = self._config_file(tmp_path, trials=1)
        cost_file = tmp_path / "cost.json"
        monkeypatch.setenv("PORSTORE_COST_MODEL", str(cost_file))
        for doc in ({"hash_cost": "x"}, {"hash_cost": True}, {"hash_cots": 1}, [1, 2, 5, 50]):
            cost_file.write_text(json.dumps(doc))
            capsys.readouterr()
            _assert_one_line_usage_error(main(["experiment", str(cfg)]), capsys)


def test_full_pipeline_round_trip(tmp_path):
    # store -> audit -> seal -> post gen -> post verify -> share split -> join,
    # ending with a bit-exact copy of the original file.
    data = os.urandom(2048)
    src = tmp_path / "original.bin"
    src.write_bytes(data)
    store = tmp_path / "store"
    assert main(["store", str(src), "--out-dir", str(store), "--block-size", "256", "--file-id", "rt"]) == 0
    manifest = store / "rt.manifest.json"
    assert main(["audit", str(manifest), "--store-dir", str(store), "--k-prime", "4", "--seed", SEED_HEX]) == 0
    replica_dir = tmp_path / "replica"
    assert main(["seal", str(manifest), "--store-dir", str(store), "--out-dir", str(replica_dir),
                 "--node-tag", "rt-node", "--salt", "12" * 32, "--delay-iters", "20"]) == 0
    transcript = tmp_path / "chain.json"
    assert main(["post", "gen", "--manifest", str(manifest),
                 "--replica-manifest", str(replica_dir / "rt.replica.json"),
                 "--replica-dir", str(replica_dir), "--length", "3", "--k-prime", "4",
                 "--out", str(transcript)]) == 0
    assert main(["post", "verify", "--manifest", str(manifest),
                 "--replica-manifest", str(replica_dir / "rt.replica.json"),
                 "--transcript", str(transcript), "--strict"]) == 0
    shares_dir = tmp_path / "shares"
    assert main(["share", "split", str(src), "--threshold", "2", "--shares", "4",
                 "--seed", "34" * 32, "--out-dir", str(shares_dir)]) == 0
    restored = tmp_path / "restored.bin"
    share_files = sorted(shares_dir.glob("original.bin.share*.json"))
    assert main(["share", "join", str(share_files[0]), str(share_files[3]), "--out", str(restored)]) == 0
    assert restored.read_bytes() == data


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_console_script_entry_point(tmp_path):
    with open(os.path.join(REPO, "pyproject.toml")) as fh:
        scripts = fh.read().split("[project.scripts]")[1].split("\n[")[0]
    assert 'porstore = "porstore.cli:main"' in scripts.splitlines()
    # Installed: the console script.  Fresh checkout: the same main via
    # `python -m porstore` from this checkout's src/.
    if shutil.which("porstore"):
        command, env = ["porstore"], None
    else:
        src_dir = os.path.join(REPO, "src")
        command = [sys.executable, "-m", "porstore"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    src = tmp_path / "x.bin"
    src.write_bytes(b"entry point smoke test" * 10)
    result = subprocess.run(
        [*command, "store", str(src), "--out-dir", str(tmp_path / "s"), "--block-size", "64", "--json"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["blocks_written"] == 4
