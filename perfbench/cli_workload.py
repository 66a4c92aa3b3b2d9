"""cli-lifecycle: the README walkthrough, driven through porstore.cli.main.

A seeded 16 MiB file is stored in 4 KiB blocks and sealed (the set-up);
then closed-loop rounds of five audits, one PoSt gen + strict verify, one
erasure-coded store, one share split and one share join run against it.
This is the only workload that reaches the cli, erasure and shamir layers,
and it puts writes (store, seal) beside reads (audit, post).  Blocks are
read through the OS page cache, so read costs are the page cache's, not
a storage device's.
"""

from __future__ import annotations

import base64
import io
import json
import multiprocessing
import os
import random
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout

from common import Ledger, derive, in_fresh_process, median, p90, peak_rss_mb, per_layer_metrics, q25, read_chars

import porstore.cli
import porstore.erasure
import porstore.post
from porstore.pos import CodeParams
from tracer import Tracer

WORKLOAD = "cli-lifecycle"
SHAPES = {
    "full": {"file_bytes": 16 << 20, "block_size": 4096, "delay_iters": 1000, "k_prime": 20, "post_length": 12,
             "code_k": 8, "code_n": 16, "code_block": 16384, "secret_bytes": 16384, "threshold": 3, "shares": 5,
             "audits_per_round": 5, "min_rounds": 20},
    "tiny": {"file_bytes": 256 << 10, "block_size": 4096, "delay_iters": 10, "k_prime": 20, "post_length": 3,
             "code_k": 4, "code_n": 8, "code_block": 1024, "secret_bytes": 1024, "threshold": 3, "shares": 5,
             "audits_per_round": 5, "min_rounds": 2},
}
JOIN_SHARES = (1, 4, 5)
SETUPS = 5
SETUP_EVERY = 4  # rounds between two timed set-ups
SERIAL_SHARE = 0.7  # of --seconds, set-ups included; the rest runs two concurrent clients
MIN_CLIENT_ROUNDS = 3
FILE_ID = "demo"


def call(argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI invocation: exit code, wall seconds, stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = porstore.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


class Inputs:
    """The seeded files every client reads: the stored file, the coded
    store's input and the secret."""

    def __init__(self, root: str, shape: dict, seed: int):
        self.root = root
        self.shape = shape
        self.seed = seed
        self.data = os.path.join(root, "data.bin")
        self.coded = os.path.join(root, "coded.bin")
        self.secret = os.path.join(root, "secret.bin")

    def write(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        rng = random.Random(derive(self.seed, WORKLOAD, "inputs"))
        shape = self.shape
        for path, size in ((self.data, shape["file_bytes"]),
                           (self.coded, shape["code_k"] * shape["code_block"]),
                           (self.secret, shape["secret_bytes"])):
            with open(path, "wb") as fh:
                fh.write(rng.randbytes(size))

    def read(self, path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()


def setup(inputs: Inputs, out: str) -> tuple[bool, float, str, str]:
    """store + seal into `out`; returns (ok, seconds, store dir, replica dir)."""
    shape = inputs.shape
    store, replica = os.path.join(out, "store"), os.path.join(out, "replica")
    code_store, t_store, _ = call(["store", inputs.data, "--out-dir", store, "--block-size", str(shape["block_size"]),
                                   "--file-id", FILE_ID])
    code_seal, t_seal, _ = call(["seal", os.path.join(store, f"{FILE_ID}.manifest.json"), "--store-dir", store,
                                 "--out-dir", replica, "--node-tag", "miner-1",
                                 "--delay-iters", str(shape["delay_iters"]),
                                 "--salt", derive(inputs.seed, WORKLOAD, "salt").hex()])
    return code_store == 0 and code_seal == 0, t_store + t_seal, store, replica


class Client:
    """One closed-loop client: every command waits for the previous one.

    Each round writes into a directory of its own.  Rewriting a file in
    place makes ext4 flush it on close, which would time the disk rather
    than the program, and no real caller rewrites the same transcript.
    """

    def __init__(self, inputs: Inputs, store: str, replica: str, out: str, label: str):
        self.inputs = inputs
        self.shape = inputs.shape
        self.label = label
        self.manifest = os.path.join(store, f"{FILE_ID}.manifest.json")
        self.store = store
        self.replica_manifest = os.path.join(replica, f"{FILE_ID}.replica.json")
        self.replica = replica
        self.out = out

    def round_dir(self, index) -> str:
        return os.path.join(self.out, f"r{index}")

    def discard(self, index) -> None:
        shutil.rmtree(self.round_dir(index))

    def seed_hex(self, label: str) -> str:
        return derive(self.inputs.seed, WORKLOAD, f"{self.label}/{label}").hex()

    def audit(self, epoch: int, out: str, store: str | None = None) -> tuple[int, float, str]:
        return call(["audit", self.manifest, "--store-dir", store or self.store, "--k-prime", str(self.shape["k_prime"]),
                     "--seed", self.seed_hex(f"audit{epoch}"), "--epoch", str(epoch),
                     "--transcript-dir", out, "--json"])

    def post_gen(self, epoch: int, chain: str) -> tuple[int, float, str]:
        return call(["post", "gen", "--manifest", self.manifest, "--replica-manifest", self.replica_manifest,
                     "--replica-dir", self.replica, "--length", str(self.shape["post_length"]),
                     "--k-prime", str(self.shape["k_prime"]), "--epoch", str(epoch), "--out", chain])

    def post_verify(self, transcript: str) -> tuple[int, float, str]:
        return call(["post", "verify", "--manifest", self.manifest, "--replica-manifest", self.replica_manifest,
                     "--transcript", transcript, "--strict"])

    def round(self, index: int, ledger: Ledger, reads: dict | None = None) -> dict[str, list[float]]:
        """One closed-loop round; returns wall seconds per command.  With
        `reads`, also adds up the bytes each audit and post gen read."""
        shape = self.shape
        out = self.round_dir(index)
        os.makedirs(out)
        chain, shares = os.path.join(out, "chain.json"), os.path.join(out, "shares")
        restored = os.path.join(out, "restored.bin")
        times: dict[str, list[float]] = {}

        def step(command: str, what: str, run, expect_ok=lambda: True) -> None:
            before = read_chars() if reads is not None else 0
            code, elapsed, _ = run()
            if reads is not None and command in ("audit", "post_gen"):
                reads[command] = reads.get(command, 0) + read_chars() - before
            times.setdefault(command, []).append(elapsed)
            ledger.check(code == 0 and expect_ok(), f"{self.label}: {what} exited {code} or gave wrong bytes")

        for j in range(shape["audits_per_round"]):
            epoch = index * shape["audits_per_round"] + j
            step("audit", f"honest audit epoch {epoch}", lambda: self.audit(epoch, out))
        step("post_gen", f"post gen {index}", lambda: self.post_gen(index, chain))
        step("post_verify", "strict verify of an honest chain", lambda: self.post_verify(chain))
        step("store_coded", "store --code", lambda: call([
            "store", self.inputs.coded, "--out-dir", os.path.join(out, "coded"), "--block-size", str(shape["code_block"]),
            "--code", str(shape["code_k"]), str(shape["code_n"]), "--file-id", "coded"]))
        step("share_split", "share split", lambda: call([
            "share", "split", self.inputs.secret, "--threshold", str(shape["threshold"]), "--shares", str(shape["shares"]),
            "--seed", self.seed_hex(f"share{index}"), "--out-dir", shares]))
        name = os.path.basename(self.inputs.secret)
        step("share_join", "share join", lambda: call([
            "share", "join", *[os.path.join(shares, f"{name}.share{x}.json") for x in JOIN_SHARES], "--out", restored]),
             expect_ok=lambda: self.inputs.read(restored) == self.inputs.read(self.inputs.secret))
        return times

    def check_parity_decode(self, index: int, ledger: Ledger) -> None:
        """Rebuild round `index`'s coded input from its parity shards alone."""
        shape = self.shape
        k, n = shape["code_k"], shape["code_n"]
        coded = os.path.join(self.round_dir(index), "coded")
        shards = [(i, self.inputs.read(os.path.join(coded, f"coded.shard{i}"))) for i in range(k, n)]
        blocks = porstore.erasure.decode(shards, CodeParams(k, n), block_len=shape["code_block"])
        ledger.check(b"".join(blocks) == self.inputs.read(self.inputs.coded),
                     "erasure decode of the parity-only subset did not reproduce the input")

    def negative_controls(self, ledger: Ledger) -> None:
        """A store missing a challenged block and a transcript with one
        flipped block byte must both be rejected with exit 1."""
        out = os.path.join(self.out, "negative")
        epoch = 1 << 20
        code, _, printed = self.audit(epoch, os.path.join(out, "full"))
        ledger.check(code == 0, f"{self.label}: audit before the missing-block control exited {code}")
        missing = json.loads(printed)["indices"][0] if code == 0 else 0
        copy = os.path.join(out, "store-missing")
        os.makedirs(copy)
        for name in os.listdir(self.store):
            if name != f"{FILE_ID}.block{missing}":
                os.link(os.path.join(self.store, name), os.path.join(copy, name))
        code, _, _ = self.audit(epoch, os.path.join(out, "missing"), store=copy)
        ledger.check(code == 1, f"{self.label}: audit of a store missing block {missing} exited {code}, expected 1")

        chain = os.path.join(out, "chain.json")
        code, _, _ = self.post_gen(epoch, chain)
        ledger.check(code == 0, f"{self.label}: post gen before the flipped-byte control exited {code}")
        with open(chain) as fh:
            transcript = json.load(fh)
        item = transcript["proofs"][0]["items"][0]
        block = bytearray(base64.b64decode(item["block_b64"]))
        block[0] ^= 1
        item["block_b64"] = base64.b64encode(bytes(block)).decode("ascii")
        flipped = os.path.join(out, "chain-flipped.json")
        with open(flipped, "w") as fh:
            json.dump(transcript, fh)
        code, _, _ = self.post_verify(flipped)
        ledger.check(code == 1, f"{self.label}: strict verify of a flipped transcript byte exited {code}, expected 1")
        shutil.rmtree(out)


def client_rounds(inputs: Inputs, store: str, replica: str, label: str, deadline: float) -> dict:
    """Body of one of the two concurrent clients (runs in its own process)."""
    ledger = Ledger()
    client = Client(inputs, store, replica, os.path.join(inputs.root, label), label)
    sums = []
    while len(sums) < MIN_CLIENT_ROUNDS or time.monotonic() < deadline:
        times = client.round(len(sums), ledger)
        client.discard(len(sums))
        sums.append(sum(sum(v) for v in times.values()))
    return {"round_sums": sums, "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures}


def peak_rss_probe(inputs: Inputs) -> dict:
    """Peak RSS of store + seal and one round, run in a fresh process so
    the benchmark's own history does not show."""
    ledger = Ledger()
    lifecycle_round(inputs, os.path.join(inputs.root, "rss"), ledger, None).discard(0)
    shutil.rmtree(os.path.join(inputs.root, "rss"))
    return {"rss": peak_rss_mb(), "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures}


def merge(ledger: Ledger, result: dict) -> None:
    ledger.attempted += result["attempted"]
    ledger.failed += result["failed"]
    ledger.failures.extend(result["failures"][: max(0, 20 - len(ledger.failures))])


def run_untraced(size: str, seed: int, seconds: float, ledger: Ledger, work: str) -> dict:
    shape = SHAPES[size]
    inputs = Inputs(work, shape, seed)
    inputs.write()
    probe = in_fresh_process(peak_rss_probe, inputs)
    merge(ledger, probe)
    started = time.perf_counter()
    setups = []

    def timed_setup() -> tuple[str, str]:
        out = os.path.join(work, f"setup{len(setups)}")
        ok, elapsed, store, replica = setup(inputs, out)
        ledger.check(ok, f"store + seal {len(setups)} failed")
        setups.append(elapsed)
        return store, replica

    store, replica = timed_setup()
    client = Client(inputs, store, replica, os.path.join(work, "client"), "client")
    client.negative_controls(ledger)
    times: dict[str, list[float]] = {}
    round_sums = []
    while len(round_sums) < shape["min_rounds"] or time.perf_counter() - started < SERIAL_SHARE * seconds:
        index = len(round_sums)
        result = client.round(index, ledger)
        if index == 0:
            client.check_parity_decode(index, ledger)
        client.discard(index)
        for command, values in result.items():
            times.setdefault(command, []).extend(values)
        round_sums.append(sum(sum(v) for v in result.values()))
        if index % SETUP_EVERY == SETUP_EVERY - 1 and len(setups) < SETUPS:
            # Set-ups are spread over the run: creating a file costs 100-270
            # us of kernel time on an ext4 virtio disk, drifting over seconds.
            timed_setup()
            shutil.rmtree(os.path.join(work, f"setup{len(setups) - 1}"))
    while len(setups) < SETUPS:
        timed_setup()
        shutil.rmtree(os.path.join(work, f"setup{len(setups) - 1}"))

    deadline = time.monotonic() + max(0.0, seconds - (time.perf_counter() - started))
    pool = multiprocessing.get_context("spawn").Pool(2)
    try:
        clients = pool.starmap(client_rounds, [(inputs, store, replica, f"client{c}", deadline) for c in range(2)],
                               chunksize=1)
    finally:
        pool.close()
        pool.join()
    for result in clients:
        merge(ledger, result)

    per_round = shape["audits_per_round"] + 5  # post gen, post verify, store --code, share split, share join
    audits = times["audit"]
    extra = {f"{cmd}_ms_p50": (1000 * median(values), "ms", len(values)) for cmd, values in times.items()}
    extra["audit_ms_p90"] = (1000 * p90(audits), "ms", len(audits))
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "ops_per_s": (per_round / q25(round_sums), "1/s"),
            "ops_per_s_w2": (sum(per_round / q25(c["round_sums"]) for c in clients), "1/s"),
            "op_ms_p25": (1000 * q25(audits), "ms"),
            "peak_rss_mb": (probe["rss"], "MB"),
        },
        "extra": extra,
        "samples": {"setup_s": len(setups), "ops_per_s": len(round_sums),
                    "ops_per_s_w2": sum(len(c["round_sums"]) for c in clients),
                    "op_ms_p25": len(audits), "peak_rss_mb": 1},
        "shape": {k: v for k, v in shape.items() if k != "min_rounds"},
    }


def lifecycle_round(inputs: Inputs, out: str, ledger: Ledger, reads: dict | None) -> Client:
    """store + seal, one round of every command, and the parity decode."""
    ok, _, store, replica = setup(inputs, out)
    ledger.check(ok, "store + seal failed")
    client = Client(inputs, store, replica, os.path.join(out, "client"), "client")
    client.round(0, ledger, reads)
    client.check_parity_decode(0, ledger)
    return client


def run_traced(size: str, seed: int, seconds: float, ledger: Ledger, work: str, spans_path: str) -> dict:
    """Pairs of identical lifecycle rounds, untraced then traced."""
    shape = SHAPES[size]
    inputs = Inputs(work, shape, seed)
    inputs.write()
    tracer = Tracer(f"{WORKLOAD}/seed{seed}")
    plain_walls, traced_walls, reads = [], [], {}
    started = time.perf_counter()
    while not traced_walls or time.perf_counter() - started < seconds:
        out = os.path.join(work, "round")
        t0 = time.perf_counter()
        lifecycle_round(inputs, out, ledger, None)
        plain_walls.append(time.perf_counter() - t0)
        shutil.rmtree(out)
        tracer.run_id = f"{WORKLOAD}/seed{seed}/round{len(traced_walls)}"
        tracer.install()
        try:
            t0 = time.perf_counter()
            client = lifecycle_round(inputs, out, ledger, reads)
            traced_walls.append(time.perf_counter() - t0)
        finally:
            leaked = tracer.restore()
        ledger.check(not leaked, f"tracer left wrappers bound: {leaked[:5]}")
        chain = os.path.join(client.round_dir(0), "chain.json")
        with open(chain) as fh:
            chain_bytes = porstore.post.transcript_stats(porstore.post.post_from_dict(json.load(fh)))["total_bytes"]
        json_ratio = os.path.getsize(chain) / chain_bytes
        shutil.rmtree(out)
    wall = sum(traced_walls)
    ledger.check(tracer.self_total() <= wall, "per-layer self times sum to more than the traced wall")
    tracer.write(spans_path)

    rounds = len(traced_walls)
    values = {
        "post.transcript_json_ratio": json_ratio,
        "cli.audit.read_bytes": reads["audit"] / (rounds * shape["audits_per_round"]),
        "cli.post_gen.read_bytes": reads["post_gen"] / rounds,
        "trace.wall_s": median(traced_walls),
        "trace.overhead": median(t / p for t, p in zip(traced_walls, plain_walls)),
        "trace.self_sum_pct": 100.0 * tracer.self_total() / wall,
    }
    return {
        "metrics": per_layer_metrics(tracer, rounds, wall, values),
        "samples": {"traced_rounds": rounds, "spans_kept": len(tracer.spans), "spans_dropped": tracer.spans_dropped},
        "shape": {k: v for k, v in shape.items() if k != "min_rounds"},
    }
