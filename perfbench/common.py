"""Pieces every workload shares: paths, seeds, statistics, the op ledger,
the per-layer metric table and provenance."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 1
WORKLOADS = ("sim-pos", "sim-post", "cli-lifecycle")
SIZES = ("full", "tiny")


class SourceMissing(Exception):
    pass


def import_porstore():
    """Import porstore from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "porstore", "__init__.py")):
        raise SourceMissing(f"no porstore sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import porstore

    if os.path.dirname(os.path.dirname(os.path.abspath(porstore.__file__))) != SRC:
        raise SourceMissing(f"porstore imported from {porstore.__file__}, not from {SRC}")
    return porstore


def derive(seed: int, workload: str, label: str) -> bytes:
    """32 bytes of workload input, a pure function of (seed, workload, label)."""
    return hashlib.sha256(f"perfbench/{workload}/{seed}/{label}".encode()).digest()


def derive_int(seed: int, workload: str, label: str) -> int:
    return int.from_bytes(derive(seed, workload, label)[:4], "little")


def median(values) -> float:
    return statistics.median(values)


def q25(values) -> float:
    """Lower quartile.  Gated throughput and latency use the faster quartile
    of their samples: on a shared host a changing share of samples runs up
    to 2x slow, which moves a median from run to run far more than the
    program does."""
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def p90(values) -> float:
    """90th percentile; callers keep at least 100 samples so ten lie beyond it."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_fresh_process(fn, *args):
    """Run fn(*args) in a newly spawned interpreter and return its result."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def read_chars() -> int:
    """Bytes this process has read through read(2) and friends, page cache included."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise OSError("/proc/self/io has no rchar line")


class Ledger:
    """Attempted and failed operations; every correctness check goes through here."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


# Per-layer metrics: (metric name, unit, source).  A source is
#   ("self", span)   -> span self time as a share of the traced wall
#   ("calls", span)  -> calls per traced round
#   ("volume", span) -> bytes or leaves per traced round
#   ("rate", span)   -> volume over inclusive span time, MB/s
#   ("value", key)   -> a number the workload measured itself
PER_LAYER = (
    ("merkle.hash_bytes.calls", "count", ("calls", "merkle.hash_bytes")),
    ("merkle.build_tree.self_pct", "%", ("self", "merkle.build_tree")),
    ("merkle.build_tree.leaves", "count", ("volume", "merkle.build_tree")),
    ("merkle.prove_leaf.calls", "count", ("calls", "merkle.prove_leaf")),
    ("merkle.prove_leaf.self_pct", "%", ("self", "merkle.prove_leaf")),
    ("merkle.verify_leaf.calls", "count", ("calls", "merkle.verify_leaf")),
    ("merkle.verify_leaf.self_pct", "%", ("self", "merkle.verify_leaf")),
    ("merkle.path_length.calls", "count", ("calls", "merkle.path_length")),
    ("merkle.path_length.self_pct", "%", ("self", "merkle.path_length")),
    ("pos.derive_sampling_challenge.calls", "count", ("calls", "pos.derive_sampling_challenge")),
    ("pos.derive_sampling_challenge.self_pct", "%", ("self", "pos.derive_sampling_challenge")),
    ("pos.respond_sampling.calls", "count", ("calls", "pos.respond_sampling")),
    ("pos.respond_sampling.self_pct", "%", ("self", "pos.respond_sampling")),
    ("pos.verify_sampling.calls", "count", ("calls", "pos.verify_sampling")),
    ("pos.verify_sampling.self_pct", "%", ("self", "pos.verify_sampling")),
    ("pos.split_blocks.self_pct", "%", ("self", "pos.split_blocks")),
    ("porep.seal_file.self_pct", "%", ("self", "porep.seal_file")),
    ("porep.keystream.calls", "count", ("calls", "porep.keystream")),
    ("porep.keystream.self_pct", "%", ("self", "porep.keystream")),
    ("porep.seal_xor.self_pct", "%", ("self", "porep.seal_block")),
    ("porep.porep_verify.calls", "count", ("calls", "porep.porep_verify")),
    ("porep.porep_verify.self_pct", "%", ("self", "porep.porep_verify")),
    ("porep.honest_response_cost.self_pct", "%", ("self", "porep.honest_response_cost")),
    ("post.canonical_encode.calls", "count", ("calls", "post.canonical_encode")),
    ("post.canonical_encode.bytes", "B", ("volume", "post.canonical_encode")),
    ("post.canonical_encode.self_pct", "%", ("self", "post.canonical_encode")),
    ("post.chain_seed.self_pct", "%", ("self", "post.chain_seed")),
    ("post.generate_post.self_pct", "%", ("self", "post.generate_post")),
    ("post.verify_post.self_pct", "%", ("self", "post.verify_post")),
    ("post.transcript_json_ratio", "x", ("value", "post.transcript_json_ratio")),
    ("erasure.encode.self_pct", "%", ("self", "erasure.encode")),
    ("erasure.encode.mb_per_s", "MB/s", ("rate", "erasure.encode")),
    ("erasure.decode.self_pct", "%", ("self", "erasure.decode")),
    ("erasure.decode.mb_per_s", "MB/s", ("rate", "erasure.decode")),
    ("shamir.split_secret.self_pct", "%", ("self", "shamir.split_secret")),
    ("shamir.split_secret.mb_per_s", "MB/s", ("rate", "shamir.split_secret")),
    ("shamir.reconstruct.self_pct", "%", ("self", "shamir.reconstruct")),
    ("shamir.reconstruct.mb_per_s", "MB/s", ("rate", "shamir.reconstruct")),
    ("sim.world_build.self_pct", "%", ("self", "sim.world_build")),
    ("sim.epoch.self_pct", "%", ("self", "sim.epoch")),
    ("sim.audits", "count", ("value", "sim.audits")),
    ("sim.rejects.sampling", "count", ("value", "sim.rejects.sampling")),
    ("sim.rejects.timing", "count", ("value", "sim.rejects.timing")),
    ("sim.rejects.chain", "count", ("value", "sim.rejects.chain")),
    ("sim.proof_bytes_total", "B", ("value", "sim.proof_bytes_total")),
    ("sim.w2_speedup", "x", ("value", "sim.w2_speedup")),
    ("cli.store.self_pct", "%", ("self", "cli.store")),
    ("cli.seal.self_pct", "%", ("self", "cli.seal")),
    ("cli.audit.self_pct", "%", ("self", "cli.audit")),
    ("cli.post_gen.self_pct", "%", ("self", "cli.post_gen")),
    ("cli.post_verify.self_pct", "%", ("self", "cli.post_verify")),
    ("cli.share_split.self_pct", "%", ("self", "cli.share_split")),
    ("cli.share_join.self_pct", "%", ("self", "cli.share_join")),
    ("cli.audit.read_bytes", "B", ("value", "cli.audit.read_bytes")),
    ("cli.post_gen.read_bytes", "B", ("value", "cli.post_gen.read_bytes")),
    ("trace.wall_s", "s", ("value", "trace.wall_s")),
    ("trace.overhead", "x", ("value", "trace.overhead")),
    ("trace.self_sum_pct", "%", ("value", "trace.self_sum_pct")),
)


def per_layer_metrics(tracer, rounds: int, traced_wall: float, values: dict) -> dict:
    """Turn the tracer's aggregates over `rounds` identical traced rounds into
    the PER_LAYER table.  Layers a workload never reaches read 0."""
    out = {}
    for name, unit, (kind, key) in PER_LAYER:
        agg = tracer.aggregates.get(key)
        if kind == "value":
            value = values.get(key, 0)
        elif agg is None:
            value = 0
        elif kind == "self":
            value = 100.0 * agg.self_time / traced_wall
        elif kind == "calls":
            value = agg.calls / rounds
        elif kind == "volume":
            value = agg.volume / rounds
        else:
            value = agg.volume / 1e6 / agg.total if agg.total > 0 else 0
        out[name] = (value, unit)
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, size: str, seconds: float, shape: dict, samples: dict) -> dict:
    import porstore

    return {
        "porstore": os.path.relpath(porstore.__file__, ROOT),
        "workload": workload,
        "seed": seed,
        "size": size,
        "run_seconds": seconds,
        "shape": shape,
        "samples": samples,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": git_commit(),
    }
