"""sim-pos and sim-post: seeded detection experiments through run_experiment.

sim-pos is the criterion 1/2 shape: no sealing, so set-up is a few
milliseconds and the loop is Merkle prove/verify, challenge derivation and
drop-view hashing.  sim-post is the criterion 4 shape under PoSt: set-up is
keystream sealing for every identity, the loop is PoSt chain generation and
verification, and workers=2 reseals the world in every worker.

Run this file directly to print the report digests of the default seed
that golden.json records.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter

from common import (DEFAULT_SEED, Ledger, derive, derive_int, in_fresh_process, median, p90, peak_rss_mb,
                    per_layer_metrics, q25)

import porstore.costs
import porstore.sim as sim
from tracer import Tracer

SHAPES = {
    "sim-pos": {
        "full": {"protocol": "pos", "k": 1024, "k_prime": 10, "block_size": 64, "trials": 2000, "min_pairs": 10,
                 "burst": 500},
        "tiny": {"protocol": "pos", "k": 64, "k_prime": 10, "block_size": 64, "trials": 200, "min_pairs": 10,
                 "burst": 20},
    },
    "sim-post": {
        "full": {"protocol": "post", "k": 64, "k_prime": 20, "block_size": 256, "delay_iters": 10_000,
                 "post_length": 12, "trials": 200, "min_pairs": 3, "burst": 60},
        "tiny": {"protocol": "post", "k": 8, "k_prime": 4, "block_size": 64, "delay_iters": 100,
                 "post_length": 3, "trials": 4, "min_pairs": 3, "burst": 40},
    },
}
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
# A sweep of about 40 seeds checks two dropper lanes per seed: a 3 sigma band
# would fail about one such sweep in five on chance alone, 4 sigma about one
# in two hundred.
SIGMA_BAND = 4.0
TIMING_LANES = {("generation", 0), ("sybil", 1), ("outsourcing", 0)}


def make_config(workload: str, shape: dict, seed: int, index: int) -> sim.ExperimentConfig:
    if shape["protocol"] == "pos":
        behaviors = (
            sim.Honest(),
            sim.Dropper(0.5, "independent", derive_int(seed, workload, "dropper-independent")),
            sim.Dropper(0.25, "fixed_subset", derive_int(seed, workload, "dropper-fixed")),
            sim.OutsourcingAttacker(),
        )
        extra = {}
    else:
        behaviors = (sim.Honest(), sim.GenerationAttacker(), sim.SybilAttacker(2), sim.OutsourcingAttacker())
        extra = {"delay_iters": shape["delay_iters"], "post_length": shape["post_length"]}
    return sim.ExperimentConfig(
        protocol=shape["protocol"], k=shape["k"], k_prime=shape["k_prime"], block_size=shape["block_size"],
        behaviors=behaviors, trials=shape["trials"], rng_seed=derive(seed, workload, f"config{index}"), **extra,
    )


def digests(report) -> dict:
    return {"json": hashlib.sha256(report.to_json().encode()).hexdigest(),
            "csv": hashlib.sha256(report.to_csv().encode()).hexdigest()}


def check_golden(ledger: Ledger, workload: str, size: str, report) -> None:
    with open(GOLDEN_PATH) as fh:
        expected = json.load(fh)[workload][size]
    ledger.check(digests(report) == expected, f"{workload}/{size}: default-seed report bytes differ from golden.json")


def accumulate(acc: dict, report) -> None:
    for row in report.rows:
        slot = acc.setdefault((row.node_id, row.identity, row.behavior), {"trials": 0, "accepts": 0, "reasons": Counter()})
        slot["trials"] += row.trials
        slot["accepts"] += row.accepts
        slot["reasons"].update(row.reject_reasons)


def check_lanes(ledger: Ledger, config, acc: dict) -> None:
    """Lane invariants that hold at any seed."""
    for (node_id, identity, behavior), slot in sorted(acc.items()):
        trials, accepts = slot["trials"], slot["accepts"]
        lane = f"{node_id}/{identity}"
        if behavior == "honest" or (config.protocol == "pos" and behavior == "outsourcing"):
            ledger.check(accepts == trials, f"{lane}: accepted {accepts}/{trials}, expected all")
        elif config.protocol == "pos" and behavior == "dropper":
            dropper = config.behaviors[int(node_id.rsplit("-", 1)[1])]
            p = (1 - dropper.drop_fraction) ** config.k_prime
            sigma = (p * (1 - p) / trials) ** 0.5
            rate = accepts / trials
            ledger.check(abs(rate - p) <= SIGMA_BAND * sigma,
                         f"{lane}: accept rate {rate:.6f} outside {SIGMA_BAND} sigma of {p:.6f}")
        elif config.protocol == "post" and (behavior, identity) in TIMING_LANES:
            ledger.check(accepts == 0 and slot["reasons"] == Counter({"timing": trials}),
                         f"{lane}: expected {trials} timing rejects, got {dict(slot['reasons'])}")


def peak_rss_probe(workload: str, size: str, seed: int) -> float:
    """Peak RSS of one world build plus one serial experiment, run in a
    fresh process so the benchmark's own history does not show."""
    config = make_config(workload, SHAPES[workload][size], seed, 0)
    sim.SimWorld(config)
    sim.run_experiment(config)
    return peak_rss_mb()


def run_untraced(workload: str, size: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    shape = SHAPES[workload][size]
    cost = porstore.costs.CostModel()
    check_golden(ledger, workload, "tiny",
                 sim.run_experiment(make_config(workload, SHAPES[workload]["tiny"], DEFAULT_SEED, 0), cost))
    rss = in_fresh_process(peak_rss_probe, workload, size, seed)

    # Each cycle samples every metric once: a world build, a burst of
    # epochs on that world, then one serial and one workers=2 experiment.
    # Spreading all of them over the run keeps a slow spell of a shared host
    # from landing on one metric only.
    setups, epochs, serial, parallel, acc = [], [], [], [], {}
    started = time.perf_counter()
    while len(serial) < shape["min_pairs"] or time.perf_counter() - started < seconds:
        index = len(serial)
        config = make_config(workload, shape, seed, index)
        t0 = time.perf_counter()
        world = sim.SimWorld(config, cost)
        setups.append(time.perf_counter() - t0)
        lanes = sum(len(node.seal_params) or 1 for node in world.nodes.values())
        for epoch in range(shape["burst"]):
            t0 = time.perf_counter()
            records = sim.run_audit_epoch(world, epoch)
            epochs.append(time.perf_counter() - t0)
            world.audit_log.clear()
            ledger.check(len(records) == lanes and all(r.verdict == "accept" for r in records
                                                       if r.node_id.startswith("honest-")),
                         f"experiment {index} epoch {epoch}: missing records or an honest reject")
        reports = {}
        for workers in ((1, 2) if index % 2 == 0 else (2, 1)):  # alternate so drift hits both alike
            t0 = time.perf_counter()
            reports[workers] = sim.run_experiment(config, cost, workers=workers)
            (serial if workers == 1 else parallel).append(time.perf_counter() - t0)
        one, two = reports[1], reports[2]
        ledger.check(one.to_json() == two.to_json() and one.to_csv() == two.to_csv(),
                     f"experiment {index}: serial and workers=2 reports differ")
        if index < shape["min_pairs"]:
            accumulate(acc, one)
        if index == 0 and seed == DEFAULT_SEED:
            check_golden(ledger, workload, size, one)
    check_lanes(ledger, config, acc)

    trials = shape["trials"]
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "ops_per_s": (trials / q25(serial), "1/s"),
            "ops_per_s_w2": (trials / q25(parallel), "1/s"),
            "op_ms_p25": (1000 * q25(epochs), "ms"),
            "peak_rss_mb": (rss, "MB"),
        },
        "aliases": {"ops_per_s": "trials_per_s", "ops_per_s_w2": "trials_per_s_w2"},
        "extra": {"epoch_ms_p50": (1000 * median(epochs), "ms", len(epochs)),
                  "epoch_ms_p90": (1000 * p90(epochs), "ms", len(epochs)),
                  "trials_per_s_median": (trials / median(serial), "1/s", len(serial)),
                  "trials_per_s_w2_median": (trials / median(parallel), "1/s", len(parallel))},
        "samples": {"setup_s": len(setups), "ops_per_s": len(serial), "ops_per_s_w2": len(parallel),
                    "op_ms_p25": len(epochs), "peak_rss_mb": 1},
        "shape": {k: v for k, v in shape.items() if k not in ("min_pairs", "burst")},
    }


def run_traced(workload: str, size: str, seed: int, seconds: float, ledger: Ledger, spans_path: str) -> dict:
    """Pairs of (untraced, workers=2, traced) serial experiments on one config."""
    shape = SHAPES[workload][size]
    cost = porstore.costs.CostModel()
    config = make_config(workload, shape, seed, 0)
    tracer = Tracer(f"{workload}/seed{seed}")
    plain_walls, traced_walls, speedups = [], [], []
    started = time.perf_counter()
    while not traced_walls or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        plain = sim.run_experiment(config, cost)
        plain_walls.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        parallel = sim.run_experiment(config, cost, workers=2)
        speedups.append(plain_walls[-1] / (time.perf_counter() - t0))
        tracer.run_id = f"{workload}/seed{seed}/round{len(traced_walls)}"
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = sim.run_experiment(config, cost)
            traced_walls.append(time.perf_counter() - t0)
        finally:
            leaked = tracer.restore()
        ledger.check(not leaked, f"tracer left wrappers bound: {leaked[:5]}")
        ledger.check(traced.to_json() == plain.to_json() == parallel.to_json(),
                     "tracing or workers=2 changed the report")
    wall = sum(traced_walls)
    ledger.check(tracer.self_total() <= wall, "per-layer self times sum to more than the traced wall")
    tracer.write(spans_path)

    reasons = Counter()
    for row in traced.rows:
        reasons.update(row.reject_reasons)
    values = {
        "sim.audits": sum(row.trials for row in traced.rows),
        "sim.rejects.sampling": reasons["sampling"],
        "sim.rejects.timing": reasons["timing"],
        "sim.rejects.chain": reasons["chain"],
        "sim.proof_bytes_total": sum(row.proof_bytes_total for row in traced.rows),
        "sim.w2_speedup": median(speedups),
        "trace.wall_s": median(traced_walls),
        "trace.overhead": median(t / p for t, p in zip(traced_walls, plain_walls)),
        "trace.self_sum_pct": 100.0 * tracer.self_total() / wall,
    }
    return {
        "metrics": per_layer_metrics(tracer, len(traced_walls), wall, values),
        "samples": {"traced_rounds": len(traced_walls), "spans_kept": len(tracer.spans),
                    "spans_dropped": tracer.spans_dropped},
        "shape": {k: v for k, v in shape.items() if k not in ("min_pairs", "burst")},
    }


if __name__ == "__main__":
    cost = porstore.costs.CostModel()
    print(json.dumps({w: {size: digests(sim.run_experiment(make_config(w, shape, DEFAULT_SEED, 0), cost))
                          for size, shape in sizes.items()} for w, sizes in SHAPES.items()}, indent=2))
