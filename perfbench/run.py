"""porstore benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sim-pos --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; porstore is imported from its src/, so
nothing needs installing.  Each workload run measures in a fresh child
process (its peak RSS is the run's `peak_rss_mb`).  `--trace 0` prints the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer metrics of a
separate traced run.  Load is closed-loop: each operation starts when the
previous one ends.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Any failed correctness
check makes the exit code 1; a run that cannot measure exits 2 and prints
no result.  `--workload all` runs every workload untraced and traced and
prints both tables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import common

CHILD_TIMEOUT_S = 170  # the whole run must end within 180 s
ALL_TIMEOUT_S = 900


def load_benchmark() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def expected_metrics(bench: dict, trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# child: one measured workload run
# ---------------------------------------------------------------------------

def child_main(args) -> int:
    common.import_porstore()
    import cli_workload
    import sim_workloads

    ledger = common.Ledger()
    os.makedirs(common.OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    spans_path = os.path.join(common.OUT_DIR, f"spans-{tag}.jsonl")
    work = os.path.join(common.OUT_DIR, f"work-{os.getpid()}")
    try:
        if args.workload == "cli-lifecycle":
            if args.trace:
                result = cli_workload.run_traced(args.size, args.seed, args.seconds, ledger, work, spans_path)
            else:
                result = cli_workload.run_untraced(args.size, args.seed, args.seconds, ledger, work)
        elif args.trace:
            result = sim_workloads.run_traced(args.workload, args.size, args.seed, args.seconds, ledger, spans_path)
        else:
            result = sim_workloads.run_untraced(args.workload, args.size, args.seed, args.seconds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(attempted=ledger.attempted, failed=ledger.failed, failures=ledger.failures,
                  provenance=common.provenance(args.workload, args.seed, args.size, args.seconds,
                                               result.pop("shape"), result["samples"]))
    with open(os.path.join(common.OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn, validate, report
# ---------------------------------------------------------------------------

class RunError(Exception):
    pass


def run_child(workload: str, seed: int, seconds: int, trace: int, size: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        try:  # nothing of the child's process group may outlive the run
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{workload} (trace {trace}) exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def validate(result: dict, expected: dict[str, str], workload: str) -> None:
    for name, unit in expected.items():
        if name not in result["metrics"]:
            raise RunError(f"{workload} did not emit {name}")
        value, got_unit = result["metrics"][name]
        if got_unit != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RunError(f"{workload}: {name} = {value!r} {got_unit}, expected a finite number in {unit}")
    extra = set(result["metrics"]) - set(expected)
    if extra:
        raise RunError(f"{workload} emitted metrics missing from BENCHMARK.json: {sorted(extra)}")


def print_table(result: dict, workload: str, trace: int) -> None:
    samples = result.get("samples", {})
    names = result.get("aliases", {})
    print(f"== {workload}  seed {result['provenance']['seed']}  size {result['provenance']['size']}  "
          f"{'traced run (per-layer)' if trace else 'untraced run (end-to-end)'}")
    for name, (value, unit) in result["metrics"].items():
        label = f"{name} ({names[name]})" if names.get(name, name) != name else name
        count = f"n={samples[name]}" if name in samples else ""
        print(f"  {label:<44} {value:>16.6g} {unit:<6} {count}")
    for name, (value, unit, count) in sorted(result.get("extra", {}).items()):
        print(f"  {name:<44} {value:>16.6g} {unit:<6} n={count}")
    if not trace:
        frac = result["failed"] / max(1, result["attempted"])
        print(f"  {'ops_failed_frac':<44} {frac:>16.6g} {'':<6} ({result['failed']}/{result['attempted']} ops)")
    else:
        print(f"  rounds {samples.get('traced_rounds')}, spans kept {samples.get('spans_kept')}, "
              f"dropped {samples.get('spans_dropped')}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=common.SIZES, default="full",
                        help="tiny shrinks every shape for the self-test")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if args.child:
        return child_main(args)
    try:
        common.import_porstore()
        bench = load_benchmark()
        if args.workload != "all":
            started = time.monotonic()
            result = run_child(args.workload, args.seed, args.seconds, args.trace, args.size, CHILD_TIMEOUT_S)
            validate(result, expected_metrics(bench, args.trace), args.workload)
            print_table(result, args.workload, args.trace)
            print(json.dumps({
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
            }))
            print(f"(run took {time.monotonic() - started:.1f} s)", file=sys.stderr)
            return 0 if result["failed"] == 0 else 1

        summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
        for trace in (0, 1):
            for workload in common.WORKLOADS:
                result = run_child(workload, args.seed, args.seconds, trace, args.size, ALL_TIMEOUT_S)
                validate(result, expected_metrics(bench, trace), workload)
                print_table(result, workload, trace)
                summary["attempted"] += result["attempted"]
                summary["failed"] += result["failed"]
                summary["workloads"].setdefault(workload, {}).update(
                    {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()})
        summary["correct"] = summary["failed"] == 0
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    except (common.SourceMissing, RunError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
