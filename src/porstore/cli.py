"""Command-line front end.

Exit codes: 0 success/accept, 1 protocol rejection, 2 usage or I/O error.
Every command takes randomness only through --seed flags (fresh entropy
otherwise, echoed in the output) and supports --json for machine-readable
stdout.  --seed, --salt and --c0 take exactly 32 bytes as 64 hex characters.

store and seal write the Merkle tree beside the blocks (<file_id>.tree,
<file_id>.sealed.tree); audit and post gen read only that file and the
challenged blocks, and refuse a directory without it.  Every path is still
verified against the manifest or replica root, so a forged tree file gives
a rejection, never an acceptance.

seal runs one contiguous block range per CPU this process may run on, each
in a worker process that reads its block files and writes the sealed ones;
this process keeps only the leaf digests and builds the tree over them.

PORSTORE_COST_MODEL may name a JSON file overriding the default simulated
cost model.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import string
import sys
from concurrent.futures import ProcessPoolExecutor

from .costs import CostModel, SimClock, TimingPolicy, default_t_max
from .encoding import le64
from .erasure import DEFAULT_REDUNDANCY
from .errors import EmptyInput, InvalidParams, MalformedInput, PorstoreError, expect
from .merkle import Block, Digest, MerkleTree, decode_tree, encode_tree, hash_bytes, leaf_digest, tree_over
from .pos import (
    CodeParams,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_K_PRIME,
    FileManifest,
    build_manifest,
    challenge_to_dict,
    derive_sampling_challenge,
    respond_sampling,
    verify_sampling,
    response_to_dict,
)
from .porep import DEFAULT_DELAY_ITERS, SealParams, replica_manifest_to_dict, seal_block, split_ranges
from .post import (
    DEFAULT_CHAIN_LENGTH,
    generate_post,
    post_from_dict,
    post_to_dict,
    transcript_stats,
    verify_post,
)
from .shamir import CHUNK_BITS, ShareParams, reconstruct, split_secret
from .sim import ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


def _cost_model() -> CostModel:
    path = os.environ.get("PORSTORE_COST_MODEL")
    if path:
        return CostModel.from_json_file(path)
    return CostModel()


def _epoch(value: str) -> int:
    """argparse type for --epoch, which challenges encode as 8 bytes."""
    if not value.isdecimal() or int(value) >= 1 << 64:
        raise argparse.ArgumentTypeError(f"epoch must be an integer in [0, 2^64), got {value!r}")
    return int(value)


def _bytes32(value: str, flag: str) -> bytes:
    """Decode a --seed, --salt or --c0 value: exactly 64 hex characters."""
    if len(value) != 64 or not all(c in string.hexdigits for c in value):
        raise InvalidParams(f"{flag} must be 64 hex characters (32 bytes), got {value!r}")
    return bytes.fromhex(value)


def _seed_bytes(value: str | None, flag: str) -> bytes:
    return os.urandom(32) if value is None else _bytes32(value, flag)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


class _BlockFiles:
    """A prover's directory: one file per block plus the tree over them.
    .get(i) reads block i's file alone, and returns None when it is missing."""

    def __init__(self, directory: str, file_id: str, kind: str, tree_name: str):
        self.prefix = os.path.join(directory, f"{file_id}.{kind}")
        self.tree_path = os.path.join(directory, tree_name)

    def path(self, index: int) -> str:
        return f"{self.prefix}{index}"

    def get(self, index: int) -> bytes | None:
        try:
            with open(self.path(index), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def write(self, blocks: list[bytes], tree: MerkleTree) -> None:
        for i, data in enumerate(blocks):
            with open(self.path(i), "wb") as fh:
                fh.write(data)
        self.write_tree(tree)

    def write_tree(self, tree: MerkleTree) -> None:
        with open(self.tree_path, "wb") as fh:
            fh.writelines(encode_tree(tree))

    def read_tree(self, leaf_count: int) -> MerkleTree:
        """Nothing rebuilds a missing tree file: that would read every
        block, which is what the file is there to avoid."""
        try:
            with open(self.tree_path, "rb") as fh:
                return decode_tree(fh.read(), leaf_count)
        except FileNotFoundError:
            raise PorstoreError(f"no tree file {self.tree_path}; store and seal write it beside the blocks") from None


def _store_files(store_dir: str, manifest: FileManifest) -> _BlockFiles:
    kind = "shard" if manifest.coding is not None else "block"
    return _BlockFiles(store_dir, manifest.file_id, kind, f"{manifest.file_id}.tree")


def _replica_files(replica_dir: str, manifest: FileManifest) -> _BlockFiles:
    return _BlockFiles(replica_dir, manifest.file_id, "sealed", f"{manifest.file_id}.sealed.tree")


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

def cmd_store(args) -> int:
    with open(args.file, "rb") as fh:
        data = fh.read()
    file_id = args.file_id or os.path.basename(args.file)
    os.makedirs(args.out_dir, exist_ok=True)

    coding = None
    if args.code:
        if len(args.code) == 1:
            k_data, n_total = args.code[0], DEFAULT_REDUNDANCY * args.code[0]
        elif len(args.code) == 2:
            k_data, n_total = args.code
        else:
            raise PorstoreError("--code takes K_DATA [N_TOTAL]")
        block_count = -(-len(data) // args.block_size)
        if block_count != k_data:
            raise PorstoreError(
                f"--code k_data={k_data} but the file splits into {block_count} blocks of {args.block_size}"
            )
        coding = CodeParams(k_data, n_total)

    manifest, blocks, tree = build_manifest(file_id, data, args.block_size, coding)
    _store_files(args.out_dir, manifest).write([b.data for b in blocks], tree)
    manifest_path = os.path.join(args.out_dir, f"{file_id}.manifest.json")
    _write_json(manifest_path, manifest.to_dict())

    payload = {"manifest": manifest.to_dict(), "manifest_path": manifest_path, "blocks_written": len(blocks)}
    _emit(payload, args.json, [
        f"stored {file_id}: {len(blocks)} {'shards' if coding else 'blocks'} of {args.block_size} B",
        f"merkle root {manifest.merkle_root.hex()}",
        f"manifest written to {manifest_path}",
    ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def cmd_audit(args) -> int:
    seed = _seed_bytes(args.seed, "--seed")
    manifest = FileManifest.from_dict(_read_json(args.manifest))
    store = _store_files(args.store_dir, manifest)
    tree = store.read_tree(manifest.k)
    challenge = derive_sampling_challenge(seed, args.epoch, manifest.k, args.k_prime)
    response = respond_sampling(store, tree, challenge)
    ok = verify_sampling(manifest, challenge, response)

    transcript_dir = args.transcript_dir or args.store_dir
    os.makedirs(transcript_dir, exist_ok=True)
    challenge_path = os.path.join(transcript_dir, f"{manifest.file_id}.challenge.{args.epoch}.json")
    response_path = os.path.join(transcript_dir, f"{manifest.file_id}.response.{args.epoch}.json")
    _write_json(challenge_path, challenge_to_dict(manifest, challenge, args.k_prime))
    _write_json(response_path, response_to_dict(response))

    payload = {
        "verdict": "accept" if ok else "reject",
        "seed_hex": seed.hex(),
        "epoch": args.epoch,
        "indices": list(challenge.indices),
        "challenge_path": challenge_path,
        "response_path": response_path,
    }
    _emit(payload, args.json, [
        f"challenge seed {seed.hex()} epoch {args.epoch}",
        f"indices {list(challenge.indices)}",
        f"verdict: {'ACCEPT' if ok else 'REJECT'}",
    ])
    return EXIT_OK if ok else EXIT_REJECT


# ---------------------------------------------------------------------------
# seal
# ---------------------------------------------------------------------------

def _seal_range(store_prefix: str, replica_prefix: str, params: SealParams, lo: int, hi: int) -> list[Digest]:
    """Seal blocks [lo, hi) file by file: read block i, write sealed block i,
    and return only the sealed leaf digests.  A pool worker's whole job."""
    digests = []
    for i in range(lo, hi):
        with open(f"{store_prefix}{i}", "rb") as fh:
            data = fh.read()
        sealed = seal_block(data, params, i)
        with open(f"{replica_prefix}{i}", "wb") as fh:
            fh.write(sealed)
        digests.append(leaf_digest(Block(i, sealed)))
    return digests


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_seal(args) -> int:
    salt = _seed_bytes(args.salt, "--salt")
    params = SealParams(delay_iters=args.delay_iters, node_tag=args.node_tag.encode(), salt=salt)
    manifest = FileManifest.from_dict(_read_json(args.manifest))
    if manifest.k < 1:
        raise EmptyInput("cannot seal an empty file")
    store = _store_files(args.store_dir, manifest)
    missing = sum(not os.path.isfile(store.path(i)) for i in range(manifest.k))
    if missing:
        raise PorstoreError(f"store is missing {missing} of {manifest.k} blocks")

    os.makedirs(args.out_dir, exist_ok=True)
    replica = _replica_files(args.out_dir, manifest)
    # Blocks share no state: one contiguous range per CPU, each sealed in
    # its own process, and this process keeps only the leaf digests.
    ranges = split_ranges(manifest.k, _available_cpus())
    job = functools.partial(_seal_range, store.prefix, replica.prefix, params)
    if len(ranges) == 1:
        leaves = job(0, manifest.k)
    else:
        # The default start method, as run_experiment uses: the command
        # starts no thread of its own, and spawn would re-run the caller's
        # main module in every worker, for 0.1-0.15 s each.
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            leaves = [d for part in pool.map(job, *zip(*ranges)) for d in part]
    tree = tree_over(leaves)
    replica.write_tree(tree)
    replica_manifest = replica_manifest_to_dict(manifest.file_id, params, tree.root)
    replica_path = os.path.join(args.out_dir, f"{manifest.file_id}.replica.json")
    _write_json(replica_path, replica_manifest)

    payload = {"replica_manifest": replica_manifest, "replica_manifest_path": replica_path, "salt_hex": salt.hex()}
    _emit(payload, args.json, [
        f"sealed {manifest.k} blocks under tag {args.node_tag!r} (d={args.delay_iters})",
        f"replica root {tree.root.hex()}",
        f"replica manifest written to {replica_path}",
    ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# post gen / verify / stats
# ---------------------------------------------------------------------------

def _replica_root(path: str) -> bytes:
    """The one field of a replica manifest that post gen and verify use."""
    replica_manifest = expect(_read_json(path), dict, "a replica manifest")
    return bytes.fromhex(expect(replica_manifest["replica_root_hex"], str, "replica_root_hex"))


def cmd_post_gen(args) -> int:
    manifest = FileManifest.from_dict(_read_json(args.manifest))
    replica_root = _replica_root(args.replica_manifest)
    c0 = _bytes32(args.c0, "--c0") if args.c0 is not None else hash_bytes(replica_root + le64(args.epoch))
    replica = _replica_files(args.replica_dir, manifest)
    tree = replica.read_tree(manifest.k)
    post = generate_post(replica, tree, c0, args.length, SimClock(), _cost_model(), k_prime=args.k_prime)
    _write_json(args.out, post_to_dict(post))
    payload = {"c0_hex": c0.hex(), "length": post.length, "total_cost": post.total_cost, "transcript_path": args.out}
    _emit(payload, args.json, [
        f"generated chain of {post.length} proofs, total simulated cost {post.total_cost}",
        f"transcript written to {args.out}",
    ])
    return EXIT_OK


def cmd_post_verify(args) -> int:
    manifest = FileManifest.from_dict(_read_json(args.manifest))
    replica_root = _replica_root(args.replica_manifest)
    post = post_from_dict(_read_json(args.transcript))
    cost = _cost_model()
    k_prime = args.k_prime or (len(post.proofs[0].challenge.indices) if post.proofs else DEFAULT_K_PRIME)
    t_max = args.t_max if args.t_max is not None else default_t_max(k_prime, cost)
    policy = TimingPolicy(t_max=t_max, k_prime=k_prime, expected_cost=cost if args.strict else None)
    ok = verify_post(manifest, replica_root, post, policy)
    payload = {"verdict": "accept" if ok else "reject", "t_max": t_max, "k_prime": k_prime, "strict": args.strict}
    _emit(payload, args.json, [f"verdict: {'ACCEPT' if ok else 'REJECT'} (t_max={t_max}, strict={args.strict})"])
    return EXIT_OK if ok else EXIT_REJECT


def cmd_post_stats(args) -> int:
    post = post_from_dict(_read_json(args.transcript))
    stats = transcript_stats(post)
    stats["transcript_file_bytes"] = os.path.getsize(args.transcript)
    _emit(stats, args.json, [
        f"chain length {stats['length']}, total simulated cost {stats['total_cost']}",
        f"canonical proof bytes: total {stats['total_bytes']}, mean {stats['mean_proof_bytes']}",
        f"transcript file: {stats['transcript_file_bytes']} B",
    ])
    return EXIT_OK


# ---------------------------------------------------------------------------
# share split / join
# ---------------------------------------------------------------------------

def cmd_share_split(args) -> int:
    with open(args.file, "rb") as fh:
        data = fh.read()
    seed = _seed_bytes(args.seed, "--seed")
    params = ShareParams(threshold=args.threshold, share_count=args.shares)
    share_set = split_secret(data, params, seed)
    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.basename(args.file)
    paths = []
    for x, ys in share_set.shares:
        payload = {
            "params": {
                "threshold": params.threshold,
                "share_count": params.share_count,
                "field_modulus": str(params.field_modulus),
            },
            "x": x,
            "y_values": [str(y) for y in ys],
            "original_length": len(data),
        }
        path = os.path.join(args.out_dir, f"{base}.share{x}.json")
        _write_json(path, payload)
        paths.append(path)
    _emit(
        {"seed_hex": seed.hex(), "share_paths": paths},
        args.json,
        [f"split into {params.share_count} shares (threshold {params.threshold}), seed {seed.hex()}"]
        + [f"  {p}" for p in paths],
    )
    return EXIT_OK


def _read_share(path: str) -> tuple[ShareParams, int, tuple[int, ...], int]:
    """A share file as (params, x, y values, original length), every field's
    JSON type checked here; y values are decimal strings."""
    d = expect(_read_json(path), dict, "a share file")
    shape = expect(d["params"], dict, "params")
    if int(expect(shape["field_modulus"], str, "params.field_modulus")) != ShareParams.field_modulus:
        raise PorstoreError(f"share file {path} is not over the field p = {ShareParams.field_modulus}")
    params = ShareParams(
        threshold=expect(shape["threshold"], int, "params.threshold"),
        share_count=expect(shape["share_count"], int, "params.share_count"),
    )
    texts = expect(d["y_values"], list, "y_values")
    # Checked over the whole list at once: each y value is a non-empty string
    # of ASCII digits.  A per-value str.isdecimal loop took longer than int().
    try:
        digits = "".join(texts).encode("ascii") if all(texts) else b"?"
    except (TypeError, UnicodeEncodeError):  # a value that is not a str, or not ASCII
        digits = b"?"
    if digits and not digits.isdigit():
        raise MalformedInput("every y value must be a non-empty decimal string")
    ys = tuple(map(int, texts))
    original_length = expect(d["original_length"], int, "original_length")
    if original_length < 0 or len(ys) != -(-8 * original_length // CHUNK_BITS):
        raise MalformedInput(f"{len(ys)} y values cannot hold original_length {original_length}")
    return params, expect(d["x"], int, "x"), ys, original_length


def cmd_share_join(args) -> int:
    shares = []
    params = None
    original_length = None
    for path in args.shares:
        p, x, ys, length = _read_share(path)
        if params is None:
            params, original_length = p, length
        elif p != params or length != original_length:
            raise PorstoreError(f"share file {path} disagrees with the others")
        shares.append((x, ys))
    data = reconstruct(shares, params, original_length)
    with open(args.out, "wb") as fh:
        fh.write(data)
    _emit(
        {"out": args.out, "bytes": len(data)},
        args.json,
        [f"reconstructed {len(data)} B into {args.out}"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def cmd_experiment(args) -> int:
    if args.workers < 1:
        raise InvalidParams(f"--workers must be >= 1, got {args.workers}")
    config = ExperimentConfig.from_dict(_read_json(args.config))
    # Processes beyond the core count add start-up cost and no parallelism.
    workers = min(args.workers, os.cpu_count() or 1)
    report = run_experiment(config, cost=_cost_model(), workers=workers)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
    if args.json:
        print(report.to_json(), end="")
    else:
        print(f"protocol {config.protocol}: {config.trials} trials, {len(report.rows)} prover lanes")
        header = f"{'node':<16}{'id':>3}  {'behavior':<12}{'accepts':>8}{'rejects':>8}{'accept_rate':>12}{'mean_elapsed':>13}"
        print(header)
        for row in report.rows:
            print(
                f"{row.node_id:<16}{row.identity:>3}  {row.behavior:<12}"
                f"{row.accepts:>8}{row.rejects:>8}{row.accept_rate:>12.6f}"
                f"{row.elapsed_total / row.trials:>13.1f}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="porstore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("store", help="split a file into (optionally coded) blocks and commit to them")
    p.add_argument("file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    p.add_argument("--code", nargs="+", type=int, metavar="K_DATA [N_TOTAL]",
                   help="erasure-code into N_TOTAL shards (default redundancy 2x)")
    p.add_argument("--file-id")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("audit", help="run one sampled audit against a stored file")
    p.add_argument("manifest")
    p.add_argument("--store-dir", required=True)
    p.add_argument("--k-prime", type=int, default=DEFAULT_K_PRIME)
    p.add_argument("--seed", help="32-byte hex challenge seed (default: fresh entropy)")
    p.add_argument("--epoch", type=_epoch, default=0)
    p.add_argument("--transcript-dir")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("seal", help="seal stored blocks into an identity-bound replica")
    p.add_argument("manifest")
    p.add_argument("--store-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--node-tag", required=True)
    p.add_argument("--salt", help="32-byte hex (default: fresh entropy)")
    p.add_argument("--delay-iters", type=int, default=DEFAULT_DELAY_ITERS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_seal)

    post_parser = sub.add_parser("post", help="proof-of-spacetime chains")
    post_sub = post_parser.add_subparsers(dest="post_command", required=True)

    p = post_sub.add_parser("gen", help="generate a chained proof transcript")
    p.add_argument("--manifest", required=True)
    p.add_argument("--replica-manifest", required=True)
    p.add_argument("--replica-dir", required=True)
    p.add_argument("--c0", help="32-byte hex initial challenge (default: derived from replica root and --epoch)")
    p.add_argument("--epoch", type=_epoch, default=0)
    p.add_argument("--length", type=int, default=DEFAULT_CHAIN_LENGTH)
    p.add_argument("--k-prime", type=int, default=DEFAULT_K_PRIME)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_post_gen)

    p = post_sub.add_parser("verify", help="verify a chained proof transcript offline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--replica-manifest", required=True)
    p.add_argument("--transcript", required=True)
    p.add_argument("--t-max", type=int)
    p.add_argument("--k-prime", type=int)
    p.add_argument("--strict", action="store_true", help="bind timestamps exactly to the cost model")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_post_verify)

    p = post_sub.add_parser("stats", help="report chain transcript sizes and cost")
    p.add_argument("--transcript", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_post_stats)

    share_parser = sub.add_parser("share", help="threshold secret sharing")
    share_sub = share_parser.add_subparsers(dest="share_command", required=True)

    p = share_sub.add_parser("split", help="split a file into t-of-n shares")
    p.add_argument("file")
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--shares", type=int, required=True)
    p.add_argument("--seed", help="32-byte hex (default: fresh entropy)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_share_split)

    p = share_sub.add_parser("join", help="reconstruct a file from shares")
    p.add_argument("shares", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_share_join)

    p = sub.add_parser("experiment", help="run a seeded detection experiment")
    p.add_argument("config")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write the CSV report here")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PorstoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
