"""Deterministic simulation of a storage network under audit.

One SimWorld holds a file commitment, a set of nodes (honest or running
one of the classic storage attacks), and a cost model.  Each epoch the
auditor derives a fresh challenge from the public commitment and the
epoch number, every node answers according to its behavior, and the
verifier's verdicts land in the audit log.

Behaviors are strategy objects: each supplies a label, an identity count,
a view of the node's block store, and the simulated time it charges per
response.  The simulator answers every challenge through porep's timed
response, chains PoSt links through post's chain loop, and judges each
audit with one call of the CLI's verifier, whose verdict names a reject's
reason: the code behind the detection reports is the code the CLI runs.

Attack behaviors and how each protocol sees them:

* Dropper      - keeps a (1 - delta) fraction of blocks; sampled audits
                 catch it with probability 1 - (1 - delta)^k'.
* Generation   - keeps only raw data and reseals challenged blocks on
                 demand; content verifies, but the d-deep keystream chain
                 blows the PoRep deadline.  Under PoSt it holds the
                 replica through the first link and reseals afterwards
                 (drop-then-reseal).
* Sybil        - registers several identities over one physical replica;
                 every identity beyond the first must unseal + reseal per
                 audit and misses the deadline.
* Outsourcing  - stores nothing and fetches blocks from a remote holder;
                 the per-block fetch cost overruns the deadline.

Plain PoS accepts the generation, Sybil, and outsourcing behaviors (it
only ever checks the instantaneous content), which is exactly why the
timed replication protocols exist; the detection matrix in the report
makes that visible.

Everything is derived from rng_seed, so identical configs produce
byte-identical reports.  Every audit starts its own simulated time at 0,
so a lane's verdicts depend only on its own data and challenges, never on
the lanes or epochs run before it.  With parallel workers the world is
sealed once across the process pool and shipped to the epoch workers as
bytes; trials share only that read-only state and aggregate by summation.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from random import Random
from typing import Callable, ClassVar, Mapping, Optional

from .costs import CostModel, TimingPolicy, default_t_max
from .encoding import le64
from .errors import ConfigError, InvalidParams, expect
from .merkle import Block, MerkleTree, expand_bytes, hash_bytes, path_length
from .pos import CodeParams, FileManifest, SamplingChallenge, build_manifest, derive_sampling_challenge, verify_sampling
from .porep import (
    DEFAULT_DELAY_ITERS,
    PoRepProof,
    SealParams,
    honest_response_cost,
    porep_verify,
    respond_timed,
    seal_blocks,
    sealed_tree,
    split_ranges,
)
from .post import DEFAULT_CHAIN_LENGTH, run_chain, verify_post

PROTOCOLS = ("pos", "porep", "post")


# ---------------------------------------------------------------------------
# Node behaviors
# ---------------------------------------------------------------------------

BlockStore = Mapping[int, bytes]
# view(store, challenge_seed) -> the store as the node can serve it
StoreView = Callable[[BlockStore, bytes], BlockStore]


def _keep_all(store: BlockStore, challenge_seed: bytes) -> BlockStore:
    return store


class _DropView:
    """Block store that denies a behavior-determined subset of indices."""

    def __init__(self, base: BlockStore, dropped: Callable[[int], bool]):
        self._base = base
        self._dropped = dropped

    def get(self, index: int) -> Optional[bytes]:
        if self._dropped(index):
            return None
        return self._base.get(index)


@dataclass(frozen=True)
class Behavior:
    """A node's strategy.  The defaults are the honest prover's: one
    identity, every block kept, and the read-plus-path cost per block."""

    label: ClassVar[str]
    identity_count = 1

    def view(self, node_key: bytes, k: int) -> StoreView:
        """Bind to one node (node_key = rng_seed || node_id) over k blocks."""
        return _keep_all

    def charge(
        self, cost: CostModel, d: int, k: int, indices: tuple[int, ...], identity: int, resealing: bool
    ) -> int:
        """Simulated time to answer one challenge.  `resealing` is set when a
        node that keeps no sealed copy would have to regenerate it now."""
        return honest_response_cost(k, indices, cost)


@dataclass(frozen=True)
class Honest(Behavior):
    label = "honest"


@dataclass(frozen=True)
class Dropper(Behavior):
    label = "dropper"
    drop_fraction: float
    mode: str = "independent"  # or "fixed_subset"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drop_fraction <= 1.0:
            raise InvalidParams("drop_fraction must be in [0, 1]")
        if self.mode not in ("independent", "fixed_subset"):
            raise InvalidParams(f"unknown dropper mode {self.mode!r}")

    def view(self, node_key: bytes, k: int) -> StoreView:
        key = node_key + le64(self.seed)
        if self.mode == "fixed_subset":
            rng = Random(int.from_bytes(hash_bytes(key + b"fixed"), "big"))
            dropped = frozenset(rng.sample(range(k), round(self.drop_fraction * k)))
            return lambda store, challenge_seed: _DropView(store, dropped.__contains__)
        threshold = int(self.drop_fraction * (1 << 64))

        def drop_independently(store: BlockStore, challenge_seed: bytes) -> BlockStore:
            prefix = key + challenge_seed
            return _DropView(store, lambda i: int.from_bytes(hash_bytes(prefix + le64(i))[:8], "little") < threshold)

        return drop_independently


@dataclass(frozen=True)
class GenerationAttacker(Behavior):
    label = "generation"

    def charge(self, cost, d, k, indices, identity, resealing):
        honest = super().charge(cost, d, k, indices, identity, resealing)
        # keystream chain per challenged block, then the read and path
        return honest + (len(indices) * d * cost.hash_cost if resealing else 0)


@dataclass(frozen=True)
class SybilAttacker(Behavior):
    label = "sybil"
    identity_count: int = 2

    def __post_init__(self):
        if self.identity_count < 2:
            raise InvalidParams("a Sybil attacker needs at least 2 identities")

    def charge(self, cost, d, k, indices, identity, resealing):
        honest = super().charge(cost, d, k, indices, identity, resealing)
        # unseal the real replica, reseal under the claimed identity
        return honest + (len(indices) * 2 * d * cost.hash_cost if identity > 0 else 0)


@dataclass(frozen=True)
class OutsourcingAttacker(Behavior):
    label = "outsourcing"
    holder_id: str = "holder-0"

    def charge(self, cost, d, k, indices, identity, resealing):
        return cost.network_latency + sum(cost.fetch_remote_cost + path_length(k, i) * cost.hash_cost for i in indices)


BEHAVIORS = {cls.label: cls for cls in (Honest, Dropper, GenerationAttacker, SybilAttacker, OutsourcingAttacker)}


def behavior_to_dict(behavior: Behavior) -> dict:
    return {"type": behavior.label, **asdict(behavior)}


# JSON types a behavior field's annotation accepts; a float field takes an int too.
_FIELD_KINDS = {"int": int, "float": (int, float), "str": str}


def behavior_from_dict(d: dict) -> Behavior:
    """Inverse of behavior_to_dict; a missing required field raises KeyError,
    a field of the wrong JSON type MalformedInput."""
    label = expect(d, dict, "a behavior").get("type")
    cls = BEHAVIORS.get(label) if type(label) is str else None
    if cls is None:
        raise ConfigError(f"unknown behavior type {label!r}")
    return cls(**{
        f.name: expect(d[f.name], _FIELD_KINDS[f.type], f"{label}.{f.name}")
        for f in fields(cls) if f.name in d or f.default is MISSING
    })


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    k: int
    k_prime: int
    block_size: int
    behaviors: tuple[Behavior, ...]
    trials: int
    rng_seed: bytes
    coding: Optional[CodeParams] = None
    delay_iters: int = DEFAULT_DELAY_ITERS
    t_max: Optional[int] = None
    post_length: int = DEFAULT_CHAIN_LENGTH

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.trials < 1:
            raise InvalidParams("trials must be >= 1")
        if len(self.rng_seed) != 32:
            raise InvalidParams(f"rng_seed must be 32 bytes, got {len(self.rng_seed)}")
        if self.coding is not None and self.coding.n_total != self.k:
            raise ConfigError("with coding, k must equal coding.n_total (audits run over shards)")

    def resolved_t_max(self, cost: CostModel) -> int:
        return self.t_max if self.t_max is not None else default_t_max(self.k_prime, cost)

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "k": self.k,
            "k_prime": self.k_prime,
            "block_size": self.block_size,
            "coding": None if self.coding is None else {"k_data": self.coding.k_data, "n_total": self.coding.n_total},
            "seal": {"d": self.delay_iters, "t_max": self.t_max},
            "post_length": self.post_length,
            "behaviors": [behavior_to_dict(b) for b in self.behaviors],
            "trials": self.trials,
            "rng_seed_hex": self.rng_seed.hex(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Decode a config file, checking every field's JSON type."""
        expect(d, dict, "an experiment config")
        coding = d.get("coding")
        if coding is not None:
            expect(coding, dict, "coding")
            coding = CodeParams(expect(coding["k_data"], int, "coding.k_data"),
                                expect(coding["n_total"], int, "coding.n_total"))
        seal = expect(d.get("seal") or {}, dict, "seal")
        t_max = seal.get("t_max")
        return cls(
            protocol=expect(d["protocol"], str, "protocol"),
            k=expect(d["k"], int, "k"),
            k_prime=expect(d["k_prime"], int, "k_prime"),
            block_size=expect(d["block_size"], int, "block_size"),
            behaviors=tuple(behavior_from_dict(b) for b in expect(d["behaviors"], list, "behaviors")),
            trials=expect(d["trials"], int, "trials"),
            rng_seed=bytes.fromhex(expect(d["rng_seed_hex"], str, "rng_seed_hex")),
            coding=coding,
            delay_iters=expect(seal.get("d", DEFAULT_DELAY_ITERS), int, "seal.d"),
            t_max=None if t_max is None else expect(t_max, int, "seal.t_max"),
            post_length=expect(d.get("post_length", DEFAULT_CHAIN_LENGTH), int, "post_length"),
        )


# ---------------------------------------------------------------------------
# World state
# ---------------------------------------------------------------------------

@dataclass
class AuditRecord:
    epoch: int
    node_id: str
    file_id: str
    protocol: str
    verdict: str  # "accept" | "reject"
    elapsed: int
    reject_reason: Optional[str] = None
    identity: int = 0
    proof_bytes: int = 0

    def __post_init__(self):
        if self.verdict == "reject" and not self.reject_reason:
            raise InvalidParams("a reject verdict needs a reject_reason")


@dataclass
class NodeState:
    """One node's holdings, indexed by identity.  Under pos every node has
    a single identity serving the raw file; otherwise each identity holds
    its own sealed replica (seal_params stays empty under pos)."""

    node_id: str
    behavior: Behavior
    view: StoreView
    seal_params: list[SealParams] = field(default_factory=list)
    stores: list[BlockStore] = field(default_factory=list)
    trees: list[MerkleTree] = field(default_factory=list)


class SimWorld:
    """All mutable simulation state for one experiment lane."""

    def __init__(
        self,
        config: ExperimentConfig,
        cost: Optional[CostModel] = None,
        *,
        _sealed: Optional[list[tuple[bytes, ...]]] = None,
    ):
        """Build the world serially.  run_experiment's workers pass `_sealed`,
        the replicas its pool already sealed (one tuple of sealed blocks per
        identity, in _seal_params order); the world is then built without
        computing a keystream."""
        self.config = config
        self.cost = cost or CostModel()
        self.rng_seed = config.rng_seed
        self.audit_log: list[AuditRecord] = []
        self.nodes: dict[str, NodeState] = {}
        self._build(_sealed)

    # -- construction ------------------------------------------------------

    def _build(self, sealed: Optional[list[tuple[bytes, ...]]]) -> None:
        cfg = self.config
        self.manifest, blocks, file_tree = _file_blocks(cfg)
        file_store = {b.index: b.data for b in blocks}
        params = _seal_params(cfg)
        if sealed is None:
            sealed = [seal_blocks(blocks, p) for p in params]
        # Content commitments are computed once here; attackers that "reseal
        # on demand" later serve these exact bytes (sealing is pure) and are
        # charged the recompute cost in simulated time instead.
        replicas = iter(zip(params, sealed))

        for ordinal, behavior in enumerate(cfg.behaviors):
            node_id = f"{behavior.label}-{ordinal}"
            node = NodeState(node_id, behavior, behavior.view(self.rng_seed + node_id.encode(), len(blocks)))
            if cfg.protocol == "pos":
                node.stores.append(file_store)
                node.trees.append(file_tree)
            else:
                for identity_params, replica in itertools.islice(replicas, behavior.identity_count):
                    tree = sealed_tree(replica)
                    node.seal_params.append(identity_params)
                    node.stores.append(dict(enumerate(replica)))
                    node.trees.append(tree)
            self.nodes[node_id] = node

    def _policy(self, strict: bool) -> TimingPolicy:
        cfg = self.config
        return TimingPolicy(
            t_max=cfg.resolved_t_max(self.cost),
            k_prime=cfg.k_prime,
            expected_cost=self.cost if strict else None,
        )

    # -- audits --------------------------------------------------------------

    def run_audit_epoch(self, epoch: int) -> list[AuditRecord]:
        """Challenge every identity of every node once and log the verdicts."""
        if not self.nodes:
            raise ConfigError("world has no registered nodes")
        protocol = self.config.protocol
        audit = {"pos": self._audit_pos, "porep": self._audit_porep, "post": self._audit_post}[protocol]
        records = []
        for node in self.nodes.values():
            for identity in range(len(node.stores)):
                verdict, elapsed, size = audit(node, identity, epoch)
                records.append(AuditRecord(
                    epoch=epoch,
                    node_id=node.node_id,
                    file_id=self.manifest.file_id,
                    protocol=protocol,
                    verdict="accept" if verdict else "reject",
                    elapsed=elapsed,
                    reject_reason=verdict.reason,
                    identity=identity,
                    proof_bytes=size,
                ))
        self.audit_log.extend(records)
        return records

    def _respond(
        self, node: NodeState, identity: int, challenge: SamplingChallenge, resealing: bool, started: int = 0
    ) -> PoRepProof:
        """One response under the node's behavior, starting at `started`."""
        units = node.behavior.charge(
            self.cost, self.config.delay_iters, self.manifest.k, challenge.indices, identity, resealing
        )
        store = node.view(node.stores[identity], challenge.seed)
        return respond_timed(store, node.trees[identity], challenge, started, units)

    def _challenge(self, node: NodeState, identity: int, epoch: int) -> SamplingChallenge:
        seed = hash_bytes(node.trees[identity].root + le64(epoch))
        return derive_sampling_challenge(seed, epoch, self.manifest.k, self.config.k_prime)

    # Each audit calls one verifier once and returns (verdict, elapsed, proof bytes).

    def _audit_pos(self, node: NodeState, identity: int, epoch: int) -> tuple:
        challenge = self._challenge(node, identity, epoch)
        # PoS has no seal, so nothing is ever resealed.
        proof = self._respond(node, identity, challenge, resealing=False)
        verdict = verify_sampling(self.manifest, challenge, proof.response)
        return verdict, proof.finished_at - proof.started_at, _response_bytes(challenge, proof.response)

    def _audit_porep(self, node: NodeState, identity: int, epoch: int) -> tuple:
        proof = self._respond(node, identity, self._challenge(node, identity, epoch), resealing=True)
        verdict = porep_verify(self.manifest, node.trees[identity].root, proof, self._policy(strict=False))
        return verdict, proof.finished_at - proof.started_at, len(proof.encoded)

    def _audit_post(self, node: NodeState, identity: int, epoch: int) -> tuple:
        root = node.trees[identity].root
        # Drop-then-reseal: the replica is on disk for the first link and
        # regenerated for every later one.
        post = run_chain(
            hash_bytes(root + le64(epoch)), self.config.post_length, self.manifest.k, self.config.k_prime,
            lambda i, challenge, started: self._respond(node, identity, challenge, i > 0, started),
        )
        verdict = verify_post(self.manifest, root, post, self._policy(strict=True))
        return verdict, post.total_cost, sum(len(p.encoded) for p in post.proofs)


def _file_blocks(cfg: ExperimentConfig) -> tuple[FileManifest, list[Block], MerkleTree]:
    """(manifest, blocks, tree) of the experiment's file, a pure function of the config."""
    k_data = cfg.k if cfg.coding is None else cfg.coding.k_data
    data = expand_bytes(hash_bytes(cfg.rng_seed + b"file"), k_data * cfg.block_size)
    return build_manifest("file-0", data, cfg.block_size, cfg.coding)


def _seal_params(cfg: ExperimentConfig) -> list[SealParams]:
    """One SealParams per (node, identity) in world order; none under pos."""
    if cfg.protocol == "pos":
        return []
    params = []
    for ordinal, behavior in enumerate(cfg.behaviors):
        node_id = f"{behavior.label}-{ordinal}"
        params.extend(
            SealParams(
                delay_iters=cfg.delay_iters,
                node_tag=f"{node_id}:{j}".encode(),
                salt=hash_bytes(cfg.rng_seed + node_id.encode() + le64(j)),
            )
            for j in range(behavior.identity_count)
        )
    return params


def _response_bytes(challenge: SamplingChallenge, response) -> int:
    total = 8 * len(challenge.indices)
    for block, path in response.items:
        total += len(block.data) + 32 * len(path)
    return total


def run_audit_epoch(world: SimWorld, epoch: int) -> list[AuditRecord]:
    return world.run_audit_epoch(epoch)


# ---------------------------------------------------------------------------
# Experiments and reports
# ---------------------------------------------------------------------------

@dataclass
class ReportRow:
    node_id: str
    identity: int
    behavior: str
    trials: int = 0
    accepts: int = 0
    rejects: int = 0
    elapsed_total: int = 0
    proof_bytes_total: int = 0
    reject_reasons: dict[str, int] = field(default_factory=dict)

    def add(self, record: AuditRecord) -> None:
        self.trials += 1
        if record.verdict == "accept":
            self.accepts += 1
        else:
            self.rejects += 1
            self.reject_reasons[record.reject_reason] = self.reject_reasons.get(record.reject_reason, 0) + 1
        self.elapsed_total += record.elapsed
        self.proof_bytes_total += record.proof_bytes

    def merge(self, other: "ReportRow") -> None:
        self.trials += other.trials
        self.accepts += other.accepts
        self.rejects += other.rejects
        self.elapsed_total += other.elapsed_total
        self.proof_bytes_total += other.proof_bytes_total
        for reason, count in other.reject_reasons.items():
            self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + count

    @property
    def accept_rate(self) -> float:
        return self.accepts / self.trials

    @property
    def detection_rate(self) -> float:
        return self.rejects / self.trials

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "identity": self.identity,
            "behavior": self.behavior,
            "trials": self.trials,
            "accepts": self.accepts,
            "rejects": self.rejects,
            "accept_rate": self.accept_rate,
            "detection_rate": self.detection_rate,
            "mean_elapsed": self.elapsed_total / self.trials,
            "mean_proof_bytes": self.proof_bytes_total / self.trials,
            "reject_reasons": dict(sorted(self.reject_reasons.items())),
        }


@dataclass
class DetectionReport:
    config: ExperimentConfig
    cost: CostModel
    rows: list[ReportRow]

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "cost_model": self.cost.to_dict(),
            "rows": [r.to_dict() for r in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "protocol", "k", "k_prime", "block_size", "trials",
                "node_id", "identity", "behavior",
                "accepts", "rejects", "accept_rate", "detection_rate",
                "mean_elapsed", "mean_proof_bytes",
            ]
        )
        cfg = self.config
        for r in self.rows:
            writer.writerow(
                [
                    cfg.protocol, cfg.k, cfg.k_prime, cfg.block_size, cfg.trials,
                    r.node_id, r.identity, r.behavior,
                    r.accepts, r.rejects, r.accept_rate, r.detection_rate,
                    r.elapsed_total / r.trials, r.proof_bytes_total / r.trials,
                ]
            )
        return buf.getvalue()


def _run_trial_range(
    config: ExperimentConfig,
    start: int,
    stop: int,
    cost: CostModel,
    sealed: Optional[list[tuple[bytes, ...]]] = None,
) -> dict[tuple[str, int], ReportRow]:
    """Worker entry: build the world, over `sealed` replicas when given,
    and run epochs [start, stop)."""
    world = SimWorld(config, cost=cost, _sealed=sealed)
    rows: dict[tuple[str, int], ReportRow] = {}
    for epoch in range(start, stop):
        for record in world.run_audit_epoch(epoch):
            key = (record.node_id, record.identity)
            if key not in rows:
                rows[key] = ReportRow(record.node_id, record.identity, world.nodes[record.node_id].behavior.label)
            rows[key].add(record)
        world.audit_log.clear()  # counts only; keep long runs flat
    return rows


def _seal_in_pool(pool: ProcessPoolExecutor, config: ExperimentConfig, parts: int) -> list[tuple[bytes, ...]]:
    """Seal every identity's replica once, as (identity, block range) jobs
    spread over the pool.  Each block's d-chain runs whole inside one job."""
    _, blocks, _ = _file_blocks(config)
    params = _seal_params(config)
    slices = [blocks[lo:hi] for lo, hi in split_ranges(len(blocks), parts)]
    pieces = pool.map(seal_blocks, [s for _ in params for s in slices], [p for p in params for _ in slices])
    return [tuple(itertools.chain.from_iterable(itertools.islice(pieces, len(slices)))) for _ in params]


def run_experiment(config: ExperimentConfig, cost: Optional[CostModel] = None, workers: int = 1) -> DetectionReport:
    """Run config.trials independent audit epochs and aggregate a report.

    With workers > 1 one process pool does the work in two phases.  First
    the world is sealed once across the pool: every identity's blocks are
    split into ranges and each (identity, range) is a job.  Then the epoch
    range is split into contiguous chunks, and each chunk assembles its
    world from the sealed bytes without recomputing a keystream.  Every
    chunk sees the same world, every audit starts its own simulated time,
    and merging is pure summation, so reports match a serial run byte for
    byte under every protocol.
    """
    cost = cost or CostModel()
    if workers <= 1:
        partials = [_run_trial_range(config, 0, config.trials, cost)]
    else:
        chunks = split_ranges(config.trials, workers)
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            sealed = None if config.protocol == "pos" else _seal_in_pool(pool, config, len(chunks))
            futures = [pool.submit(_run_trial_range, config, lo, hi, cost, sealed) for lo, hi in chunks]
            partials = [f.result() for f in futures]

    rows: dict[tuple[str, int], ReportRow] = {}
    for partial in partials:
        for key, row in partial.items():
            if key in rows:
                rows[key].merge(row)
            else:
                rows[key] = row
    return DetectionReport(config=config, cost=cost, rows=[rows[key] for key in sorted(rows)])
