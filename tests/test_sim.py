from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from porstore import porep, post, sim
from porstore.costs import CostModel
from porstore.errors import ConfigError, InvalidParams
from porstore.pos import CodeParams
from porstore.sim import (
    AuditRecord,
    Dropper,
    ExperimentConfig,
    GenerationAttacker,
    Honest,
    OutsourcingAttacker,
    SimWorld,
    SybilAttacker,
    behavior_from_dict,
    behavior_to_dict,
    run_audit_epoch,
    run_experiment,
)

SEED = b"\x55" * 32


def _config(protocol, behaviors, trials=50, **kw):
    defaults = dict(k=16, k_prime=8, block_size=64, rng_seed=SEED, delay_iters=500)
    defaults.update(kw)
    return ExperimentConfig(protocol=protocol, behaviors=tuple(behaviors), trials=trials, **defaults)


class TestHonestCompleteness:
    @pytest.mark.parametrize("protocol", ["pos", "porep", "post"])
    def test_all_honest_always_accepts(self, protocol):
        trials = 40 if protocol != "post" else 10
        cfg = _config(protocol, [Honest()], trials=trials, post_length=3)
        report = run_experiment(cfg)
        (row,) = report.rows
        assert row.accepts == row.trials == trials
        assert row.rejects == 0

    def test_honest_completeness_across_grid(self):
        for k, k_prime in ((1, 1), (4, 2), (32, 8), (64, 20)):
            cfg = _config("pos", [Honest()], trials=20, k=k, k_prime=k_prime)
            (row,) = run_experiment(cfg).rows
            assert row.accept_rate == 1.0


class TestDetection:
    def test_dropper_accept_rate_tracks_closed_form(self):
        cfg = _config("pos", [Dropper(0.5)], trials=4000, k=256, k_prime=5)
        (row,) = run_experiment(cfg).rows
        expected = 0.5**5
        sigma = (expected * (1 - expected) / cfg.trials) ** 0.5
        assert abs(row.accept_rate - expected) <= 3 * sigma

    def test_fixed_subset_dropper_detected(self):
        cfg = _config("pos", [Dropper(0.5, mode="fixed_subset")], trials=500, k=256, k_prime=10)
        (row,) = run_experiment(cfg).rows
        assert row.detection_rate > 0.99

    def test_detection_monotone_in_k_prime_and_drop_fraction(self):
        rates = {}
        for delta in (0.1, 0.25, 0.5):
            for k_prime in (5, 10, 20):
                cfg = _config("pos", [Dropper(delta)], trials=2000, k=256, k_prime=k_prime)
                (row,) = run_experiment(cfg).rows
                rates[(delta, k_prime)] = row.detection_rate
        for delta in (0.1, 0.25, 0.5):
            assert rates[(delta, 5)] <= rates[(delta, 10)] <= rates[(delta, 20)]
        for k_prime in (5, 10, 20):
            assert rates[(0.1, k_prime)] <= rates[(0.25, k_prime)] <= rates[(0.5, k_prime)]
        # The designated PoS attack lane: half-dropper at k'=20 is all but gone.
        assert rates[(0.5, 20)] >= 0.999

    def test_porep_attack_matrix(self):
        cfg = _config(
            "porep",
            [Honest(), GenerationAttacker(), SybilAttacker(2), OutsourcingAttacker()],
            trials=100,
        )
        report = run_experiment(cfg)
        by_lane = {(r.behavior, r.identity): r for r in report.rows}
        assert by_lane[("honest", 0)].accept_rate == 1.0
        assert by_lane[("generation", 0)].detection_rate == 1.0
        assert by_lane[("sybil", 0)].accept_rate == 1.0  # first identity really stores
        assert by_lane[("sybil", 1)].detection_rate == 1.0
        assert by_lane[("outsourcing", 0)].detection_rate == 1.0
        for lane in (("generation", 0), ("sybil", 1), ("outsourcing", 0)):
            assert by_lane[lane].reject_reasons == {"timing": 100}

    def test_pos_is_blind_to_replication_attacks(self):
        # The motivation for PoRep: plain sampling accepts all three.
        cfg = _config(
            "pos",
            [GenerationAttacker(), SybilAttacker(2), OutsourcingAttacker()],
            trials=50,
        )
        report = run_experiment(cfg)
        assert all(row.accept_rate == 1.0 for row in report.rows)

    def test_post_drop_then_reseal_rejected(self):
        cfg = _config("post", [Honest(), GenerationAttacker()], trials=10, post_length=3)
        report = run_experiment(cfg)
        by_lane = {r.behavior: r for r in report.rows}
        assert by_lane["honest"].accept_rate == 1.0
        assert by_lane["generation"].detection_rate == 1.0
        assert by_lane["generation"].reject_reasons == {"timing": 10}

    def test_dropper_under_porep_rejected_on_content(self):
        cfg = _config("porep", [Dropper(0.5)], trials=100, k=64, k_prime=20)
        (row,) = run_experiment(cfg).rows
        assert row.detection_rate == 1.0 or row.reject_reasons.get("sampling", 0) > 0
        assert "sampling" in row.reject_reasons


class TestDeterminism:
    def test_identical_config_identical_report(self):
        cfg = _config("pos", [Honest(), Dropper(0.3)], trials=300, k=64)
        a = run_experiment(cfg).to_json()
        b = run_experiment(cfg).to_json()
        assert a == b

    def test_parallel_matches_serial(self):
        cfg = _config("pos", [Dropper(0.5)], trials=301, k=64, k_prime=10)
        serial = run_experiment(cfg).to_json()
        parallel = run_experiment(cfg, workers=4).to_json()
        assert serial == parallel

    def test_different_seed_changes_outcomes(self):
        a = run_experiment(_config("pos", [Dropper(0.5)], trials=200, k=64, k_prime=5))
        b = run_experiment(_config("pos", [Dropper(0.5)], trials=200, k=64, k_prime=5, rng_seed=b"\x56" * 32))
        assert a.rows[0].accepts != b.rows[0].accepts or a.to_json() != b.to_json()

    @pytest.mark.parametrize("protocol", ["pos", "porep", "post"])
    def test_appending_a_behavior_leaves_earlier_rows_unchanged(self, protocol):
        # A lane's audits depend only on its own node and identity.  (Reordering
        # is not neutral: node_id carries the ordinal, which seeds drops and salts.)
        behaviors = [Honest(), Dropper(0.4), SybilAttacker(2)]
        shape = dict(trials=8, k=13, k_prime=4, delay_iters=50, post_length=3)
        before = run_experiment(_config(protocol, behaviors, **shape)).to_dict()["rows"]
        after = run_experiment(_config(protocol, [*behaviors, GenerationAttacker()], **shape)).to_dict()["rows"]
        assert [row for row in after if not row["node_id"].startswith("generation-")] == before

    def test_csv_has_one_row_per_lane(self):
        cfg = _config("porep", [Honest(), SybilAttacker(3)], trials=5)
        report = run_experiment(cfg)
        lines = report.to_csv().strip().splitlines()
        assert len(lines) == 1 + 4  # header + honest + three sybil identities


class TestWorldMechanics:
    def test_audit_log_accumulates(self):
        cfg = _config("pos", [Honest(), Dropper(0.9)], trials=1)
        world = SimWorld(cfg)
        run_audit_epoch(world, 0)
        run_audit_epoch(world, 1)
        assert len(world.audit_log) == 4
        assert {r.protocol for r in world.audit_log} == {"pos"}

    def test_reject_record_requires_reason(self):
        with pytest.raises(InvalidParams):
            AuditRecord(epoch=0, node_id="n", file_id="f", protocol="pos", verdict="reject", elapsed=1)

    def test_coded_world_audits_shards(self):
        cfg = _config(
            "pos", [Honest(), Dropper(0.5)], trials=200,
            k=8, k_prime=4, coding=CodeParams(4, 8),
        )
        report = run_experiment(cfg)
        by = {r.behavior: r for r in report.rows}
        assert by["honest"].accept_rate == 1.0
        assert by["dropper"].detection_rate > 0.8

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            _config("bogus", [Honest()])
        with pytest.raises(ConfigError):
            _config("pos", [Honest()], k=8, coding=CodeParams(4, 9))
        with pytest.raises(ConfigError):
            behavior_from_dict({"type": "martian"})
        with pytest.raises(KeyError):
            behavior_from_dict({"type": "dropper"})  # drop_fraction is required

    def test_config_round_trip(self):
        cfg = _config(
            "porep",
            [Honest(), Dropper(0.25, mode="fixed_subset", seed=3), SybilAttacker(4), OutsourcingAttacker("h-1")],
            trials=7, coding=None, t_max=123,
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        for b in cfg.behaviors:
            assert behavior_from_dict(behavior_to_dict(b)) == b

    def test_outsourcing_slower_than_honest_under_pos(self):
        cfg = _config("pos", [Honest(), OutsourcingAttacker()], trials=20, k=64)
        report = run_experiment(cfg)
        by = {r.behavior: r for r in report.rows}
        assert by["outsourcing"].elapsed_total > by["honest"].elapsed_total

    def test_cost_model_validation(self):
        with pytest.raises(InvalidParams):
            CostModel(fetch_remote_cost=1, block_read_cost=2)
        with pytest.raises(InvalidParams):
            CostModel(hash_cost=-1)


class _InlineExecutor:
    """run_experiment's process pool, run in this process so that patched
    functions observe every call."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


# 5 identities: an uneven split over both 2 and 3 workers.
SEALED_BEHAVIORS = (Honest(), SybilAttacker(3), GenerationAttacker())

# Post configs whose verdicts, charges or proof sizes depend on which blocks
# a link challenges: droppers, uneven path lengths (k not a power of two).
_ZERO_SEED = dict(rng_seed=bytes(32), block_size=32, post_length=3)
POST_POOL_CONFIGS = (
    _config("post", SEALED_BEHAVIORS, trials=5, k_prime=4, post_length=3),
    _config("post", [Honest(), Dropper(0.3)], trials=20, k=16, k_prime=4, delay_iters=50, **_ZERO_SEED),
    _config("post", [Honest(), SybilAttacker(3), GenerationAttacker()], trials=5, k=7, k_prime=4, delay_iters=1,
            **_ZERO_SEED),
    _config("post", [Honest(), Dropper(0.4), OutsourcingAttacker()], trials=9, k=13, k_prime=4, delay_iters=50,
            **_ZERO_SEED),
)


class TestSealOnce:
    @pytest.mark.parametrize("protocol", ["porep", "post"])
    @pytest.mark.parametrize("shape", [{}, {"k": 7, "k_prime": 4}, {"k": 8, "k_prime": 4, "coding": CodeParams(4, 8)}])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_sealed_world_equals_serial_world(self, protocol, shape, workers):
        cfg = _config(protocol, SEALED_BEHAVIORS, trials=1, **shape)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sealed = sim._seal_in_pool(pool, cfg, workers)
        serial, pooled = SimWorld(cfg), SimWorld(cfg, _sealed=sealed)
        assert pooled.manifest == serial.manifest
        assert pooled.nodes.keys() == serial.nodes.keys()
        for node_id, node in serial.nodes.items():
            other = pooled.nodes[node_id]
            assert other.seal_params == node.seal_params
            assert other.stores == node.stores
            assert other.trees == node.trees

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_sealed_report_equals_serial_report(self, workers):
        for cfg in POST_POOL_CONFIGS:
            assert run_experiment(cfg, workers=workers).to_json() == run_experiment(cfg).to_json(), cfg

    def test_trial_range_over_sealed_blocks_computes_no_keystream(self, monkeypatch):
        cfg = _config("post", SEALED_BEHAVIORS, trials=3, post_length=3)
        cost = CostModel()
        _, blocks, _ = sim._file_blocks(cfg)
        sealed = [porep.seal_blocks(blocks, params) for params in sim._seal_params(cfg)]
        expected = sim._run_trial_range(cfg, 0, 3, cost)

        def no_keystream(*args):
            raise AssertionError("keystream computed while building over sealed blocks")

        monkeypatch.setattr(porep, "keystream", no_keystream)
        assert sim._run_trial_range(cfg, 0, 3, cost, sealed) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_keystream_computed_once_per_experiment(self, monkeypatch, workers):
        cfg = _config("post", SEALED_BEHAVIORS, trials=4, post_length=2)
        calls = Counter()
        real = porep.keystream

        def counted(params, index, block_size):
            calls[params.node_tag, index] += 1
            return real(params, index, block_size)

        monkeypatch.setattr(porep, "keystream", counted)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", _InlineExecutor)
        run_experiment(cfg, workers=workers)
        tags = [params.node_tag for params in sim._seal_params(cfg)]
        assert calls == Counter({(tag, i): 1 for tag in tags for i in range(cfg.k)})

    def test_post_epoch_encodes_each_link_at_most_once(self, monkeypatch):
        cfg = _config("post", [*SEALED_BEHAVIORS, OutsourcingAttacker()], trials=1, post_length=4)
        world = SimWorld(cfg)
        encoded = []  # holds every proof, so no two share an id()
        real = post.canonical_encode

        def counted(proof):
            encoded.append(proof)
            return real(proof)

        monkeypatch.setattr(post, "canonical_encode", counted)
        records = run_audit_epoch(world, 0)
        assert {r.verdict for r in records} == {"accept", "reject"}
        assert len(encoded) == len({id(p) for p in encoded}) <= len(records) * cfg.post_length
