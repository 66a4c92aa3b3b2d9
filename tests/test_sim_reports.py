"""Pinned simulator reports.

Every behaviour under every protocol, at a seal depth where on-demand
resealing is cheap (d=1) and one where it blows the deadline (d=200).
The digests were recorded from the simulator before its response and
chain code was folded into porep/post, so any change to report bytes,
serial or parallel, shows here.
"""

import hashlib

import pytest

from porstore.sim import (
    Dropper,
    ExperimentConfig,
    GenerationAttacker,
    Honest,
    OutsourcingAttacker,
    SybilAttacker,
    run_experiment,
)

BEHAVIORS = (Honest(), Dropper(0.5), GenerationAttacker(), SybilAttacker(2), OutsourcingAttacker())

PINNED = {
    ("pos", 1): (
        "8f6d4cc7293edcda7e9b158347551d379d7f173e7e9270483d055ab1aedc1c87",
        "795a6a775e0d8eecbc4a2b0684c436344d8ad17b6763759762d11378ded70073",
    ),
    ("pos", 200): (
        "97c73e55385d199a535171730a01b5a56249ed6c061fb2d647ff2dc0100c4722",
        "795a6a775e0d8eecbc4a2b0684c436344d8ad17b6763759762d11378ded70073",
    ),
    ("porep", 1): (
        "e99bc44ca2f348bfc61137cb1b1c914fe21f74914964aa86ea6dc3c1e8e561ca",
        "86637a30aee66ed912952301902bfde091abdadad6698e6920a2774303f59499",
    ),
    ("porep", 200): (
        "adee6db6e0581fe54a6d2623d985aae667cf564e5d56f8f276559fde6387fff5",
        "e84829e1195d43b37949b27dd3db46728b24a3c52fa8e1188834dd97934181a0",
    ),
    ("post", 1): (
        "3582a962817dbf764d5eddbd106c04776aeb1643834e0d2615992682a8055bf6",
        "3bacc7a264d48bd065e501e55fff2b275ef9aa465fe24f8bf9c2d77b9e18bbff",
    ),
    ("post", 200): (
        "5fd3508361211c79a31ad7794c536a836557d2ede8389f07960aa95943ecc937",
        "9ee81790fd20ca6d1887a817157e93a7e5e70a193207130d3cd27a852d6ba10a",
    ),
}

# Reject reasons per (node_id, identity) lane over the 12 trials; lanes not
# listed accept every audit.
REASONS = {
    ("pos", 1): {("dropper-1", 0): {"sampling": 11}},
    ("pos", 200): {("dropper-1", 0): {"sampling": 11}},
    ("porep", 1): {("dropper-1", 0): {"sampling": 12}, ("outsourcing-4", 0): {"timing": 12}},
    ("porep", 200): {
        ("dropper-1", 0): {"sampling": 10},
        ("generation-2", 0): {"timing": 12},
        ("sybil-3", 1): {"timing": 12},
        ("outsourcing-4", 0): {"timing": 12},
    },
    # At d=1 a reseal fits under t_max, so only the strict chain binding
    # (elapsed == honest cost) catches the generation and Sybil lanes.
    ("post", 1): {
        ("dropper-1", 0): {"sampling": 12},
        ("generation-2", 0): {"chain": 12},
        ("sybil-3", 1): {"chain": 12},
        ("outsourcing-4", 0): {"timing": 12},
    },
    ("post", 200): {
        ("dropper-1", 0): {"sampling": 12},
        ("generation-2", 0): {"timing": 12},
        ("sybil-3", 1): {"timing": 12},
        ("outsourcing-4", 0): {"timing": 12},
    },
}


def _config(protocol, d):
    return ExperimentConfig(
        protocol=protocol, k=16, k_prime=4, block_size=32, behaviors=BEHAVIORS, trials=12,
        rng_seed=bytes.fromhex("5a" * 32), delay_iters=d, post_length=3,
    )


def _digests(report):
    return (
        hashlib.sha256(report.to_json().encode()).hexdigest(),
        hashlib.sha256(report.to_csv().encode()).hexdigest(),
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("protocol,d", sorted(PINNED))
def test_report_digests_pinned(protocol, d, workers):
    report = run_experiment(_config(protocol, d), workers=workers)
    assert _digests(report) == PINNED[(protocol, d)]


@pytest.mark.parametrize("protocol,d", sorted(REASONS))
def test_reject_reasons_per_lane(protocol, d):
    report = run_experiment(_config(protocol, d))
    reasons = {(row.node_id, row.identity): row.reject_reasons for row in report.rows if row.reject_reasons}
    assert reasons == REASONS[(protocol, d)]
