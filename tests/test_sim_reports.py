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
        "923e60c98086b0a72d389334aed2bea74276dd411a3db58cc12ab696b9b7b9bb",
        "ea985508e088f91a6a0e4d884feb5bfc03c5f2243de74804e4b5eb222f8ba572",
    ),
    ("post", 200): (
        "8713123c72f5adf170eb0402dcdb91fb0c08763061c72cfb9815cc06638846dd",
        "fbb060032878a4d59fba636ff9b312c162ac2d5c99b57e805634bbcdf3696573",
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
