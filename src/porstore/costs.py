"""Simulated time: the cost model behind every timed proof.

All timing in this package is simulated, not wall-clock.  A prover stamps
each proof with its start and its start plus the cost (in abstract units)
of the work; verifiers judge the recorded timestamps against a
TimingPolicy.  This keeps the timing arguments exact and the test suite
deterministic: what matters is the cost *ratio* between an honest read and
an on-demand reseal or remote fetch, and that ratio is preserved by
construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidParams, MalformedInput, expect


@dataclass(frozen=True)
class CostModel:
    """Unit costs; fetch_remote_cost > block_read_cost is what makes
    outsourcing detectable at all."""

    hash_cost: int = 1
    block_read_cost: int = 2
    network_latency: int = 5
    fetch_remote_cost: int = 50

    def __post_init__(self):
        if min(self.hash_cost, self.block_read_cost, self.network_latency, self.fetch_remote_cost) < 0:
            raise InvalidParams("costs must be non-negative")
        if self.fetch_remote_cost <= self.block_read_cost:
            raise InvalidParams("fetch_remote_cost must exceed block_read_cost")

    def to_dict(self) -> dict:
        return {
            "hash_cost": self.hash_cost,
            "block_read_cost": self.block_read_cost,
            "network_latency": self.network_latency,
            "fetch_remote_cost": self.fetch_remote_cost,
        }

    @classmethod
    def from_dict(cls, d) -> "CostModel":
        """Decode a cost-model file: integer fields only, no unknown keys."""
        unknown = sorted(set(expect(d, dict, "a cost model")) - set(cls.__dataclass_fields__))
        if unknown:
            raise MalformedInput(f"unknown cost model field(s) {unknown}")
        return cls(**{name: expect(value, int, name) for name, value in d.items()})

    @classmethod
    def from_json_file(cls, path: str) -> "CostModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class TimingPolicy:
    """Verifier-side acceptance window for proof generation time.

    t_max is the basic upper bound: slower proofs are evidence of
    on-demand resealing or remote fetches, and every proof must answer
    exactly k_prime challenged blocks.  Setting expected_cost makes the
    policy strict: it binds the recorded timestamps exactly, so a
    transcript cannot be nudged by a byte without rejection.  Each proof's
    elapsed time must equal the honest cost for its challenge, and chained
    proofs must start the instant the previous one ends.
    """

    t_max: int
    k_prime: int
    expected_cost: Optional[CostModel] = None


def default_t_max(k_prime: int, cost: CostModel) -> int:
    """Shipped default: 10x the raw read budget of an honest response."""
    return 10 * k_prime * cost.block_read_cost

