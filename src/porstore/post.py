"""Proof-of-Spacetime: a hash-linked chain of replication proofs.

Challenge i is seeded by H(c0 || i_le64 || encode(proof_{i-1})), so proof i
cannot exist before proof i-1 does; the chain forces strictly sequential
generation and therefore witnesses that the replica was held across the
whole interval, not just at one instant.  Verification checks every link
offline from the transcript alone, then replays the seed chain; a reject
names the failed check, timing before sampling before chain.

The naive chain trades proof size for simplicity: the transcript carries
every sampled block of every link.  `transcript_stats` measures that cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .costs import CostModel, TimingPolicy
from .encoding import le64
from .errors import InvalidParams, expect, expect_u64
from .merkle import Digest, MerkleTree, hash_bytes
from .pos import (
    ACCEPT,
    DEFAULT_K_PRIME,
    REJECT_CHAIN,
    FileManifest,
    SamplingChallenge,
    Verdict,
    challenge_from_dict,
    derive_sampling_challenge,
    response_from_dict,
    response_to_dict,
)
from .porep import PoRepProof, _check_links, porep_respond

DEFAULT_CHAIN_LENGTH = 12


@dataclass(frozen=True)
class PoStProof:
    initial_challenge: bytes
    proofs: tuple[PoRepProof, ...]

    @property
    def length(self) -> int:
        return len(self.proofs)

    @property
    def total_cost(self) -> int:
        """Simulated time from the first link's start to the last link's end."""
        return self.proofs[-1].finished_at - self.proofs[0].started_at if self.proofs else 0


def canonical_encode(proof: PoRepProof) -> bytes:
    """Bit-exact encoding used for chain linkage: indices, block bytes,
    path digests, then the two timestamps."""
    parts = [le64(i) for i in proof.challenge.indices]
    parts.extend(block.data for block, _ in proof.response.items)
    for _, path in proof.response.items:
        parts.extend(path)
    parts.append(le64(proof.started_at))
    parts.append(le64(proof.finished_at))
    return b"".join(parts)


def chain_seed(c0: bytes, counter: int, previous: PoRepProof | None) -> Digest:
    if previous is None:
        return hash_bytes(c0 + le64(counter))
    return hash_bytes(c0 + le64(counter) + previous.encoded)


def run_chain(
    c0: bytes, length: int, k: int, k_prime: int, respond: Callable[[int, SamplingChallenge, int], PoRepProof]
) -> PoStProof:
    """Drive the chain: link i's challenge is seeded by link i-1's proof and
    answered by respond(i, challenge, started).  The first link starts at
    simulated time 0 and every later one at its predecessor's finished_at,
    so the links abut and the chain depends on nothing outside its audit."""
    if length < 1:
        raise InvalidParams("chain length must be >= 1")
    proofs: list[PoRepProof] = []
    previous = None
    for i in range(length):
        challenge = derive_sampling_challenge(chain_seed(c0, i, previous), i, k, k_prime)
        previous = respond(i, challenge, previous.finished_at if previous is not None else 0)
        proofs.append(previous)
    return PoStProof(initial_challenge=c0, proofs=tuple(proofs))


def generate_post(
    blocks: Mapping[int, bytes],
    tree: MerkleTree,
    c0: bytes,
    length: int,
    cost: CostModel,
    k_prime: int = DEFAULT_K_PRIME,
) -> PoStProof:
    """Honest chain over a held replica: its sealed blocks (any .get store)
    and its tree."""
    return run_chain(
        c0, length, tree.leaf_count, k_prime,
        lambda _, challenge, started: porep_respond(blocks, tree, challenge, started, cost),
    )


def verify_post(manifest: FileManifest, replica_root: Digest, post: PoStProof, policy: TimingPolicy) -> Verdict:
    """Judge every link by porep's checks (timing, then sampling, then
    chain), then replay the seed chain: a link whose seed, epoch or indices
    differ, or that starts before its predecessor ends (under a strict
    policy: at any other instant), is "chain".  A k' outside [1, k] raises."""
    if not 1 <= policy.k_prime <= manifest.k:
        raise InvalidParams(f"need 1 <= k_prime <= k, got k={manifest.k} k_prime={policy.k_prime}")
    if not post.proofs:
        return REJECT_CHAIN
    verdict = _check_links(manifest, replica_root, post.proofs, policy)
    if not verdict:
        return verdict
    previous = None
    for i, proof in enumerate(post.proofs):
        seed = chain_seed(post.initial_challenge, i, previous)
        if proof.challenge.seed != seed or proof.challenge.epoch != i:
            return REJECT_CHAIN
        derived = derive_sampling_challenge(seed, i, manifest.k, policy.k_prime)
        if proof.challenge.indices != derived.indices:
            return REJECT_CHAIN
        gap = proof.started_at - previous.finished_at if previous is not None else 0
        if gap < 0 or (gap and policy.expected_cost is not None):  # links never overlap; strict ones abut
            return REJECT_CHAIN
        previous = proof
    return ACCEPT


# ---------------------------------------------------------------------------
# Transcripts
# ---------------------------------------------------------------------------

def porep_proof_to_dict(proof: PoRepProof) -> dict:
    d = response_to_dict(proof.response)
    d["challenge"] = {
        "seed_hex": proof.challenge.seed.hex(),
        "epoch": proof.challenge.epoch,
        "indices": list(proof.challenge.indices),
    }
    d["started_at"] = proof.started_at
    d["finished_at"] = proof.finished_at
    return d


def porep_proof_from_dict(d) -> PoRepProof:
    d = expect(d, dict, "a proof")
    return PoRepProof(
        challenge=challenge_from_dict(d["challenge"]),
        response=response_from_dict(d),
        started_at=expect_u64(d["started_at"], "started_at"),
        finished_at=expect_u64(d["finished_at"], "finished_at"),
    )


def post_to_dict(post: PoStProof) -> dict:
    return {
        "c0_hex": post.initial_challenge.hex(),
        "proofs": [porep_proof_to_dict(p) for p in post.proofs],
    }


def post_from_dict(d) -> PoStProof:
    """Decode a transcript; a value of the wrong JSON type raises MalformedInput."""
    d = expect(d, dict, "a transcript")
    return PoStProof(
        initial_challenge=bytes.fromhex(expect(d["c0_hex"], str, "c0_hex")),
        proofs=tuple(porep_proof_from_dict(p) for p in expect(d["proofs"], list, "proofs")),
    )


def transcript_stats(post: PoStProof) -> dict:
    """Size accounting for the naive chain's main drawback."""
    per_proof = [len(p.encoded) for p in post.proofs]
    return {
        "length": post.length,
        "total_cost": post.total_cost,
        "proof_bytes": per_proof,
        "total_bytes": sum(per_proof),
        "mean_proof_bytes": sum(per_proof) // max(1, len(per_proof)),
    }
