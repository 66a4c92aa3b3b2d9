"""Proof-of-Replication: identity-bound sealing plus timed sampled audits.

Sealing XORs each block with a keystream derived from a hash chain over
(node_tag, salt, block index).  The chain depth d makes the keystream
deliberately slow to recompute (d sequential hashes, not parallelizable),
while unsealing with the stored keystream result is cheap.  An audit then
samples the *sealed* blocks against the replica's own Merkle root, and the
verifier rejects proofs whose simulated generation time exceeds the
policy: a prover that kept only raw data (generation attack), one replica
for many identities (Sybil), or no data at all (outsourcing) must pay the
reseal or fetch cost inside the challenge window and misses the deadline.

This XOR/hash-chain seal is a simulation-grade stand-in for a verifiable
delay encoding, not a production one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from hashlib import sha256
from typing import Iterable, Mapping, Sequence

from .costs import CostModel, SimClock, TimingPolicy
from .encoding import le64
from .errors import EmptyInput, InvalidParams
from .merkle import Block, Digest, MerkleTree, build_tree, expand_bytes, hash_bytes, path_length
from .pos import FileManifest, SamplingChallenge, SamplingResponse, respond_sampling, verify_sampling

DEFAULT_DELAY_ITERS = 10_000


@dataclass(frozen=True)
class SealParams:
    delay_iters: int
    node_tag: bytes
    salt: bytes

    def __post_init__(self):
        if self.delay_iters < 1:
            raise InvalidParams("delay_iters must be >= 1")
        if not self.node_tag:
            raise InvalidParams("node_tag must be non-empty")


@dataclass(frozen=True)
class Replica:
    params: SealParams
    sealed_blocks: tuple[bytes, ...]
    replica_root: Digest


@dataclass(frozen=True)
class PoRepProof:
    challenge: SamplingChallenge
    response: SamplingResponse
    started_at: int
    finished_at: int

    @cached_property
    def encoded(self) -> bytes:
        """post.canonical_encode of this proof, computed once: the next
        chain seed, the verifier's replay and the proof size share it."""
        from .post import canonical_encode  # post builds on this module

        return canonical_encode(self)


def keystream(params: SealParams, index: int, block_size: int) -> bytes:
    """block_size keystream bytes behind d sequential hash iterations.

    s_0 = H(tag || salt || index_le64); s_j = H(s_{j-1}); output is the
    counter-mode expansion of s_d.  The d-step chain is the whole point:
    regenerating it on demand costs d * hash_cost of simulated time.
    """
    state = hash_bytes(params.node_tag + params.salt + le64(index))
    h = sha256  # a local name and no hash_bytes call: this loop is the whole cost of a seal
    for _ in range(params.delay_iters):
        state = h(state).digest()
    return expand_bytes(state, block_size)


def seal_block(data: bytes, params: SealParams, index: int) -> bytes:
    ks = keystream(params, index, len(data))
    # One big-int XOR; the fixed-length to_bytes keeps leading and trailing zero bytes.
    return (int.from_bytes(data, "little") ^ int.from_bytes(ks, "little")).to_bytes(len(data), "little")


def unseal_block(replica_block: bytes, params: SealParams, index: int) -> bytes:
    # XOR is an involution; unseal is seal with the same keystream.
    return seal_block(replica_block, params, index)


def seal_blocks(blocks: Iterable[Block], params: SealParams) -> tuple[bytes, ...]:
    """Seal each block under its own index.  Blocks share no state, so any
    subset can be sealed apart from the rest; each d-chain stays sequential."""
    return tuple(seal_block(b.data, params, b.index) for b in blocks)


def split_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """[0, n) as at most `parts` contiguous, non-empty, near-equal ranges."""
    bounds = [(n * p) // parts for p in range(parts + 1)]
    return [(bounds[p], bounds[p + 1]) for p in range(parts) if bounds[p] < bounds[p + 1]]


def sealed_tree(sealed_blocks: Sequence[bytes]) -> MerkleTree:
    """The replica commitment: leaf i is sealed block i."""
    return build_tree([Block(index=i, data=d) for i, d in enumerate(sealed_blocks)])


def seal_file(blocks: list[Block], params: SealParams) -> Replica:
    """Seal every block and commit to the sealed set."""
    if not blocks:
        raise EmptyInput("cannot seal an empty file")
    sealed = seal_blocks(blocks, params)
    return Replica(params=params, sealed_blocks=sealed, replica_root=sealed_tree(sealed).root)


def replica_tree(replica: Replica) -> MerkleTree:
    return sealed_tree(replica.sealed_blocks)


def honest_response_cost(k: int, indices: tuple[int, ...], cost: CostModel) -> int:
    """Simulated cost of serving stored sealed blocks with their paths."""
    return sum(cost.block_read_cost + path_length(k, i) * cost.hash_cost for i in indices)


def respond_timed(
    blocks: Mapping[int, bytes], tree: MerkleTree, challenge: SamplingChallenge, clock: SimClock, units: int
) -> PoRepProof:
    """Answer from a block store and its tree, charging the clock `units`
    of simulated time for the work."""
    started = clock.now
    response = respond_sampling(blocks, tree, challenge)
    clock.advance(units)
    return PoRepProof(challenge=challenge, response=response, started_at=started, finished_at=clock.now)


def porep_respond(
    blocks: Mapping[int, bytes], tree: MerkleTree, challenge: SamplingChallenge, clock: SimClock, cost: CostModel
) -> PoRepProof:
    """Honest prover: read the challenged sealed blocks, serve their paths
    from the replica tree, charge the clock."""
    units = honest_response_cost(tree.leaf_count, challenge.indices, cost)
    return respond_timed(blocks, tree, challenge, clock, units)


def porep_verify(manifest: FileManifest, replica_root: Digest, proof: PoRepProof, policy: TimingPolicy) -> bool:
    """Accept iff the sampled proof checks out against the replica root and
    the recorded generation time fits the policy."""
    if proof.finished_at < proof.started_at:
        return False
    if len(proof.challenge.indices) != policy.k_prime:
        return False
    elapsed = proof.finished_at - proof.started_at
    if elapsed > policy.t_max:
        return False
    if policy.expected_cost is not None:
        if elapsed != honest_response_cost(manifest.k, proof.challenge.indices, policy.expected_cost):
            return False
    return verify_sampling(replace(manifest, merkle_root=replica_root), proof.challenge, proof.response)


# ---------------------------------------------------------------------------
# Replica manifest files
# ---------------------------------------------------------------------------

def replica_manifest_to_dict(file_id: str, params: SealParams, replica_root: Digest) -> dict:
    return {
        "file_id": file_id,
        "node_tag": params.node_tag.decode("utf-8"),
        "salt_hex": params.salt.hex(),
        "delay_iters": params.delay_iters,
        "replica_root_hex": replica_root.hex(),
    }
