"""Baseline proof-of-storage protocols.

Two verifier strategies over a stored file F:

* nonce audits: the owner precomputes h_i = H(F || r_i) for random nonces
  r_i and later reveals one unused r_i per audit, expecting h_i back;
* sampled audits: the owner keeps only the Merkle root of F's blocks and
  challenges k' random block indices per audit, checking each returned
  block against the root.

A prover missing a delta fraction of blocks survives a sampled audit with
probability (1 - delta)^k', so detection sharpens exponentially in k'.

Challenges are deterministic: nonces and sampled indices come from a
counter-mode PRF stream H(seed || epoch_le64 || counter_le64), making every
audit replayable from (seed, epoch) alone.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .encoding import le64
from .erasure import CodeParams, encode as rs_encode
from .errors import EmptyInput, InvalidParams, NonceReplay, expect, expect_u64
from .merkle import Block, Digest, MerklePath, MerkleTree, build_tree, hash_bytes, prove_leaf, verify_leaf

DEFAULT_BLOCK_SIZE = 4096
DEFAULT_K_PRIME = 20


# ---------------------------------------------------------------------------
# File manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FileManifest:
    """Public metadata the verifier keeps per stored file.

    For uncoded files k == ceil(total_length / block_size).  For coded
    files the audit runs over the n_total shards, so k == n_total and
    coding records the underlying (k_data, n_total).
    """

    file_id: str
    total_length: int
    block_size: int
    k: int
    merkle_root: Digest
    coding: Optional[CodeParams] = None

    def to_dict(self) -> dict:
        return {
            "file_id": self.file_id,
            "total_length": self.total_length,
            "block_size": self.block_size,
            "k": self.k,
            "merkle_root_hex": self.merkle_root.hex(),
            "coding": None if self.coding is None else {"k_data": self.coding.k_data, "n_total": self.coding.n_total},
        }

    @classmethod
    def from_dict(cls, d) -> "FileManifest":
        d = expect(d, dict, "a manifest")
        coding = d.get("coding")
        if coding is not None:
            coding = expect(coding, dict, "coding")
            coding = CodeParams(expect(coding["k_data"], int, "k_data"), expect(coding["n_total"], int, "n_total"))
        return cls(
            file_id=expect(d["file_id"], str, "file_id"),
            total_length=expect(d["total_length"], int, "total_length"),
            block_size=expect(d["block_size"], int, "block_size"),
            k=expect(d["k"], int, "k"),
            merkle_root=bytes.fromhex(expect(d["merkle_root_hex"], str, "merkle_root_hex")),
            coding=coding,
        )


def split_blocks(data: bytes, block_size: int) -> list[Block]:
    """Split into fixed-size blocks, zero-padding the last one."""
    if block_size < 1:
        raise InvalidParams("block_size must be positive")
    if not data:
        raise EmptyInput("cannot split an empty file")
    blocks = []
    for i in range(0, len(data), block_size):
        chunk = data[i : i + block_size]
        if len(chunk) < block_size:
            chunk = chunk + b"\x00" * (block_size - len(chunk))
        blocks.append(Block(index=i // block_size, data=chunk))
    return blocks


def build_manifest(
    file_id: str, data: bytes, block_size: int = DEFAULT_BLOCK_SIZE, coding: Optional[CodeParams] = None
) -> tuple[FileManifest, list[Block], MerkleTree]:
    """Block a file, erasure-code it when coding is given, and commit to
    the resulting blocks (or shards)."""
    blocks = split_blocks(data, block_size)
    if coding is not None:
        encoded = rs_encode([b.data for b in blocks], coding)
        blocks = [Block(i, shard) for i, shard in encoded.shards]
    tree = build_tree(blocks)
    manifest = FileManifest(
        file_id=file_id,
        total_length=len(data),
        block_size=block_size,
        k=len(blocks),
        merkle_root=tree.root,
        coding=coding,
    )
    return manifest, blocks, tree


# ---------------------------------------------------------------------------
# Nonce-based audits
# ---------------------------------------------------------------------------

@dataclass
class NonceEntry:
    nonce: bytes
    expected: Digest
    used: bool = False


@dataclass
class NonceChallengeSet:
    """Precomputed one-shot challenges.

    The used flags mutate under verification, so a set belongs to one
    thread (or needs external serialization); everything else here is
    immutable and freely shareable.
    """

    entries: list[NonceEntry] = field(default_factory=list)


def prepare_nonce_challenges(file: bytes, count: int, seed: bytes) -> NonceChallengeSet:
    """Derive `count` nonces from seed and precompute their answers."""
    if count < 1:
        raise EmptyInput("need at least one nonce challenge")
    entries = []
    for i in range(count):
        nonce = hash_bytes(seed + le64(0) + le64(i))
        entries.append(NonceEntry(nonce=nonce, expected=hash_bytes(file + nonce)))
    return NonceChallengeSet(entries=entries)


def respond_nonce(file: bytes, nonce: bytes) -> Digest:
    return hash_bytes(file + nonce)


def verify_nonce(challenge_set: NonceChallengeSet, index: int, answer: Digest) -> bool:
    """Single-use check; the entry burns whether or not the answer matches."""
    entry = challenge_set.entries[index]
    if entry.used:
        raise NonceReplay(f"nonce entry {index} already consumed")
    entry.used = True
    return answer == entry.expected


# ---------------------------------------------------------------------------
# Merkle-sampled audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """A verifier's answer, falsy on reject, where `reason` names the failed
    check: "timing", "sampling" or "chain".  Verifiers return only the four
    constants below, so no audit allocates one."""

    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.reason is None

    def __str__(self) -> str:
        return "ACCEPT" if self.reason is None else f"REJECT, failed check: {self.reason}"


ACCEPT = Verdict()
REJECT_TIMING = Verdict("timing")
REJECT_SAMPLING = Verdict("sampling")
REJECT_CHAIN = Verdict("chain")


@dataclass(frozen=True)
class SamplingChallenge:
    seed: bytes
    epoch: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class SamplingResponse:
    items: tuple[tuple[Block, MerklePath], ...]


def derive_sampling_challenge(seed: bytes, epoch: int, k: int, k_prime: int) -> SamplingChallenge:
    """k' distinct indices in [0, k), by rejection sampling the PRF stream."""
    if k < 1 or k_prime < 1 or k_prime > k:
        raise InvalidParams(f"need 1 <= k_prime <= k, got k={k} k_prime={k_prime}")
    limit = ((1 << 64) // k) * k
    chosen: set[int] = set()
    counter = 0
    while len(chosen) < k_prime:
        block = hash_bytes(seed + le64(epoch) + le64(counter))
        counter += 1
        for off in range(0, 32, 8):
            word = int.from_bytes(block[off : off + 8], "little")
            if word < limit:
                chosen.add(word % k)
                if len(chosen) == k_prime:
                    break
    return SamplingChallenge(seed=seed, epoch=epoch, indices=tuple(sorted(chosen)))


def respond_sampling(blocks: Mapping[int, bytes], tree: MerkleTree, challenge: SamplingChallenge) -> SamplingResponse:
    """Answer a challenge from a block store (anything with .get(index)).

    The store decides honesty: a missing index is answered with a zeroed
    block and the best-effort path, which a verifier will reject.
    """
    fetched = {idx: blocks.get(idx) for idx in challenge.indices}
    block_size = next((len(v) for v in fetched.values() if v is not None), 0)
    items = []
    for idx in challenge.indices:
        data = fetched[idx]
        if data is None:
            data = b"\x00" * block_size
        items.append((Block(index=idx, data=data), prove_leaf(tree, idx)))
    return SamplingResponse(items=tuple(items))


def verify_sampling(manifest: FileManifest, challenge: SamplingChallenge, response: SamplingResponse) -> Verdict:
    """Accept iff every returned block proves membership at its challenged index."""
    if len(response.items) != len(challenge.indices):
        return REJECT_SAMPLING
    for idx, (block, path) in zip(challenge.indices, response.items):
        if block.index != idx or not verify_leaf(manifest.merkle_root, manifest.k, block, path):
            return REJECT_SAMPLING
    return ACCEPT


# ---------------------------------------------------------------------------
# Transcripts (the wire/file formats the CLI speaks)
# ---------------------------------------------------------------------------
# A path travels as its sibling digests in hex; the verifier derives each
# sibling's side from the item's index and the manifest's leaf count.

def challenge_to_dict(manifest: FileManifest, challenge: SamplingChallenge, k_prime: int) -> dict:
    return {
        "file_id": manifest.file_id,
        "seed_hex": challenge.seed.hex(),
        "epoch": challenge.epoch,
        "k": manifest.k,
        "k_prime": k_prime,
        "indices": list(challenge.indices),
    }


def challenge_from_dict(d) -> SamplingChallenge:
    d = expect(d, dict, "a challenge")
    return SamplingChallenge(
        seed=bytes.fromhex(expect(d["seed_hex"], str, "seed_hex")),
        epoch=expect(d["epoch"], int, "epoch"),
        indices=tuple(expect_u64(i, "an index") for i in expect(d["indices"], list, "indices")),
    )


def response_to_dict(response: SamplingResponse) -> dict:
    items = []
    for block, path in response.items:
        items.append(
            {
                "index": block.index,
                "block_b64": base64.b64encode(block.data).decode("ascii"),
                "path": [digest.hex() for digest in path],
            }
        )
    return {"items": items}


def response_from_dict(d) -> SamplingResponse:
    items = []
    for item in expect(expect(d, dict, "a response")["items"], list, "items"):
        item = expect(item, dict, "an item")
        block = Block(
            index=expect(item["index"], int, "index"),
            data=base64.b64decode(expect(item["block_b64"], str, "block_b64")),
        )
        path = expect(item["path"], list, "path")
        items.append((block, tuple(bytes.fromhex(expect(h, str, "a path entry")) for h in path)))
    return SamplingResponse(items=tuple(items))
