"""Content hashing and binary Merkle trees with membership proofs.

Hashing is SHA-256 with domain separation:

    leaf  = H(0x00 || index_le64 || data)
    inner = H(0x01 || left || right)

Binding the leaf index prevents block-reordering attacks; the distinct
prefixes prevent a 64-byte data block from forging an inner node.  A level
with an odd node count promotes the unpaired node unchanged (no duplicate
hashing), so the next level always holds ceil(n/2) digests.

A tree travels to disk as every level's digests concatenated, leaves first,
32 bytes each; the leaf count alone fixes each level's width, so the file
carries no header and a file of any other size is malformed.

A membership path is the sibling digests alone, leaf to root, as in RFC 6962
audit paths.  Which side each sibling sits on, and which levels have none,
follows from the leaf index and the leaf count, so the verifier derives both
and a path cannot disagree with the index it claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Iterator

from .encoding import le64
from .errors import EmptyInput, IndexOutOfRange, MalformedInput

DIGEST_SIZE = 32
LEAF_PREFIX = b"\x00"
INNER_PREFIX = b"\x01"

# 32-byte SHA-256 digests, compared byte-wise.
Digest = bytes


def hash_bytes(data: bytes) -> Digest:
    return sha256(data).digest()


def expand_bytes(seed: bytes, length: int) -> bytes:
    """Counter-mode expansion: H(seed || 0_le64) || H(seed || 1_le64) || ...,
    cut to length bytes."""
    blocks = -(-length // 32)
    return b"".join([sha256(seed + i.to_bytes(8, "little")).digest() for i in range(blocks)])[:length]


@dataclass(frozen=True)
class Block:
    """One file block: index plus (padded) payload bytes."""

    index: int
    data: bytes


@dataclass(frozen=True)
class MerkleTree:
    """All levels of a binary tree, leaves first; levels[-1] is [root]."""

    leaf_count: int
    levels: tuple[tuple[Digest, ...], ...]

    @property
    def root(self) -> Digest:
        return self.levels[-1][0]


# Sibling digests from leaf to root; a promoted node's level contributes none.
MerklePath = tuple[Digest, ...]


def leaf_digest(block: Block) -> Digest:
    return hash_bytes(LEAF_PREFIX + le64(block.index) + block.data)


def inner_digest(left: Digest, right: Digest) -> Digest:
    return hash_bytes(INNER_PREFIX + left + right)


def build_tree(leaves: list[Block]) -> MerkleTree:
    """Build the full tree over the given blocks' leaf digests."""
    if not leaves:
        raise EmptyInput("cannot build a Merkle tree over zero blocks")
    # leaf_digest and inner_digest inlined: this loop is the whole cost of a build.
    level = [sha256(LEAF_PREFIX + b.index.to_bytes(8, "little") + b.data).digest() for b in leaves]
    levels = [tuple(level)]
    while len(level) > 1:
        nxt = [sha256(INNER_PREFIX + level[i] + level[i + 1]).digest() for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])  # odd node promoted unchanged
        level = nxt
        levels.append(tuple(level))
    return MerkleTree(leaf_count=len(leaves), levels=tuple(levels))


def encode_tree(tree: MerkleTree) -> Iterator[Digest]:
    """The tree file's bytes, one digest at a time: every level, leaves
    first.  Writing them one by one keeps no second copy of the tree."""
    return (digest for level in tree.levels for digest in level)


def decode_tree(data: bytes, leaf_count: int) -> MerkleTree:
    """Inverse of encode_tree, joined, for a tree over leaf_count leaves.

    Only the size is checked: whether the digests hash up to a trusted root
    is for the verifier to find out, one path at a time.
    """
    if leaf_count < 1:
        raise MalformedInput(f"a tree needs at least one leaf, got a leaf count of {leaf_count}")
    widths = [leaf_count]  # each level's node count, leaves first
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    size = DIGEST_SIZE * sum(widths)
    if len(data) != size:
        raise MalformedInput(f"a tree file over {leaf_count} leaves must hold {size} bytes, got {len(data)}")
    levels, offset = [], 0
    for width in widths:
        end = offset + DIGEST_SIZE * width
        levels.append(tuple(data[i : i + DIGEST_SIZE] for i in range(offset, end, DIGEST_SIZE)))
        offset = end
    return MerkleTree(leaf_count=leaf_count, levels=tuple(levels))


def prove_leaf(tree: MerkleTree, index: int) -> MerklePath:
    """Membership path for the leaf at `index`."""
    if not 0 <= index < tree.leaf_count:
        raise IndexOutOfRange(f"leaf index {index} not in [0, {tree.leaf_count})")
    siblings = []
    for level in tree.levels[:-1]:
        sibling = index ^ 1  # the other child of this node's parent
        if sibling < len(level):  # else: promoted node, no sibling at this level
            siblings.append(level[sibling])
        index //= 2
    return tuple(siblings)


def verify_leaf(root: Digest, leaf_count: int, block: Block, path: MerklePath) -> bool:
    """Accept iff folding the block's leaf digest through the path hits root.

    An odd node's sibling sits on its left, an even node's on its right, and
    a level's unpaired last node has none.  A path with too few or too many
    siblings, or a block index outside [0, leaf_count), is rejected.
    """
    index, width = block.index, leaf_count
    if not 0 <= index < width:
        return False
    acc = leaf_digest(block)
    siblings = iter(path)
    try:
        while width > 1:
            if index % 2:
                acc = inner_digest(next(siblings), acc)
            elif index + 1 < width:
                acc = inner_digest(acc, next(siblings))
            index //= 2
            width = (width + 1) // 2
    except StopIteration:
        return False
    return next(siblings, None) is None and acc == root


def path_length(leaf_count: int, index: int) -> int:
    """Number of siblings on the path for `index`, from the shape alone."""
    if not 0 <= index < leaf_count:
        raise IndexOutOfRange(f"leaf index {index} not in [0, {leaf_count})")
    count = 0
    n = leaf_count
    idx = index
    while n > 1:
        if idx % 2 == 1 or idx + 1 < n:
            count += 1
        idx //= 2
        n = (n + 1) // 2
    return count

