import random
from hashlib import sha256

import pytest
from hypothesis import given, strategies as st

from porstore.encoding import le64
from porstore.errors import EmptyInput, IndexOutOfRange, MalformedInput
from porstore.merkle import (
    Block,
    INNER_PREFIX,
    LEAF_PREFIX,
    build_tree,
    decode_tree,
    encode_tree,
    expand_bytes,
    hash_bytes,
    path_length,
    leaf_digest,
    prove_leaf,
    tree_over,
    verify_leaf,
)

# Official SHA-256 test vectors.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def _blocks(count, size=32, seed=0):
    rng = random.Random(seed)
    return [Block(i, rng.randbytes(size)) for i in range(count)]


class TestHashBytes:
    def test_published_vectors(self):
        assert hash_bytes(b"").hex() == SHA256_EMPTY
        assert hash_bytes(b"abc").hex() == SHA256_ABC

    def test_deterministic(self):
        for data in (b"", b"x", b"block" * 100):
            assert hash_bytes(data) == hash_bytes(data)

    def test_appended_byte_changes_digest(self):
        rng = random.Random(1)
        for _ in range(1000):
            x = rng.randbytes(1024)
            assert hash_bytes(x) != hash_bytes(x + b"\x00")


def test_expand_bytes_is_counter_mode():
    seed = b"\x07" * 32
    stream = b"".join(sha256(seed + le64(i)).digest() for i in range(4))
    for length in (0, 1, 31, 32, 33, 100):
        assert expand_bytes(seed, length) == stream[:length]


class TestBuildTree:
    def test_single_block(self):
        b = Block(0, b"only block")
        tree = build_tree([b])
        assert tree.root == sha256(b"\x00" + le64(0) + b.data).digest()
        assert prove_leaf(tree, 0) == ()

    def test_two_blocks(self):
        blocks = _blocks(2)
        tree = build_tree(blocks)
        leaf0 = sha256(b"\x00" + le64(0) + blocks[0].data).digest()
        leaf1 = sha256(b"\x00" + le64(1) + blocks[1].data).digest()
        assert tree.root == sha256(b"\x01" + leaf0 + leaf1).digest()

    def test_three_blocks_promotes_odd_node(self):
        blocks = _blocks(3)
        tree = build_tree(blocks)
        leaves = [sha256(b"\x00" + le64(i) + b.data).digest() for i, b in enumerate(blocks)]
        pair = sha256(b"\x01" + leaves[0] + leaves[1]).digest()
        assert tree.root == sha256(b"\x01" + pair + leaves[2]).digest()

    def test_level_sizes(self):
        for n in (1, 2, 3, 5, 8, 13):
            tree = build_tree(_blocks(n))
            sizes = [len(level) for level in tree.levels]
            assert sizes[0] == n
            for prev, cur in zip(sizes, sizes[1:]):
                assert cur == (prev + 1) // 2
            assert sizes[-1] == 1

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_tree([])

    def test_deterministic_across_builds(self):
        blocks = _blocks(9, seed=42)
        assert build_tree(blocks).root == build_tree(blocks).root


def test_tree_over_leaf_digests_equals_build_tree():
    for n in range(1, 71):
        blocks = _blocks(n, seed=n)
        assert tree_over([leaf_digest(b) for b in blocks]) == build_tree(blocks)
    with pytest.raises(EmptyInput):
        tree_over([])


class TestProveLeaf:
    def test_eight_leaf_sides(self):
        # Traced by hand: leaf 5 pairs with 4 (left), then node 2 with 3
        # (right), node 1 with 0 (left); the verifier derives the sides.
        blocks = _blocks(8)
        tree = build_tree(blocks)
        path = prove_leaf(tree, 5)
        leaves = [sha256(b"\x00" + le64(i) + b.data).digest() for i, b in enumerate(blocks)]
        inner = lambda a, b: sha256(b"\x01" + a + b).digest()
        assert path == (
            leaves[4],
            inner(leaves[6], leaves[7]),
            inner(inner(leaves[0], leaves[1]), inner(leaves[2], leaves[3])),
        )

    def test_out_of_range(self):
        tree = build_tree(_blocks(4))
        for bad in (-1, 4, 100):
            with pytest.raises(IndexOutOfRange):
                prove_leaf(tree, bad)

    def test_path_length_matches_shape(self):
        for n in (1, 2, 3, 7, 8, 11, 16):
            tree = build_tree(_blocks(n))
            for i in range(n):
                assert len(prove_leaf(tree, i)) == path_length(n, i)


class TestVerifyLeaf:
    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=64), st.data())
    def test_round_trip(self, payloads, data):
        blocks = [Block(i, d) for i, d in enumerate(payloads)]
        tree = build_tree(blocks)
        idx = data.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
        assert verify_leaf(tree.root, len(blocks), blocks[idx], prove_leaf(tree, idx))

    def test_bit_flips_in_block_data_reject(self):
        # Exhaustive over all 256 bit positions of a 32-byte block.
        blocks = _blocks(8, size=32, seed=7)
        tree = build_tree(blocks)
        idx = 3
        path = prove_leaf(tree, idx)
        for bit in range(256):
            data = bytearray(blocks[idx].data)
            data[bit // 8] ^= 1 << (bit % 8)
            assert not verify_leaf(tree.root, 8, Block(idx, bytes(data)), path)

    def test_sibling_swaps_reject(self):
        blocks = _blocks(8, seed=9)
        tree = build_tree(blocks)
        for idx in range(8):
            honest = list(prove_leaf(tree, idx))
            for a in range(len(honest)):
                for b in range(a + 1, len(honest)):
                    swapped = list(honest)
                    swapped[a], swapped[b] = swapped[b], swapped[a]
                    assert not verify_leaf(tree.root, 8, blocks[idx], tuple(swapped))

    def test_single_byte_mutations_reject(self):
        # Desk-scale exhaustive tamper check over data, siblings, and root.
        for n in (1, 2, 3, 8, 16):
            blocks = _blocks(n, size=16, seed=n)
            tree = build_tree(blocks)
            for idx in range(n):
                path = prove_leaf(tree, idx)
                assert verify_leaf(tree.root, n, blocks[idx], path)
                for pos in range(16):
                    data = bytearray(blocks[idx].data)
                    data[pos] ^= 0xFF
                    assert not verify_leaf(tree.root, n, Block(idx, bytes(data)), path)
                for s, digest in enumerate(path):
                    for pos in range(32):
                        tampered = bytearray(digest)
                        tampered[pos] ^= 0xFF
                        siblings = list(path)
                        siblings[s] = bytes(tampered)
                        assert not verify_leaf(tree.root, n, blocks[idx], tuple(siblings))
                for pos in range(32):
                    root = bytearray(tree.root)
                    root[pos] ^= 0xFF
                    assert not verify_leaf(bytes(root), n, blocks[idx], path)

    def test_wrong_index_rejects(self):
        blocks = _blocks(4)
        tree = build_tree(blocks)
        path = prove_leaf(tree, 1)
        assert not verify_leaf(tree.root, 4, Block(2, blocks[1].data), path)

    def test_malformed_path_rejects_not_raises(self):
        # Every leaf of every shape: a path one sibling short or one long,
        # and a block index outside [0, leaf_count), each give False.
        for n in (1, 2, 3, 7, 8, 11):
            blocks = _blocks(n, seed=n)
            tree = build_tree(blocks)
            for idx in range(n):
                path = prove_leaf(tree, idx)
                assert verify_leaf(tree.root, n, blocks[idx], path)
                if path:
                    assert not verify_leaf(tree.root, n, blocks[idx], path[:-1])
                assert not verify_leaf(tree.root, n, blocks[idx], path + (tree.root,))
            for bad in (-1, n, n + 1):
                assert not verify_leaf(tree.root, n, Block(bad, blocks[0].data), prove_leaf(tree, 0))


class TestTreeFile:
    def test_decode_inverts_encode(self):
        for n in (*range(1, 34), 4096):
            tree = build_tree(_blocks(n, size=8, seed=n))
            data = b"".join(encode_tree(tree))
            assert len(data) == 32 * sum(len(level) for level in tree.levels)
            assert decode_tree(data, n) == tree

    def test_size_off_by_one_digest_raises(self):
        for n in (1, 2, 3, 7, 8, 33, 4096):
            data = b"".join(encode_tree(build_tree(_blocks(n, size=8))))
            for bad in (data[:-32], data + data[:32]):
                with pytest.raises(MalformedInput):
                    decode_tree(bad, n)
            # The size fixes the leaf count: the same bytes read as one leaf
            # more or fewer are malformed too.
            for other in (n - 1, n + 1):
                with pytest.raises(MalformedInput):
                    decode_tree(data, other)


def test_domain_separation_prefixes():
    assert LEAF_PREFIX == b"\x00"
    assert INNER_PREFIX == b"\x01"
    assert LEAF_PREFIX != INNER_PREFIX
    # A leaf whose payload is exactly (left || right) cannot forge the inner node.
    left, right = hash_bytes(b"l"), hash_bytes(b"r")
    forged = Block(0, left + right)
    inner = sha256(b"\x01" + left + right).digest()
    assert sha256(b"\x00" + le64(0) + forged.data).digest() != inner

