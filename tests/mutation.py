"""Byte-position mutation of chained proofs, shared by PoSt tests.

Maps an offset into canonical_encode(proof) back onto the proof object and
flips one bit of the corresponding field, so tampering can be sampled
uniformly over the transcript's canonical bytes.
"""

from dataclasses import replace

from porstore.post import PoStProof


def canonical_length(proof) -> int:
    k_prime = len(proof.challenge.indices)
    blocks = sum(len(b.data) for b, _ in proof.response.items)
    paths = sum(32 * len(p) for _, p in proof.response.items)
    return 8 * k_prime + blocks + paths + 16


def mutate_proof_byte(post: PoStProof, proof_idx: int, byte_pos: int) -> PoStProof:
    """Flip one bit of the byte at `byte_pos` of proofs[proof_idx]'s encoding."""
    p = post.proofs[proof_idx]
    idx_len = 8 * len(p.challenge.indices)
    block_lens = [len(b.data) for b, _ in p.response.items]
    path_lens = [32 * len(path) for _, path in p.response.items]
    blocks_len = sum(block_lens)
    paths_len = sum(path_lens)
    assert 0 <= byte_pos < idx_len + blocks_len + paths_len + 16

    if byte_pos < idx_len:
        j, off = divmod(byte_pos, 8)
        indices = list(p.challenge.indices)
        indices[j] ^= 1 << (8 * off)
        new_p = replace(p, challenge=replace(p.challenge, indices=tuple(indices)))
    elif byte_pos < idx_len + blocks_len:
        off = byte_pos - idx_len
        j = 0
        while off >= block_lens[j]:
            off -= block_lens[j]
            j += 1
        block, path = p.response.items[j]
        data = bytearray(block.data)
        data[off] ^= 0x01
        items = list(p.response.items)
        items[j] = (replace(block, data=bytes(data)), path)
        new_p = replace(p, response=replace(p.response, items=tuple(items)))
    elif byte_pos < idx_len + blocks_len + paths_len:
        off = byte_pos - idx_len - blocks_len
        j = 0
        while off >= path_lens[j]:
            off -= path_lens[j]
            j += 1
        s, o = divmod(off, 32)
        block, path = p.response.items[j]
        tampered = bytearray(path[s])
        tampered[o] ^= 0x01
        siblings = list(path)
        siblings[s] = bytes(tampered)
        items = list(p.response.items)
        items[j] = (block, tuple(siblings))
        new_p = replace(p, response=replace(p.response, items=tuple(items)))
    else:
        off = byte_pos - idx_len - blocks_len - paths_len
        if off < 8:
            new_p = replace(p, started_at=p.started_at ^ (1 << (8 * off)))
        else:
            new_p = replace(p, finished_at=p.finished_at ^ (1 << (8 * (off - 8))))

    proofs = list(post.proofs)
    proofs[proof_idx] = new_p
    return replace(post, proofs=tuple(proofs))
