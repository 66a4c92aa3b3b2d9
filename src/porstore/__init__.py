"""Proof-of-storage protocols and a deterministic storage-network simulator.

The package layers up from content commitments to timed protocols:

* merkle        - hashing, Merkle trees, membership proofs
* pos           - nonce audits and Merkle-sampled audits over a manifest
* erasure       - systematic Reed-Solomon shards over GF(65537)
* shamir        - t-of-n linear secret sharing over GF(2^61 - 1)
* porep         - identity-bound sealing and timed replication proofs
* post          - hash-chained sequences of replication proofs
* sim           - seeded network simulation with attack behaviors
* cli           - `porstore` command-line front end
"""

from .costs import CostModel, TimingPolicy, default_t_max
from .erasure import EncodedBlocks, decode, encode
from .errors import (
    ConfigError,
    DuplicateShard,
    DuplicateShare,
    EmptyInput,
    IndexOutOfRange,
    InsufficientShards,
    InsufficientShares,
    InvalidParams,
    MalformedInput,
    NonceReplay,
    PorstoreError,
    RaggedInput,
)
from .merkle import Block, Digest, MerklePath, MerkleTree, build_tree, hash_bytes, prove_leaf, verify_leaf
from .porep import PoRepProof, SealParams, keystream, porep_respond, porep_verify, seal_blocks, unseal_block
from .pos import (
    CodeParams,
    FileManifest,
    NonceChallengeSet,
    SamplingChallenge,
    SamplingResponse,
    Verdict,
    build_manifest,
    derive_sampling_challenge,
    prepare_nonce_challenges,
    respond_nonce,
    respond_sampling,
    verify_nonce,
    verify_sampling,
)
from .post import PoStProof, canonical_encode, generate_post, verify_post
from .shamir import ShareParams, ShareSet, reconstruct, reconstruction_coefficients, split_secret
from .sim import (
    AuditRecord,
    DetectionReport,
    Dropper,
    ExperimentConfig,
    GenerationAttacker,
    Honest,
    OutsourcingAttacker,
    SimWorld,
    SybilAttacker,
    run_audit_epoch,
    run_experiment,
)

__version__ = "0.1.0"
