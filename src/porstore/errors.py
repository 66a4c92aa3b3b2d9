"""Exception taxonomy shared by all protocol modules, and the JSON type
checks their decoders share."""


class PorstoreError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(PorstoreError):
    """An operation that needs at least one element got none."""


class IndexOutOfRange(PorstoreError):
    """A leaf or block index falls outside the valid range."""


class NonceReplay(PorstoreError):
    """A one-shot nonce challenge was presented for verification twice."""


class InvalidParams(PorstoreError):
    """Parameters violate a protocol precondition."""


class RaggedInput(PorstoreError):
    """Blocks that must share a length do not."""


class InsufficientShards(PorstoreError):
    """Fewer erasure-code shards than the data count k."""


class DuplicateShard(PorstoreError):
    """Two erasure-code shards claim the same index."""


class InsufficientShares(PorstoreError):
    """Fewer secret shares than the threshold t."""


class DuplicateShare(PorstoreError):
    """Two secret shares claim the same evaluation point."""


class ConfigError(PorstoreError):
    """A simulation or CLI configuration references unknown entities."""


class MalformedInput(PorstoreError):
    """A decoded file does not have the shape its format requires."""


def expect(value, kind: type | tuple[type, ...], what: str):
    """Return a decoded JSON value if it has type `kind` (or one of the
    types in a tuple), else raise MalformedInput.  The check is exact, so
    true is not an int."""
    if type(value) is kind or (type(kind) is tuple and type(value) in kind):
        return value
    names = " or ".join(k.__name__ for k in (kind if type(kind) is tuple else (kind,)))
    raise MalformedInput(f"{what} must be {names}, got {type(value).__name__}")


def expect_u64(value, what: str) -> int:
    """Return a decoded JSON int in [0, 2^64), the range a transcript's
    8-byte fields encode, else raise MalformedInput."""
    if not 0 <= expect(value, int, what) < 1 << 64:
        raise MalformedInput(f"{what} must be in [0, 2^64), got {value}")
    return value
