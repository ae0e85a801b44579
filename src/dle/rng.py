"""Deterministic seeded RNG substreams.

Every random decision in the package flows from one top-level seed expanded
into named substreams, so each component (baseline draws, random branch
selection) is reproducible in isolation and independent of execution order.
Python's built-in hash() is salted per process, so the mixing uses 64-bit
FNV-1a, which is stable across runs and platforms.
"""

from __future__ import annotations

import random

from .errors import ConfigError

_FNV_OFFSET64 = 0xCBF29CE484222325
_FNV_PRIME64 = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _to_bytes(part: int | str | bytes) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, int):
        try:
            return part.to_bytes(8, "little", signed=True)
        except OverflowError:
            raise ConfigError(f"seed {part} is outside -2**63..2**63-1") from None
    return str(part).encode("utf-8")


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME64) & _MASK64
    return h


def substream_family(seed: int, *parts: int | str | bytes):
    """Factory of random.Random substreams sharing a prefix of named parts.

    substream_family(s, *p)(*tail) is the stream of the 64-bit FNV-1a mix of
    (s, *p, *tail), so it depends only on those values. The shared mixing
    work happens once, which matters when deriving one stream per draw in a
    tight loop.
    """
    base = _fnv1a64(_to_bytes(seed))
    for part in parts:
        base ^= _fnv1a64(_to_bytes(part))
        base = (base * _FNV_PRIME64) & _MASK64

    def make(*tail: int | str | bytes) -> random.Random:
        h = base
        for part in tail:
            h ^= _fnv1a64(_to_bytes(part))
            h = (h * _FNV_PRIME64) & _MASK64
        return random.Random((h ^ (h >> 33)) & _MASK64)

    return make
