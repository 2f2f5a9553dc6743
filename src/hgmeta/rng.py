"""Named random streams derived from a single 64-bit master seed.

Every source of randomness in a run pulls from one of a fixed set of named
streams so that individual components are reproducible in isolation.
Stream names in use: ``init-w``, ``init-a``, ``init-mwn`` and ``batch``
(training); ``synth-labels``, ``synth-edges``, ``synth-features``,
``synth-bias`` and ``synth-splits`` (the synthetic generator); ``toy``,
``row-check``, ``jvp-check`` and ``meta-check`` (``verify``).
``drawable`` refuses a draw whose array no process could hold.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ContractError

# the bytes a process can address (47 bits on x86-64 Linux): no array of more can be allocated
_ADDRESSABLE = 2**47


def _stream_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, name: str) -> np.random.Generator:
    """Return an independent generator for (seed, name), stable across runs."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), _stream_key(name)]))


def drawable(shape: tuple[int, ...], what: str) -> tuple[int, ...]:
    """``shape``, if an array of it with 8-byte entries fits in the address space; else a ContractError naming it.

    NumPy refuses a larger shape with a ValueError or a MemoryError that names no setting.
    """
    if math.prod(int(d) for d in shape) * 8 > _ADDRESSABLE:
        raise ContractError(f"{what} of shape {shape} would exceed the 128 TiB a process can address")
    return shape
