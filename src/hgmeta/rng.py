"""Named random streams derived from a single 64-bit master seed.

Every source of randomness in a run pulls from one of a fixed set of named
streams so that individual components are reproducible in isolation.
Stream names in use: ``init-w``, ``init-a``, ``init-mwn`` and ``batch``
(training); ``synth-labels``, ``synth-edges``, ``synth-features``,
``synth-bias`` and ``synth-splits`` (the synthetic generator); ``toy``,
``row-check``, ``jvp-check`` and ``meta-check`` (``verify``).
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stream_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, name: str) -> np.random.Generator:
    """Return an independent generator for (seed, name), stable across runs."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**64 - 1), _stream_key(name)]))
