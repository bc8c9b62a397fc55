"""Deterministic, content-keyed random streams.

Every stochastic operation draws from a generator derived by hashing a
master seed together with string/int keys naming the work item (scan id,
transform index, view, ...). Streams are therefore independent of thread
count, call order, and platform, so ``augment`` and ``segment`` write the
same bytes for any thread count: ``--jobs``, or by default every CPU.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master_seed: int, *keys) -> int:
    """128-bit seed from a master seed and a sequence of hashable keys."""
    payload = repr((int(master_seed),) + tuple(keys)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:16], "little")


def derive_rng(master_seed: int, *keys) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, *keys))
