"""Splittable random streams for reproducible parallel simulation.

Every random draw in the workbench comes from a counter-based Philox
generator keyed by ``(master_seed, *path)``, where ``path`` is a tuple of
small integers naming the consumer (replication index, purpose, ...).
Streams with distinct paths are statistically independent, and a stream's
output depends only on its key, never on execution order. Running
replications serially or across processes therefore yields bit-identical
results.
"""

from __future__ import annotations

import numpy as np

# Reserved purpose indices within a replication's key space.
PURPOSE_ENV = 0
PURPOSE_POLICY = 1
PURPOSE_ORACLE = 2
PURPOSE_PARAMS = 3


def seed_sequence(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Deterministic SeedSequence for the stream named by ``path``."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent Philox generator for ``(master_seed, *path)``."""
    return np.random.Generator(np.random.Philox(seed_sequence(master_seed, *path)))


def whole_number(value, name: str) -> int:
    """``value`` as an int: a seed or a count may be a whole float, never a bool or a fraction."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer))
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)
