"""Reproducible random-number streams.

Every stochastic operation in the package takes an explicit
``numpy.random.Generator``.  Replicated experiments derive one child stream
per replicate from a root seed so results are independent of execution
order and reproducible bit-for-bit from ``(seed, replicate_index)``.
"""

import numpy as np


def stream(seed, *key):
    """Return a fresh generator for ``seed`` and an optional integer key path.

    ``stream(seed)`` is the root stream; ``stream(seed, i)`` and
    ``stream(seed, i, j)`` are statistically independent children.  The same
    arguments always yield the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))

