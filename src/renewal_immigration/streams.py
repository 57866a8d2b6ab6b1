"""Reproducible random-number streams.

Every stochastic operation in the package takes an explicit
``numpy.random.Generator``.  Each one the package derives comes from a key
``(seed, purpose tag, index)``: one tag per call site that derives streams
(below), and an index that tells apart the streams of one call site.  For
fdd blocks the index is the pair ``(sample, block)``, and the ``key`` of
:func:`~renewal_immigration.process.fdd_sample` comes before the tag.
Results are thus independent of execution order and reproducible
bit-for-bit from the key.
"""

import numpy as np

# Purpose tags, one per call site: in cli the ``--dump-window`` window, the
# two dri criteria (index: the kernel's position in scripts/run_dri_survey.py,
# 0 in cli) and the four point-process checks; in diagnostics the energy
# tests of converge (index: position in t_list); in process the stationary
# and the transient fdd blocks.  Tag 8 belonged to converge's retired Monte
# Carlo pre-check and stays reserved, so that no later tag, and no stream,
# changes.
DUMP_WINDOW, DRI_MEAN, DRI_PATH, INTENSITY, OVERSHOOT, SHIFT, LAPLACE = range(1, 8)
ENERGY, STATIONARY_BLOCK, TRANSIENT_BLOCK = range(9, 12)


def stream(seed, *key):
    """Return a fresh generator for ``seed`` and an integer key path.

    ``stream(seed)`` is the root stream; ``stream(seed, i)`` and
    ``stream(seed, i, j)`` are statistically independent children.  The
    seed is an integer >= 0, the key entries integers in ``[0, 2**32)``.
    The same path always yields the same stream, and different paths
    different streams.
    """
    if not all(0 <= k < 2**32 for k in key):
        raise ValueError(f"stream key entries must be integers in [0, 2**32), got {key}")
    # SeedSequence pads the seed's 32-bit words with zeros to its pool size
    # (in effect also without a key) and appends one word per key entry.
    # With a pool at least as wide as the seed, a path's entropy is its
    # padded seed, then its key, so no two paths share it.
    pool_size = max(4, -(-int(seed).bit_length() // 32))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key, pool_size=pool_size))
