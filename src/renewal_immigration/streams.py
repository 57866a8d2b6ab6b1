"""Reproducible random-number streams.

Every stochastic operation in the package takes an explicit
``numpy.random.Generator``.  Each one the package derives comes from a key
``(seed, purpose tag, index)``: one tag per call site that derives streams
(below), and an index that tells apart the streams of one call site.  For
fdd blocks the index is the pair ``(sample, block)``, and the ``key`` of
:func:`~renewal_immigration.process.fdd_sample` comes before the tag.
Results are thus independent of execution order and reproducible
bit-for-bit from the key.

``numpy.random`` is imported by the first :func:`stream`, not with the
package, and without OpenSSL.  Its ``bit_generator`` imports ``secrets``
(for unseeded generators, which the package never makes), and through
``hmac`` that loads ``_hashlib``, OpenSSL's libcrypto: about 3.5 MB of the
process, more than numpy's own random modules.  With ``_hashlib`` hidden,
``hashlib`` and ``hmac`` use CPython's builtin digests, the stdlib's
supported path without OpenSSL.  Afterwards both are dropped from
``sys.modules``, so a later ``import hashlib`` anywhere in the process
loads the OpenSSL-backed module as usual.  The process keeps ``secrets``,
whose ``compare_digest`` is then ``_operator._compare_digest``, and numpy
keeps ``secrets.randbits``, so an unseeded ``SeedSequence()`` still draws
OS entropy.  A seeded ``SeedSequence`` reads neither, so no stream
changes.  If any of those modules is already loaded, or a builtin digest
that ``hashlib`` would need is missing (it would log an error for it),
``numpy.random`` is imported as it stands.
"""

import importlib.util
import sys

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


def _import_random():
    """Import ``numpy.random``, with ``_hashlib`` hidden if nothing has loaded it or its users yet."""
    # The builtin digest modules the running hashlib falls back to.
    builtin = ("_md5", "_sha1", "_sha2", "_blake2", "_sha3")
    if sys.version_info < (3, 12):
        builtin = ("_md5", "_sha1", "_sha256", "_sha512", "_blake2", "_sha3")
    masked = not any(name in sys.modules for name in ("_hashlib", "hashlib", "hmac", "secrets")) and all(
        importlib.util.find_spec(name) for name in builtin
    )
    if masked:
        sys.modules["_hashlib"] = None
    try:
        import numpy.random  # noqa: F401
    finally:
        if masked:
            for name in ("_hashlib", "hashlib", "hmac"):
                sys.modules.pop(name, None)


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
    if "numpy.random" not in sys.modules:
        _import_random()
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key, pool_size=pool_size))
