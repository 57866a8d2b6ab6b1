"""Stream derivation: every key path gives its own stream."""

import hashlib
import sys

import numpy as np
import pytest

from renewal_immigration import cli, diagnostics, process
from renewal_immigration import streams as sm
from renewal_immigration.cli import main
from renewal_immigration.streams import stream

from test_config_cli import base_config, write_config


def state(rng):
    pcg = rng.bit_generator.state["state"]
    return pcg["state"], pcg["inc"]


def padded(seed, *key):
    """The generator ``SeedSequence(seed, spawn_key=key)``, with its default pool."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# (path a, path b): the same entropy for ``padded`` once SeedSequence pads it with zeros.
ALIASED = [
    # A five-word seed whose padding zeros and top word read as a narrow seed and its key.
    ((5 + 3 * 2**128,), (5, 3)),
    # A six-word seed whose top two words read as a two-entry key.
    ((2**96 + 5 + 3 * 2**128 + 4 * 2**160,), (2**96 + 5, 3, 4)),
    # A seed wider than the pool whose top word reads as a key entry.
    ((2**96 + 5 + 3 * 2**128,), (2**96 + 5, 3)),
]


@pytest.mark.parametrize("a, b", ALIASED)
def test_zero_padded_paths_get_distinct_streams(a, b):
    assert state(padded(*a)) == state(padded(*b))
    assert state(stream(*a)) != state(stream(*b))


def test_integer_seed_heads_the_path():
    # The seed is one integer; a caller's key goes into the path.
    with pytest.raises(TypeError):
        stream((7, 0), 3)
    # Seeds up to four words keep SeedSequence's own derivation.
    assert state(stream(12, 4, 5)) == state(padded(12, 4, 5))


def test_key_entries_must_fit_one_word():
    for key in (-1, 2**32):
        with pytest.raises(ValueError):
            stream(1, key)


# One run of each command; the fdd samples of simulate, stationary and the
# second converge time span several row blocks.
RUNS = {
    "simulate": ({"t": 200.0, "u_grid": [0.0, 1.0], "n_replicates": 400}, []),
    "stationary": ({"u_grid": [0.0, 1.0], "n_replicates": 2000}, ["--dump-window"]),
    "converge": ({"t_list": [1.0, 200.0], "u_grid": [0.0, 1.0], "n_replicates": 400, "n_permutations": 19}, []),
    "dri": ({"dri": {"k_max": 10, "grid_per_unit": 2, "n_mc": 20}}, []),
    "pointprocess": ({"pointprocess": {"n_windows": 100, "n_realizations": 100, "laplace": {"n_mc": 100}}}, []),
}
TAGS = {
    "simulate": {sm.TRANSIENT_BLOCK},
    "stationary": {sm.DUMP_WINDOW, sm.STATIONARY_BLOCK},
    "converge": {sm.STATIONARY_BLOCK, sm.TRANSIENT_BLOCK, sm.ENERGY},
    "dri": {sm.DRI_MEAN, sm.DRI_PATH},
    "pointprocess": {sm.INTENSITY, sm.OVERSHOOT, sm.SHIFT, sm.LAPLACE},
}
BLOCK_TAGS = {sm.STATIONARY_BLOCK, sm.TRANSIENT_BLOCK}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_one_run_derives_pairwise_distinct_streams(tmp_path, monkeypatch, command):
    derived = []

    def recording(seed, *key):
        rng = stream(seed, *key)
        derived.append(((seed, *key), state(rng)))
        return rng

    for module in (cli, diagnostics, process):
        monkeypatch.setattr(module, "stream", recording)
    fields, flags = RUNS[command]
    cfg = write_config(tmp_path, base_config(**fields))
    assert main([command, cfg, "--out-dir", str(tmp_path / "out"), *flags]) in (0, 2, 3)
    keys = [key for key, _ in derived]
    assert len(set(keys)) == len(keys) > 1
    assert len({s for _, s in derived}) == len(derived)
    # Every key is (seed, tag, index), the index a (sample, block) pair for fdd blocks.
    assert {key[0] for key in keys} == {7}
    assert {key[1] for key in keys} == TAGS[command]
    assert all(len(key) == (4 if key[1] in BLOCK_TAGS else 3) for key in keys)
    if command in ("simulate", "stationary"):
        assert sum(key[1] in BLOCK_TAGS for key in keys) >= 3


def test_numpy_random_import_leaves_a_loaded_hashlib_alone():
    # hashlib is loaded here (hypothesis and this module import it), so the
    # import must not hide _hashlib or drop hashlib and hmac: every module
    # stays, the same object, whether or not numpy.random was loaded yet.
    before = dict(sys.modules)
    sm._import_random()
    assert all(sys.modules.get(name) is module for name, module in before.items())
    assert sys.modules["hashlib"] is hashlib and "numpy.random" in sys.modules
