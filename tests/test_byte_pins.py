"""Byte pins: fixed-seed fdd matrices and dri reports of every kernel kind,
energy tests, and the files the CLI writes.

Each fdd digest is the sha256 of the ``matrix.csv`` the CLI renders for
``fdd_sample(...)`` followed by the sorted-key JSON of its
``metadata.json`` without the ``schema`` key, at 20 replicates, in both
modes.  Each
dri digest is the sha256 of the sorted-key JSON of the mean and the path
reports' fields (``asdict``, arrays as lists), at two shapes.  A refactor
that keeps the ``(config, seed) -> bytes`` contract leaves every digest
unchanged; a change that moves any value by one ulp, reorders a random draw or alters a
serialized kernel config does not.  Birth-death draws depend on the
chunk sizes (``process.SUPERPOSE_BLOCK`` and the dri path chunks), so their
pins hold those too.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from renewal_immigration import distributions as dist
from renewal_immigration import stats
from renewal_immigration.cli import _sample_files, main
from renewal_immigration.config import ExperimentConfig
from renewal_immigration.diagnostics import dri_mean_check, dri_path_check
from renewal_immigration.kernels import Indicator
from renewal_immigration.process import fdd_sample
from renewal_immigration.streams import stream

from test_kernels import ALL_SPECS

LAW = dist.Exponential(1.0)
U_GRID = [0.0, 0.5, 2.0]
N_REPLICATES = 20
SEED = 11
T = 5.0
# Spike trains' tail bound decays like 1/c, so 1e-6 is out of reach within
# the default window cap; every other kernel reaches it.
TOL = {"SpikeTrain": 1e-2}

DIGESTS = {
    ("DeterministicTable", "transient"): "26c193d32ef3e623f31dd22ca0a028761512dae30c567876bb201742fdd9b8f8",
    ("DeterministicTable", "stationary"): "e22a8332248c4abca5f94ac66e90de2cdcb17fa2537dda4ae546dcbf0f45a483",
    ("Indicator", "transient"): "e42bd94977872f3f15af85a171463cdb80c456be09f1332d1670cd43f9731fd4",
    ("Indicator", "stationary"): "86dba248ff45533080cc3adabc996bb6edba556365062715b22cf5bbba0dd839",
    ("ScaledExpDecay", "transient"): "4eb064d7b66c935adda8f332c384a520e2302c7f921ac9865443ff8b80321c98",
    ("ScaledExpDecay", "stationary"): "c7d8ba220f7e4aa613b96a35fba717fcd7c9a3d4421e8c9d35b9555be2db01e4",
    ("ScaledTable", "transient"): "bff54908c5710a21ff751c7680602d9c9ce9f3568cb7bcff84126b9af9a59868",
    ("ScaledTable", "stationary"): "a02016a0e02924c5d6e73792e3f380cc5d3e1f3a050c91b6c22f1b4e8feed74e",
    ("BirthDeath", "transient"): "71d1ff31d7b79422ff0704fdf2b2a7f8a20bcbe12b74a76b82ff8d6cfca79d47",
    ("BirthDeath", "stationary"): "905612bec040d4bb2cdc52c00a9f108db021b14663efac04ec7e7d7288d9811b",
    ("SpikeTrain", "transient"): "4a04867899490d39fd1af0e10c709507879882280d9c3d43dc4b2b4af39eb264",
    ("SpikeTrain", "stationary"): "8f615c4387a49e8c4dcafebabd54e9455a6191a62f44fad4c665906a6a89be09",
}


@pytest.mark.parametrize("mode", ["transient", "stationary"])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_fdd_bytes_are_pinned(spec, mode):
    name = type(spec).__name__
    sample = fdd_sample(
        LAW, spec, mode, U_GRID, N_REPLICATES, seed=SEED,
        t=T if mode == "transient" else None, tol=TOL.get(name, 1e-6),
    )
    run = {"t": T} if mode == "transient" else {"tol": TOL.get(name, 1e-6)}
    files = _sample_files(ExperimentConfig(LAW, spec, SEED, {}), sample, mode, **run)
    meta = json.loads(files["metadata.json"])
    del meta["schema"]
    text = files["matrix.csv"] + json.dumps(meta, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(name, mode)]


# fdd samples drawn under a key, as the acceptance tests draw theirs: the
# sha256 of the matrix bytes and the JSON of ``[c_used, truncation_bound]``.
# The transient run (t = 1000) makes blocks of 32, 32 and 16 rows, the
# stationary one (c = 22) blocks of 744, 744 and 112.
KEYED_RUNS = {"transient": (80, 1000.0), "stationary": (1600, None)}
KEYED_DIGESTS = {
    "transient": "3589b29134e46d29b3a5fc54ff9a14a56ece1626c6ebb86dc82c288e1ee39d0f",
    "stationary": "84aa36ecd07737641c1e1e71eb6f84f456d744d4963cf4d6d209c6f108997e26",
}


@pytest.mark.parametrize("mode", sorted(KEYED_RUNS))
def test_keyed_fdd_bytes_are_pinned(mode):
    n, t = KEYED_RUNS[mode]
    sample = fdd_sample(LAW, Indicator(LAW), mode, [0.0, 1.0], n, seed=313, key=(0, 0), t=t)
    text = sample.values.tobytes() + json.dumps([sample.c_used, sample.truncation_bound]).encode()
    assert hashlib.sha256(text).hexdigest() == KEYED_DIGESTS[mode]


# dri reports at the shape of converge's retired Monte Carlo pre-check and
# at one whose mean grid is drawn in 60 chunks of paths: (k_max,
# grid_per_unit, n_mc).
DRI_SHAPES = {"precheck": (40, 4, 400), "chunked": (800, 8, 300)}
DRI_SEED = 23

DRI_DIGESTS = {
    ("DeterministicTable", "chunked"): "8ba3aca152764d0c0829f9526cbc0ac159ce73984ace26384bd75eb88b6966ca",
    ("DeterministicTable", "precheck"): "951aa65e874e1e15bb9ece160b193dac88db9e75863242ecbc19bec48ef4103d",
    ("Indicator", "chunked"): "642993d2b1aae95131cafb6c79f64c8a3d615068671b5af463fb7f40428dabce",
    ("Indicator", "precheck"): "adddbf74577bacb2851478f50c4a4bbaf3b9f083ee74b7cd19caa4654f0c2e4b",
    ("ScaledExpDecay", "chunked"): "1a0ba88cbb86b419259945661cfe5bee5bfb473bcbe03b0ab8c755deae4df0a7",
    ("ScaledExpDecay", "precheck"): "bbdc5c7d626a91a7689058ba3c644df772c2f92470a4734bf92df21a66338195",
    ("ScaledTable", "chunked"): "56c46f3205809e0834cec0169f44a63308fb99a474f9392d9910fa87690ebdcf",
    ("ScaledTable", "precheck"): "ef361012bbd91f5532db7c0dcf6f5f44edc41fd06220071cb9d891a33cf7ffcf",
    ("BirthDeath", "chunked"): "b896431a8d3cfce4fd965f466795104783e2a5034d710d1f305711f954ed511e",
    ("BirthDeath", "precheck"): "bb270e8bb6dc87749ee73398030bd1505e653d2189ae1be71cbc7f21aaf48b38",
    ("SpikeTrain", "chunked"): "b96f727ec80ac548e83ab1a033edc62c5c87d1b808c011cf167adc1cfc8b93f9",
    ("SpikeTrain", "precheck"): "5889c6e5973761dc4d7318e293c03423471410915e7bb35f746db0fb394efee4",
}


@pytest.mark.parametrize("shape", sorted(DRI_SHAPES))
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_dri_bytes_are_pinned(spec, shape):
    k_max, grid_per_unit, n_mc = DRI_SHAPES[shape]
    mean = dri_mean_check(spec, k_max, grid_per_unit, n_mc, stream(DRI_SEED, 0))
    path = dri_path_check(spec, k_max, n_mc, stream(DRI_SEED, 1))
    text = json.dumps([asdict(mean), asdict(path)], sort_keys=True, default=np.ndarray.tolist)
    assert hashlib.sha256(text.encode()).hexdigest() == DRI_DIGESTS[(type(spec).__name__, shape)]


# Energy permutation tests on 149 distinct Poisson rows (of 6000) at 2999
# and 200 labellings, on 500 distinct continuous rows (numpy's "count"
# hypergeometric method, since k >= n), on the Poisson rows with the
# distances streamed in 3-row blocks, and on 250 distinct rows with the
# second sample shifted by 0.02.  The shifted test runs all 200 labellings
# (one exceedance, p = 2/201); every other one stops early (the Poisson
# tests at their 16th labelling, so both counts of labellings pin the same
# bytes).  Two more run every labelling over one resident distance block:
# the shifted rows at 999 labellings (three exceedances, p = 4/1000), and
# 200 distinct continuous rows of 100 + 100, drawn by "count", with the
# second sample shifted by 0.25 (one exceedance, p = 2/1000).
ENERGY_SHAPES = {
    "poisson-2999": 2999, "poisson-200": 200, "continuous": 199, "blocks": 200, "shifted": 200, "shifted-999": 999,
    "count-tiles": 999,
}
ENERGY_SEED = 31

ENERGY_DIGESTS = {
    "poisson-2999": "b7eab7f4f3a94d8cba49b2f0fb4a5a969be73101feb27aa490b92fc554441f0e",
    "poisson-200": "b7eab7f4f3a94d8cba49b2f0fb4a5a969be73101feb27aa490b92fc554441f0e",
    "continuous": "d6bf22fc3faef1b70dd6330ab2998bcab35ea1821825cbed38e5e2d503f1a57d",
    "blocks": "547dd9ba496604e47f06cf3680b3cc3181730aac96047ea57a7e39f1bbc99a66",
    "shifted": "ffc9321c87e666409424368e85d4e74959ba296d01baca82642186c9cb70448f",
    "shifted-999": "2e80f5e21e3651a2dbc3fe4b33c6d2b961b9044737ed0e856746c0fbd7c11e88",
    "count-tiles": "94f47972c41aae86e4bdacb230897134c5873736dcebc872e075741704250c79",
}


@pytest.mark.parametrize("shape", sorted(ENERGY_SHAPES))
def test_energy_bytes_are_pinned(shape, monkeypatch):
    if shape == "continuous":
        data = stream(ENERGY_SEED + 2)
        a, b = data.normal(size=(300, 3)), data.normal(size=(200, 3)) + 0.1
        rng = stream(ENERGY_SEED + 3)
    elif shape == "count-tiles":
        data = stream(ENERGY_SEED + 2)
        a, b = data.normal(size=(100, 3)), data.normal(size=(100, 3)) + 0.25
        rng = stream(ENERGY_SEED + 3)
    else:
        data = stream(ENERGY_SEED)
        a, b = data.poisson(1.0, size=(3000, 3)), data.poisson(1.0, size=(3000, 3))
        rng = stream(ENERGY_SEED + 1)
    if shape.startswith("shifted"):
        b = b + 0.02
    if shape == "blocks":
        monkeypatch.setattr(stats, "ENERGY_BLOCK_ENTRIES", 3 * 149)
    result = stats.energy_distance(a, b, ENERGY_SHAPES[shape], rng)
    text = json.dumps(asdict(result), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ENERGY_DIGESTS[shape]


# What the CLI writes: one small run per case, the sha256 of each JSON
# and CSV file it writes, and its exit code.  Together they cover every
# report type the CLI serializes, a lattice warning from converge and from
# pointprocess, a truncation failure that turns every converge report into
# a ``hypothesis_violation``, and non-finite floats written as ``null``.
# ``simulate`` pins a transient ``matrix.csv`` and ``metadata.json`` over
# three row blocks (32, 32 and 16 rows at t = 1000);
# ``stationary-dump-window`` pins ``window.csv`` for a gamma law with many
# tied points; ``pointprocess-non-dyadic`` uses a test function whose
# values do not add exactly, so the Laplace fields show the order in which
# each row's terms are summed (with the default ``h`` every sum is a small
# integer); ``pointprocess-bursty`` runs all four checks on Gamma(0.02, 50),
# whose rows hold many tied points and need many top-up rounds, at a
# horizon past the overshoot warning's 510 means.  The transient runs
# keep only the epochs that can reach the grid, so these pin that pruning
# at long horizons over several row blocks: ``simulate-bounded-200`` and
# ``-300`` (Uniform(0, 2) pulses, blocks of 163 and 108 rows) and
# ``converge-table`` (a bounded table at t = 200, blocks of 163 rows).
# ``converge-bench`` is the benchmark's M/G/inf converge at bench size
# (3000 replicates, 2999 labellings): its energy tests have about 150
# distinct rows, so one distance block holds each, and stop at labellings
# 334 and 28 (p = 10/334 and 10/28), the first well past its first tile.
# ``pointprocess-two-sided`` reads intensity intervals on both sides of 0
# and a negative shift, so the windows it keeps straddle the origin.
# ``stationary-far-lognormal`` and ``dri-far-lognormal`` take LogNormal(0,
# 0.1) pulses' tail mean past z = (ln x) / 0.1 = 30, where its far form
# takes over: the stationary run stops at c = 25 (z = 32.2) with a bound of
# 9.86e-229, and the dri remainder is read at 21 (z = 30.4).
_EXPONENTIAL = {"family": "exponential", "rate": 1.0}
_INDICATOR = {"kind": "indicator", "eta": _EXPONENTIAL}
_PARETO_08_INDICATOR = {"kind": "indicator", "eta": {"family": "pareto", "alpha": 0.8, "xm": 1.0}}
_SMALL_POINTPROCESS = {"n_windows": 200, "n_realizations": 200, "laplace": {"n_mc": 200}}
_NON_DYADIC_H = {"kind": "deterministic_table", "breakpoints": [0.0, 1.0, 2.0, 3.0, 5.0], "values": [0.1, 0.3, 0.2, 0.7, 0.0]}
_NARROW_LOGNORMAL_INDICATOR = {"kind": "indicator", "eta": {"family": "lognormal", "mu": 0.0, "sigma": 0.1}}
_UNIFORM_PULSES = {"kind": "indicator", "eta": {"family": "uniform", "lo": 0.0, "hi": 2.0}}
_BOUNDED_TABLE = {"kind": "deterministic_table", "breakpoints": [0, 1, 2.5], "values": [2, -1.0, 0]}
CLI_RUNS = {
    "converge": ("converge", {"t_list": [1.0, 5.0], "u_grid": [0.0, 1.0], "n_replicates": 200,
                              "n_permutations": 19}),
    "converge-lattice": ("converge", {"law": {"family": "point_mass", "value": 1.0}, "t_list": [2.5],
                                      "u_grid": [0.0], "n_replicates": 100, "n_permutations": 19}),
    "converge-truncation": ("converge", {"kernel": _PARETO_08_INDICATOR, "t_list": [1.0, 5.0],
                                         "u_grid": [0.0], "n_replicates": 20}),
    "pointprocess": ("pointprocess", {"pointprocess": _SMALL_POINTPROCESS}),
    "pointprocess-bursty": ("pointprocess", {"law": {"family": "gamma", "shape": 0.02, "scale": 50.0},
                                             "pointprocess": _SMALL_POINTPROCESS | {"horizon": 600.0}}),
    "pointprocess-lattice": ("pointprocess", {"law": {"family": "point_mass", "value": 1.0},
                                              "pointprocess": _SMALL_POINTPROCESS | {"horizon": 10.5}}),
    "pointprocess-non-dyadic": ("pointprocess", {"law": {"family": "gamma", "shape": 2.0, "scale": 0.5},
                                                 "pointprocess": _SMALL_POINTPROCESS | {"laplace": {
                                                     "n_mc": 200, "h": _NON_DYADIC_H}}}),
    "pointprocess-two-sided": ("pointprocess", {"pointprocess": _SMALL_POINTPROCESS | {
        "intervals": [[0.0, 5.0], [-2.0, 1.0]], "shift": -1.5}}),
    "simulate": ("simulate", {"t": 1000.0, "u_grid": [0.0, 1.0], "n_replicates": 80}),
    "simulate-bounded-200": ("simulate", {"kernel": _UNIFORM_PULSES, "t": 200.0, "u_grid": [0.0, 1.0],
                                          "n_replicates": 600}),
    "simulate-bounded-300": ("simulate", {"kernel": _UNIFORM_PULSES, "t": 300.0, "u_grid": [0.0, 1.0],
                                          "n_replicates": 600}),
    "converge-bench": ("converge", {"seed": 8, "t_list": [1.0, 30.0], "u_grid": [0.0, 1.0, 5.0], "alpha": 0.01,
                                    "n_replicates": 3000, "n_permutations": 2999}),
    "converge-table": ("converge", {"kernel": _BOUNDED_TABLE, "t_list": [1.0, 200.0], "u_grid": [0.0, 1.0],
                                    "n_replicates": 400, "n_permutations": 19}),
    "stationary-dump-window": ("stationary", {"law": {"family": "gamma", "shape": 0.1, "scale": 10.0},
                                              "u_grid": [0.0, 1.0], "n_replicates": 20, "c": 40.0}),
    "stationary-far-lognormal": ("stationary", {"seed": 11, "kernel": _NARROW_LOGNORMAL_INDICATOR,
                                                "u_grid": [0.0, 15.0], "n_replicates": 200}),
    "dri": ("dri", {"dri": {"k_max": 40, "grid_per_unit": 2, "n_mc": 50}}),
    "dri-far-lognormal": ("dri", {"seed": 11, "kernel": _NARROW_LOGNORMAL_INDICATOR, "dri": {"k_max": 22}}),
    "dri-pareto": ("dri", {"kernel": _PARETO_08_INDICATOR, "dri": {"k_max": 40, "grid_per_unit": 2, "n_mc": 100}}),
}

CLI_DIGESTS = {
    "converge": (
        0,
        {
            "report_000.json": "5347bf34718ae7c5f2bb054c70c8e7288a1587e6a72af4cb1c9fbd52dc569b47",
            "report_001.json": "d559edd7cf6ff2db2e3bf1ad8e78ba175c86dbb0c70c6ee00bd36c62d28cf5e7",
            "summary.csv": "de6ee499679262f1b24356540f1c6389597584dcfef0e372496cbefc473bdc8d",
        },
    ),
    "converge-lattice": (
        3,
        {
            "report_000.json": "82388eb70a5fd9636ef44105004a2f23a6df7a97ae555310aa180e2d6be7a257",
            "summary.csv": "32a15fec6c9623ccf321689b28efd7809b7c07d228a7a28e863fab3de39fa2d5",
        },
    ),
    "converge-truncation": (
        3,
        {
            "report_000.json": "72832acb34b89b733111675fbc2d6c01f3c13419d3ce4f5ee176348a1fe8d04d",
            "report_001.json": "7f4015a6502289bdf5cb816249c1f66ba81b35fd4a9c078016f93b5abec54d37",
            "summary.csv": "921c2fec67e8125e1b9239bef3db49195ef033d047861afb1ea1830b48406eb8",
        },
    ),
    "converge-bench": (
        0,
        {
            "report_000.json": "312bef198b6fc3dd9cf2e8fd66fa7da6baeee33fddfaa6b92c223ae43a1f5ec6",
            "report_001.json": "0c6e3073f3ef105c9f59490f239dbf25a5e3a88718a9293ccf477a4cc3845725",
            "summary.csv": "509bdcd7d57fec611493795b2ca428dc7541c3862f7932c22f4d99b5e21cb512",
        },
    ),
    "converge-table": (
        0,
        {
            "report_000.json": "dd8b46e117d9016799be0f097a92fbdadd9c1640b1253e2ea6be4696b694f062",
            "report_001.json": "29d15c7e5b35ca399c3e4d55c5d9c7d42c62371cc0d2cd896d580c48c7471c8c",
            "summary.csv": "3b8afb3c42a01ade02e587174d9777bb4d8a71fcc7aa43e02f881233799a8362",
        },
    ),
    "dri": (
        0,
        {
            "dri_mean.json": "91de418d68e177ffc697c38eccf66594573ff3d6f43b04b1f816a0b15a77a104",
            "dri_path.json": "898fc5b101e9fb462cecdfaf11102c775d4907237c3f2a894e74893c9d23f702",
            "dri_summary.json": "0a9688983795373537f68e4648a683c73bae6548f98ffc4d09efaaefcb89016e",
        },
    ),
    "dri-far-lognormal": (
        0,
        {
            "dri_mean.json": "cd65c4e578cdcb13264df2b04fa74180bccd9b44cad88e155dfbc783af0c71e1",
            "dri_path.json": "ebf477f59dd48bec7ae1aef1de68a590599e6edc8eb8d26fb9c3dcb60471a611",
            "dri_summary.json": "0a9688983795373537f68e4648a683c73bae6548f98ffc4d09efaaefcb89016e",
        },
    ),
    "dri-pareto": (
        2,
        {
            "dri_mean.json": "bf0765d3e762aa3f8fa984c1ddf4144aaf15345d9304b109893e45e35a7b6dfb",
            "dri_path.json": "b4ac43ca9557e6995fb6030b3cb644c312e29d836b5a0b8cfb4b8f5e59c05d65",
            "dri_summary.json": "26c94cfac83601b5b45403c0ac604c664d6e5b0f8e19cf4ed075d84d2aba4b3a",
        },
    ),
    "pointprocess": (
        0,
        {
            "pointprocess.json": "24836c65562478125eaa28bf87372f9e47ef3357fb95a81a8e2a058801ad3f8d",
        },
    ),
    "pointprocess-bursty": (
        0,
        {
            "pointprocess.json": "121c4cc3b32cf81d3a0922a5d235b763a7323fe3bc4620f39c6e3c69cc26377a",
        },
    ),
    "pointprocess-lattice": (
        3,
        {
            "pointprocess.json": "2a0e926efb07eb994dc90b9710978e0a3e726a80d6b7b89d20d9b56a7dccdac3",
        },
    ),
    "pointprocess-non-dyadic": (
        0,
        {
            "pointprocess.json": "b1804074d9e2e747a6a2c2f976ee79430c6cc2ff7d179b13e884fbd98ba9b247",
        },
    ),
    "pointprocess-two-sided": (
        0,
        {
            "pointprocess.json": "239254f324713b4378e07a973b5bbfba05223598c620b5024f258b96aa583152",
        },
    ),
    "simulate-bounded-200": (
        0,
        {
            "matrix.csv": "ca7f2f17af214f974cba25acf0b7513fa28d39ef73630bf09bd03f92bb8a002e",
            "metadata.json": "a67425b310c05858dce0e1c23491130a91a8bb49f42ac60ad5a65e2a5ef3d7a4",
        },
    ),
    "simulate-bounded-300": (
        0,
        {
            "matrix.csv": "12cbd39b2211690b00557788340729be8ad64bed8736123b20a30b7ee5a91f6e",
            "metadata.json": "7cd466c1ebeb1d834afb46eeaf27200f3c8c787555842dad2ff42b02218ded38",
        },
    ),
    "simulate": (
        0,
        {
            "matrix.csv": "fc88ef6d1490db854ddf755bd345b887410be1ae6151ca543930df8ad1e8b426",
            "metadata.json": "f00dd2146571d5947bee53919b3cd7de6a930b9318f8836050d9a6a96bc16853",
        },
    ),
    "stationary-far-lognormal": (
        0,
        {
            "matrix.csv": "21b559e5e1fd3765d38f95301f015729450961c68197a16855e3bb6c71c4e684",
            "metadata.json": "d90534ba35acbee6ab0d18d4c1899ad5717115e9e77bb38fe4d7e6389f1d2663",
        },
    ),
    "stationary-dump-window": (
        0,
        {
            "matrix.csv": "d86cc500490265935888ce738b73e29351ad1b440dfa87a646d5d7c37e4f344f",
            "metadata.json": "c7e82a0118ac417e21a5a17c513a7406cf244d7416b08f4447f4571e79449e2c",
            "window.csv": "a9b90e626d9ca3d00d9e03555038c57603f7d19b521f8243945d4fab5a5f27ee",
        },
    ),
}


CLI_FLAGS = {"stationary-dump-window": ["--dump-window"]}


@pytest.mark.parametrize("case", sorted(CLI_RUNS))
def test_cli_output_bytes_are_pinned(case, tmp_path, capsys):
    command, fields = CLI_RUNS[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema": 1, "seed": 7, "law": _EXPONENTIAL, "kernel": _INDICATOR} | fields))
    out = tmp_path / "out"
    code = main([command, str(cfg), "--out-dir", str(out)] + CLI_FLAGS.get(case, []))
    assert "Traceback" not in capsys.readouterr().err
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}
    assert (code, digests) == CLI_DIGESTS[case]


# Every case above, and ``stationary --dump-window`` runs that pass, that
# fail truncation, and that end in a birth-death path never absorbed within
# its jump budget (births 1000 times faster than deaths), the last in
# ``converge`` too.  Each exits with its code and no traceback.
_NON_ABSORBED = {"kind": "birth_death", "initial": 1, "birth_rates": [1000.0, 0.0], "death_rates": [0.01, 0.01],
                 "state_cap": 2, "max_jumps": 50}
SUMMARY_RUNS = CLI_RUNS | {
    "stationary": ("stationary", {"u_grid": [0.0, 1.0], "n_replicates": 20}),
    "stationary-truncation": ("stationary", {"kernel": _PARETO_08_INDICATOR, "u_grid": [0.0], "n_replicates": 20}),
    "stationary-non-absorbed": ("stationary", {"kernel": _NON_ABSORBED, "u_grid": [0.0], "n_replicates": 20,
                                               "tol": 1e30}),
    "converge-non-absorbed": ("converge", {"kernel": _NON_ABSORBED, "t_list": [1.0], "u_grid": [0.0],
                                           "n_replicates": 20, "tol": 1e30}),
}
SUMMARY_ERRORS = {"stationary-truncation": "truncation", "stationary-non-absorbed": "non_absorbed_path"}
SUMMARY_EXITS = {case: pinned[0] for case, pinned in CLI_DIGESTS.items()} | {
    "stationary": 0, "stationary-truncation": 2, "stationary-non-absorbed": 3,
    "converge-non-absorbed": 3,
}


@pytest.mark.parametrize("case", sorted(SUMMARY_RUNS))
def test_summary_outputs_are_the_files_on_disk(case, tmp_path, capsys):
    command, fields = SUMMARY_RUNS[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema": 1, "seed": 7, "law": _EXPONENTIAL, "kernel": _INDICATOR} | fields))
    out = tmp_path / "out"
    flags = ["--dump-window"] if command == "stationary" else []
    code = main([command, str(cfg), "--out-dir", str(out)] + flags)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    summary = json.loads(captured.out)
    assert (summary["exit"], summary.get("error")) == (SUMMARY_EXITS[case], SUMMARY_ERRORS.get(case))
    assert code == SUMMARY_EXITS[case]
    assert sorted(summary["outputs"]) == sorted(path.name for path in out.iterdir())


# The ``metadata.json`` of a small ``simulate`` run for every law family as
# the interarrival law (Pareto as an indicator's mark) and for every kernel
# kind, with an Exp(1) law.  It holds the law and the kernel as the CLI
# writes them back, so these pins fix the config form of each: integral
# JSON numbers in float fields come back as floats, integer fields as ints,
# atoms as [value, probability] lists, and a nested table as its own config.
_TABLE = {"kind": "deterministic_table", "breakpoints": [0, 1, 2.5], "values": [2, -1.0, 0]}
METADATA_RUNS = {
    "exponential": {"law": {"family": "exponential", "rate": 2}},
    "gamma": {"law": {"family": "gamma", "shape": 2.0, "scale": 0.5}},
    "uniform": {"law": {"family": "uniform", "lo": 0.5, "hi": 1.5}},
    "lognormal": {"law": {"family": "lognormal", "mu": -0.25, "sigma": 0.5}},
    "point_mass": {"law": {"family": "point_mass", "value": 1}},
    "finite_discrete": {"law": {"family": "finite_discrete", "atoms": [[0.5, 0.25], [1, 0.75]]}},
    "pareto": {"kernel": {"kind": "indicator", "eta": {"family": "pareto", "alpha": 1.5, "xm": 0.5}}},
    "deterministic_table": {"kernel": _TABLE},
    "indicator": {"kernel": {"kind": "indicator", "eta": {"family": "uniform", "lo": 0, "hi": 2}}},
    "scaled_exp_decay": {"kernel": {"kind": "scaled_exp_decay", "eta": {"family": "uniform", "lo": -1, "hi": 2},
                                    "decay": 0.7}},
    "scaled_table": {"kernel": {"kind": "scaled_table", "eta": {"family": "exponential", "rate": 2.0},
                                "table": _TABLE}},
    "birth_death": {"kernel": {"kind": "birth_death", "initial": 2, "birth_rates": [0.5, 0.5, 0],
                               "death_rates": [1, 1.0, 1], "state_cap": 3, "max_jumps": 1000}},
    "spike_train": {"kernel": {"kind": "spike_train"}},
}
METADATA_DIGESTS = {
    "birth_death": "3423d91bede544c484fad3a1dcf6089c81177d23bd2afc3f71b09ffedf62b418",
    "deterministic_table": "6cc0cd336e5bc18fcd57625da40f93218041cf7e8f63df5ef6e31c2c6bd244f4",
    "exponential": "1503c2d0e03ce28e439c347a61f8a42acd1cd9b23cf67fe44e1ef2f93051dd82",
    "finite_discrete": "42f6963a98569d93c55da522e25f45af3465be6afb3636056642fb2d2a33eb2f",
    "gamma": "ede595f97f7a10f8438e58faa94997f89adf5f3a7e8b4af343e22304a839ae9c",
    "indicator": "147152d9a68cf38819fc9c0090b09edab37dfb70d0e16aa15ee9803c9d05c857",
    "lognormal": "1c4194e067f871bd5f5b20239c4de2b11b5a65fd38e4bf52eb3b0c9048e2a059",
    "pareto": "73abbb7dfbedd500f9b82dbb35ba79e8856ce4acdd0cb556c969f52b7ab33131",
    "point_mass": "3f408bdab35d7735285d9504addfec2eb6e37f6c8a9d5599de9ccfebc7e8e3a0",
    "scaled_exp_decay": "ce16552f17ecb02d83ee9e4cefe84b503a1a735277a325bb9774bc1889455ec1",
    "scaled_table": "c228cef0c61963d1a4b29755bedc1fa5c14ada1f65b3a0382c6cac708d59ce53",
    "spike_train": "755a8031af52078edb2ebeb2768498de3e6d03fc0734e08207b0bf82383f3f56",
    "uniform": "8d9f54f733647e632c2895e989150d71ad37d777eaf44d033781b277167edecd",
}


@pytest.mark.parametrize("case", sorted(METADATA_RUNS))
def test_simulate_metadata_is_pinned(case, tmp_path, capsys):
    run = {"schema": 1, "seed": 5, "law": _EXPONENTIAL, "kernel": _INDICATOR, "t": 3.0, "u_grid": [0.0, 1.0],
           "n_replicates": 5}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(run | METADATA_RUNS[case]))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert hashlib.sha256((tmp_path / "out" / "metadata.json").read_bytes()).hexdigest() == METADATA_DIGESTS[case]
