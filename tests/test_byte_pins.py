"""Byte pins: fixed-seed fdd matrices and dri reports of every kernel kind.

Each fdd digest is the sha256 of ``fdd_sample(...).to_csv()`` followed by
the sorted-key JSON of its metadata, at 20 replicates, in both modes.  Each
dri digest is the sha256 of the sorted-key JSON of the mean and the path
reports' ``to_dict()``, at two shapes.  A refactor that keeps the
``(config, seed) -> bytes`` contract leaves every digest unchanged; a
change that moves any value by one ulp, reorders a random draw or alters a
serialized kernel config does not.  Birth-death draws depend on the
chunk sizes (``process.SUPERPOSE_BLOCK`` and the dri path chunks), so their
pins hold those too.
"""

import hashlib
import json

import pytest

from renewal_immigration import distributions as dist
from renewal_immigration import stats
from renewal_immigration.diagnostics import dri_mean_check, dri_path_check
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
    text = sample.to_csv() + json.dumps(sample.metadata(LAW, spec), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(name, mode)]


# dri reports at the converge pre-check's shape and at one whose mean grid
# is drawn in 60 chunks of paths: (k_max, grid_per_unit, n_mc).
DRI_SHAPES = {"precheck": (40, 4, 400), "chunked": (800, 8, 300)}
DRI_SEED = 23

DRI_DIGESTS = {
    ("DeterministicTable", "chunked"): "5d03141a7976ea2da7fcd0cf7c2dad0ddee550234ac150fe4307797ec471cab1",
    ("DeterministicTable", "precheck"): "ce771be37199e49f4bcf563f2fbefd33aa27cf42e59e6342e6469a3b1a8e3113",
    ("Indicator", "chunked"): "ea7fcb357a8edb23a2f1d89b87c31e4929fa2e022df9a31b4b229f4a6c783897",
    ("Indicator", "precheck"): "37d84ba1c4157eedf4f044c23e6877e6371b5cf39caeeee1046e804d471b9974",
    ("ScaledExpDecay", "chunked"): "b300b2da0460724f55e1576116daf634b960ebad870892081c0f74bdcd5ffc10",
    ("ScaledExpDecay", "precheck"): "9f26a70e418bc336b772ea37842f7e6b66eeaf1d5350da5036824dec0fe18e94",
    ("ScaledTable", "chunked"): "eb5ebd54cc7d9f46cd971eb38e663c5b897e51ffa2debd0af53d8dc15ae1e2a1",
    ("ScaledTable", "precheck"): "ea179cab5279bd3eeab20cbac6c0b7bbde3e42c44fccb11243539a292e65b263",
    ("BirthDeath", "chunked"): "864beaccac3cae0f70be0184a9393cc543b466b759055f584de0aac12e9483f1",
    ("BirthDeath", "precheck"): "5c1091a4ce73d8d1d867d854073cfbe8c9191be170bc6212ccc457c3a40e4ab3",
    ("SpikeTrain", "chunked"): "4241db67a7ed32ab4936df6e87db9bdaf4798c70d9d57842bd4fd9a577f5ea3b",
    ("SpikeTrain", "precheck"): "ad2a3facf6ad08bb8f4979e60e33a7df8a634a2dd884a52744f9243562b28e41",
}


@pytest.mark.parametrize("shape", sorted(DRI_SHAPES))
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_dri_bytes_are_pinned(spec, shape):
    k_max, grid_per_unit, n_mc = DRI_SHAPES[shape]
    mean = dri_mean_check(spec, k_max, grid_per_unit, n_mc, stream(DRI_SEED, 0))
    path = dri_path_check(spec, k_max, n_mc, stream(DRI_SEED, 1))
    text = json.dumps([mean.to_dict(), path.to_dict()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DRI_DIGESTS[(type(spec).__name__, shape)]


# Energy permutation tests on 149 distinct Poisson rows (of 6000) at 2999
# and 200 labellings, on 500 distinct continuous rows (numpy's "count"
# hypergeometric method, since k >= n), and on the Poisson rows with the
# distances streamed in 3-row blocks.
ENERGY_SHAPES = {"poisson-2999": 2999, "poisson-200": 200, "continuous": 199, "blocks": 200}
ENERGY_SEED = 31

ENERGY_DIGESTS = {
    "poisson-2999": "329e1edf96aade8a015f4695103dbd1ab3e2d93be7219c4ed3c636f36826b20c",
    "poisson-200": "853af71051c5e1a9366bf8523b1e13c21d2cd84f8cc8a02fd48c510d2904a6bb",
    "continuous": "89d8dbebf99e57439eb42276504dc6c40cf014f4bc6740cc47e4649e27f1c3f6",
    "blocks": "410fbdebd5793926e3341b4435ca9ba6a0e2522199b100895cbd3acf12628af0",
}


@pytest.mark.parametrize("shape", sorted(ENERGY_SHAPES))
def test_energy_bytes_are_pinned(shape, monkeypatch):
    if shape == "continuous":
        data = stream(ENERGY_SEED + 2)
        a, b = data.normal(size=(300, 3)), data.normal(size=(200, 3)) + 0.1
        rng = stream(ENERGY_SEED + 3)
    else:
        data = stream(ENERGY_SEED)
        a, b = data.poisson(1.0, size=(3000, 3)), data.poisson(1.0, size=(3000, 3))
        rng = stream(ENERGY_SEED + 1)
    if shape == "blocks":
        monkeypatch.setattr(stats, "ENERGY_BLOCK_ENTRIES", 3 * 149)
    result = stats.energy_distance(a, b, ENERGY_SHAPES[shape], rng)
    text = json.dumps(result.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ENERGY_DIGESTS[shape]
