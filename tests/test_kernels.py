import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_immigration import distributions as dist
from renewal_immigration import kernels as kn
from renewal_immigration.errors import KernelError, NonAbsorbedPathError
from renewal_immigration.streams import stream

TABLE_1_ON_01 = kn.DeterministicTable((0.0, 1.0), (1.0, 0.0))
TABLE_STEPS = kn.DeterministicTable((0.0, 1.0, 2.5, 4.0), (2.0, -1.0, 0.5, 0.0))

ALL_SPECS = [
    TABLE_STEPS,
    kn.Indicator(dist.Exponential(1.0)),
    kn.ScaledExpDecay(dist.Uniform(-1.0, 2.0), 0.7),
    kn.ScaledTable(dist.Exponential(2.0), TABLE_STEPS),
    kn.BirthDeath(initial=2, birth_rates=(0.5, 0.5, 0.0), death_rates=(1.0, 1.0, 1.0), state_cap=3),
    kn.SpikeTrain(),
]


def test_table_eval_semantics():
    path = kn.sample_path(TABLE_STEPS, stream(0), size=1)
    ts = [-0.001, 0.0, 0.999, 1.0, 3.0, 4.0, 100.0]
    # Right-continuous at the jumps.
    assert path.values(ts).tolist() == [[0.0, 2.0, 2.0, -1.0, 0.5, 0.0, 0.0]]


def test_table_validation():
    with pytest.raises(KernelError):
        kn.DeterministicTable((1.0, 0.5), (1.0, 2.0))
    with pytest.raises(KernelError):
        kn.DeterministicTable((-1.0, 0.5), (1.0, 2.0))
    with pytest.raises(KernelError):
        kn.DeterministicTable((0.0, 1.0), (1.0,))


def test_indicator_paths():
    spec = kn.Indicator(dist.PointMass(3.0))
    path = kn.sample_path(spec, stream(1), size=1)
    assert path.values([2.999, 3.0, -0.001]).tolist() == [[1.0, 0.0, 0.0]]  # support is [0, eta)
    path25 = kn.IndicatorPath(np.array([[2.5]]))
    assert path25.values([2.5]).tolist() == [[0.0]]
    assert path25.sup_abs(2.0, 3.0).tolist() == [1.0]
    assert path25.sup_abs(2.5, 3.0).tolist() == [0.0]
    vals = path25.values(np.linspace(-1.0, 4.0, 100))
    assert set(np.unique(vals)) <= {0.0, 1.0}


def test_scaled_exp_decay_eval():
    path = kn.ExpDecayPath(np.array([[2.0]]), 1.0)
    assert path.values([math.log(2.0)])[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert path.values([-1e-9]).tolist() == [[0.0]]
    assert path.sup_abs(0.0, 1.0).tolist() == [2.0]
    assert path.sup_abs(-5.0, -0.001).tolist() == [0.0]


def test_birth_death_pure_death_absorption():
    spec = kn.BirthDeath(initial=1, birth_rates=(0.0,), death_rates=(1.0,), state_cap=1)
    taus = np.array([path.jump_times[-1] for path in kn.sample_path(spec, stream(3), size=10**5).paths])
    assert abs(taus.mean() - 1.0) < 0.013
    path = kn.sample_path(spec, stream(4), size=1)
    tau = path.paths[0].jump_times[-1]
    assert path.values([tau, tau + 5.0, tau - 1e-9]).tolist() == [[0.0, 0.0, 1.0]]


def test_birth_death_states_are_nonnegative_integers():
    spec = kn.BirthDeath(initial=3, birth_rates=(1.0, 1.0, 1.0, 1.0, 0.0),
                         death_rates=(2.0, 2.0, 2.0, 2.0, 2.0), state_cap=5)
    for path in kn.sample_path(spec, stream(5), size=50).paths:
        assert np.all(path.states >= 0)
        assert np.all(path.states == path.states.astype(int))
        assert path.states[-1] == 0
        ts = np.linspace(-1.0, float(path.jump_times[-1]) + 2.0, 200)
        vals = path.values(ts)
        assert np.all(vals[ts < 0] == 0.0)
        assert np.all(vals[ts >= path.jump_times[-1]] == 0.0)


def test_birth_death_budget_error_carries_partial_path():
    spec = kn.BirthDeath(initial=1, birth_rates=(100.0, 100.0), death_rates=(0.1, 0.1),
                         state_cap=2, max_jumps=50)
    with pytest.raises(NonAbsorbedPathError) as info:
        kn.sample_path(spec, stream(6), size=1)
    partial = info.value.partial_path
    assert len(partial.jump_times) == 50
    assert not partial.absorbed


def test_birth_death_validation():
    with pytest.raises(KernelError):
        kn.BirthDeath(initial=0, birth_rates=(1.0,), death_rates=(1.0,), state_cap=1)
    with pytest.raises(KernelError):
        kn.BirthDeath(initial=1, birth_rates=(1.0,), death_rates=(0.0,), state_cap=1)
    with pytest.raises(KernelError):
        kn.BirthDeath(initial=1, birth_rates=(1.0, 1.0), death_rates=(1.0,), state_cap=1)


def test_birth_death_tail_integral_matches_pure_death():
    # Single state with death rate 1: tau ~ Exp(1), so the integral is e^-L.
    spec = kn.BirthDeath(initial=1, birth_rates=(0.0,), death_rates=(1.0,), state_cap=1)
    for lo in [0.0, 1.0, 3.0]:
        assert kn.birth_death_tail_integral(spec, lo) == pytest.approx(math.exp(-lo), rel=1e-9)


def test_birth_death_tail_integral_matches_monte_carlo():
    spec = kn.BirthDeath(initial=2, birth_rates=(0.6, 0.6, 0.0), death_rates=(1.2, 1.2, 1.2),
                         state_cap=3)
    taus = np.array([path.jump_times[-1] for path in kn.sample_path(spec, stream(7), size=4 * 10**4).paths])
    # tail_integral(0) = E[tau]; tail_integral(L) = E[(tau - L)+].
    for lo in [0.0, 1.0]:
        mc = np.maximum(taus - lo, 0.0)
        se = mc.std(ddof=1) / math.sqrt(len(mc))
        assert kn.birth_death_tail_integral(spec, lo) == pytest.approx(mc.mean(), abs=4.0 * se)


def test_spike_train_geometry():
    path = kn.SpikePath(np.array([[0.5]]))
    # Pulse in [k + 0.5 k^2/(k^2+1), k + 0.5); none before k=1.
    lo1 = 1.0 + 0.5 * 1.0 / 2.0
    assert path.values([0.4, lo1, lo1 - 1e-9, 1.4999, 1.5]).tolist() == [[0.0, 1.0, 0.0, 1.0, 0.0]]
    assert path.sup_abs(0.0, 0.9).tolist() == [0.0]
    assert path.sup_abs(1.0, 2.0).tolist() == [1.0]
    assert path.sup_abs(-10.0, 100.0).tolist() == [1.0]
    assert path.unit_sups(6).tolist() == [[0.0, 1.0, 1.0, 1.0, 1.0, 1.0]]
    # A zero mark gives empty pulses: that row's sups are 0 wherever the other's hit.
    rows = kn.SpikePath(np.array([[0.0], [0.5]]))
    assert rows.sup_abs(0.5, 1.3).tolist() == [0.0, 1.0]
    assert rows.sup_abs(-10.0, 100.0).tolist() == [0.0, 1.0]
    assert rows.unit_sups(3).tolist() == [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0]]


def test_spike_train_brute_force_scan():
    for seed in range(5):
        path = kn.sample_path(kn.SpikeTrain(), stream(100 + seed), size=1)
        eta = path.eta[0, 0]
        ts = np.linspace(0.0, 12.0, 4001)
        vals = path.values(ts)[0]
        for k in range(1, 12):
            a = k + k * k * eta / (k * k + 1.0)
            b = k + eta
            inside = (ts >= a) & (ts < b)
            assert np.array_equal(vals[inside], np.ones(inside.sum()))
            outside = ((ts >= k) & (ts < a)) | ((ts >= b) & (ts < k + 1))
            assert np.all(vals[outside] == 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_zero_on_negative_times(spec):
    path = kn.sample_path(spec, stream(8), size=20)
    ts = -np.abs(stream(9).uniform(1e-9, 50.0, size=50))
    assert np.all(path.values(ts) == 0.0)
    assert np.all(path.sup_abs(-20.0, -1e-12) == 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_right_continuity_on_random_grid(spec):
    # Exact equality for piecewise-constant paths; the exponential decay is
    # continuous, so its limit check carries a derivative-sized tolerance.
    exact = not isinstance(spec, kn.ScaledExpDecay)
    path = kn.sample_path(spec, stream(10), size=10)
    ts = stream(11).uniform(-2.0, 12.0, size=(10, 100))
    left, right = path.values(ts), path.values(ts + 1e-12)
    if exact:
        assert np.array_equal(left, right)
    else:
        assert left == pytest.approx(right, abs=1e-10)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_sup_dominates_pointwise(spec):
    path = kn.sample_path(spec, stream(12), size=10)
    pt_rng = stream(13)
    for _ in range(10):
        lo, hi = sorted(pt_rng.uniform(-2.0, 10.0, size=2))
        sup = path.sup_abs(lo, hi)
        assert sup.shape == (10,)
        ts = pt_rng.uniform(lo, hi, size=100)
        assert np.all(sup[:, None] >= np.abs(path.values(ts)) - 1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_unit_sups_match_interval_sups(spec):
    path = kn.sample_path(spec, stream(14), size=10)
    sups = path.unit_sups(8)
    assert sups.shape == (10, 8)
    for k in range(8):
        assert sups[:, k] == pytest.approx(path.sup_abs(k, k + 1, include_right=False), abs=1e-12)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_batch_equals_one_row_batches(spec):
    # k paths drawn at once use the same draws, in the same order, as k
    # successive one-row draws, and every method gives the same rows.
    k, ts = 7, np.linspace(-1.0, 9.0, 37)
    rng_batch, rng_rows = stream(15), stream(15)
    batch = kn.sample_path(spec, rng_batch, size=k)
    rows = [kn.sample_path(spec, rng_rows, size=1) for _ in range(k)]
    assert rng_batch.bit_generator.state == rng_rows.bit_generator.state
    for method in (lambda p: p.values(ts), lambda p: p.sup_abs(0.5, 3.0), lambda p: p.unit_sups(12)):
        want = np.concatenate([method(row) for row in rows])
        assert method(batch).tobytes() == want.tobytes()


def test_indicator_rejects_signed_eta():
    with pytest.raises(KernelError):
        kn.Indicator(dist.Uniform(-1.0, 1.0))


def test_spec_support_end():
    assert TABLE_STEPS.support_end() == 4.0
    assert kn.Indicator(dist.Uniform(0.0, 2.0)).support_end() == 2.0
    assert math.isinf(kn.Indicator(dist.Exponential(1.0)).support_end())
    assert math.isinf(kn.ScaledExpDecay(dist.PointMass(1.0), 1.0).support_end())
    assert kn.ScaledExpDecay(dist.PointMass(0.0), 1.0).support_end() == 0.0
    assert math.isinf(kn.SpikeTrain().support_end())


def test_kernel_config_round_trip():
    for spec in ALL_SPECS:
        assert kn.kernel_from_config(kn.kernel_to_config(spec)) == spec
    with pytest.raises(KernelError):
        kn.kernel_from_config({"kind": "mystery"})
    with pytest.raises(KernelError):
        kn.kernel_from_config({"kind": "indicator"})
    table = {"kind": "deterministic_table", "breakpoints": [0.0, 1.0], "values": [1.0, 0.0]}
    bad = [
        {"kind": "indicator", "eta": {"family": "exponential", "rate": 1.0}, "typo": 5},
        table | {"values": ["a", 0]},
        table | {"breakpoints": [0.0, float("nan")]},
        table | {"values": "10"},
        {"kind": "birth_death", "initial": 1.7, "birth_rates": [0.0, 0.0], "death_rates": [1.0, 1.0],
         "state_cap": 2},
        {"kind": "birth_death", "initial": True, "birth_rates": [0.0], "death_rates": [1.0],
         "state_cap": 1},
        {"kind": "scaled_exp_decay", "eta": {"family": "point_mass", "value": 1.0}, "decay": "1"},
        {"kind": "scaled_table", "eta": {"family": "point_mass", "value": 1.0}, "table": {"kind": "spike_train"}},
        {"kind": ["indicator"]},
    ]
    for config in bad:
        with pytest.raises(KernelError):
            kn.kernel_from_config(config)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_sampling_deterministic_given_seed(seed):
    for spec in ALL_SPECS:
        a = kn.sample_path(spec, stream(seed), size=1)
        b = kn.sample_path(spec, stream(seed), size=1)
        ts = np.linspace(-1.0, 9.0, 37)
        assert np.array_equal(a.values(ts), b.values(ts))
