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
    path = kn.sample_path(TABLE_STEPS, stream(0))
    assert kn.eval_path(path, -0.001) == 0.0
    assert kn.eval_path(path, 0.0) == 2.0
    assert kn.eval_path(path, 0.999) == 2.0
    assert kn.eval_path(path, 1.0) == -1.0  # right-continuous at the jump
    assert kn.eval_path(path, 3.0) == 0.5
    assert kn.eval_path(path, 4.0) == 0.0
    assert kn.eval_path(path, 100.0) == 0.0


def test_table_validation():
    with pytest.raises(KernelError):
        kn.DeterministicTable((1.0, 0.5), (1.0, 2.0))
    with pytest.raises(KernelError):
        kn.DeterministicTable((-1.0, 0.5), (1.0, 2.0))
    with pytest.raises(KernelError):
        kn.DeterministicTable((0.0, 1.0), (1.0,))


def test_indicator_paths():
    spec = kn.Indicator(dist.PointMass(3.0))
    path = kn.sample_path(spec, stream(1))
    assert kn.absorption_time(path) == 3.0
    assert kn.eval_path(path, 2.999) == 1.0
    assert kn.eval_path(path, 3.0) == 0.0  # support is [0, eta)
    assert kn.eval_path(path, -0.001) == 0.0
    path25 = kn.IndicatorPath(2.5)
    assert kn.eval_path(path25, 2.5) == 0.0
    assert kn.sup_over_interval(path25, 2.0, 3.0) == 1.0
    assert kn.sup_over_interval(path25, 2.5, 3.0) == 0.0
    vals = path25.values(np.linspace(-1.0, 4.0, 100))
    assert set(np.unique(vals)) <= {0.0, 1.0}


def test_scaled_exp_decay_eval():
    path = kn.ExpDecayPath(2.0, 1.0)
    assert kn.eval_path(path, math.log(2.0)) == pytest.approx(1.0, rel=1e-15)
    assert kn.eval_path(path, -1e-9) == 0.0
    assert kn.sup_over_interval(path, 0.0, 1.0) == 2.0
    assert kn.sup_over_interval(path, -5.0, -0.001) == 0.0
    assert kn.absorption_time(path) is None
    assert kn.absorption_time(kn.ExpDecayPath(0.0, 1.0)) == 0.0


def test_table_absorption():
    assert kn.absorption_time(kn.sample_path(TABLE_1_ON_01, stream(2))) == 1.0
    four = kn.DeterministicTable((0.0, 4.0), (1.0, 0.0))
    assert kn.absorption_time(kn.sample_path(four, stream(2))) == 4.0
    zero = kn.DeterministicTable((0.0,), (0.0,))
    assert kn.absorption_time(kn.sample_path(zero, stream(2))) == 0.0
    tail = kn.DeterministicTable((0.0,), (1.0,))
    assert kn.absorption_time(kn.sample_path(tail, stream(2))) is None


def test_birth_death_pure_death_absorption():
    spec = kn.BirthDeath(initial=1, birth_rates=(0.0,), death_rates=(1.0,), state_cap=1)
    rng = stream(3)
    taus = np.array([kn.absorption_time(kn.sample_path(spec, rng)) for _ in range(10**5)])
    assert abs(taus.mean() - 1.0) < 0.013
    path = kn.sample_path(spec, stream(4))
    tau = kn.absorption_time(path)
    assert kn.eval_path(path, tau) == 0.0
    assert kn.eval_path(path, tau + 5.0) == 0.0
    assert kn.eval_path(path, tau - 1e-9) == 1.0


def test_birth_death_states_are_nonnegative_integers():
    spec = kn.BirthDeath(initial=3, birth_rates=(1.0, 1.0, 1.0, 1.0, 0.0),
                         death_rates=(2.0, 2.0, 2.0, 2.0, 2.0), state_cap=5)
    rng = stream(5)
    for _ in range(50):
        path = kn.sample_path(spec, rng)
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
        kn.sample_path(spec, stream(6))
    partial = info.value.partial_path
    assert len(partial.jump_times) == 50
    assert not partial.absorbed
    assert kn.absorption_time(partial) is None


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
    assert kn.birth_death_survival(spec, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_birth_death_tail_integral_matches_monte_carlo():
    spec = kn.BirthDeath(initial=2, birth_rates=(0.6, 0.6, 0.0), death_rates=(1.2, 1.2, 1.2),
                         state_cap=3)
    rng = stream(7)
    taus = np.array([kn.absorption_time(kn.sample_path(spec, rng)) for _ in range(4 * 10**4)])
    # tail_integral(0) = E[tau]; tail_integral(L) = E[(tau - L)+].
    for lo in [0.0, 1.0]:
        mc = np.maximum(taus - lo, 0.0)
        se = mc.std(ddof=1) / math.sqrt(len(mc))
        assert kn.birth_death_tail_integral(spec, lo) == pytest.approx(mc.mean(), abs=4.0 * se)


def test_spike_train_geometry():
    path = kn.SpikePath(0.5)
    # Pulse in [k + 0.5 k^2/(k^2+1), k + 0.5).
    assert kn.eval_path(path, 0.4) == 0.0  # no pulse before k=1
    lo1 = 1.0 + 0.5 * 1.0 / 2.0
    assert kn.eval_path(path, lo1) == 1.0
    assert kn.eval_path(path, lo1 - 1e-9) == 0.0
    assert kn.eval_path(path, 1.4999) == 1.0
    assert kn.eval_path(path, 1.5) == 0.0
    assert kn.sup_over_interval(path, 0.0, 0.9) == 0.0
    assert kn.sup_over_interval(path, 1.0, 2.0) == 1.0
    assert kn.sup_over_interval(path, -10.0, 100.0) == 1.0
    sups = path.unit_sups(6)
    assert list(sups) == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert kn.absorption_time(path) is None


def test_spike_train_brute_force_scan():
    for seed in range(5):
        path = kn.sample_path(kn.SpikeTrain(), stream(100 + seed))
        ts = np.linspace(0.0, 12.0, 4001)
        vals = path.values(ts)
        for k in range(1, 12):
            a = k + k * k * path.eta / (k * k + 1.0)
            b = k + path.eta
            inside = (ts >= a) & (ts < b)
            assert np.array_equal(vals[inside], np.ones(inside.sum()))
            outside = ((ts >= k) & (ts < a)) | ((ts >= b) & (ts < k + 1))
            assert np.all(vals[outside] == 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_zero_on_negative_times(spec):
    rng = stream(8)
    for _ in range(20):
        path = kn.sample_path(spec, rng)
        ts = -np.abs(stream(9).uniform(1e-9, 50.0, size=50))
        assert np.all(path.values(ts) == 0.0)
        assert kn.sup_over_interval(path, -20.0, -1e-12) == 0.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_right_continuity_on_random_grid(spec):
    # Exact equality for piecewise-constant paths; the exponential decay is
    # continuous, so its limit check carries a derivative-sized tolerance.
    exact = not isinstance(spec, kn.ScaledExpDecay)
    rng = stream(10)
    grid_rng = stream(11)
    for _ in range(10):
        path = kn.sample_path(spec, rng)
        ts = grid_rng.uniform(-2.0, 12.0, size=100)
        for t in ts:
            left, right = kn.eval_path(path, t), kn.eval_path(path, t + 1e-12)
            if exact:
                assert left == right
            else:
                assert left == pytest.approx(right, abs=1e-10)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_sup_dominates_pointwise(spec):
    rng = stream(12)
    pt_rng = stream(13)
    for _ in range(10):
        path = kn.sample_path(spec, rng)
        lo, hi = sorted(pt_rng.uniform(-2.0, 10.0, size=2))
        sup = kn.sup_over_interval(path, lo, hi)
        for t in pt_rng.uniform(lo, hi, size=100):
            assert sup >= abs(kn.eval_path(path, t)) - 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_unit_sups_match_interval_sups(spec):
    rng = stream(14)
    for _ in range(10):
        path = kn.sample_path(spec, rng)
        sups = path.unit_sups(8)
        for k in range(8):
            assert sups[k] == pytest.approx(path.sup_abs(k, k + 1, include_right=False), abs=1e-12)


def test_sup_interval_validation():
    path = kn.IndicatorPath(1.0)
    with pytest.raises(KernelError):
        kn.sup_over_interval(path, 2.0, 1.0)


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
        a = kn.sample_path(spec, stream(seed))
        b = kn.sample_path(spec, stream(seed))
        ts = np.linspace(-1.0, 9.0, 37)
        assert np.array_equal(a.values(ts), b.values(ts))


def test_fixed_discontinuities_recorded():
    assert TABLE_STEPS.fixed_discontinuities() == (0.0, 1.0, 2.5, 4.0)
    flat = kn.DeterministicTable((0.0, 1.0), (2.0, 2.0))
    assert flat.fixed_discontinuities() == (0.0,)
