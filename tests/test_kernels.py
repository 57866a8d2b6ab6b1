import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_immigration import distributions as dist
from renewal_immigration import diagnostics as dg
from renewal_immigration import kernels as kn
from renewal_immigration import renewal as rn
from renewal_immigration.config import kernel_from_config, to_config
from renewal_immigration.errors import KernelError, NonAbsorbedPathError
from renewal_immigration.streams import stream

from oracles import chain_unit_sups, chain_values, mp_birth_death_generator, stepped_birth_death

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

# Inputs beyond ALL_SPECS for the jump lists and unit sups: indicator rows
# with eta = 0 among others, whose pulses are empty, and a table scaled by
# marks of both signs, whose jumps inside units raise |X| to a value of
# either sign.
EDGE_SPECS = [
    pytest.param(kn.Indicator(dist.FiniteDiscrete(((0.0, 0.5), (2.5, 0.5)))), id="IndicatorEmptyPulses"),
    pytest.param(
        kn.ScaledTable(dist.Uniform(-2.0, 1.0), kn.DeterministicTable((0.5, 1.5, 2.5), (1.0, -2.0, 0.5))),
        id="ScaledTableSignedMarks",
    ),
]


# Results that hold arrays compare and hash by identity: field-wise == would
# compare arrays, whose truth value is ambiguous, and a field-wise hash
# cannot hash them.  Each is built twice from equal arrays.
ARRAY_RESULTS = {type(spec).__name__: (lambda spec=spec: spec.sample(stream(9), 4)) for spec in ALL_SPECS} | {
    "RenewalRealization": lambda: rn.simulate_forward(dist.Exponential(1.0), 5.0, stream(9), size=4),
    "DriReport": lambda: dg.DriReport("mean", np.ones(3), np.arange(3.0), dg.CONVERGENT_EVIDENCE, 3, 10, 0.5),
}


@pytest.mark.parametrize("make", ARRAY_RESULTS.values(), ids=ARRAY_RESULTS)
def test_results_holding_arrays_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert type(a) is type(b) and a is not b
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2

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
    vals = path25.values(np.linspace(-1.0, 4.0, 100))
    assert set(np.unique(vals)) <= {0.0, 1.0}


def test_scaled_exp_decay_eval():
    path = kn.ExpDecayPath(np.array([[2.0]]), 1.0)
    assert path.values([math.log(2.0)])[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert path.values([-1e-9]).tolist() == [[0.0]]


def absorption_times(paths):
    """Each chain's last jump time, where it hits 0."""
    return paths.times[np.cumsum(paths.counts) - 1]


def test_birth_death_pure_death_absorption():
    spec = kn.BirthDeath(initial=1, birth_rates=(0.0,), death_rates=(1.0,), state_cap=1)
    paths = kn.sample_path(spec, stream(3), size=10**5)
    assert np.all(paths.counts == 1)
    taus = absorption_times(paths)
    assert abs(taus.mean() - 1.0) < 0.013
    path = kn.sample_path(spec, stream(4), size=1)
    tau = path.times[-1]
    assert path.values([tau, tau + 5.0, tau - 1e-9]).tolist() == [[0.0, 0.0, 1.0]]


def test_birth_death_states_are_nonnegative_integers():
    spec = kn.BirthDeath(initial=3, birth_rates=(1.0, 1.0, 1.0, 1.0, 0.0),
                         death_rates=(2.0, 2.0, 2.0, 2.0, 2.0), state_cap=5)
    paths = kn.sample_path(spec, stream(5), size=50)
    ends = np.cumsum(paths.counts)
    assert paths.states.dtype.kind == "i" and len(paths.times) == len(paths.states) == ends[-1]
    assert np.all(paths.states >= 0)
    # Each chain enters 0 once, at its last jump, and its jump times increase.
    assert np.flatnonzero(paths.states == 0).tolist() == (ends - 1).tolist()
    assert np.all(np.delete(np.diff(paths.times), ends[:-1] - 1) > 0.0)
    taus = absorption_times(paths)
    ts = np.linspace(-1.0, float(taus.max()) + 2.0, 200)
    vals = paths.values(ts)
    assert np.all(vals[:, ts < 0] == 0.0)
    assert np.all(vals[ts >= taus[:, None]] == 0.0)
    assert np.all(vals[(ts >= 0) & (ts < taus[:, None])] > 0.0)


def test_birth_death_budget_error_carries_partial_path():
    spec = kn.BirthDeath(initial=1, birth_rates=(100.0, 100.0), death_rates=(0.1, 0.1),
                         state_cap=2, max_jumps=50)
    with pytest.raises(NonAbsorbedPathError) as info:
        kn.sample_path(spec, stream(6), size=1)
    partial = info.value.partial_path
    assert partial.counts.tolist() == [50]
    assert len(partial.times) == len(partial.states) == 50
    assert partial.states[-1] != 0


def test_birth_death_budget_error_reports_lowest_live_row():
    # From 1 a chain dies or climbs to the cap with equal odds, and from the
    # cap it falls back to 1, so it is absorbed at an odd jump or not at all
    # within four.  Row 0 is absorbed and at least two later rows are not.
    spec = kn.BirthDeath(initial=1, birth_rates=(1.0, 0.0), death_rates=(1.0, 1.0),
                         state_cap=2, max_jumps=4)
    chains = stepped_birth_death(spec, stream(29), 5)
    live = [i for i, (_, states) in enumerate(chains) if states[-1] != 0]
    assert chains[0][1][-1] == 0 and len(live) >= 2 and live[0] > 0
    with pytest.raises(NonAbsorbedPathError) as info:
        kn.sample_path(spec, stream(29), size=5)
    partial = info.value.partial_path
    times, states = chains[live[0]]
    assert partial.counts.tolist() == [4] and states[-1] != 0
    assert partial.times.tobytes() == np.array(times).tobytes()
    assert partial.states.tolist() == states


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
    taus = absorption_times(kn.sample_path(spec, stream(7), size=4 * 10**4))
    # tail_integral(0) = E[tau]; tail_integral(L) = E[(tau - L)+].
    for lo in [0.0, 1.0]:
        mc = np.maximum(taus - lo, 0.0)
        se = mc.std(ddof=1) / math.sqrt(len(mc))
        assert kn.birth_death_tail_integral(spec, lo) == pytest.approx(mc.mean(), abs=4.0 * se)


def test_birth_death_tail_integral_bounds_the_tail_at_the_exact_cut():
    # The stationary birth-death kernel at cut 20/3 (mean 2/3, u_grid [0]):
    # the integral at the cut itself, against a 60-digit expm, and not at a
    # cut rounded up past it, which would return 8e-11 less.
    import mpmath as mp

    spec = kn.BirthDeath(initial=1, birth_rates=(0.5, 0.5, 0.5, 0.0), death_rates=(1.0,) * 4, state_cap=4)
    lo = 20.0 / 3.0
    with mp.workdps(60):
        gen = mp_birth_death_generator(spec)
        exact = -mp.lu_solve(gen, mp.expm(gen * mp.mpf(lo)) * mp.matrix([1] * 4))[spec.initial - 1]
    assert kn.birth_death_tail_integral(spec, lo) >= float(exact) * (1.0 - 1e-13)


def test_spike_train_geometry():
    path = kn.SpikePath(np.array([[0.5]]))
    # Pulse in [k + 0.5 k^2/(k^2+1), k + 0.5); none before k=1.
    lo1 = 1.0 + 0.5 * 1.0 / 2.0
    assert path.values([0.4, lo1, lo1 - 1e-9, 1.4999, 1.5]).tolist() == [[0.0, 1.0, 0.0, 1.0, 0.0]]
    assert kn.unit_interval_sups(path, 6).tolist() == [[0.0, 1.0, 1.0, 1.0, 1.0, 1.0]]
    # A zero mark gives empty pulses: that row's sups are 0 wherever the other's hit.
    rows = kn.SpikePath(np.array([[0.0], [0.5]]))
    assert kn.unit_interval_sups(rows, 3).tolist() == [[0.0, 0.0, 0.0], [0.0, 1.0, 1.0]]


def test_spike_sups_hold_where_pulse_starts_round_to_the_next_unit():
    # From k = 2^18 with eta = 1 - 2^-53, k + k^2 eta / (k^2 + 1) rounds to
    # k + 1 (in 37 856 of the first 3e5 units); the pulse still hits 1 in
    # unit k, so every unit from 1 on reads 1.
    paths = kn.SpikePath(np.array([[1.0 - 2.0**-53], [0.5], [0.0]]))
    sups = kn.unit_interval_sups(paths, 300_000)
    assert np.all(sups[:2, 1:] == 1.0) and np.all(sups[:2, 0] == 0.0)
    assert np.all(sups[2] == 0.0)


@pytest.mark.parametrize("spec", ALL_SPECS + EDGE_SPECS, ids=lambda s: type(s).__name__)
def test_jumps_list_nondecreasing_times_and_the_values_after_them(spec):
    k, horizon = 12, 3.5
    path = kn.sample_path(spec, stream(16), size=k)
    counts, times, after = path.jumps(horizon)
    assert counts.shape == (k,) and counts.sum() == len(times) == len(after)
    ends = np.cumsum(counts)
    assert all(np.all(np.diff(row) >= 0.0) for row in np.split(times, ends[:-1]))
    assert np.all((times >= 0.0) & (times < horizon))
    # Each listed time's value.  A spike pulse's start is rounded, so its
    # value is read at the pulse's midpoint.
    at = times.copy()
    if isinstance(path, kn.SpikePath):
        unit, eta, start = np.floor(times), np.repeat(path.eta[:, 0], counts), after == 1.0
        at[start] = (unit + eta * (unit**2 + 0.5) / (unit**2 + 1.0))[start]
    rows, slots = np.repeat(np.arange(k), counts), np.arange(len(times)) - np.repeat(ends - counts, counts)
    grid = np.full((k, counts.max()), -1.0)
    grid[rows, slots] = at
    assert path.values(grid)[rows, slots].tobytes() == after.astype(float).tobytes()


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


def change_points(path, k_max):
    """Per row, the times where the path may jump, padded with -1 as a ``(k, m)`` array.

    Table breakpoints, the indicator's pulse end, the spike train's pulses
    and birth-death jump times; an exp-decay path has none.  A spike pulse
    is 1 throughout, so it is represented by its midpoint: its start,
    rounded, may fall just outside it.
    """
    k = len(path.values([0.0]))
    if isinstance(path, kn.TablePath):
        return np.broadcast_to(path.table.breakpoints, (k, len(path.table.breakpoints)))
    if isinstance(path, kn.IndicatorPath):
        return path.eta
    if isinstance(path, kn.SpikePath):
        units = np.arange(1.0, k_max)
        return units + path.eta * (units**2 + 0.5) / (units**2 + 1.0)
    if isinstance(path, kn.BirthDeathPath):
        rows = np.split(path.times, np.cumsum(path.counts)[:-1])
        points = np.full((k, max(len(r) for r in rows)), -1.0)
        for row, times in zip(points, rows):
            row[: len(times)] = times
        return points
    return np.empty((k, 0))


@pytest.mark.parametrize("spec", ALL_SPECS + EDGE_SPECS, ids=lambda s: type(s).__name__)
def test_unit_sups_match_interval_sups(spec):
    # A right-continuous path that is piecewise constant, or monotone in
    # |X| between its change points, has its sup over [j, j + 1) at j or at
    # a change point inside.
    k, k_max = 10, 8
    path = kn.sample_path(spec, stream(14), size=k)
    ts = np.concatenate([np.broadcast_to(np.arange(k_max, dtype=float), (k, k_max)), change_points(path, k_max)], axis=1)
    vals, units = np.abs(path.values(ts)), np.floor(ts)
    want = np.array([[vals[i, units[i] == j].max() for j in range(k_max)] for i in range(k)])
    assert kn.unit_interval_sups(path, k_max).tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: type(s).__name__)
def test_batch_equals_one_row_batches(spec):
    # k paths drawn at once use the same draws, in the same order, as k
    # successive one-row draws, and every method gives the same rows.  A
    # birth-death batch steps all its chains at once instead, so it is
    # checked against the stepping oracle.
    k, ts = 7, np.linspace(-1.0, 9.0, 37)
    rng_batch, rng_rows = stream(15), stream(15)
    batch = kn.sample_path(spec, rng_batch, size=k)
    if isinstance(spec, kn.BirthDeath):
        chains = stepped_birth_death(spec, rng_rows, k)
        want_values = np.array([chain_values(spec.initial, *chain, ts) for chain in chains])
        want_sups = np.array([chain_unit_sups(spec.initial, *chain, 12) for chain in chains])
    else:
        rows = [kn.sample_path(spec, rng_rows, size=1) for _ in range(k)]
        want_values = np.concatenate([row.values(ts) for row in rows])
        want_sups = np.concatenate([kn.unit_interval_sups(row, 12) for row in rows])
    assert rng_batch.bit_generator.state == rng_rows.bit_generator.state
    assert batch.values(ts).tobytes() == want_values.tobytes()
    assert kn.unit_interval_sups(batch, 12).tobytes() == want_sups.tobytes()


def test_birth_death_values_equal_per_row_searchsorted():
    # Shared and per-row grids, with times at and next to the jumps.
    spec = ALL_SPECS[4]
    paths = kn.sample_path(spec, stream(17), size=300)
    rows = np.split(paths.times, np.cumsum(paths.counts)[:-1])
    states = np.split(paths.states, np.cumsum(paths.counts)[:-1])
    shared = np.concatenate([np.linspace(-1.0, 15.0, 41), paths.times[:20], np.nextafter(paths.times[:20], 0.0)])
    # Every chain starts at 2, so it jumps at least twice.
    own = np.array([np.concatenate([r[:2], np.nextafter(r[:2], np.inf), [-0.5, 0.0, 30.0]]) for r in rows])
    for ts in (shared, own):
        grids = np.broadcast_to(ts, (300, ts.shape[-1]))
        want = np.array([chain_values(spec.initial, r, s.tolist(), t) for r, s, t in zip(rows, states, grids)])
        assert paths.values(ts).tobytes() == want.tobytes()


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
        assert kernel_from_config(to_config(spec)) == spec
    with pytest.raises(KernelError):
        kernel_from_config({"kind": "mystery"})
    with pytest.raises(KernelError):
        kernel_from_config({"kind": "indicator"})
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
            kernel_from_config(config)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_sampling_deterministic_given_seed(seed):
    for spec in ALL_SPECS:
        a = kn.sample_path(spec, stream(seed), size=1)
        b = kn.sample_path(spec, stream(seed), size=1)
        ts = np.linspace(-1.0, 9.0, 37)
        assert np.array_equal(a.values(ts), b.values(ts))
