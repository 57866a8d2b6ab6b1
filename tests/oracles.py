"""Independent reference implementations used only to cross-check results.

The queue oracle is an event loop over a heap, the KS/energy oracles are
direct transcriptions of the definitions, the energy permutation oracle
works on raw rows with one 0/1 label column per labelling and scans its
statistics one by one for the sequential p-value, and integrals
come from adaptive quadrature; none of these shares code with the package.
The superposition oracle draws one one-row batch of paths per point,
which is what the batched superposition must equal; for birth-death
chains, whose draws depend on the batch size, a second one draws one
batch per chunk of points and adds the terms point by point.  The
birth-death oracle steps each chain in Python lists from the same array
draws as the batched sampler, and evaluates it with ``np.searchsorted``.
The increment oracles build renewal sums row by row, from the package's
width rule, and must match the batched rows draw for draw.  The capped
birth-death generator is an mpmath matrix, for 60-digit ``expm`` oracles.
The chi-square goodness-of-fit test on binned counts is the tests' check of
integer marginals; it pools small bins and takes its p-value from the
package's ``stats.chi2_sf``.  The normal CDF oracle calls ``math.erfc`` on
one Python float at a time, and the log-normal tail oracle evaluates both
of its branches on every entry and picks one with ``np.where``: the
package must equal both bit for bit.
"""

import heapq
import math

import numpy as np

from renewal_immigration.renewal import _round_width
from renewal_immigration.stats import TestResult, chi2_sf


def busy_servers_event_driven(sample_interarrival, sample_service, t_obs, rng):
    """Occupancy of an infinite-server queue at ``t_obs``.

    Customers arrive at renewal epochs (the first one at time 0) and each
    holds a server for an independent service draw; the event loop replays
    arrivals and departures in time order.
    """
    events = []
    t = 0.0
    while t <= t_obs:
        heapq.heappush(events, (t, 1))
        heapq.heappush(events, (t + sample_service(rng), -1))
        t += sample_interarrival(rng)
    busy = 0
    while events:
        when, delta = heapq.heappop(events)
        if when > t_obs:
            break
        busy += delta
    return busy


def brute_force_ks(a, b):
    """Two-sample KS distance straight from the definition."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = 0.0
    for x in np.concatenate([a, b]):
        fa = np.count_nonzero(a <= x) / len(a)
        fb = np.count_nonzero(b <= x) / len(b)
        d = max(d, abs(fa - fb))
    return d


def brute_force_energy(a, b):
    """Energy statistic with explicit all-pairs loops (plug-in means)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 1 and a.ndim == 2 and a.shape[1] != b.shape[1]:
        a = a.T
        b = b.T

    def mean_dist(x, y):
        total = 0.0
        for ix in range(len(x)):
            for iy in range(len(y)):
                total += float(np.linalg.norm(x[ix] - y[iy]))
        return total / (len(x) * len(y))

    return 2.0 * mean_dist(a, b) - mean_dist(a, a) - mean_dist(b, b)


def dense_energy_permutation(a, b, n_permutations, exceedances, rng, width=None):
    """Energy statistic, sequential permutation p-value and labellings run, over raw rows.

    The reference for ``stats.energy_distance``: one 0/1 label column per
    labelling (column 0 observed) and the full ``N x N`` distance matrix.
    A permuted labelling gets the per-distinct-row label counts that
    ``energy_distance`` draws from the same generator (multivariate
    hypergeometric over the sorted distinct rows, ``width`` labellings per
    call with labelling 0 the first of the first call; all in one call by
    default); the first that many raw copies of each distinct row get
    label 1, which leaves the statistic unchanged.  Every labelling is
    drawn and evaluated; the p-value then scans the statistics in order:
    ``exceedances / l`` at the labelling ``l`` that is the ``exceedances``-th
    to reach the observed statistic, else ``(1 + count) / (P + 1)``.
    Returns ``(statistic, p_value, labellings)``.
    """
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    n, m = len(a), len(b)
    z = np.vstack([a, b])
    big_n = n + m
    inv = np.unique(z, axis=0, return_inverse=True)[1].reshape(-1)
    w = np.bincount(inv)
    k = len(w)
    total = n_permutations + 1
    width = width or total
    method = "marginals" if k < n else "count"
    drawn = np.vstack([
        rng.multivariate_hypergeometric(w, n, size=min(lo + width, total) - max(lo, 1), method=method)
        for lo in range(0, total, width)
    ])
    labels = np.zeros((big_n, total))
    labels[:n, 0] = 1.0
    for p, wanted in enumerate(drawn, start=1):
        given = np.zeros(k, dtype=int)
        for i, j in enumerate(inv):
            if given[j] < wanted[j]:
                labels[i, p] = 1.0
                given[j] += 1
    d = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=2))
    dx = d @ labels
    row_sums = d.sum(axis=1)
    grand = float(row_sums.sum())
    s_aa = np.einsum("ip,ip->p", labels, dx)
    r = labels.T @ row_sums
    s_ab = r - s_aa
    s_bb = grand - 2.0 * r + s_aa
    stats = 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)
    observed = float(stats[0])
    count = 0
    for p in range(1, n_permutations + 1):
        count += bool(stats[p] >= observed)
        if count == exceedances:
            return observed, exceedances / p, p
    return observed, (1 + count) / (n_permutations + 1), n_permutations


def per_path_superpose(spec, shifts, grid, rng):
    """``sum_k X_k(grid - shifts[k])`` with one path drawn and added per point.

    The reference for each row of ``process._superpose``: one
    ``spec.sample(rng, size=1)`` and one ``values`` call per shift, added
    onto zeros in point order.
    """
    values = np.zeros(len(grid))
    for shift in shifts:
        path = spec.sample(rng, size=1)
        values += path.values(grid - shift)[0]
    return values


def chunked_superpose(spec, row, shifts, grid, k, rng, block):
    """Per row ``i < k``, ``sum_j X_j(grid - shifts[j])`` over the points with ``row[j] == i``.

    The reference for ``process._superpose`` on kernels whose draws depend
    on the batch size: one ``spec.sample`` call per chunk of ``block``
    points, then each point's term added onto its row, in point order.
    """
    values = np.zeros((k, len(grid)))
    for lo in range(0, len(shifts), block):
        paths = spec.sample(rng, size=len(shifts[lo : lo + block]))
        for i, term in zip(row[lo : lo + block], paths.values(grid - shifts[lo : lo + block, None])):
            values[i] += term
    return values


def stepped_birth_death(spec, rng, size):
    """``size`` birth-death chains as ``(times, states)`` pairs of Python lists.

    The reference for ``BirthDeath.sample``: each step draws one
    ``rng.exponential(size=live)`` and then one ``rng.random(size=live)``
    over the chains not yet at 0, in chain order; each chain looks up its
    rates one at a time and appends its jump to its own lists.  Stops after
    ``spec.max_jumps`` steps, chains still live included.
    """
    chains = [([], []) for _ in range(size)]
    live = list(range(size))
    for _ in range(spec.max_jumps):
        if not live:
            break
        holds, moves = rng.exponential(size=len(live)), rng.random(size=len(live))
        for i, hold, move in zip(live, holds, moves):
            times, states = chains[i]
            state = states[-1] if states else spec.initial
            birth = spec.birth_rates[state - 1] if state < spec.state_cap else 0.0
            rate = birth + spec.death_rates[state - 1]
            times.append((times[-1] if times else 0.0) + float(hold) * (1.0 / rate))
            states.append(state + 1 if move * rate < birth else state - 1)
        live = [i for i in live if chains[i][1][-1] != 0]
    return chains


def chain_values(initial, times, states, ts):
    """One chain's values at ``ts``: its state after ``np.searchsorted(times, t, "right")`` jumps."""
    ts = np.asarray(ts, dtype=float)
    vals = np.array([float(initial)] + [float(s) for s in states])
    return np.where(ts >= 0.0, vals[np.searchsorted(times, ts, side="right")], 0.0)


def chain_unit_sups(initial, times, states, k_max):
    """One chain's sups over ``[j, j + 1)``: its value at ``j`` or a state entered inside."""
    sups = chain_values(initial, times, states, np.arange(k_max, dtype=float))
    for t, state in zip(times, states):
        if t < k_max:
            sups[int(t)] = max(sups[int(t)], float(state))
    return sups


def mp_birth_death_generator(spec):
    """The generator of ``spec``'s chain on its transient states 1..cap, as an mpmath matrix."""
    import mpmath as mp

    cap = spec.state_cap
    gen = mp.matrix(cap, cap)
    for i in range(cap):
        birth = spec.birth_rates[i] if i < cap - 1 else 0.0
        gen[i, i] = -(birth + spec.death_rates[i])
        if i < cap - 1:
            gen[i, i + 1] = birth
        if i > 0:
            gen[i, i - 1] = spec.death_rates[i]
    return gen


def single_row_increments_until(law, rng, start, target, mu, sd):
    """Cumulative sums ``start + xi_1 + ...`` until strictly past ``target``.

    The reference for one row that ``renewal._ragged`` assembles from
    ``renewal._draw_rounds``, its start followed by these sums: the
    scalar-start helper, drawing ``law.sample(rng, size=n)`` rounds with
    ``n`` from the package's one width rule, ``renewal._round_width``, and
    trimming after the first sum past the target.  Empty when ``start`` is
    already past the target.
    """
    if start > target:
        return np.empty(0)
    out = []
    last = start
    while last <= target:
        n = _round_width(target - last, mu, sd)
        block = last + np.cumsum(law.sample(rng, size=n))
        out.append(block)
        last = block[-1]
    cum = np.concatenate(out) if len(out) > 1 else out[0]
    cut = int(np.searchsorted(cum, target, side="right"))
    return cum[: cut + 1]


def replayed_increments_until(law, rng, starts, target, mu, sd):
    """Per row, the sums ``starts[i] + xi_1 + ...`` until strictly past ``target``.

    The reference for the ragged rows that ``renewal._ragged`` assembles
    from ``renewal._draw_rounds``, each its start followed by these sums: it
    replays the batched rounds (one ``(active rows, n)`` draw per round,
    ``n`` from ``renewal._round_width`` at the mean distance of the active
    rows to the target), then builds each row on its own: a Python list per
    row, extended round by round and trimmed after its first sum past the
    target.  Returns a list of 1-D arrays; a row that starts past the
    target is empty.
    """
    rows = [[] for _ in starts]
    last = [float(s) for s in starts]
    active = [i for i, s in enumerate(last) if s <= target]
    while active:
        n = _round_width(target - np.mean([last[i] for i in active]), mu, sd)
        for i, draws in zip(active, law.sample(rng, size=(len(active), n))):
            block = last[i] + np.cumsum(draws)
            rows[i].extend(block.tolist())
            last[i] = float(block[-1])
        active = [i for i in active if last[i] <= target]
    out = []
    for row in rows:
        row = np.array(row, dtype=float)
        out.append(row[: int(np.searchsorted(row, target, side="right")) + 1])
    return out


def chisq_gof_counts(observed_counts, expected_probs, min_expected=5.0):
    """Pearson chi-square GOF on binned counts.

    Bins whose expected count falls below ``min_expected`` are pooled into a
    single tail bin before the statistic is formed.  An impossible bin
    (zero probability, positive count) yields ``statistic = inf`` and
    p-value 0.
    """
    obs = np.asarray(observed_counts, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if obs.shape != probs.shape or obs.ndim != 1:
        raise ValueError("observed counts and expected probs must be matching 1-D arrays")
    if np.any(obs < 0) or np.any(probs < 0):
        raise ValueError("counts and probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"expected probabilities must sum to 1, got {probs.sum()!r}")
    n = float(obs.sum())
    expected = n * probs
    pool = expected < min_expected
    obs_bins = list(obs[~pool])
    exp_bins = list(expected[~pool])
    if pool.any():
        obs_bins.append(float(obs[pool].sum()))
        exp_bins.append(float(expected[pool].sum()))
    if len(obs_bins) < 2:
        raise ValueError("all mass pooled into one bin; the test is undefined")
    obs_bins = np.array(obs_bins)
    exp_bins = np.array(exp_bins)
    impossible = (exp_bins == 0.0) & (obs_bins > 0.0)
    if impossible.any():
        stat = math.inf
        p = 0.0
    else:
        ok = exp_bins > 0.0
        stat = float(np.sum((obs_bins[ok] - exp_bins[ok]) ** 2 / exp_bins[ok]))
        p = chi2_sf(len(obs_bins) - 1, stat)
    return TestResult(
        statistic=stat, p_value=p, n=int(n), m=None, method="chisq_gof", note=f"bins={len(obs_bins)}"
    )


def erfc_normal_cdf(z):
    """``0.5 * erfc(-z / sqrt 2)`` per element, on Python floats, in the shape of ``z``."""
    z = np.asarray(z, dtype=float)
    return np.array([0.5 * math.erfc(v * -math.sqrt(0.5)) for v in z.ravel().tolist()]).reshape(z.shape)


def _mills_both_branches(w):
    """Mills ratio ``Phi(-w) / phi(w)``: erfc below 20, twelve continued-fraction levels from 20 on."""
    near, far = np.minimum(w, 20.0), np.maximum(w, 20.0)
    t = far
    for k in range(12, 0, -1):
        t = far + k / t
    return np.where(w < 20.0, erfc_normal_cdf(-near) * math.sqrt(2.0 * math.pi) * np.exp(0.5 * near**2), 1.0 / t)


def two_branch_lognormal_tail_mean(law, x):
    """``E[(X - x)^+]`` of a log-normal law, both forms on every entry, the far one taken from z = 30.

    Near: ``m Phi(sigma - z) - x Phi(-z)``; far: ``x phi(z) (R(z - sigma) - R(z))``
    with ``R`` the Mills ratio.  0 at ``x = inf``; ``x`` and ``z`` are capped
    at the largest float.
    """
    x = np.asarray(x, dtype=float)
    top = np.minimum(x, np.finfo(float).max)
    mu, sigma = law.mu, law.sigma
    with np.errstate(over="ignore"):
        z = (np.log(np.maximum(top, np.finfo(float).tiny)) - mu) / sigma
        far = np.clip(z, 30.0, np.finfo(float).max)
        x_phi = np.exp(mu + sigma * far - 0.5 * far**2) / math.sqrt(2.0 * math.pi)
    near = law.mean() * erfc_normal_cdf(sigma - z) - top * erfc_normal_cdf(-z)
    out = np.where(z < 30.0, near, x_phi * (_mills_both_branches(far - sigma) - _mills_both_branches(far)))
    return np.where(x < math.inf, out, 0.0)
