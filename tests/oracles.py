"""Independent reference implementations used only to cross-check results.

The queue oracle is an event loop over a heap, the KS/energy oracles are
direct transcriptions of the definitions, the energy permutation oracle
works on raw rows with one 0/1 label column per labelling, and integrals
come from adaptive quadrature; none of these shares code with the package.
The superposition oracle draws through the package's single-path sampler,
one path per point, which is what the batched superposition must equal.
"""

import heapq

import numpy as np


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


def dense_energy_permutation(a, b, n_permutations, rng):
    """Energy statistic and permutation p-value over raw rows.

    The reference for ``stats.energy_distance``: one 0/1 label column per
    labelling (column 0 observed, then one ``rng.permutation`` per column)
    and the full ``N x N`` distance matrix.  Returns ``(statistic, p_value)``.
    """
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    n, m = len(a), len(b)
    z = np.vstack([a, b])
    big_n = n + m
    labels = np.zeros((big_n, n_permutations + 1))
    labels[:n, 0] = 1.0
    for p in range(1, n_permutations + 1):
        labels[rng.permutation(big_n)[:n], p] = 1.0
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
    return observed, float((1 + np.sum(stats[1:] >= observed)) / (n_permutations + 1))


def per_path_superpose(spec, shifts, grid, rng):
    """``sum_k X_k(grid - shifts[k])`` with one path drawn and added per point.

    The reference for ``process._superpose``: one ``spec.sample(rng)`` and
    one ``values`` call per shift, added onto zeros in point order.
    """
    values = np.zeros(len(grid))
    for shift in shifts:
        path = spec.sample(rng)
        values += path.values(grid - shift)
    return values
