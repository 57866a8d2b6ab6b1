"""Evaluate the immigration process on time grids.

Transient: ``Y(t + u) = sum_k X_{k+1}(t + u - S_k)`` over the renewal epochs
on ``[0, t + max(u)]`` -- an exact finite sum, one independent path per
epoch.

Stationary: ``Y*(u) = sum_k X_{k+1}(u + S*_k)`` over a stationary window,
truncated to ``|S*_k| <= c``.  Points far to the left contribute exactly 0
(paths vanish on negatives), so the truncation error lives entirely in the
right tail of the window.  Kernels with a finite ``support_end()`` are
evaluated exactly on a window that holds every possible contributor.
Otherwise the half-width ``c`` grows geometrically until the kernel's
``tail_bound`` on the expected missed mass drops below the requested
tolerance; kernels whose stationary series diverges raise
:class:`~renewal_immigration.errors.TruncationError` from that bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import check_interarrival, law_to_config
from .errors import LawError, TruncationError
from .kernels import kernel_to_config, sample_path
from .renewal import StationaryWindowSampler, simulate_forward
from .streams import stream

__all__ = ["ProcessSample", "FddSample", "eval_transient", "eval_stationary", "fdd_sample"]

# Points evaluated per (points x grid) array, which bounds the temporary
# for windows with very many points.
SUPERPOSE_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class ProcessSample:
    """Values of one replicate on a u-grid.

    ``truncation_bound`` is present exactly when the evaluation is
    stationary and the kernel support is unbounded; it bounds the expected
    mass missed beyond ``c_used``.
    """

    u_grid: np.ndarray
    values: np.ndarray
    kind: str
    t: float | None = None
    c_used: float | None = None
    truncation_bound: float | None = None


def _validate_grid(u_grid):
    u = np.asarray(u_grid, dtype=float)
    if u.ndim != 1 or len(u) == 0:
        raise LawError("u_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(u)):
        raise LawError("u_grid must be finite")
    if np.any(np.diff(u) <= 0):
        raise LawError("u_grid must be strictly increasing")
    return u


def _superpose(spec, shifts, grid, rng):
    """``sum_k X_k(grid - shifts[k])``: one fresh path per shift, in order.

    All paths come from one batched draw.  Their rows are added in point
    order onto zeros: ``cumsum`` outputs every prefix, so it adds one row at
    a time, and each sum rounds as a per-point loop would (pairwise
    summation would not).
    """
    values = np.zeros(len(grid))
    if len(shifts) == 0:
        return values
    paths = sample_path(spec, rng, size=len(shifts))
    for lo in range(0, len(shifts), SUPERPOSE_BLOCK):
        block = slice(lo, lo + SUPERPOSE_BLOCK)
        rows = paths[block].values(grid[None, :] - shifts[block, None])
        values = np.cumsum(np.vstack([values, rows]), axis=0)[-1]
    return values


def eval_transient(law, spec, t, u_grid, rng):
    """One replicate of ``(Y(t + u))_u``; an exact sum over epochs."""
    check_interarrival(law)
    if t < 0:
        raise LawError(f"transient time must be >= 0, got {t}")
    u = _validate_grid(u_grid)
    horizon = t + u[-1]
    if horizon < 0:
        return ProcessSample(u_grid=u, values=np.zeros(len(u)), kind="transient", t=float(t))
    epochs = simulate_forward(law, horizon, rng).epochs
    # Epochs whose path is 0 on the whole shifted grid draw no path.
    epochs = epochs[t + u[0] - epochs < spec.support_end()]
    values = _superpose(spec, epochs, t + u, rng)
    return ProcessSample(u_grid=u, values=values, kind="transient", t=float(t))


def eval_stationary(law, spec, u_grid, tol, rng, c_max=None):
    """One replicate of ``(Y*(u))_u`` with controlled truncation.

    Raises :class:`TruncationError` (carrying the best values and the bound
    achieved) when the tail bound cannot reach ``tol`` within ``c_max``.
    """
    check_interarrival(law)
    if not tol > 0:
        raise LawError(f"tolerance must be positive, got {tol}")
    u = _validate_grid(u_grid)
    mu = law.mean()
    support_end = spec.support_end()
    sampler = StationaryWindowSampler(law, rng)
    bound = None
    if math.isfinite(support_end):
        # Every possible contributor lies in [-max(u), support_end - min(u)].
        c = max(abs(u[-1]), abs(support_end - u[0]), mu)
        window = sampler.initial(c)
    else:
        c = max(abs(u[0]), abs(u[-1])) + 10.0 * mu
        cap = c_max if c_max is not None else max(512.0, 8.0 * c)
        window = sampler.initial(c)
        while True:
            bound = spec.tail_bound(max(c + u[0], 0.0), mu, window)
            if bound < tol or 2.0 * c > cap:
                break
            c *= 2.0
            window = sampler.extend(window, c)
    # Points left of -max(u) or past the support cannot reach the grid.
    pts = window.points
    keep = (np.abs(pts) <= c) & (pts >= -u[-1]) & (pts < support_end - u[0])
    values = _superpose(spec, -pts[keep], u, rng)
    if bound is not None and not bound < tol:
        raise TruncationError(
            f"tail bound {bound:.3e} above tolerance {tol:.3e} at window half-width {c:g} "
            f"(cap {cap:g})",
            values=values,
            bound=bound,
            c_used=c,
        )
    return ProcessSample(u_grid=u, values=values, kind="stationary", c_used=c, truncation_bound=bound)


@dataclass(frozen=True, eq=False)
class FddSample:
    """Replicated finite-dimensional samples, one row per replicate."""

    u_grid: np.ndarray
    values: np.ndarray
    kind: str
    seed: int
    t: float | None = None
    tol: float | None = None
    c_used: np.ndarray | None = None
    truncation_bounds: np.ndarray | None = None

    def to_csv(self):
        header = ",".join(f"u={v:.17g}" for v in self.u_grid)
        lines = [header]
        for row in self.values:
            lines.append(",".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"

    def metadata(self, law, spec):
        meta = {
            "law": law_to_config(law),
            "kernel": kernel_to_config(spec),
            "mode": self.kind,
            "seed": self.seed,
            "n_replicates": int(self.values.shape[0]),
            "u_grid": [float(v) for v in self.u_grid],
        }
        if self.kind == "transient":
            meta["t"] = self.t
        else:
            meta["tol"] = self.tol
            cs = self.c_used
            meta["c_used"] = {
                "min": float(np.min(cs)),
                "max": float(np.max(cs)),
                "mean": float(np.mean(cs)),
            }
            if self.truncation_bounds is not None:
                meta["truncation_bound_max"] = float(np.max(self.truncation_bounds))
        return meta


def fdd_sample(law, spec, mode, u_grid, n_replicates, seed, t=None, tol=1e-6, c_max=None):
    """Independent replicates of the fdd vector, one derived stream each.

    Row ``i`` depends only on ``(seed, i)``, so the matrix is reproducible
    and independent of evaluation order.  Truncation failures propagate
    with the replicate index attached.
    """
    if n_replicates < 1:
        raise LawError("n_replicates must be >= 1")
    if mode not in ("transient", "stationary"):
        raise LawError(f"mode must be 'transient' or 'stationary', got {mode!r}")
    if mode == "transient" and t is None:
        raise LawError("transient mode needs the evaluation time t")
    u = _validate_grid(u_grid)
    values = np.empty((n_replicates, len(u)))
    c_used = np.zeros(n_replicates) if mode == "stationary" else None
    bounds = np.zeros(n_replicates) if mode == "stationary" else None
    any_bound = False
    for i in range(n_replicates):
        rng = stream(seed, i)
        if mode == "transient":
            ps = eval_transient(law, spec, t, u, rng)
        else:
            try:
                ps = eval_stationary(law, spec, u, tol, rng, c_max=c_max)
            except TruncationError as exc:
                exc.replicate = i
                raise
            c_used[i] = ps.c_used
            if ps.truncation_bound is not None:
                bounds[i] = ps.truncation_bound
                any_bound = True
        values[i] = ps.values
    return FddSample(
        u_grid=u,
        values=values,
        kind=mode,
        seed=seed,
        t=None if t is None else float(t),
        tol=tol if mode == "stationary" else None,
        c_used=c_used,
        truncation_bounds=bounds if any_bound else None,
    )
