#!/usr/bin/env python3
"""Summability survey across the bundled kernel families.

Decides both integrability criteria (mean and pathwise) for a spread of
kernels and prints a verdict table: geometric decay, absorbed pulses with
light and heavy tails, the spike train whose mean fades while every path
keeps hitting 1, and two slowly fading heavy tails that still converge.
Each row shows the mean criterion's Monte Carlo partial sum up to
``k_max`` and the kernel's bound on the rest of its sum (``inf`` when it
diverges).  Kernel ``i`` draws its criteria from the streams
``(seed, DRI_MEAN, i)`` and ``(seed, DRI_PATH, i)``, the ones the ``dri``
command derives for its one kernel at ``i = 0``.
"""

import argparse
import sys

from renewal_immigration import distributions as dist
from renewal_immigration import kernels as kn
from renewal_immigration.diagnostics import dri_mean_check, dri_path_check
from renewal_immigration.streams import DRI_MEAN, DRI_PATH, stream

KERNELS = [
    ("exp decay (a=1)", kn.ScaledExpDecay(dist.PointMass(1.0), 1.0), 60),
    ("pulse, exp length", kn.Indicator(dist.Exponential(1.0)), 60),
    ("pulse, pareto(1.5) length", kn.Indicator(dist.Pareto(1.5, 1.0)), 800),
    ("pulse, pareto(0.8) length", kn.Indicator(dist.Pareto(0.8, 1.0)), 800),
    ("spike train", kn.SpikeTrain(), 800),
    ("pulse, pareto(1.05) length", kn.Indicator(dist.Pareto(1.05, 1.0)), 800),
    ("exp decay (a=0.2), pareto(0.5)", kn.ScaledExpDecay(dist.Pareto(0.5, 1.0), 0.2), 200),
]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--n-mc", type=int, default=2000)
    parser.add_argument("--grid-per-unit", type=int, default=8)
    return parser.parse_args()


def main():
    args = parse_args()
    print(f"{'kernel':<32} {'mean verdict':<20} {'path verdict':<20} {'partial sum':<12} remainder bound")
    for i, (label, spec, k_max) in enumerate(KERNELS):
        mean_rep = dri_mean_check(spec, k_max, args.grid_per_unit, args.n_mc, stream(args.seed, DRI_MEAN, i))
        path_rep = dri_path_check(spec, k_max, args.n_mc, stream(args.seed, DRI_PATH, i))
        print(
            f"{label:<32} {mean_rep.verdict:<20} {path_rep.verdict:<20} "
            f"{mean_rep.partial_sums[-1]:<12.3f} {mean_rep.residual_estimate:.4g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
