"""Random processes with immigration at renewal epochs.

Construct the transient superposition ``Y(t) = sum_k X_{k+1}(t - S_k)``,
its stationary counterpart built on the two-sided stationary renewal point
process, and statistically verify the convergence-to-stationarity and
integrability claims at desk scale.
"""

import os

# Threaded BLAS products round differently from one-thread ones, so the bytes
# of a run depend on these: set them (not setdefault) before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

from .distributions import (
    Exponential,
    FiniteDiscrete,
    Gamma,
    LogNormal,
    Pareto,
    PointMass,
    Uniform,
    integrated_tail_cdf,
    is_lattice,
    law_from_config,
    law_to_config,
    sample_stationary_delay,
)
from .errors import ConfigError, KernelError, LawError, NonAbsorbedPathError, TruncationError
from .kernels import (
    BirthDeath,
    DeterministicTable,
    Indicator,
    ScaledExpDecay,
    ScaledTable,
    SpikeTrain,
    kernel_from_config,
    kernel_to_config,
    sample_path,
)
from .process import FddSample, eval_stationary, eval_transient, fdd_sample, stationary_half_width
from .renewal import RenewalRealization, StationaryWindow, build_stationary_window, simulate_forward
from .stats import TestResult, chisq_gof_counts, energy_distance, ks_one_sample, ks_two_sample
from .streams import stream

__version__ = "0.1.0"
