"""Config-driven command line front end.

Every command is a pure function of ``(config file, seed)``: reruns produce
byte-identical artifacts (sorted JSON keys, 17-significant-digit CSV
floats, no wall-clock anywhere).  Output files are written atomically.

Exit codes: 0 pass, 1 usage/config error, 2 statistical rejection or
truncation failure, 3 inconclusive / hypothesis warning.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .config import (
    SCHEMA_VERSION,
    load_config,
    optional,
    require_grid,
    require_int,
    require_intervals,
    require_kernel,
    require_number,
    require_t_list,
)
from .diagnostics import (
    CONVERGENT_EVIDENCE,
    DIVERGENT_EVIDENCE,
    MAX_ROW_POINTS,
    convergence_test,
    dri_mean_check,
    dri_path_check,
    intensity_check,
    laplace_functional_compare,
    overshoot_check,
    pointprocess_row_points,
    shift_invariance_check,
)
from .distributions import is_lattice, mean as law_mean
from .errors import ConfigError, NonAbsorbedPathError, TruncationError
from .kernels import DeterministicTable
from .process import fdd_sample
from .renewal import build_stationary_window, window_to_csv
from .streams import stream

__all__ = ["main", "cmd_simulate", "cmd_stationary", "cmd_converge", "cmd_dri", "cmd_pointprocess"]

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_REJECT = 2
EXIT_WARN = 3

INTENSITY_Z_LIMIT = 4.0


def _fmt(x):
    return f"{x:.17g}"


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_atomic(path, text):
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _log(verbose, message):
    if verbose:
        print(message, file=sys.stderr)


def cmd_simulate(config, out_dir, args):
    raw = config.raw
    t = require_number(raw, "t", minimum=0.0)
    u_grid = require_grid(raw, "u_grid")
    n = require_int(raw, "n_replicates", minimum=1)
    sample = fdd_sample(config.law, config.kernel, "transient", u_grid, n, seed=config.seed, t=t)
    _write_atomic(out_dir / "matrix.csv", sample.to_csv())
    meta = sample.metadata(config.law, config.kernel)
    meta["schema"] = SCHEMA_VERSION
    _write_atomic(out_dir / "metadata.json", _json_text(meta))
    summary = {
        "command": "simulate",
        "rows": n,
        "cols": len(u_grid),
        "outputs": ["matrix.csv", "metadata.json"],
    }
    return EXIT_PASS, summary


def cmd_stationary(config, out_dir, args):
    raw = config.raw
    u_grid = require_grid(raw, "u_grid")
    n = require_int(raw, "n_replicates", minimum=1)
    tol = require_number(raw, "tol", exclusive_minimum=0.0) if "tol" in raw else 1e-6
    c_max = require_number(raw, "c_max", exclusive_minimum=0.0) if "c_max" in raw else None
    outputs = []
    if args.dump_window:
        c = require_number(raw, "c", exclusive_minimum=0.0) if "c" in raw else 10.0 * law_mean(config.law)
        window = build_stationary_window(config.law, c, stream((config.seed, 1)))
        _write_atomic(out_dir / "window.csv", window_to_csv(window))
        outputs.append("window.csv")
    try:
        sample = fdd_sample(
            config.law, config.kernel, "stationary", u_grid, n, seed=config.seed, tol=tol, c_max=c_max
        )
    except TruncationError as exc:
        report = {
            "error": "truncation",
            "message": str(exc),
            "bound": None if exc.bound is None else float(exc.bound),
            "c_used": exc.c_used,
            "replicate": exc.replicate,
            "tol": tol,
        }
        _write_atomic(out_dir / "truncation_report.json", _json_text(report))
        summary = {"command": "stationary", "error": "truncation", "outputs": outputs + ["truncation_report.json"]}
        return EXIT_REJECT, summary
    _write_atomic(out_dir / "matrix.csv", sample.to_csv())
    meta = sample.metadata(config.law, config.kernel)
    meta["schema"] = SCHEMA_VERSION
    _write_atomic(out_dir / "metadata.json", _json_text(meta))
    outputs = ["matrix.csv", "metadata.json"] + outputs
    summary = {"command": "stationary", "rows": n, "cols": len(u_grid), "outputs": outputs}
    return EXIT_PASS, summary


def cmd_converge(config, out_dir, args):
    raw = config.raw
    t_list = require_t_list(raw, "t_list")
    u_grid = require_grid(raw, "u_grid")
    n = require_int(raw, "n_replicates", minimum=1)
    alpha = require_number(raw, "alpha", exclusive_minimum=0.0, maximum=0.5) if "alpha" in raw else 0.01
    tol = require_number(raw, "tol", exclusive_minimum=0.0) if "tol" in raw else 1e-6
    n_perm = require_int(raw, "n_permutations", minimum=19) if "n_permutations" in raw else 200
    reports = convergence_test(
        config.law,
        config.kernel,
        t_list,
        u_grid,
        n,
        alpha,
        config.seed,
        n_permutations=n_perm,
        tol=tol,
    )
    outputs = []
    for i, report in enumerate(reports):
        name = f"report_{i:03d}.json"
        _write_atomic(out_dir / name, _json_text(report.to_dict()))
        outputs.append(name)
    header = ["t"] + [f"ks_p_u={_fmt(v)}" for v in u_grid] + ["energy_p", "decision"]
    lines = [",".join(header)]
    for report in reports:
        cells = [_fmt(report.t)]
        ks = list(report.ks_p_values) or [None] * len(u_grid)
        cells.extend("" if p is None else _fmt(p) for p in ks)
        cells.append("" if report.energy_p_value is None else _fmt(report.energy_p_value))
        cells.append(report.decision)
        lines.append(",".join(cells))
    _write_atomic(out_dir / "summary.csv", "\n".join(lines) + "\n")
    outputs.append("summary.csv")
    warned = any(report.warnings or report.decision == "hypothesis_violation" for report in reports)
    if warned:
        code = EXIT_WARN
    elif reports[-1].decision == "reject":
        code = EXIT_REJECT
    else:
        code = EXIT_PASS
    summary = {
        "command": "converge",
        "decisions": [report.decision for report in reports],
        "outputs": outputs,
    }
    return code, summary


def cmd_dri(config, out_dir, args):
    raw = config.raw
    k_max = require_int(raw, "dri.k_max", minimum=1) if optional(raw, "dri.k_max") is not None else 50
    grid = (
        require_int(raw, "dri.grid_per_unit", minimum=2)
        if optional(raw, "dri.grid_per_unit") is not None
        else 8
    )
    n_mc = require_int(raw, "dri.n_mc", minimum=1) if optional(raw, "dri.n_mc") is not None else 2000
    mean_report = dri_mean_check(config.kernel, k_max, grid, n_mc, stream((config.seed, 10)))
    path_report = dri_path_check(config.kernel, k_max, n_mc, stream((config.seed, 11)))
    _write_atomic(out_dir / "dri_mean.json", _json_text(mean_report.to_dict()))
    _write_atomic(out_dir / "dri_path.json", _json_text(path_report.to_dict()))
    verdicts = (mean_report.verdict, path_report.verdict)
    if all(v == CONVERGENT_EVIDENCE for v in verdicts):
        code = EXIT_PASS
        explanation = "both criteria show convergent evidence"
    elif all(v == DIVERGENT_EVIDENCE for v in verdicts):
        code = EXIT_REJECT
        explanation = "both criteria show divergent evidence"
    else:
        code = EXIT_WARN
        explanation = (
            f"criteria disagree or are inconclusive (mean: {verdicts[0]}, path: {verdicts[1]}); "
            "a mean-convergent, path-divergent kernel fades in probability but not pathwise"
        )
    combined = {"mean_verdict": verdicts[0], "path_verdict": verdicts[1], "explanation": explanation}
    _write_atomic(out_dir / "dri_summary.json", _json_text(combined))
    summary = {"command": "dri", "verdicts": list(verdicts), "outputs": ["dri_mean.json", "dri_path.json", "dri_summary.json"]}
    return code, summary


def cmd_pointprocess(config, out_dir, args):
    raw = config.raw
    mu = law_mean(config.law)
    horizon = (
        require_number(raw, "pointprocess.horizon", exclusive_minimum=0.0)
        if optional(raw, "pointprocess.horizon") is not None
        else 50.0 * mu
    )
    n_real = (
        require_int(raw, "pointprocess.n_realizations", minimum=10)
        if optional(raw, "pointprocess.n_realizations") is not None
        else 10_000
    )
    n_windows = (
        require_int(raw, "pointprocess.n_windows", minimum=10)
        if optional(raw, "pointprocess.n_windows") is not None
        else 10_000
    )
    intervals = (
        require_intervals(raw, "pointprocess.intervals")
        if optional(raw, "pointprocess.intervals") is not None
        else [(0.0, 5.0 * mu)]
    )
    shift = (
        require_number(raw, "pointprocess.shift")
        if optional(raw, "pointprocess.shift") is not None
        else 0.25 * mu
    )
    alpha = require_number(raw, "alpha", exclusive_minimum=0.0, maximum=0.5) if "alpha" in raw else 0.01
    if optional(raw, "pointprocess.laplace.h") is None:
        h = DeterministicTable((0.0, mu), (1.0, 0.0))
    else:
        h = require_kernel(raw, "pointprocess.laplace.h")
        if h.kind != DeterministicTable.kind or min(h.values) < 0 or math.isinf(h.support_end()):
            raise ConfigError(
                "pointprocess.laplace.h: must be a nonnegative deterministic_table kernel with compact support"
            )
    laplace_t = (
        require_number(raw, "pointprocess.laplace.t", exclusive_minimum=0.0)
        if optional(raw, "pointprocess.laplace.t") is not None
        else horizon
    )
    laplace_n = (
        require_int(raw, "pointprocess.laplace.n_mc", minimum=100)
        if optional(raw, "pointprocess.laplace.n_mc") is not None
        else 10_000
    )
    row_points = pointprocess_row_points(config.law, intervals, shift, horizon, h, laplace_t)
    for field, points in row_points.items():
        if points > MAX_ROW_POINTS:
            raise ConfigError(
                f"pointprocess.{field}: one window or forward run would hold about {points:.3g} "
                f"expected points, above the budget of {MAX_ROW_POINTS}"
            )

    intensity = intensity_check(config.law, intervals, n_windows, stream((config.seed, 20)))
    overshoot = overshoot_check(config.law, horizon, n_real, stream((config.seed, 21)))
    first_interval = intervals[0]
    shift_result = shift_invariance_check(
        config.law, shift, first_interval, n_windows, stream((config.seed, 22))
    )
    laplace = laplace_functional_compare(config.law, h, laplace_t, laplace_n, stream((config.seed, 23)))

    warnings = []
    if is_lattice(config.law):
        warnings.append("interarrival law is lattice; the limit theory assumes nonlattice laws")
    if overshoot.horizon_warning:
        warnings.append(overshoot.horizon_warning)

    intensity_pass = all(abs(r.z_score) <= INTENSITY_Z_LIMIT for r in intensity)
    overshoot_pass = overshoot.result.p_value > alpha
    shift_pass = shift_result.p_value > alpha
    laplace_gap = abs(laplace.transient_estimate - laplace.stationary_estimate)
    laplace_tol = math.sqrt(laplace.transient_ci**2 + laplace.stationary_ci**2)
    laplace_pass = laplace_gap <= laplace_tol

    payload = {
        "intensity": [r.to_dict() for r in intensity],
        "intensity_pass": intensity_pass,
        "overshoot": overshoot.to_dict(),
        "overshoot_pass": overshoot_pass,
        "shift_invariance": shift_result.to_dict(),
        "shift_invariance_pass": shift_pass,
        "laplace": laplace.to_dict(),
        "laplace_pass": laplace_pass,
        "alpha": alpha,
        "warnings": warnings,
    }
    _write_atomic(out_dir / "pointprocess.json", _json_text(payload))
    all_pass = intensity_pass and overshoot_pass and shift_pass and laplace_pass
    if warnings:
        code = EXIT_WARN
    elif not all_pass:
        code = EXIT_REJECT
    else:
        code = EXIT_PASS
    summary = {
        "command": "pointprocess",
        "passes": {
            "intensity": intensity_pass,
            "overshoot": overshoot_pass,
            "shift_invariance": shift_pass,
            "laplace": laplace_pass,
        },
        "outputs": ["pointprocess.json"],
    }
    return code, summary


_COMMANDS = {
    "simulate": cmd_simulate,
    "stationary": cmd_stationary,
    "converge": cmd_converge,
    "dri": cmd_dri,
    "pointprocess": cmd_pointprocess,
}


class _Parser(argparse.ArgumentParser):
    # Usage problems share the config-error exit code (2 means rejection).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="renewal-immigration",
        description="Simulate and statistically verify random processes with immigration at renewal epochs.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="experiment config JSON file")
    parser.add_argument("--out-dir", default="out", help="directory for output artifacts")
    parser.add_argument("--dump-window", action="store_true", help="also write a window CSV (stationary)")
    parser.add_argument("-v", "--verbose", action="store_true", help="human-readable progress on stderr")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _log(args.verbose, f"running {args.command} with seed {config.seed}")
        code, summary = _COMMANDS[args.command](config, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonAbsorbedPathError as exc:
        # A kernel path outran its jump budget: the expected absorption
        # time may be infinite, which is a hypothesis warning, not a crash.
        name = f"{args.command}_error.json"
        _write_atomic(out_dir / name, _json_text({"error": "non_absorbed_path", "message": str(exc)}))
        code, summary = EXIT_WARN, {"command": args.command, "error": "non_absorbed_path", "outputs": [name]}
    summary["exit"] = code
    print(json.dumps(summary, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
