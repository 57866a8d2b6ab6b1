"""Config-driven command line front end.

Every command is a pure function of ``(config file, seed)``: it writes
nothing and returns its exit code, its files as ``{name: text}`` and its
summary fields.  Once it returns, :func:`main` writes each file atomically,
in order, and prints one JSON summary whose ``outputs`` are exactly those
files.  Reruns produce byte-identical artifacts (sorted JSON keys,
17-significant-digit CSV floats, no wall-clock anywhere).  This module is
the one place that renders files: every CSV (the fdd ``matrix.csv``, the
``--dump-window`` ``window.csv`` and converge's ``summary.csv``) goes
through :func:`_csv`, row by row, so a matrix is never held as Python
floats all at once, and every JSON file through :func:`_json_text`.  A
JSON report is its result's fields, with its field names as keys and
arrays and tuples as lists.  JSON is strict: a non-finite float (an
infinite bound, say) is written as ``null``.

Exit codes: 0 pass, 1 usage/config/output error, 2 statistical rejection or
truncation failure, 3 dri criteria disagree / hypothesis warning.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import SCHEMA_VERSION, command_fields, load_config, to_config
from .diagnostics import (
    CONVERGENT_EVIDENCE,
    DIVERGENT_EVIDENCE,
    convergence_test,
    dri_mean_check,
    dri_path_check,
    intensity_check,
    laplace_functional_compare,
    lattice_warnings,
    overshoot_check,
    shift_invariance_check,
)
from .errors import ConfigError, NonAbsorbedPathError, TruncationError
from .process import fdd_sample
from .renewal import build_stationary_window
from .streams import DRI_MEAN, DRI_PATH, DUMP_WINDOW, INTENSITY, LAPLACE, OVERSHOOT, SHIFT, stream

__all__ = ["main", "cmd_simulate", "cmd_stationary", "cmd_converge", "cmd_dri", "cmd_pointprocess"]

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_REJECT = 2
EXIT_WARN = 3

INTENSITY_Z_LIMIT = 4.0


def _fmt(x):
    return f"{x:.17g}"


def _csv(header, rows):
    """CSV text: the header, then one line per row.  A cell that is a string
    is written as it is, ``None`` as an empty cell and a number by :func:`_fmt`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else "" if x is None else _fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _strict(obj):
    """``obj`` as JSON values: a dataclass as the dict of its fields, an array
    or tuple as a list, and every non-finite float as ``None``."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _strict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return _strict(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _json_text(obj):
    """Strict JSON: non-finite floats are written as ``null``."""
    return json.dumps(_strict(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_atomic(path, text):
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _log(verbose, message):
    if verbose:
        print(message, file=sys.stderr)


def _sample_files(config, sample, mode, **run):
    """``matrix.csv`` and ``metadata.json`` of an fdd sample; ``run`` is the command's ``t`` or ``tol``."""
    meta = run | {
        "schema": SCHEMA_VERSION,
        "law": to_config(config.law),
        "kernel": to_config(config.kernel),
        "mode": mode,
        "seed": config.seed,
        "n_replicates": len(sample.values),
        "u_grid": sample.u_grid,
    }
    if mode == "stationary":
        meta["c_used"] = sample.c_used
        if sample.truncation_bound is not None:
            meta["truncation_bound_max"] = sample.truncation_bound
    header = [f"u={_fmt(v)}" for v in sample.u_grid.tolist()]
    return {"matrix.csv": _csv(header, (row.tolist() for row in sample.values)), "metadata.json": _json_text(meta)}


def cmd_simulate(config, fields, args):
    u_grid, n, t = fields.u_grid, fields.n_replicates, fields.t
    sample = fdd_sample(config.law, config.kernel, "transient", u_grid, n, seed=config.seed, t=t)
    return EXIT_PASS, _sample_files(config, sample, "transient", t=t), {"rows": n, "cols": len(u_grid)}


def cmd_stationary(config, fields, args):
    u_grid, n, tol = fields.u_grid, fields.n_replicates, fields.tol
    dumped = {}
    if args.dump_window:
        window = build_stationary_window(config.law, fields.c, stream(config.seed, DUMP_WINDOW, 0), size=1)
        # Index 0 is the first point >= 0, so the negative points count the indices below it.
        first = -np.count_nonzero(window.points < 0)
        dumped["window.csv"] = _csv(["index", "point"], enumerate(window.points.tolist(), start=first))
    try:
        sample = fdd_sample(
            config.law, config.kernel, "stationary", u_grid, n, seed=config.seed, tol=tol, c_max=fields.c_max
        )
    except TruncationError as exc:
        report = {
            "error": "truncation",
            "message": str(exc),
            "bound": None if exc.bound is None else float(exc.bound),
            "c_used": exc.c_used,
            "tol": tol,
        }
        return EXIT_REJECT, dumped | {"truncation_report.json": _json_text(report)}, {"error": "truncation"}
    return EXIT_PASS, _sample_files(config, sample, "stationary", tol=tol) | dumped, {"rows": n, "cols": len(u_grid)}


def cmd_converge(config, fields, args):
    u_grid = fields.u_grid
    reports = convergence_test(
        config.law, config.kernel, fields.t_list, u_grid, fields.n_replicates, fields.alpha, config.seed,
        n_permutations=fields.n_permutations, tol=fields.tol,
    )
    files = {f"report_{i:03d}.json": _json_text(report) for i, report in enumerate(reports)}
    header = ["t", *(f"ks_p_u={_fmt(v)}" for v in u_grid), "energy_p", "decision"]
    rows = [
        [report.t, *(report.ks_p_values or [None] * len(u_grid)), report.energy_p_value, report.decision]
        for report in reports
    ]
    files["summary.csv"] = _csv(header, rows)
    warned = any(report.warnings or report.decision == "hypothesis_violation" for report in reports)
    if warned:
        code = EXIT_WARN
    elif reports[-1].decision == "reject":
        code = EXIT_REJECT
    else:
        code = EXIT_PASS
    return code, files, {"decisions": [report.decision for report in reports]}


def cmd_dri(config, fields, args):
    k_max, n_mc = fields.k_max, fields.n_mc
    mean_report = dri_mean_check(config.kernel, k_max, fields.grid_per_unit, n_mc, stream(config.seed, DRI_MEAN, 0))
    path_report = dri_path_check(config.kernel, k_max, n_mc, stream(config.seed, DRI_PATH, 0))
    verdicts = (mean_report.verdict, path_report.verdict)
    if all(v == CONVERGENT_EVIDENCE for v in verdicts):
        code = EXIT_PASS
        explanation = "both criteria show convergent evidence"
    elif all(v == DIVERGENT_EVIDENCE for v in verdicts):
        code = EXIT_REJECT
        explanation = "both criteria show divergent evidence"
    else:
        # The path criterion dominates the mean one: only the mean converges.
        code = EXIT_WARN
        explanation = (
            f"criteria disagree (mean: {verdicts[0]}, path: {verdicts[1]}); "
            "a mean-convergent, path-divergent kernel fades in probability but not pathwise"
        )
    combined = {"mean_verdict": verdicts[0], "path_verdict": verdicts[1], "explanation": explanation}
    files = {
        "dri_mean.json": _json_text(mean_report),
        "dri_path.json": _json_text(path_report),
        "dri_summary.json": _json_text(combined),
    }
    return code, files, {"verdicts": list(verdicts)}


def cmd_pointprocess(config, fields, args):
    law, seed, alpha = config.law, config.seed, fields.alpha
    intensity = intensity_check(law, fields.intervals, fields.n_windows, stream(seed, INTENSITY, 0))
    overshoot = overshoot_check(law, fields.horizon, fields.n_realizations, stream(seed, OVERSHOOT, 0))
    shift_result = shift_invariance_check(
        law, fields.shift, fields.intervals[0], fields.n_windows, stream(seed, SHIFT, 0)
    )
    laplace = laplace_functional_compare(
        law, fields.laplace_h, fields.laplace_t, fields.laplace_n_mc, stream(seed, LAPLACE, 0)
    )

    warnings = lattice_warnings(law)
    if overshoot.horizon_warning:
        warnings.append(overshoot.horizon_warning)

    laplace_gap = abs(laplace.transient_estimate - laplace.stationary_estimate)
    passes = {
        "intensity": all(abs(r.z_score) <= INTENSITY_Z_LIMIT for r in intensity),
        "overshoot": overshoot.ks.p_value > alpha,
        "shift_invariance": shift_result.p_value > alpha,
        "laplace": laplace_gap <= math.sqrt(laplace.transient_ci99**2 + laplace.stationary_ci99**2),
    }
    payload = {
        "intensity": intensity,
        "overshoot": overshoot,
        "shift_invariance": shift_result,
        "laplace": laplace,
        "alpha": alpha,
        "warnings": warnings,
    } | {f"{name}_pass": passed for name, passed in passes.items()}
    if warnings:
        code = EXIT_WARN
    elif not all(passes.values()):
        code = EXIT_REJECT
    else:
        code = EXIT_PASS
    return code, {"pointprocess.json": _json_text(payload)}, {"passes": passes}


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


def _run(command, config, fields, args):
    try:
        return _COMMANDS[command](config, fields, args)
    except NonAbsorbedPathError as exc:
        # A birth-death path outran its jump budget: ``max_jumps`` was too
        # small for the chain, which is a hypothesis warning, not a crash.
        error = {"error": "non_absorbed_path", "message": str(exc)}
        return EXIT_WARN, {f"{command}_error.json": _json_text(error)}, {"error": error["error"]}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        _log(args.verbose, f"running {args.command} with seed {config.seed}")
        fields = command_fields(args.command, config)
        # Only a config that passed every check gets an output directory.
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        code, files, summary = _run(args.command, config, fields, args)
        for name, text in files.items():
            _write_atomic(out_dir / name, text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # ``--out-dir`` names a file, or a directory that cannot be made or written.
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps({"command": args.command, **summary, "outputs": list(files), "exit": code}, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
