"""Experiment config files: one JSON document per experiment.

Every config holds four common fields, which :func:`load_config` validates::

    {
      "schema": 1,
      "law":    {"family": "exponential", "rate": 1.0},
      "kernel": {"kind": "indicator", "eta": {"family": "exponential", "rate": 1.0}},
      "seed":   7,
      ...command-specific fields...
    }

``seed`` is mandatory everywhere: commands are pure functions of the config
file, never of the wall clock.  Each command's own fields are declared once,
with their type, bound and default, in :data:`COMMANDS` (the README's
"Command line" section tables them); :func:`command_fields` validates them
and checks the run's work budget before anything is drawn.  A missing field
takes its default and a field without one is required; an explicit ``null``
is rejected like any other value of the wrong type.
"""

import json
import math
import operator
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable

from .diagnostics import intensity_half_width, laplace_half_width, shift_half_width
from .distributions import Law, integer, is_finite_number, law_from_config, number, numbers
from .errors import ConfigError, KernelError, LawError, TruncationError
from .kernels import DeterministicTable, KernelSpec, kernel_from_config
from .process import first_half_width, stationary_half_width

__all__ = ["COMMANDS", "ExperimentConfig", "Field", "command_fields", "load_config", "parse_config"]

SCHEMA_VERSION = 1

# Work budget in expected renewal points.  A row (one forward run, one
# stationary window or one dri sample) is drawn whole, so it may hold at most
# MAX_ROW_POINTS.  A run may draw at most MAX_RUN_POINTS in all, counting
# rows x (1 + points per row) over every kind of row it draws; the largest
# config among the tests, scripts and benchmark draws about 1.3e6.
MAX_ROW_POINTS = 10**6
MAX_RUN_POINTS = 2 * 10**7

_ABSENT = object()  # a field missing from the config, or without a default
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


@dataclass(frozen=True)
class ExperimentConfig:
    law: Law
    kernel: KernelSpec
    seed: int
    raw: dict


@dataclass(frozen=True)
class Field:
    """One config field: its dotted path, ``parse(node, path)``, bound and default.

    ``bound`` alternates operators and limits, e.g. ``(">", 0.0, "<=", 0.5)``;
    ``default`` is a value or a function of the law's mean and the values
    read so far, and a field without one is required.
    """

    path: str
    parse: Callable
    bound: tuple = ()
    default: object = _ABSENT


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _lookup(raw, path):
    """The node at ``path``, or ``_ABSENT`` when it or an enclosing object is missing."""
    node = raw
    keys = path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(node, dict):
            _fail(".".join(keys[:i]), f"must be an object, got {node!r}")
        if key not in node:
            return _ABSENT
        node = node[key]
    return node


def _read(raw, field, mu, values):
    node = _lookup(raw, field.path)
    if node is _ABSENT:
        if field.default is _ABSENT:
            _fail(field.path, "missing required field")
        return field.default(mu, values) if callable(field.default) else field.default
    value = field.parse(node, field.path)
    for op, limit in zip(field.bound[::2], field.bound[1::2]):
        if not _BOUNDS[op](value, limit):
            _fail(field.path, f"must be {op} {limit}, got {node!r}")
    return value


# --------------------------------------------------------------------------
# Field types


_number = partial(number, error=ConfigError)
_integer = partial(integer, error=ConfigError)


def _grid(node, path):
    values = numbers(node, path, ConfigError)
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        _fail(path, "must be a nonempty, strictly increasing list")
    return values


def _times(node, path):
    values = numbers(node, path, ConfigError)
    if not values or any(v < 0 for v in values):
        _fail(path, "must be a nonempty list of numbers >= 0")
    return values


def _intervals(node, path):
    if not isinstance(node, list) or not node or not all(
        isinstance(pair, list) and len(pair) == 2 and all(map(is_finite_number, pair)) for pair in node
    ):
        _fail(path, "must be a nonempty list of [a, b] pairs of finite numbers")
    if any(b < a for a, b in node):
        _fail(path, "each pair [a, b] must have a <= b")
    return [(float(a), float(b)) for a, b in node]


def _law(node, path):
    try:
        return law_from_config(node, interarrival=True)
    except LawError as exc:
        _fail(path, str(exc))


def _kernel(node, path):
    try:
        return kernel_from_config(node)
    except (KernelError, LawError) as exc:
        _fail(path, str(exc))


def _laplace_h(node, path):
    h = _kernel(node, path)
    if h.kind != DeterministicTable.kind or min(h.values) < 0 or math.isinf(h.support_end()):
        _fail(path, "must be a nonnegative deterministic_table kernel with compact support")
    return h


# --------------------------------------------------------------------------
# The schema: each command's fields, and the rows its run draws as
# ``(rows path, rows, row path, expected points per row)``.


def _run(end, law):
    """Expected points of a forward run to ``end``."""
    return max(end, 0.0) / law.mean()


def _window(c, law):
    """Expected points of a stationary window of half-width ``c``."""
    return 2.0 * c / law.mean()


def _stationary_row(v, law, kernel, c_max=None):
    """Replicate windows at the half-width the run draws, charged to ``tol`` once it grows."""
    try:
        c, _ = stationary_half_width(law, kernel, v.u_grid, v.tol, c_max)
    except TruncationError:
        return "n_replicates", v.n_replicates, "tol", 0.0  # the run fails before its first draw
    grown = c > first_half_width(kernel.support_end(), v.u_grid, law.mean())
    return "n_replicates", v.n_replicates, "tol" if grown else "u_grid", _window(c, law)


def _pointprocess_rows(v, law, kernel):
    windows, runs, laplace = "pointprocess.n_windows", "pointprocess.n_realizations", "pointprocess.laplace.n_mc"
    return [
        (windows, v.n_windows, "pointprocess.intervals", _window(intensity_half_width(law, v.intervals), law)),
        (windows, v.n_windows, "pointprocess.shift", _window(shift_half_width(law, v.shift, v.intervals[0]), law)),
        (runs, v.n_realizations, "pointprocess.horizon", _run(v.horizon, law)),
        (laplace, v.laplace_n_mc, "pointprocess.laplace.t", _run(v.laplace_t, law)),
        (laplace, v.laplace_n_mc, "pointprocess.laplace.h", _window(laplace_half_width(law, v.laplace_h), law)),
    ]


COMMON = (Field("seed", _integer, (">=", 0)), Field("law", _law), Field("kernel", _kernel))

_POSITIVE = (">", 0.0)
_LEVEL = (">", 0.0, "<=", 0.5)
_REPLICATES = Field("n_replicates", _integer, (">=", 1))

COMMANDS = {
    "simulate": (
        (Field("t", _number, (">=", 0.0)), Field("u_grid", _grid), _REPLICATES),
        lambda v, law, kernel: [("n_replicates", v.n_replicates, "t", _run(v.t + v.u_grid[-1], law))],
    ),
    "stationary": (
        (
            Field("u_grid", _grid),
            _REPLICATES,
            Field("tol", _number, _POSITIVE, 1e-6),
            Field("c_max", _number, _POSITIVE, None),
            Field("c", _number, _POSITIVE, lambda mu, v: 10.0 * mu),
        ),
        lambda v, law, kernel: [_stationary_row(v, law, kernel, v.c_max), ("c", 1, "c", _window(v.c, law))],
    ),
    "converge": (
        (
            Field("t_list", _times),
            Field("u_grid", _grid),
            _REPLICATES,
            Field("alpha", _number, _LEVEL, 0.01),
            Field("tol", _number, _POSITIVE, 1e-6),
            Field("n_permutations", _integer, (">=", 19), 200),
        ),
        lambda v, law, kernel: [_stationary_row(v, law, kernel)]
        + [("n_replicates", v.n_replicates, "t_list", _run(t + v.u_grid[-1], law)) for t in v.t_list],
    ),
    "dri": (
        (
            Field("dri.k_max", _integer, (">=", 1), 50),
            Field("dri.grid_per_unit", _integer, (">=", 2), 8),
            Field("dri.n_mc", _integer, (">=", 1), 2000),
        ),
        # The mean criterion's grid, then the path criterion's unit intervals.
        lambda v, law, kernel: [
            ("dri.n_mc", v.n_mc, "dri.k_max", float(v.k_max) * v.grid_per_unit),
            ("dri.n_mc", v.n_mc, "dri.k_max", v.k_max),
        ],
    ),
    "pointprocess": (
        (
            Field("pointprocess.horizon", _number, _POSITIVE, lambda mu, v: 50.0 * mu),
            Field("pointprocess.n_realizations", _integer, (">=", 10), 10_000),
            Field("pointprocess.n_windows", _integer, (">=", 10), 10_000),
            Field("pointprocess.intervals", _intervals, (), lambda mu, v: [(0.0, 5.0 * mu)]),
            Field("pointprocess.shift", _number, (), lambda mu, v: 0.25 * mu),
            Field("alpha", _number, _LEVEL, 0.01),
            Field("pointprocess.laplace.h", _laplace_h, (), lambda mu, v: DeterministicTable((0.0, mu), (1.0, 0.0))),
            Field("pointprocess.laplace.t", _number, _POSITIVE, lambda mu, v: v["horizon"]),
            Field("pointprocess.laplace.n_mc", _integer, (">=", 100), 10_000),
        ),
        _pointprocess_rows,
    ),
}


def _check_budget(rows):
    for _, _, path, points in rows:
        if points > MAX_ROW_POINTS:
            _fail(path, f"one row would hold about {points:.3g} expected points, above the row budget {MAX_ROW_POINTS}")
    work = [(n * (1.0 + points), path) for path, n, _, points in rows]
    total = sum(w for w, _ in work)
    if total > MAX_RUN_POINTS:
        _fail(max(work)[1], f"the run would draw about {total:.3g} expected points, above the budget {MAX_RUN_POINTS}")


def parse_config(raw):
    """Validate the common fields and build the law/kernel objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config: must be a JSON object")
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        _fail("schema", f"must be {SCHEMA_VERSION}, got {schema!r}")
    if "seed" not in raw:
        _fail("seed", "missing required field (wall-clock seeding is not supported)")
    seed, law, kernel = (_read(raw, field, None, {}) for field in COMMON)
    return ExperimentConfig(law=law, kernel=kernel, seed=seed, raw=raw)


def command_fields(command, config):
    """Validate ``command``'s fields of ``config`` and check the run's work budget.

    Returns the values as attributes named by their paths below the
    command's own object, dots as underscores (``pointprocess.laplace.t``
    is ``laplace_t``).  Raises :class:`ConfigError` before any draw when a
    field is malformed or one row or the whole run would exceed its budget.
    """
    fields, rows = COMMANDS[command]
    mu = config.law.mean()
    values = {}
    for field in fields:
        name = (field.path.partition(".")[2] or field.path).replace(".", "_")
        values[name] = _read(config.raw, field, mu, values)
    values = SimpleNamespace(**values)
    _check_budget(rows(values, config.law, config.kernel))
    return values


def load_config(path):
    """Read and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or text encoding, or nesting too deep to parse
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)
