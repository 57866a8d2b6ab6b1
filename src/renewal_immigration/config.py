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

This module is the one owner of the config form of laws and kernel specs.
A law or spec is a dataclass named by its tag (a law's ``family``, a
spec's ``kind``), and its config is the tag plus one key per field, read
by the field's annotated type (``float``, ``int``, a ``tuple`` of floats,
a law or a nested spec; a finite-discrete law's ``atoms`` are
``[value, probability]`` pairs).  :func:`law_from_config` and
:func:`kernel_from_config` read that form and :func:`to_config` writes it.
"""

import json
import math
import operator
import sys
from dataclasses import MISSING, fields, is_dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable, get_args

from ._records import Record
from .diagnostics import intensity_half_width, laplace_half_width, shift_half_width
from .distributions import Law, check_interarrival
from .errors import ConfigError, KernelError, LawError, TruncationError
from .kernels import DeterministicTable, KernelSpec
from .process import first_half_width, stationary_half_width
from .stats import ENERGY_EXACT_ROWS

__all__ = ["COMMANDS", "ExperimentConfig", "Field", "command_fields", "load_config", "parse_config",
           "law_from_config", "kernel_from_config", "to_config"]

SCHEMA_VERSION = 1

# Work budget in expected renewal points.  A row (one forward run, one
# stationary window or one dri sample) is drawn whole, so it may hold at most
# MAX_ROW_POINTS.  A run may draw at most MAX_RUN_POINTS in all, counting
# rows x (1 + points per row) over every kind of row it draws, times
# len(u_grid) for the fdd rows, whose points are each evaluated on the
# whole grid; the largest fixed config among the tests, CI and benchmark
# (CI's simulate of 10^5 replicates on 10 grid points) counts about 1.5e7.
MAX_ROW_POINTS = 10**6
MAX_RUN_POINTS = 2 * 10**7
# Work budget of converge's energy tests, which the points do not count: a
# test that rejects runs all n_permutations + 1 labellings, each about k^2
# products over its k <= min(2 n_replicates, ENERGY_EXACT_ROWS) distinct rows
# (0.2 ns a product on one Xeon core).  Summed over t_list, the largest
# config among the tests, CI and benchmark (the benchmark's converge-mginf,
# 3000 replicates and 2999 labellings) forms about 2.2e11.
MAX_ENERGY_PRODUCTS = 10**12

_ABSENT = object()  # a field missing from the config, or without a default
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


class ExperimentConfig(Record):
    """A config's law, kernel and seed, and its JSON object, from which each command reads its own fields."""

    law: Law
    kernel: KernelSpec
    seed: int
    raw: dict


class Field(Record):
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
# Field types.  The first four are shared by laws, kernels and experiment
# configs; each caller passes the error type it raises.


def is_finite_number(value):
    """Whether ``value`` is a JSON number (an int or float, not a bool) with a finite float value."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def number(value, name, error):
    """``value`` as a float; raises ``error`` unless it is a finite JSON number."""
    if not is_finite_number(value):
        raise error(f"{name}: must be a finite number, got {value!r}")
    return float(value)


def integer(value, name, error):
    """``value`` as an int; raises ``error`` unless it is an integral finite JSON number.

    An int comes back unchanged: through a float, seeds above 2**53 would
    lose digits and share streams.
    """
    x = number(value, name, error)
    if isinstance(value, int):
        return value
    if x != int(x):
        raise error(f"{name}: must be an integer, got {value!r}")
    return int(x)


def numbers(value, name, error):
    """``value`` as a tuple of floats; raises ``error`` unless it is a list of finite JSON numbers."""
    if type(value) not in (list, tuple) or not all(map(is_finite_number, value)):
        raise error(f"{name}: must be a list of finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


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


# --------------------------------------------------------------------------
# Laws and kernel specs


_FAMILIES = {cls.family: cls for cls in get_args(Law)}
_KINDS = {cls.kind: cls for cls in get_args(KernelSpec)}


def _atoms(atoms, name, error):
    if type(atoms) not in (list, tuple) or not all(type(a) in (list, tuple) and len(a) == 2 for a in atoms):
        raise error(f"{name}: must be a list of [value, probability] pairs, got {atoms!r}")
    return tuple((number(v, "atom value", error), number(p, "atom probability", error)) for v, p in atoms)


def _field_value(f, value, error):
    """One field of a law or kernel config, parsed by the field's annotated type."""
    if f.name == "atoms":
        return _atoms(value, f.name, error)
    parse = {float: number, int: integer, tuple: numbers}.get(f.type)
    if parse is not None:
        return parse(value, f.name, error)
    if f.type is Law:
        return law_from_config(value)
    spec = kernel_from_config(value)
    if not isinstance(spec, f.type):
        raise KernelError(f"{f.name}: must be a {f.type.kind!r} kernel, got {spec.kind!r}")
    return spec


def _from_config(config, noun, tag, classes, error):
    """The dataclass that ``config[tag]`` names, built from the fields ``config`` gives.

    A config that is not a dict with the tag, an unknown tag, a key that is
    no field of the class, a missing field without a default and a field
    value :func:`_field_value` cannot parse all raise ``error``, as does the
    class itself for values it rejects; a nested law raises :class:`LawError`.
    """
    if not isinstance(config, dict) or tag not in config:
        raise error(f"{noun} config must be a dict with a {tag!r} key")
    name = config[tag]
    try:
        cls = classes[name]
    except (KeyError, TypeError):
        raise error(f"unknown {noun} {tag} {name!r}") from None
    body = {k: v for k, v in config.items() if k != tag}
    unknown = sorted(set(body) - {f.name for f in fields(cls)})
    if unknown:
        raise error(f"{noun} config for {tag} {name!r} has unknown keys {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in body and f.default is MISSING]
    if missing:
        raise error(f"{noun} config for {tag} {name!r} is malformed: missing {missing}")
    return cls(**{f.name: _field_value(f, body[f.name], error) for f in fields(cls) if f.name in body})


def law_from_config(config):
    """Build a law from its config; raises :class:`LawError` on any malformed field.

    It checks the law in its own right only; a config's ``law`` must also
    pass :func:`~renewal_immigration.distributions.check_interarrival`.
    """
    return _from_config(config, "law", "family", _FAMILIES, LawError)


def kernel_from_config(config):
    """Build a kernel spec from its config; raises :class:`KernelError` on any malformed field."""
    return _from_config(config, "kernel", "kind", _KINDS, KernelError)


def _config_value(value):
    if isinstance(value, tuple):
        return [_config_value(v) for v in value]
    return to_config(value) if is_dataclass(value) else value


def to_config(spec):
    """The config of a law or kernel spec: its ``family`` or ``kind``, then every field.

    Tuples become lists, a finite-discrete law's atom pairs included, and
    a nested law or spec becomes its config.
    """
    tag = "family" if isinstance(spec, Law) else "kind"
    return {tag: getattr(spec, tag)} | {f.name: _config_value(getattr(spec, f.name)) for f in fields(spec)}


def _law(node, path):
    try:
        return check_interarrival(law_from_config(node))
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
# ``(rows path, rows, row path, expected points per row, grid points)``,
# the last the number of grid points each of a row's points is evaluated
# at: len(u_grid) for fdd rows, 1 for the others.


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
        return "n_replicates", v.n_replicates, "tol", 0.0, 1  # the run fails before its first draw
    grown = c > first_half_width(kernel.support_end(), v.u_grid, law.mean())
    return "n_replicates", v.n_replicates, "tol" if grown else "u_grid", _window(c, law), len(v.u_grid)


def _pointprocess_rows(v, law, kernel):
    windows, runs, laplace = "pointprocess.n_windows", "pointprocess.n_realizations", "pointprocess.laplace.n_mc"
    return [
        (windows, v.n_windows, "pointprocess.intervals", _window(intensity_half_width(law, v.intervals), law), 1),
        (windows, v.n_windows, "pointprocess.shift", _window(shift_half_width(law, v.shift, v.intervals[0]), law), 1),
        (runs, v.n_realizations, "pointprocess.horizon", _run(v.horizon, law), 1),
        (laplace, v.laplace_n_mc, "pointprocess.laplace.t", _run(v.laplace_t, law), 1),
        (laplace, v.laplace_n_mc, "pointprocess.laplace.h", _window(laplace_half_width(law, v.laplace_h), law), 1),
    ]


COMMON = (Field("seed", _integer, (">=", 0)), Field("law", _law), Field("kernel", _kernel))

_POSITIVE = (">", 0.0)
_LEVEL = (">", 0.0, "<=", 0.5)
_REPLICATES = Field("n_replicates", _integer, (">=", 1))

COMMANDS = {
    "simulate": (
        (Field("t", _number, (">=", 0.0)), Field("u_grid", _grid), _REPLICATES),
        lambda v, law, kernel: [("n_replicates", v.n_replicates, "t", _run(v.t + v.u_grid[-1], law), len(v.u_grid))],
    ),
    "stationary": (
        (
            Field("u_grid", _grid),
            _REPLICATES,
            Field("tol", _number, _POSITIVE, 1e-6),
            Field("c_max", _number, _POSITIVE, None),
            Field("c", _number, _POSITIVE, lambda mu, v: 10.0 * mu),
        ),
        lambda v, law, kernel: [_stationary_row(v, law, kernel, v.c_max), ("c", 1, "c", _window(v.c, law), 1)],
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
        + [("n_replicates", v.n_replicates, "t_list", _run(t + v.u_grid[-1], law), len(v.u_grid)) for t in v.t_list],
    ),
    "dri": (
        (
            Field("dri.k_max", _integer, (">=", 1), 50),
            Field("dri.grid_per_unit", _integer, (">=", 2), 8),
            Field("dri.n_mc", _integer, (">=", 1), 2000),
        ),
        # The mean criterion's grid, then the path criterion's unit intervals.
        lambda v, law, kernel: [
            ("dri.n_mc", v.n_mc, "dri.k_max", float(v.k_max) * v.grid_per_unit, 1),
            ("dri.n_mc", v.n_mc, "dri.k_max", v.k_max, 1),
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
    for _, _, path, points, _ in rows:
        if points > MAX_ROW_POINTS:
            _fail(path, f"one row would hold about {points:.3g} expected points, above the row budget {MAX_ROW_POINTS}")
    work = [(n * (1.0 + points) * grid, path) for path, n, _, points, grid in rows]
    total = sum(w for w, _ in work)
    if total > MAX_RUN_POINTS:
        _fail(
            max(work)[1],
            f"the run would draw about {total:.3g} expected points, counted once per grid point where they are "
            f"evaluated, above the budget {MAX_RUN_POINTS}",
        )


def _check_energy(v):
    k = min(2 * v.n_replicates, ENERGY_EXACT_ROWS)
    # In floats: an int count near 1e308 times k^2 could not be formatted.
    products = len(v.t_list) * (v.n_permutations + 1.0) * k * k
    if products > MAX_ENERGY_PRODUCTS:
        _fail(
            "n_permutations",
            f"the energy tests could form about {products:.3g} products, above the budget {MAX_ENERGY_PRODUCTS}",
        )


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
    field is malformed, or when one row, the whole run or converge's energy
    tests would exceed their budget.
    """
    fields, rows = COMMANDS[command]
    mu = config.law.mean()
    values = {}
    for field in fields:
        name = (field.path.partition(".")[2] or field.path).replace(".", "_")
        values[name] = _read(config.raw, field, mu, values)
    values = SimpleNamespace(**values)
    _check_budget(rows(values, config.law, config.kernel))
    if command == "converge":
        _check_energy(values)
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
