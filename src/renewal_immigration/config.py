"""Experiment config files: one JSON document per experiment.

Schema (version 1)::

    {
      "schema": 1,
      "law":    {"family": "exponential", "rate": 1.0},
      "kernel": {"kind": "indicator", "eta": {"family": "exponential", "rate": 1.0}},
      "seed":   7,
      ...command-specific fields...
    }

Command fields (all numbers unless noted):

* ``simulate``:  ``t``, ``u_grid`` (sorted list), ``n_replicates``
* ``stationary``: ``u_grid``, ``n_replicates``, ``tol``, optional ``c``
  (window half-width for ``--dump-window``) and ``c_max``
* ``converge``: ``t_list`` (list), ``u_grid``, ``n_replicates``, ``alpha``,
  ``tol``, optional ``n_permutations``
* ``dri``: ``dri`` object with ``k_max``, ``grid_per_unit``, ``n_mc``
* ``pointprocess``: optional ``pointprocess`` object with ``horizon``,
  ``n_realizations``, ``n_windows``, ``intervals`` (nonempty list of
  ``[a, b]`` pairs with ``a <= b``), ``shift``, ``alpha``, and a
  ``laplace`` object (``h`` table config, ``t``, ``n_mc``)

``seed`` is mandatory everywhere: commands are pure functions of the config
file, never of the wall clock.
"""

import json
import math
from dataclasses import dataclass

from .distributions import Law, law_from_config
from .errors import ConfigError, KernelError, LawError
from .kernels import KernelSpec, kernel_from_config

__all__ = ["ExperimentConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    law: Law
    kernel: KernelSpec
    seed: int
    raw: dict


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _lookup(raw, path):
    node = raw
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            _fail(path, "missing required field")
        node = node[key]
    return node


def _is_number(value):
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def require_number(raw, path, minimum=None, exclusive_minimum=None, maximum=None):
    node = _lookup(raw, path)
    if not _is_number(node):
        _fail(path, f"must be a finite number, got {node!r}")
    value = float(node)
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {node!r}")
    if exclusive_minimum is not None and value <= exclusive_minimum:
        _fail(path, f"must be > {exclusive_minimum}, got {node!r}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}, got {node!r}")
    return value


def require_int(raw, path, minimum=None):
    value = require_number(raw, path, minimum=minimum)
    if value != int(value):
        _fail(path, "must be an integer")
    return int(value)


def _require_numbers(raw, path):
    node = _lookup(raw, path)
    if not isinstance(node, list) or not node or not all(_is_number(v) for v in node):
        _fail(path, "must be a nonempty list of finite numbers")
    return [float(v) for v in node]


def require_grid(raw, path):
    values = _require_numbers(raw, path)
    if any(b <= a for a, b in zip(values, values[1:])):
        _fail(path, "must be strictly increasing")
    return values


def require_t_list(raw, path):
    values = _require_numbers(raw, path)
    if any(v < 0 for v in values):
        _fail(path, "must be a nonempty list of numbers >= 0")
    return values


def require_intervals(raw, path):
    node = _lookup(raw, path)
    if (
        not isinstance(node, list)
        or not node
        or not all(isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair)) for pair in node)
    ):
        _fail(path, "must be a nonempty list of [a, b] pairs of finite numbers")
    if any(b < a for a, b in node):
        _fail(path, "each pair [a, b] must have a <= b")
    return [(float(a), float(b)) for a, b in node]


def require_kernel(raw, path):
    try:
        return kernel_from_config(_lookup(raw, path))
    except (KernelError, LawError) as exc:
        _fail(path, str(exc))


def optional(raw, path, default=None):
    try:
        return _lookup(raw, path)
    except ConfigError:
        return default


def parse_config(raw):
    """Validate the common fields and build the law/kernel objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config: must be a JSON object")
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        _fail("schema", f"must be {SCHEMA_VERSION}, got {schema!r}")
    if "seed" not in raw:
        _fail("seed", "missing required field (wall-clock seeding is not supported)")
    seed = require_int(raw, "seed", minimum=0)
    try:
        law = law_from_config(_lookup(raw, "law"), interarrival=True)
    except LawError as exc:
        _fail("law", str(exc))
    kernel = require_kernel(raw, "kernel")
    return ExperimentConfig(law=law, kernel=kernel, seed=seed, raw=raw)


def load_config(path):
    """Read and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)
