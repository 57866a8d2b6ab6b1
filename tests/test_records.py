"""The records' shared base: every record class behaves as a frozen dataclass."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import pydoc

import numpy as np
import pytest

import renewal_immigration
from renewal_immigration import config, stats
from renewal_immigration import diagnostics as dg
from renewal_immigration import distributions as dist
from renewal_immigration import kernels as kn
from renewal_immigration import renewal as rn
from renewal_immigration.process import FddSample
from renewal_immigration.streams import stream

TABLE = kn.DeterministicTable((0.0, 1.0, 2.5), (2.0, -1.0, 0.0))
KS = stats.TestResult(0.12, 0.34, 50, None, "ks_one_sample")

# One sample instance of every record class the package defines, by class
# name.  Records that hold arrays compare and hash by identity (IDENTITY).
SAMPLES = {
    "Exponential": lambda: dist.Exponential(1.5),
    "Gamma": lambda: dist.Gamma(2.0, 0.5),
    "Uniform": lambda: dist.Uniform(0.5, 1.5),
    "LogNormal": lambda: dist.LogNormal(-0.5, 1.0),
    "PointMass": lambda: dist.PointMass(2.0),
    "FiniteDiscrete": lambda: dist.FiniteDiscrete(((1.0, 0.25), (3.0, 0.75))),
    "Pareto": lambda: dist.Pareto(2.5, 1.0),
    "DeterministicTable": lambda: TABLE,
    "Indicator": lambda: kn.Indicator(dist.Exponential(1.0)),
    "ScaledExpDecay": lambda: kn.ScaledExpDecay(dist.Uniform(-1.0, 2.0), 0.7),
    "ScaledTable": lambda: kn.ScaledTable(dist.Exponential(2.0), TABLE),
    "BirthDeath": lambda: kn.BirthDeath(
        initial=2, birth_rates=(0.5, 0.5, 0.0), death_rates=(1.0, 1.0, 1.0), state_cap=3
    ),
    "SpikeTrain": kn.SpikeTrain,
    "TablePath": lambda: TABLE.sample(stream(9), 3),
    "IndicatorPath": lambda: kn.Indicator(dist.Exponential(1.0)).sample(stream(9), 3),
    "ExpDecayPath": lambda: kn.ScaledExpDecay(dist.Exponential(1.0), 0.7).sample(stream(9), 3),
    "SpikePath": lambda: kn.SpikeTrain().sample(stream(9), 3),
    "BirthDeathPath": lambda: kn.BirthDeath(2, (0.5, 0.5, 0.0), (1.0, 1.0, 1.0), 3).sample(stream(9), 3),
    "RenewalRealization": lambda: rn.simulate_forward(dist.Exponential(1.0), 5.0, stream(9), size=3),
    "StationaryWindow": lambda: rn.build_stationary_window(dist.Exponential(1.0), 3.0, stream(9), size=3),
    "FddSample": lambda: FddSample(u_grid=np.array([0.0, 1.0]), values=np.arange(6.0).reshape(3, 2), c_used=4.0),
    "TestResult": lambda: KS,
    "PermutationResult": lambda: stats.PermutationResult(
        0.5, 0.25, 40, 40, "energy_permutation", note="subsampled", labellings=19
    ),
    "DriReport": lambda: dg.DriReport("mean", np.ones(3), np.arange(3.0), dg.CONVERGENT_EVIDENCE, 3, 10, 0.5),
    "LaplaceComparison": lambda: dg.LaplaceComparison(0.4, 0.41, 0.01, 0.02, 6.0, 200, False),
    "ComparisonReport": lambda: dg.ComparisonReport(
        2.0, (0.0, 1.0), 100, 0.05, (0.1, 0.2), (0.5, 0.6), 0.3, 0.4, "no_rejection", ("lattice",)
    ),
    "IntervalIntensity": lambda: dg.IntervalIntensity((0.0, 1.0), 1.02, 1.0, 0.7),
    "OvershootReport": lambda: dg.OvershootReport(KS, 40.0, False, None),
    "ExperimentConfig": lambda: config.parse_config(
        {
            "schema": config.SCHEMA_VERSION,
            "seed": 3,
            "law": {"family": "gamma", "shape": 2.0, "scale": 0.5},
            "kernel": {"kind": "indicator", "eta": {"family": "exponential", "rate": 1.0}},
        }
    ),
    "Field": lambda: next(f for f in config.COMMANDS["stationary"][0] if f.path == "tol"),
}
IDENTITY = {
    "TablePath",
    "IndicatorPath",
    "ExpDecayPath",
    "SpikePath",
    "BirthDeathPath",
    "RenewalRealization",
    "StationaryWindow",
    "FddSample",
    "DriReport",
}
FROZEN_METHODS = ("__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def package_records():
    """Every dataclass defined in a module of the package."""
    found = set()
    for info in pkgutil.iter_modules(renewal_immigration.__path__):
        if info.name == "__main__":  # running it is the CLI
            continue
        module = importlib.import_module(f"renewal_immigration.{info.name}")
        found.update(
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
        )
    return found


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def test_samples_cover_every_record_class():
    built = {name: type(make()) for name, make in SAMPLES.items()}
    assert all(cls.__name__ == name for name, cls in built.items())
    assert set(built.values()) == package_records()
    assert IDENTITY <= set(SAMPLES)


@pytest.mark.parametrize("name", SAMPLES)
def test_record_behaves_as_a_frozen_dataclass(name):
    obj = SAMPLES[name]()
    cls = type(obj)
    fields = dataclasses.fields(obj)

    assert dataclasses.is_dataclass(obj) and dataclasses.is_dataclass(cls)
    assert list(dataclasses.asdict(obj)) == [f.name for f in fields]
    shown = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in fields if f.repr)
    assert repr(obj) == f"{cls.__qualname__}({shown})"

    rebuilt = dataclasses.replace(obj)
    assert type(rebuilt) is cls and rebuilt is not obj and repr(rebuilt) == repr(obj)
    loaded = pickle.loads(pickle.dumps(obj))
    assert type(loaded) is cls and repr(loaded) == repr(obj)

    assert obj == obj and not obj != obj
    if name in IDENTITY:
        assert rebuilt != obj and not rebuilt == obj
        assert hash(obj) == object.__hash__(obj)
    else:
        assert rebuilt == obj and not rebuilt != obj
        values = tuple(getattr(obj, f.name) for f in fields if f.compare)
        if _hash_or_error(values) is TypeError:
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(rebuilt) == hash(obj)
        for f in fields:
            other = copy.copy(obj)
            object.__setattr__(other, f.name, object())
            assert other != obj and not other == obj
    assert obj != object() and obj.__eq__(object()) is NotImplemented

    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.not_a_field = 1
    assert "not_a_field" not in vars(obj)
    for class_variable in set(cls.__dataclass_fields__) - {f.name for f in fields}:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, class_variable, getattr(obj, class_variable))
        assert class_variable not in vars(obj)
    assert repr(obj) == f"{cls.__qualname__}({shown})"

    assert list(inspect.signature(cls).parameters) == [f.name for f in fields if f.init]
    assert cls.__name__ in pydoc.render_doc(cls)


def test_records_share_their_frozen_methods_and_have_docstrings():
    # One base defines the methods a frozen dataclass would generate per
    # class, so no record class holds its own copy; and each class documents
    # itself instead of carrying the signature dataclass writes in its place.
    for cls in package_records():
        assert not [name for name in FROZEN_METHODS if name in vars(cls)], cls
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls
