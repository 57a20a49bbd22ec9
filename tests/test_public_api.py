import importlib
import pkgutil

import pytest

import dpnoise
from dpnoise.core import NoiseMechanism


def _submodules():
    for info in pkgutil.iter_modules(dpnoise.__path__):
        if not info.name.startswith("_"):
            yield importlib.import_module(f"dpnoise.{info.name}")


def test_each_public_name_has_one_home():
    homes: dict[str, list[str]] = {}
    for module in _submodules():
        for name in module.__all__:
            homes.setdefault(name, []).append(module.__name__)
    shared = {name: where for name, where in homes.items() if len(where) > 1}
    assert shared == {}


def test_package_exports_resolve():
    for name in dpnoise.__all__:
        assert hasattr(dpnoise, name), name
    assert len(set(dpnoise.__all__)) == len(dpnoise.__all__)


def test_interval_mass_and_cdf_are_defined_once():
    # every shipped mechanism states its half-line mass; cdf and interval
    # masses follow from it in NoiseMechanism
    shipped = {
        obj
        for module in _submodules()
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, NoiseMechanism)
    }
    assert len(shipped) > 1
    for cls in shipped:
        assert cls.interval_mass is NoiseMechanism.interval_mass, cls.__name__
        assert cls.cdf is NoiseMechanism.cdf, cls.__name__


@pytest.mark.parametrize(
    "name",
    ["TruncLapParams", "calibrate", "laplace_mechanism", "uniform_limit_mechanism"],
)
def test_removed_names_are_gone(name):
    # a mechanism is built by its class's from_privacy, and holds its numbers
    assert name not in dpnoise.__all__
    assert not hasattr(dpnoise, name)
    for module in _submodules():
        assert not hasattr(module, name), module.__name__
