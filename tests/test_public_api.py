import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest
from test_readme import python_blocks

import dpnoise
from dpnoise.core import NoiseMechanism, PrivacyParams
from dpnoise.core import AggregateKind
from dpnoise.verifier import DiscretizedDist, discretize


def _submodules():
    for info in pkgutil.iter_modules(dpnoise.__path__):
        if not info.name.startswith("_"):
            yield importlib.import_module(f"dpnoise.{info.name}")


def _shipped_mechanisms() -> set[type]:
    return {
        obj
        for module in _submodules()
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, NoiseMechanism)
    }


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
    # every shipped mechanism states its half-line mass; the cdf follows
    # from it in NoiseMechanism, which also checks the input of pdf and
    # quantile and samples by the quantile
    shipped = _shipped_mechanisms()
    assert len(shipped) > 1
    for cls in shipped:
        for name in ("cdf", "pdf", "quantile", "sample"):
            assert getattr(cls, name) is getattr(NoiseMechanism, name), (
                cls.__name__, name
            )


@pytest.mark.parametrize(
    "name",
    [
        "TruncLapParams",
        "calibrate",
        "laplace_mechanism",
        "uniform_limit_mechanism",
        # bound_pair is the one lower-bound path, dp_check the one violation
        # check
        "LowerBoundParams",
        "lower_bound_params",
        "amplitude_lower_bound",
        "power_lower_bound",
        "max_violation",
        # a zero-noise generator has no place in the package
        "_MedianDraws",
        # the regime limits are checked on bound_pair; nothing called these
        "LimitRegime",
        "TightnessRow",
        "tightness_curve",
        # a sweep is a table of columns; nothing in the package called the
        # public profile
        "SweepRow",
        "gaussian_privacy_profile",
        # a sensitivity is a float, checked where a function takes it
        "Sensitivity",
        "as_sensitivity",
    ],
)
def test_removed_names_are_gone(name):
    # a mechanism is built by its class's from_privacy, and holds its numbers
    assert name not in dpnoise.__all__
    assert not hasattr(dpnoise, name)
    for module in _submodules():
        assert not hasattr(module, name), module.__name__


@pytest.mark.parametrize(
    "owner,name",
    [
        (DiscretizedDist, "total_mass"),
        (DiscretizedDist, "origin"),
        (AggregateKind, "parse"),
        (NoiseMechanism, "interval_mass"),
        (NoiseMechanism, "grid_masses"),
        (NoiseMechanism, "grid_mass_error"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_removed_attributes_are_gone(owner, name):
    # a grid's total mass is its masses' sum, and it starts at -H * step;
    # the CLI parses aggregates with its own option reader; nothing in the
    # package asked a mechanism for an interval's mass, and only discretize
    # asks it for grid masses, through the private hooks.  A dataclass
    # field without a default is on every instance but not on the class.
    assert not hasattr(owner, name)
    if dataclasses.is_dataclass(owner):
        assert name not in {field.name for field in dataclasses.fields(owner)}


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads, as a name or an attribute, outside its imports,
    its ``__all__`` and the def or class of the name itself."""
    found = set()
    for top in tree.body:
        if isinstance(top, (ast.Import, ast.ImportFrom)) or (
            isinstance(top, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in top.targets)
        ):
            continue
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    found.add(name)
    return found


def test_every_public_name_has_a_caller():
    # a caller in the package (the CLI included), or a README example
    src = Path(dpnoise.__file__).parent
    called = set().union(*(
        _references(ast.parse(path.read_text(encoding="utf-8")))
        for path in src.glob("*.py")
    ))
    for block in python_blocks():
        tree = ast.parse(block)
        called |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        called |= {
            alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    assert sorted(set(dpnoise.__all__) - called - {"__version__"}) == []


def test_helpers_with_callers_inside_are_not_exported():
    # cli and query seed their generators with make_rng
    assert "make_rng" not in dpnoise.__all__
    assert not hasattr(dpnoise, "make_rng")
    assert "make_rng" not in dpnoise.core.__all__


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _names_used(tree: ast.Module) -> set[str]:
    """Names a module reads, in code, in string annotations and in
    ``__all__`` (a re-export is a use)."""
    trees = [tree] + [
        ast.parse(node.value, mode="eval")
        for annotation in _annotations(tree)
        if annotation is not None
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    used = {
        node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize(
    "path",
    sorted(Path(dpnoise.__file__).parent.glob("*.py")),
    ids=lambda path: path.name,
)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    assert sorted(imported - _names_used(tree)) == []


# a mechanism's public surface is its distribution and its costs, plus the
# numbers of its shape
_DISTRIBUTION_AND_COSTS = {
    "pdf", "cdf", "quantile", "sample", "cost", "from_privacy", "parameters",
    "support", "expected_amplitude", "expected_power",
}
_SHAPE_FIELDS = {
    "TruncatedLaplace": {"scale", "radius", "height"},
    "Laplace": {"scale", "radius", "height"},
    "Gaussian": {"sigma"},
    "BoundedUniform": {"half_width"},
}


def test_mechanisms_expose_only_their_distribution_costs_and_shape():
    shipped = _shipped_mechanisms() - {NoiseMechanism}
    assert {cls.__name__ for cls in shipped} == set(_SHAPE_FIELDS)
    params = PrivacyParams(1.0, 1e-5)
    for cls in shipped:
        mech = cls.from_privacy(params, 1.0)
        public = {name for name in dir(mech) if not name.startswith("_")}
        assert public == _DISTRIBUTION_AND_COSTS | _SHAPE_FIELDS[cls.__name__], cls


def test_discretize_takes_a_mechanism_a_sensitivity_and_a_step():
    # the grid always reaches the support edge, or the 1 - 1e-12 range
    assert list(inspect.signature(discretize).parameters) == ["mech", "sens", "step"]
