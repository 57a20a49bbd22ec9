import importlib
import pkgutil

import dpnoise


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
