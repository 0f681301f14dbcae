"""Every name a package exports resolves, and the deleted region types stay
deleted: ``BoxSet`` and ``Constraints`` are the one region vocabulary."""

import importlib

import pytest

PACKAGES = ["repro", "repro.geometry", "repro.core", "repro.storage"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    assert len(set(module.__all__)) == len(module.__all__), package
    namespace = {}
    exec(f"from {package} import *", namespace)
    for name in module.__all__:
        assert getattr(module, name) is namespace[name], name


@pytest.mark.parametrize("package", ["repro", "repro.geometry"])
@pytest.mark.parametrize("name", ["Box", "Interval", "dominance_region"])
def test_the_per_object_region_types_are_gone(package, name):
    module = importlib.import_module(package)
    assert name not in module.__all__
    assert not hasattr(module, name)
