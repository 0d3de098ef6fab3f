"""Every name a ``repro`` package exports in ``__all__`` resolves.

Deleting a function while its package still lists it leaves a name that
``from repro.x import *`` and ``getattr`` fail on.  The lazy PEP 562
re-exports of :mod:`repro.experiments` resolve here too, by import of
the submodule that defines them.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def test_every_package_is_listed():
    assert "repro.experiments" in PACKAGES
    assert "repro.runtime" in PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    if exported is None:
        pytest.skip(f"{name} declares no __all__")
    assert len(set(exported)) == len(exported), f"duplicate names in {name}"
    missing = [n for n in exported if not hasattr(package, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
