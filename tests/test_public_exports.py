"""Every name a ``repro`` package exports or its docs cite resolves.

Deleting a function while its package still lists it leaves a name that
``from repro.x import *`` and ``getattr`` fail on.  The lazy PEP 562
re-exports of :mod:`repro.experiments` resolve here too, by import of
the submodule that defines them.  Likewise every backticked ``repro.…``
dotted name in the package sources and the README must still import or
resolve as an attribute, so a moved or deleted name leaves no stale
cross-reference behind.
"""

import importlib
import pkgutil
import re
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
#: A dotted ``repro`` name right after a backtick (reST roles may prefix
#: ``~`` or ``!``): ``repro.x``, :class:`~repro.x.Y`, ``repro.x.Y.z``.
DOC_REF = re.compile(r"`[~!]?(repro(?:\.\w+)+)")


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_doc_cross_references_resolve():
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + [ROOT / "README.md"]
    refs: dict[str, str] = {}
    for path in files:
        for ref in DOC_REF.findall(path.read_text()):
            refs.setdefault(ref, str(path.relative_to(ROOT)))
    assert len(refs) > 50  # the scan found the docs' references
    stale = {ref: where for ref, where in sorted(refs.items())
             if not _resolves(ref)}
    assert not stale, f"unresolved doc references (name: first file): {stale}"
