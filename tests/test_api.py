import importlib
import pkgutil

import pytest

import kdecoreset

MODULES = [kdecoreset] + [
    importlib.import_module(f"kdecoreset.{info.name}")
    for info in pkgutil.iter_modules(kdecoreset.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_exports_resolve_without_duplicates(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, missing


def test_halving_failure_is_exported():
    # build_coreset raises it, so the package exports it as it does ColoringFailure.
    assert kdecoreset.HalvingFailure is kdecoreset.coreset.HalvingFailure
