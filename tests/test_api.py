import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_modules_import_only_numpy_and_the_standard_library():
    # numpy is the one dependency pyproject.toml declares. Other packages
    # (scipy, the test tools) may be installed beside it, where an import
    # of them would pass every other test, so a fresh interpreter lists
    # the top-level modules that importing every kdecoreset module adds.
    code = "\n".join([
        "import importlib, pkgutil, sys",
        f"sys.path.insert(0, {str(Path(kdecoreset.__file__).parents[1])!r})",
        "before = set(sys.modules)",
        "import kdecoreset",
        "for info in pkgutil.iter_modules(kdecoreset.__path__):",
        "    importlib.import_module(f'kdecoreset.{info.name}')",
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"kdecoreset", "numpy"}, sorted(loaded)
