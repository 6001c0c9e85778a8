"""The package namespace: each module's ``__all__`` is its public API."""

import subprocess
import sys
import types

import adlv
from adlv import gu, reduction, roots, weyl

MODULES = (weyl, roots, reduction, gu)


def test_package_exports_exactly_the_module_lists():
    public = {name for name, value in vars(adlv).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    listed = {name for module in MODULES for name in module.__all__}
    assert public == listed
    for module in MODULES:
        for name in module.__all__:
            assert getattr(adlv, name) is getattr(module, name), (module.__name__, name)


def test_package_import_leaves_out_the_cli():
    probe = "import sys, adlv; print('adlv.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
