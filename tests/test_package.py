"""The package namespace: each module's ``__all__`` is its public API."""

import subprocess
import sys
import types

import adlv
from adlv import cli, gu, reduction, roots, weyl

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


def test_no_module_holds_a_functools_cache():
    # no memo in the package: functools' cache wrappers carry cache_info
    cached = [f"{module.__name__}.{name}" for module in (*MODULES, cli)
              for name, value in vars(module).items()
              if getattr(value, "__module__", None) == module.__name__
              and hasattr(value, "cache_info")]
    assert cached == []
