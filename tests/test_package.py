"""The package namespace: each module's ``__all__`` is its public API."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

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


def test_cli_import_leaves_out_importlib_resources():
    # only gu.load_golden_summary reads package data, and imports it there;
    # -S keeps site's .pth files from importing it first
    probe = "import sys, adlv.cli; print('importlib.resources' in sys.modules)"
    src = str(Path(adlv.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_no_module_holds_a_functools_cache():
    # no memo in the package: functools' cache wrappers carry cache_info
    cached = [f"{module.__name__}.{name}" for module in (*MODULES, cli)
              for name, value in vars(module).items()
              if getattr(value, "__module__", None) == module.__name__
              and hasattr(value, "cache_info")]
    assert cached == []


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "<README library sketch>", "exec"), {})
