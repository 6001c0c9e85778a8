"""The package namespace: each module's ``__all__`` is its public API."""

import ast
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


def test_oracles_and_traced_readers_stay_off_the_package():
    # module attributes that verify, the tests and the benchmark reach through
    # their module; the package exports none of them
    kept = {gu: ("classify_by_criterion", "brute_force_s_adm", "geq_s_sigma",
                 "w_prime", "positive_coxeter_closed"),
            reduction: ("is_empty_basic_v_form", "positive_coxeter_generic"),
            roots: ("pos_roots",)}
    for module, names in kept.items():
        for name in names:
            assert callable(getattr(module, name)), (module.__name__, name)
            assert name not in module.__all__ and not hasattr(adlv, name), name
    assert not hasattr(gu, "tau_element")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never uses.  A name counts as used when
    the code reads it, in an annotation too (quoted or not), or lists it in
    ``__all__``; docstrings and comments do not count.  ``import *`` and
    ``__future__`` imports are skipped."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__")
                for alias in node.names if alias.name != "*"}
    quoted = [part.value for node in ast.walk(tree)
              for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
              if ann is not None for part in ast.walk(ann)
              if isinstance(part, ast.Constant) and isinstance(part.value, str)]
    used = {node.id for code in (tree, *(ast.parse(q, mode="eval") for q in quoted))
            for node in ast.walk(code) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_reads_code_annotations_and_all():
    assert unused_imports('"""Uses roots."""\nfrom . import roots, weyl\nweyl.tau1\n') == ["roots"]
    assert unused_imports("import os.path\nimport sys as system\n") == ["os", "system"]
    assert unused_imports("from typing import Optional\n"
                          "def f(a: 'Optional[int]') -> None: pass\n") == []
    assert unused_imports("from typing import Callable\nx: Callable\n") == []
    assert unused_imports("from .weyl import *\nfrom .gu import w_kl\n"
                          "__all__ = ['w_kl']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_name_it_never_uses():
    src = Path(adlv.__file__).resolve().parent
    unused = {path.name: names for path in sorted(src.glob("*.py"))
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


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
