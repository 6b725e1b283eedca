"""Every name a library module imports must be used in that module, and
every binding the benchmark's tracer shims must exist.

__init__.py is left out: its imports are the package's re-exports.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chanord"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements in source and never read there."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a.
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"line {line}: {name}" for name, line in imported.items() if name not in used
    )


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\n"
        "from .errors import ChanordError, InternalCheckError as Check\n"
        "def f(x: ChanordError):\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 4: Check"]


def test_library_modules_are_found():
    assert {"brm.py", "cpc.py", "metric.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def traced_bindings():
    """(module, attribute) of every shim in bench/tracing.py's SHIMS."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({f"{module}.{attr}" for module, attr, _span in tracing.SHIMS})


@pytest.mark.parametrize("binding", traced_bindings())
def test_every_traced_binding_is_bound_in_its_module(binding):
    # The tracer replaces these module attributes; a binding that is
    # dropped would break tracing, not only leave a layer unmeasured.
    module, attr = binding.split(".")
    assert attr in vars(importlib.import_module(f"chanord.{module}"))
