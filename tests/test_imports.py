"""Static checks: every name a qtpart module imports is used in it, and
a module imports only the qtpart modules below it in ``LAYERS``; and the
benchmark's tracer still finds every function it times."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import qtpart
import qtpart.cli  # noqa: F401  (loads every module the tracer patches)

MODULES = sorted(Path(qtpart.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# lowest first; a module may import only the modules before it, so no
# import cycle can form
LAYERS = ("frame_io", "codec", "features", "dataset", "mlp", "dqn", "decision",
          "metrics", "cli")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nimport numpy as np\nfrom a import b, c\n"
                          "np.zeros(c)\n") == ["line 3: b", "line 1: os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> set[str]:
    """The qtpart modules a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").split(".")[0] == "qtpart":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:                                  # from . import codec
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qtpart" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_package_imports_are_found():
    source = ("import numpy as np\nfrom .decision import x\nfrom . import mlp\n"
              "import qtpart.cli\nfrom qtpart.codec import y\nfrom typing import Z\n"
              "def f():\n    from .dqn import w\n")
    assert package_imports(source) == {"decision", "mlp", "cli", "codec", "dqn"}


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in MODULES if p.stem != "__init__") == sorted(LAYERS)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_lower_layers(path):
    below = LAYERS[:LAYERS.index(path.stem)] if path.stem in LAYERS else ()
    assert package_imports(path.read_text()) <= set(below)


def _traced_wrappers() -> list[str]:
    """Every qtpart module or class attribute that holds a tracer wrapper."""
    holders = [m for n, m in sys.modules.items()
               if m is not None and (n == "qtpart" or n.startswith("qtpart."))]
    holders += [v for m in list(holders) for v in vars(m).values()
                if isinstance(v, type) and v.__module__.startswith("qtpart.")]
    return [f"{getattr(h, '__name__', h)}.{attr}" for h in holders
            for attr, v in vars(h).items() if hasattr(v, "traced_layer")]


def test_benchmark_tracer_binds_every_target():
    # a traced function that is deleted or renamed fails here, with the
    # tracer's own KeyError or RuntimeError, not in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        for name in tracer.TARGETS:
            mod_name, *path = name.split(".")
            obj = sys.modules[f"qtpart.{mod_name}"]
            for part in path:
                obj = getattr(obj, part)
            assert obj.traced_layer == name
    finally:
        t.restore()
    assert _traced_wrappers() == []
