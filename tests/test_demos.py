"""The demo scripts import only names that the package has.

The demos are parsed, not run: running them takes seconds each.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demo_imports_exist():
    assert DEMOS
    missing = []
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(), filename=str(demo))):
            if isinstance(node, ast.Import):
                names = [(a.name, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module, a.name) for a in node.names]
            else:
                continue
            for module, name in names:
                if module.split(".")[0] != "tflp":
                    continue
                if importlib.util.find_spec(module) is None:
                    missing.append(f"{demo.name}: {module}")
                elif name is not None and not (
                        hasattr(importlib.import_module(module), name)
                        or importlib.util.find_spec(f"{module}.{name}")):
                    missing.append(f"{demo.name}: {module}.{name}")
    assert not missing, missing
