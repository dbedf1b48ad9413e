"""Every name the demos, the benchmark, the README and the tests take from the
package top level (`from stpca import X`, `stpca.X`) exists there."""

import ast
import importlib.util
import pathlib
import re

import stpca

ROOT = pathlib.Path(__file__).resolve().parents[1]


def sources():
    paths = (sorted((ROOT / "demos").glob("*.py")) + [ROOT / "bench" / "workloads.py"]
             + sorted((ROOT / "tests").glob("test_*.py")))
    for path in paths:
        yield str(path.relative_to(ROOT)), path.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md python block {i}", block


def top_level_names(text):
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.module == "stpca" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "stpca"):
            names.add(node.attr)
    return names


def resolves(name):
    return hasattr(stpca, name) or importlib.util.find_spec(f"stpca.{name}") is not None


def test_top_level_names_resolve():
    unresolved, used = {}, set()
    for label, text in sources():
        names = top_level_names(text)
        used |= names
        missing = sorted(name for name in names if not resolves(name))
        if missing:
            unresolved[label] = missing
    assert unresolved == {}
    # the parser found the names the scripts are known to use
    assert {"train_run", "evaluate", "ingest_csv", "cli", "build_adaptive_graph"} <= used
