"""Every name the package exports, and every member of an exported class, has a
reader in the library or the benchmark.

A name counts as used when some statement of ``src/polyprec`` refers to it
outside the name's own top-level definition (import lines and ``__all__``
strings are not references), or when ``perfbench/`` mentions it. A public
field, property or method of an exported class counts as used when the
library reads an attribute of that name (``x.name``, on any object) or the
benchmark mentions it. Test-only helpers belong in ``tests/conftest.py``
instead of the public surface; no name is exempt.
"""

import ast
import re
import types
from pathlib import Path

import polyprec

ROOT = Path(__file__).resolve().parent.parent


def exported_names():
    return {
        name
        for name, value in vars(polyprec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def _referenced(node) -> set:
    """Names a subtree loads, as bare names or as attributes."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def library_references(src_dir) -> set:
    """Names referenced by ``src_dir``'s modules, each definition's own body excluded."""
    found = set()
    for path in Path(src_dir).glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            found |= names
    return found


def benchmark_mentions(bench_dir) -> set:
    return {
        word
        for path in Path(bench_dir).glob("*.py")
        for word in re.findall(r"\w+", path.read_text())
    }


def unused(names, src_dir, bench_dir) -> list:
    used = library_references(src_dir) | benchmark_mentions(bench_dir)
    return sorted(set(names) - used)


def class_members(src_dir, classes) -> list:
    """``Class.member`` for each public field, property and method of the named classes.

    Fields are annotated or assigned names in the class body and the
    attributes its methods assign on ``self``.
    """
    found = []
    for path in Path(src_dir).glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if not (isinstance(stmt, ast.ClassDef) and stmt.name in classes):
                continue
            names = set()
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names |= {t.id for t in item.targets if isinstance(t, ast.Name)}
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    names.add(sub.attr)
            found += [f"{stmt.name}.{name}" for name in names if not name.startswith("_")]
    return found


def attribute_reads(src_dir) -> set:
    """Attribute names that ``src_dir``'s modules read, as in ``x.name``."""
    return {
        sub.attr
        for path in Path(src_dir).glob("*.py")
        for sub in ast.walk(ast.parse(path.read_text()))
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def unread_members(classes, src_dir, bench_dir) -> list:
    used = attribute_reads(src_dir) | benchmark_mentions(bench_dir)
    return sorted(m for m in class_members(src_dir, classes) if m.split(".")[1] not in used)


def private_imports(src_dir, module) -> list:
    """``file: name`` for each underscore name of ``module`` that another module
    of ``src_dir`` imports from it or reads as ``module._name``."""
    found = []
    for path in sorted(Path(src_dir).glob("*.py")):
        if path.stem == module:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in (module, f"polyprec.{module}"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == module:
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.startswith("_")]
    return found


def test_every_export_has_a_library_or_benchmark_caller():
    assert unused(exported_names(), ROOT / "src" / "polyprec", ROOT / "perfbench") == []


def test_every_member_of_an_exported_class_has_a_reader():
    classes = {name for name in exported_names() if isinstance(getattr(polyprec, name), type)}
    assert unread_members(classes, ROOT / "src" / "polyprec", ROOT / "perfbench") == []


def test_an_unused_exported_function_is_caught(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "__init__.py").write_text("from .mod import helper, used\n")
    (src / "mod.py").write_text(
        '__all__ = ["helper", "used"]\n\n\n'
        "def helper(x):\n    return helper(x - 1) if x else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def caller():\n    return used()\n"
    )
    bench = tmp_path / "bench"
    bench.mkdir()
    assert unused({"helper", "used"}, src, bench) == ["helper"]


def test_an_unread_member_is_caught(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "class Box:\n"
        "    size: int\n"
        "    label = 'box'\n\n"
        "    def __init__(self):\n        self.weight = 1\n        self.depth = 2\n\n"
        "    def volume(self):\n        return self.size * self.depth\n\n"
        "    def _hidden(self):\n        return 0\n"
    )
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text("print('label')\n")
    assert unread_members({"Box"}, src, bench) == ["Box.volume", "Box.weight"]


def test_no_module_imports_a_private_name_of_experiments():
    # Runs are planned and carried out through plan_run and RunPlan.run alone.
    assert private_imports(ROOT / "src" / "polyprec", "experiments") == []


def test_a_private_import_is_caught(tmp_path):
    (tmp_path / "experiments.py").write_text("def _build():\n    return 0\n")
    (tmp_path / "a.py").write_text("from .experiments import _build\n")
    (tmp_path / "b.py").write_text("from . import experiments\n\nexperiments._build()\n")
    (tmp_path / "c.py").write_text("from polyprec.experiments import plan_run\n")
    assert private_imports(tmp_path, "experiments") == ["a.py: _build", "b.py: _build"]
