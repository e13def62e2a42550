"""What deletions leave behind: an import that nothing uses any more, and a
class name in the README's library layout that its module no longer has."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [
    *sorted(p for p in (ROOT / "src" / "paretoebm").glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
]


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, as ``line: name``; an
    import on a line marked ``# noqa`` is exempt, as is ``__future__``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_finder():
    source = "import os\nimport sys  # noqa\nimport numpy.linalg\nfrom x import (\n    a,\n    b,\n)\nprint(a, numpy)\n"
    assert unused_imports(source) == ["1: os", "6: b"]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def layout_rows() -> list[tuple[str, str]]:
    """(module, contents) of every row of the README's library-layout table."""
    section = (ROOT / "README.md").read_text().split("## Library layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(paretoebm\.\w+)` \| (.*) \|$", section, re.MULTILINE)


def test_layout_table_is_read():
    modules = [module for module, _ in layout_rows()]
    assert modules == [f"paretoebm.{name}" for name in ("core", "energy", "moo", "samplers", "metrics", "problems", "harness")]


@pytest.mark.parametrize("module,contents", layout_rows(), ids=[module for module, _ in layout_rows()])
def test_layout_table_names_only_what_its_module_has(module, contents):
    # A CamelCase name opens a backtick span: `Trajectory`, `RandomInit(d, ...)`.
    names = {name for name in re.findall(r"`([A-Z]\w*)", contents) if re.search("[a-z]", name)}
    missing = sorted(name for name in names if not hasattr(importlib.import_module(module), name))
    assert missing == []
