"""Import hygiene of ``src/co2learn``, read from the source with ``ast``.

Every name a module imports is used in that module. The one exception is an
import marked ``# noqa: F401``: a name kept importable only because
``bench/tracing.py`` puts a timer on it, so each such name must be patched
there, on that module. ``__init__.py`` is left out: its imports are the
package's public names.

Every private top-level name (a ``_name`` assignment, function or class) of
any module is read somewhere in the package, so none is left over.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "co2learn").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def imports(tree: ast.Module, lines: list[str]):
    """(bound name, line, marked noqa: F401) for every top-level import."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1: node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno, marked


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def tracing_sites() -> set[tuple[str, str]]:
    """(module variable, attribute) of every ``(owner, "attr", ...)`` site."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    return {
        (node.elts[0].id, node.elts[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2
        and isinstance(node.elts[0], ast.Name) and isinstance(node.elts[1], ast.Constant)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_patched_by_the_benchmark(path):
    source = path.read_text()
    tree = ast.parse(source)
    used, sites = used_names(tree), tracing_sites()
    for name, line, marked in imports(tree, source.splitlines()):
        where = f"{path.name}:{line} imports {name}"
        if marked:
            assert name not in used, f"{where}, which is used: drop its noqa marker"
            assert (path.stem, name) in sites, \
                f"{where} for bench/tracing.py, which patches no {path.stem}.{name}"
        else:
            assert name in used, f"{where} and never uses it"


def private_names(tree: ast.Module):
    """(name, line) of every top-level ``_name`` assignment, function or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_name_is_read_in_the_package():
    read = set().union(*(read_names(ast.parse(p.read_text())) for p in PACKAGE))
    unread = [f"{p.name}:{line} {name}" for p in PACKAGE
              for name, line in private_names(ast.parse(p.read_text())) if name not in read]
    assert not unread, f"private names never read in the package: {unread}"


WHOLE_STREAM_BUILDERS = {"generate", "gen_synthetic", "make_multidist"}


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "streams.py"],
                         ids=lambda p: p.stem)
def test_no_module_but_streams_builds_a_whole_stream(path):
    """Each command draws through ``streams.intervals`` or ``final_interval``,
    which hold one interval at a time; the list builders are for library callers."""
    calls = [
        f"{path.name}:{node.lineno} calls {name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in WHOLE_STREAM_BUILDERS
    ]
    assert not calls, calls
