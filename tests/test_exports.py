"""Every name in a braidcalc module's __all__ resolves on that module.

Star imports and tools that walk __all__ (the per-layer tracer in
perfbench) fail on a stale export, so a deleted name must leave __all__
with it.  No export is a second name for a method of an exported class:
each braid operation has one spelling.  No module of the library, the
tests or the scripts imports a name it never uses.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import braidcalc

MODULES = ["braidcalc"] + sorted(
    f"braidcalc.{info.name}" for info in pkgutil.iter_modules(braidcalc.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [public for public in module.__all__ if not hasattr(module, public)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _exported_methods():
    """(label, function) for every method of every class braidcalc exports."""
    methods = []
    for public in braidcalc.__all__:
        cls = getattr(braidcalc, public)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            func = getattr(value, "__func__", value)  # unwrap class/static methods
            if inspect.isfunction(func):
                methods.append((f"{public}.{attr}", func))
    return methods


METHODS = _exported_methods()


@pytest.mark.parametrize("name", MODULES)
def test_no_export_aliases_a_method(name):
    module = importlib.import_module(name)
    aliases = [
        f"{public} is {label}"
        for public in module.__all__
        for label, func in METHODS
        if getattr(module, public) is func
    ]
    assert not aliases, f"{name}.__all__ exports methods under a second name: {aliases}"


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/braidcalc", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; names in __all__ count as read."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse((ROOT / path).read_text(), filename=path))
    assert not unused, f"{path} imports names it never uses: {unused}"


def test_text_enters_through_one_reader():
    """expr exports the reader, its errors and the printers, and no second evaluator."""
    expr = importlib.import_module("braidcalc.expr")
    assert sorted(expr.__all__) == [
        "NotAWordError", "ParseError", "format_aword", "format_braid", "parse", "parse_bands",
    ]



def _reads(path: Path) -> list[tuple[str, tuple[str, ...], bool]]:
    """(name, enclosing definitions, read as an attribute) for every name
    and attribute the file reads."""
    reads = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, scope, False))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, scope, True))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return reads


def _members():
    """(label, defining module, definition path, attribute only) for each
    export and each public method of an exported class."""
    members = []
    for public in braidcalc.__all__:
        module = next(
            name.split(".")[1] for name in MODULES[1:]
            if public in importlib.import_module(name).__all__
        )
        members.append((public, module, (public,), False))
        cls = getattr(braidcalc, public)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            func = getattr(value, "__func__", value)
            if inspect.isfunction(func) and not attr.startswith("_"):
                members.append((f"{public}.{attr}", module, (public, attr), True))
    return members


def test_every_export_and_public_method_has_a_caller():
    """Library code that only tests read is not shipped.

    Each exported name and each public method of an exported class is
    read somewhere in the library outside its own definition, in the
    benchmark or in a script.  An attribute read counts for every
    method of that name, whatever its class.
    """
    reads = [
        (path.stem if folder == "src/braidcalc" else None, read)
        for folder in ("src/braidcalc", "perfbench", "scripts")
        for path in (ROOT / folder).glob("*.py")
        for read in _reads(path)
    ]

    def calls(member, stem, read):
        _, module, definition, attribute_only = member
        name, scope, is_attribute = read
        if name != definition[-1] or (attribute_only and not is_attribute):
            return False
        return not (stem == module and scope[:len(definition)] == definition)

    unread = [
        member[0] for member in _members()
        if not any(calls(member, stem, read) for stem, read in reads)
    ]
    assert not unread, f"only tests read these exports and methods: {unread}"
