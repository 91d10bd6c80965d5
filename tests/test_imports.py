"""Every name a kscert module imports is used there, every public
function and class a module defines is named somewhere else, every private
one is named elsewhere in its own module, no function calls itself, and none
only hands its parameters on to another.

__init__.py is exempt: its imports are the package's re-exports."""

import ast
import re
from pathlib import Path

import pytest

import kscert

MODULES = sorted(p for p in Path(kscert.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_unused():
    source = "from typing import Optional, Sequence\nimport os.path\nx: Sequence = 1\n"
    assert unused_imports(source) == [(1, "Optional"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
CORPUS.append(ROOT / "README.md")


def definitions(source: str) -> list:
    """(name, word, rest) for each module-level function and class of
    source: a pattern matching its name as a word, and source's other lines."""
    lines = source.splitlines()
    return [(node.name, re.compile(rf"\b{node.name}\b"),
             lines[: node.lineno - 1] + lines[node.end_lineno :])
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def unreferenced(source: str, others: list) -> list:
    """The module-level public functions and classes of source that neither
    the rest of source nor any text of others names."""
    return [name for name, word, rest in definitions(source)
            if not name.startswith("_") and not any(word.search(t) for t in rest + others)]


def test_detects_unreferenced():
    source = ("def used():\n    return 1\n\n\ndef helper():\n    return helper\n\n\n"
              "class Kept:\n    pass\n\n\ndef _private():\n    pass\n\n\nx = Kept\n")
    assert unreferenced(source, ["used()"]) == ["helper"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_definitions_referenced(path):
    others = [p.read_text(encoding="utf-8") for p in CORPUS if p.resolve() != path.resolve()]
    assert len(others) == len(CORPUS) - 1  # path is in the corpus
    assert unreferenced(path.read_text(encoding="utf-8"), others) == []


def unreferenced_private(source: str) -> list:
    """The module-level private functions and classes of source that the
    rest of source does not name: a helper that only tests keep alive."""
    return [name for name, word, rest in definitions(source)
            if name.startswith("_") and not any(word.search(t) for t in rest)]


def test_detects_unreferenced_private():
    source = ("def _used():\n    return 1\n\n\ndef _helper():\n    return _helper\n\n\n"
              "class _Kept:\n    pass\n\n\ndef public():\n    pass\n\n\n"
              "x = _Kept, _used(), _helper_too\n")
    assert unreferenced_private(source) == ["_helper"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_definitions_referenced(path):
    assert unreferenced_private(path.read_text(encoding="utf-8")) == []


def self_calling(source: str) -> list:
    """The functions of source, at any depth, that call themselves by name,
    as f(...) or, in a method, self.f(...)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            f = getattr(call, "func", None)
            if (isinstance(f, ast.Name) and f.id == node.name
                    or isinstance(f, ast.Attribute) and f.attr == node.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                out.append(node.name)
                break
    return out


def test_detects_self_calling():
    source = ("def walk(n):\n    return walk(n - 1) if n else 0\n\n\n"
              "class Tree:\n    def size(self):\n        return 1 + self.size()\n\n"
              "    def conjugate(self, c):\n        return c.conjugate()\n\n\n"
              "def flat(n):\n    return list(range(n))\n")
    assert self_calling(source) == ["walk", "size"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_self_calling_function(path):
    """Searches are iterative, so the recursion limit cannot be reached."""
    assert self_calling(path.read_text(encoding="utf-8")) == []


def pass_throughs(source: str) -> list:
    """The module-level functions of source whose body, after any
    docstring, is only return f(...) with the function's own parameters
    passed in order, each keyword under its own name: a second name for f."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not isinstance(call, ast.Call):
            continue
        passed = [a.id if isinstance(a, ast.Name) else None for a in call.args]
        passed += [k.arg if isinstance(k.value, ast.Name) and k.value.id == k.arg else None
                   for k in call.keywords]
        a = node.args
        if passed == [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]:
            out.append(node.name)
    return out


def test_detects_pass_through():
    source = ('def decide(oset, graph, cap=1):\n    """Doc."""\n'
              "    return search(oset, graph, cap=cap)\n\n\n"
              "def swapped(a, b):\n    return f(b, a)\n\n\n"
              "def renamed(a, cap=1):\n    return f(a, limit=cap)\n\n\n"
              "def extra(a):\n    return f(a, 2)\n\n\n"
              "def more(a):\n    a = g(a)\n    return f(a)\n\n\n"
              "class C:\n    def m(self, a):\n        return f(self, a)\n")
    assert pass_throughs(source) == ["decide"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pass_through_function(path):
    """A function that only hands its parameters on to another adds a name
    and no behaviour: call the other directly."""
    assert pass_throughs(path.read_text(encoding="utf-8")) == []
