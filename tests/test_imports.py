"""Every name a kscert module imports is used there, every public
function and class a module defines has a caller outside its definition
(the package's code, bench/ or the README; a test is none), every private
one is named elsewhere in its own module, every dataclass field is read
somewhere, no function calls itself, none only hands its parameters on
to another, only the complete-set kinds test which kind a set is, and
every exception class is told apart from its base.

__init__.py has a rule of its own: every name it binds is imported
through the package somewhere, so each re-export it keeps has a user."""

import ast
import builtins
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
README = ROOT / "README.md"
CORPUS.append(README)


def definitions(source: str) -> list:
    """(name, word, rest) for each module-level function and class of
    source: a pattern matching its name as a word, and source's other lines."""
    lines = source.splitlines()
    return [(node.name, re.compile(rf"\b{node.name}\b"),
             lines[: node.lineno - 1] + lines[node.end_lineno :])
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def code_names(tree: ast.AST, outside: ast.AST = None) -> set:
    """The names that the code of tree uses, as names, attributes and
    imports, leaving out the node outside: a docstring or a comment names
    nothing."""
    skip = {id(n) for n in ast.walk(outside)} if outside is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def unreferenced(source: str, others: dict) -> list:
    """The module-level public functions and classes of source, a module of
    src/kscert, that nothing calls.  others maps the path of each other
    file, from the repository root, to its text.  A caller is the package's
    code outside the definition itself, a file under bench/, which patches
    functions by their names as strings, or README.md, which names the
    library's documented entry points.  A test is no caller, under bench/
    too."""
    tree = ast.parse(source)
    package = set().union(*(code_names(ast.parse(text)) for path, text in others.items()
                             if path.startswith("src/")))
    named = [text for path, text in others.items()
             if path.startswith("bench/") and "/test_" not in path or path == "README.md"]
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in package | code_names(tree, node)
            and not any(re.search(rf"\b{node.name}\b", text) for text in named)]


def test_detects_unreferenced():
    source = ("def used():\n    return 1\n\n\ndef helper():\n    return helper\n\n\n"
              "class Kept:\n    pass\n\n\ndef _private():\n    pass\n\n\nx = Kept\n\n\n"
              "def patched():\n    pass\n\n\ndef documented():\n    pass\n\n\n"
              "def in_docstring():\n    \"\"\"Not tested().\"\"\"\n\n\ndef tested():\n    pass\n")
    others = {"src/kscert/other.py": '"""See in_docstring()."""\nfrom .m import used\n# tested()\n',
              "tests/test_m.py": "from kscert.m import tested\n\n\ndef test_it():\n    tested()\n",
              "bench/spans.py": 'SPANNED = [("m", "patched")]\n',
              "bench/test_bench.py": "from kscert.m import tested\n",
              "README.md": "`kscert.m.documented()` is an entry point.\n"}
    assert unreferenced(source, others) == ["helper", "in_docstring", "tested"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_public_definitions_referenced(path):
    others = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8")
              for p in CORPUS if p.resolve() != path.resolve()}
    assert len(others) == len(CORPUS) - 1  # path is in the corpus
    assert unreferenced(path.read_text(encoding="utf-8"), others) == []


def unread_fields(source: str, corpus: list) -> list:
    """Class.field for each field of a dataclass in source that no text of
    corpus reads as .field: data that nothing uses."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
                re.search(r"\bdataclass\b", ast.unparse(d)) for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    word = re.compile(rf"\.{stmt.target.id}\b")
                    if not any(word.search(t) for t in corpus):
                        out.append(f"{node.name}.{stmt.target.id}")
    return out


def test_detects_unread_field():
    source = ("@dataclass\nclass Entry:\n    name: str\n    expected: dict = None\n\n\n"
              "@dataclass(frozen=True)\nclass Pair:\n    left: int\n\n\n"
              "class Plain:\n    note: str\n")
    assert unread_fields(source, ["e.name", "p.left_x", "p.note"]) == [
        "Entry.expected", "Pair.left"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dataclass_fields_read(path):
    # this file is left out: its detector test reads the fields it names
    corpus = [p.read_text(encoding="utf-8") for p in CORPUS if p.name != "test_imports.py"]
    assert unread_fields(path.read_text(encoding="utf-8"), corpus) == []


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


def unimported_bindings(init: str, sources: list) -> list:
    """The names that the package source init binds at module level which
    no text of sources imports through the package, as `from kscert import
    X` or `kscert.X`: a second import path that nothing takes."""
    bound = []
    for node in ast.parse(init).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    used = set()
    for node in (n for s in sources for n in ast.walk(ast.parse(s))):
        if isinstance(node, ast.ImportFrom) and node.module == "kscert" and not node.level:
            used |= {a.name for a in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "kscert"):
            used.add(node.attr)
    return sorted(set(bound) - used)


def test_detects_unimported_binding():
    init = ("from .exact import Scalar, kron\nfrom .model import Ray as R\n"
            "from . import catalog, errors\n__version__ = '0.1'\n\n\ndef helper():\n    pass\n")
    uses = ["from kscert import Scalar\nimport kscert\nx = kscert.catalog\n",
            "from kscert.model import Ray\nfrom kscert import errors as e\n"
            "from . import helper\ns = 'from kscert import kron'\n"]
    assert unimported_bindings(init, uses) == ["R", "__version__", "helper", "kron"]


def test_package_binds_only_names_imported_through_it():
    """kscert/__init__.py keeps a re-export only where some file of the
    repository, or the README's python, imports the name through it."""
    sources = [p.read_text(encoding="utf-8") for p in CORPUS if p.suffix == ".py"]
    sources += re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    init = Path(kscert.__file__).read_text(encoding="utf-8")
    assert unimported_bindings(init, sources) == []


KINDS = ("RaySet", "ParitySet", "UserSet")


def kind_checks(source: str) -> list:
    """The line of each test, outside the class bodies of the complete-set
    kinds, of which kind a set is: .graph is (not) None, .parity or .rows
    against None, provenance == or !=, and isinstance against a kind."""
    tree = ast.parse(source)
    inside = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name in KINDS
              for n in ast.walk(c)}
    out = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            attrs = {o.attr for o in operands if isinstance(o, ast.Attribute)}
            names = attrs | {o.id for o in operands if isinstance(o, ast.Name)}
            none = any(isinstance(o, ast.Constant) and o.value is None for o in operands)
            if (none and attrs & {"graph", "parity", "rows"} or "provenance" in names
                    and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)):
                out.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            if named & set(KINDS):
                out.append(node.lineno)
    return sorted(out)


def test_detects_kind_check():
    source = ("class RaySet:\n    def f(self, o):\n"
              "        return o.graph is None, isinstance(o, RaySet)\n\n\n"
              "def g(cs):\n    if cs.graph is not None or cs.parity is None:\n        return 1\n"
              "    if cs.rows == None or cs.provenance == 'Parity':\n        return 2\n"
              "    return isinstance(cs, (RaySet, kscert.UserSet))\n\n\n"
              "def h(cs, graph, provenance):\n"
              "    seen = graph is None, cs.edges is None, cs.provenance\n"
              "    return seen, isinstance(cs, list)\n\n\n"
              "def k(provenance):\n    return provenance != 'Parity'\n")
    assert kind_checks(source) == [7, 7, 9, 9, 11, 20]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_kind_checks_outside_the_kinds(path):
    """Only a complete set's own type knows which kind it is: every other
    piece of code asks it, through the answers all three kinds give."""
    assert kind_checks(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pass_through_function(path):
    """A function that only hands its parameters on to another adds a name
    and no behaviour: call the other directly."""
    assert pass_throughs(path.read_text(encoding="utf-8")) == []


def undistinguished_exceptions(sources: list) -> list:
    """The exception classes defined in sources that no except clause of
    sources names: a type that nothing tells apart from its base, so its
    base would do.  A method of its own does not exempt a class."""
    trees = [ast.parse(s) for s in sources]
    classes = {node.name: node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    builtin = {name for name, v in vars(builtins).items()
               if isinstance(v, type) and issubclass(v, BaseException)}
    errors = set()
    while True:  # a class deriving from an exception class is one
        more = {name for name, node in classes.items()
                if {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
                & (builtin | errors)} - errors
        if not more:
            break
        errors |= more
    caught = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
    return sorted(errors - caught)


def test_detects_undistinguished_exception():
    errors = ("class BaseErr(Exception):\n    pass\n\n\n"
              "class Caught(BaseErr):\n    pass\n\n\n"
              "class Lined(BaseErr):\n    def __init__(self, m):\n        super().__init__(m)\n\n\n"
              "class Plain(BaseErr):\n    \"\"\"Doc.\"\"\"\n\n\n"
              "class AlsoValue(BaseErr, ValueError):\n    pass\n\n\n"
              "class Viaattr(errors.Caught):\n    pass\n\n\n"
              "class NotAnError:\n    pass\n")
    uses = ("try:\n    f()\nexcept (errors.Caught, KeyError):\n    pass\n"
            "except BaseErr as ex:\n    raise Plain(str(ex))\n")
    assert undistinguished_exceptions([errors, uses]) == ["AlsoValue", "Lined", "Plain", "Viaattr"]


def test_every_exception_class_is_told_apart():
    """Every exception class is caught by type somewhere in the package;
    any other is its base under a second name, as a message can carry
    what a subclass would add (a proof file's line, say)."""
    package = Path(kscert.__file__).parent
    sources = [p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))]
    assert undistinguished_exceptions(sources) == []
