"""`import girkit` under every Python the package claims to support
(`requires-python >= 3.10`). Each interpreter runs in a subprocess, so the
check covers interpreters that have no pytest of their own; a version whose
`python3.X` is not on PATH is skipped. The package's invariants must also
hold under `python -O`, which strips `assert` statements, every
function it defines and every name a module imports must be used,
every module must be reachable as an attribute of the package, and no
module may declare a frozen dataclass but through `core.record`."""

import ast
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


@pytest.mark.parametrize("version", [
    pytest.param(v, marks=pytest.mark.skipif(
        shutil.which(f"python{v}") is None,
        reason=f"python{v} is not on PATH"))
    for v in VERSIONS
])
def test_package_imports(version, tmp_path):
    """Beyond the import, the interpreter tokenizes a program that uses
    every token kind and rejects a bad character (what the tokenizer's
    regex matches is up to each version's `re`), mints, pickles and sorts
    names (an `int` subtype with an instance dict, laid out differently
    per version), parses and synthesizes a 3-let program and pickles its
    annotated graph, whose store must keep ω and a pickled unit constant
    unit itself, synthesizes a program with a nested block and a
    lambda body in both regimes, whose annotated graphs' JSON must hash
    to the digest pinned under 3.11, compares and hashes records and
    writes a field of one (slotted frozen dataclasses differ across
    versions), runs the program through `gir run` on the direct, store
    and graph semantics, and schedules a program with a reader closure
    and an alias operand as `gir schedule --regime rw --freq --compact`.
    Last, on the main thread at the default recursion limit, it types,
    translates, synthesizes, schedules and emits 1,100 nested lambdas
    and 3,000 lets nested in bound position, built without the parser:
    no walk after it takes a Python frame per nesting level."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    # a pyenv shim only runs the version it is asked for; other launchers
    # ignore the variable
    env["PYENV_VERSION"] = version
    prog = tmp_path / "three.gir"
    prog.write_text("let r = ref(w, 1) in let u = r := 41 in "
                    "let x = !r in x\n")
    closure = tmp_path / "closure.gir"
    closure.write_text("let r = ref(w, 1) in let a = r in "
                       "let f = fun (p: Int^{}) =>{rd{r} wr{}} !r in "
                       "let u = a := 41 in let y = f 2 in y\n")
    nested = tmp_path / "nested.gir"
    nested.write_text("let r = ref(w, 1) in let a = r in "
                      "let f = fun (p: Int^{}) =>{rd{a} wr{a}} "
                      "(let x = !a in let u = a := p in let y = !a in y) in "
                      "let b = (let v = f 2 in let c = a in !c) in b\n")
    p = subprocess.run(
        [f"python{version}", "-c", _NAMES_AND_RUN, str(prog), str(closure),
         str(nested)],
        env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    assert lines[0] == version
    value = "value: ('cst', 'Int', 41)"
    assert lines[1:] == [ascii(_TOKENS), _BAD_CHARACTER, _NESTED_DIGEST,
                         value, "steps: 6", value, "steps: 9",
                         value, "steps: 15",
                         "let r_9 = ref(w, 1) in",
                         "let s_16 = r_9 := 41 in",
                         "let f_11 = fun (p_3: Int^{}) =>{rd{r_9} wr{}} (",
                         "  !r_9",
                         ") in",
                         "f_11 2",
                         "1100 True FunTy 1100", "3000 True BaseTy 7"
                         ], p.stdout


# sha256 of the nested program's annotated graph JSON, hard then rw
_NESTED_DIGEST = "009bc2027f05054f"

# the tokens of a program that uses every token kind, a non-breaking space
# and an Arabic-Indic digit three: what `\s` and `\d` match is up to each
# interpreter's `re`
_TOKENS = [
    ("kw", "let", 0, 3), ("ident", "f", 4, 5), ("=", "=", 6, 7),
    ("kw", "fun", 8, 11), ("(", "(", 12, 13), ("ident", "p", 13, 14),
    (":", ":", 14, 15), ("ident", "Ref", 16, 19), ("[", "[", 19, 20),
    ("ident", "Int", 20, 23), ("]", "]", 23, 24), ("^", "^", 24, 25),
    ("{", "{", 25, 26), ("ident", "w", 26, 27), ("}", "}", 27, 28),
    (")", ")", 28, 29), ("=>", "=>", 30, 32), ("{", "{", 32, 33),
    ("kw", "rd", 33, 35), ("{", "{", 35, 36), ("ident", "p", 36, 37),
    ("}", "}", 37, 38), ("kw", "wr", 39, 41), ("{", "{", 41, 42),
    ("}", "}", 42, 43), ("}", "}", 43, 44), ("!", "!", 45, 46),
    ("ident", "p", 46, 47), ("kw", "in", 48, 50), ("kw", "let", 51, 54),
    ("ident", "r", 55, 56), ("=", "=", 57, 58), ("kw", "ref", 59, 62),
    ("(", "(", 62, 63), ("ident", "w", 63, 64), (",", ",", 64, 65),
    ("int", "\u0663", 66, 67), (")", ")", 67, 68), ("kw", "in", 69, 71),
    ("ident", "r", 72, 73), (":=", ":=", 74, 76), ("int", "4", 77, 78),
    ("eof", "", 78, 78)]
_BAD_CHARACTER = "E013 unexpected character '$' 1 2"

_NAMES_AND_RUN = """
import dataclasses, hashlib, pickle, sys, girkit
from girkit.cli import export_json, main, parse, tokenize
from girkit.core import (Cst, Name, NameSupply, OMEGA, ParseError,
                         QualifiedType, RwEffect, TY_INT, UNIT_V,
                         graph_to_text, initial_store)
from girkit.graphir import synthesize_config
from girkit.mnf import to_mnf
print('%d.%d' % sys.version_info[:2])
print(ascii([(t.kind, t.text, t.start, t.end) for t in tokenize(
    "let f = fun (p: Ref[Int]^{w}) =>{rd{p} wr{}} !p in\\u00a0"
    "let r = ref(w, \\u0663) in r := 4")]))
try:
    tokenize("x$y")
except ParseError as e:
    print(e.code, e.message, e.span.start, e.span.end)
sup = NameSupply()
v, l = sup.var("x"), sup.loc("c")
back = pickle.loads(pickle.dumps([l, v]))
if not (back == [l, v] and back[0].text == "c" and back[1].is_loc is False
        and sorted(back) == [v, l] and Name(0, 0, "x") and repr(l) == "c#l1"
        and hash(v) == hash(Name(0, 0, "y")) and len({v, l}) == 2):
    sys.exit("names misbehave: %r" % (back,))
store = initial_store()
with open(sys.argv[1]) as f:
    term = parse(f.read(), store)
cfg = synthesize_config(store, to_mnf(term, store.supply))
back = pickle.loads(pickle.dumps(cfg))
if not (back.graph == cfg.graph and back.dep == cfg.dep
        and graph_to_text(back.graph) == graph_to_text(cfg.graph)):
    sys.exit("the annotated graph does not survive pickling")
if back.store[back.store.w] is not OMEGA:
    sys.exit("the capability does not survive pickling")
if pickle.loads(pickle.dumps(Cst(UNIT_V))).value is not UNIT_V:
    sys.exit("unit does not survive pickling")
store = initial_store()
with open(sys.argv[3]) as f:
    g = to_mnf(parse(f.read(), store), store.supply)
digest = hashlib.sha256()
for regime in ("hard", "rw"):
    cfg = synthesize_config(store, g, regime)
    digest.update(export_json(cfg.graph, cfg.dep).encode())
print(digest.hexdigest()[:16])
e, e2 = RwEffect(frozenset({v})), RwEffect(reads=frozenset({v}))
qt = QualifiedType(TY_INT)
if not (e == e2 and hash(e) == hash(e2) and len({e, e2}) == 1
        and e != RwEffect(writes=frozenset({v}))
        and qt == QualifiedType(TY_INT)
        and qt != QualifiedType(TY_INT, frozenset({v}))
        and repr(e) == "(r:{x#v0};w:{})"):
    sys.exit("records misbehave: %r %r" % (e, qt))
try:
    e.reads = frozenset()
except dataclasses.FrozenInstanceError:
    pass
else:
    sys.exit("a record field was written")
for semantics in ("direct", "store", "graph"):
    if main(["run", "--semantics", semantics, sys.argv[1]]):
        sys.exit("gir run --semantics %s failed" % semantics)
if main(["schedule", sys.argv[2], "--regime", "rw", "--freq", "--compact"]):
    sys.exit("gir schedule failed")
from girkit.core import Lam, Let, Nm, PURE
from girkit.schedule import emit, flatten_config, schedule
from girkit.typecheck import infer_direct
for n, kind in ((1100, Lam), (3000, Let)):
    store = initial_store()
    xs = [store.supply.var("x") for _ in range(n + 1)]
    t = Nm(xs[1] if kind is Lam else xs[0])
    for x in reversed(xs[1:]):
        t = Lam(x, qt, PURE, t) if kind is Lam else Let(x, t, Nm(x))
    if kind is Let:
        t = Let(xs[0], Cst(7), t)
    ty = infer_direct(store.typing(), t).qt.ty
    cfg = synthesize_config(store, to_mnf(t, store.supply))
    text = emit(schedule(flatten_config(cfg), True, True))
    print(n, sys.getrecursionlimit() < n, ty.__class__.__name__,
          text.count("fun (") if kind is Lam else text)
"""


def test_no_module_declares_a_frozen_dataclass():
    """Immutable records are declared through `core.record`, whose
    `__init__` stores each field through its slot. A class decorated with
    `@dataclass(frozen=True...)` directly would build its records through
    the slower generated `__init__`."""
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in sorted((SRC / "girkit").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             for d in node.decorator_list
             if isinstance(d, ast.Call)
             and "dataclass" in (getattr(d.func, "id", None),
                                 getattr(d.func, "attr", None))
             and any(k.arg == "frozen" for k in d.keywords)]
    assert found == []


def test_no_invariant_is_an_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "girkit").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _defined(tree: ast.Module):
    """(line, name) of every function and method, and of every class and
    name a module binds at its top level."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.lineno, node.name
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.lineno, node.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for n in (n for t in targets for n in ast.walk(t)):
            if isinstance(n, ast.Name):
                yield node.lineno, n.id


def test_no_helper_is_dead():
    """Every function or method in the package, and every class or name a
    module binds at its top level, is read somewhere in the package, the
    tests or the benchmark: as a name, an attribute, an import alias or a
    string (the benchmark's tracer wraps functions by name)."""
    used = set()
    for d in ("src", "tests", "benchmark"):
        for path in sorted((SRC.parent / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(
                        node.ctx, ast.Store):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rsplit(".", 1)[-1])
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    used.add(node.value)
    dead = [f"{path.name}:{line} {name}"
            for path in sorted((SRC / "girkit").glob("*.py"))
            for line, name in _defined(ast.parse(path.read_text()))
            if not (name.startswith("__") and name.endswith("__"))
            and name not in used]
    assert dead == []


def test_no_import_is_unused():
    """Every name a module of the package imports is used in that module;
    `__init__.py` imports only to re-export."""
    unused = []
    for path in sorted((SRC / "girkit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


_DICT_MUTATORS = {"update", "pop", "setdefault", "clear", "popitem"}
# a context's maps, and the shared dict behind every version of a PMap
_MAP_ATTRS = {"env", "lets", "_data"}


def test_no_module_writes_into_a_context_map():
    """Typing contexts are persistent: every version of a context's `env`
    and `lets` maps shares one dict, which only `PMap` may change. So no
    code outside the `PMap` class may assign into or `del` from a
    subscript of an `env`, `lets` or `_data` attribute, of a `_root()`
    call, or of a name bound to one of these, or call a mutating dict
    method on it: the write would show in every version sharing the
    dict."""
    def is_map(node, aliases):
        return ((isinstance(node, ast.Attribute) and node.attr in _MAP_ATTRS)
                or (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_root")
                or (isinstance(node, ast.Name) and node.id in aliases))

    def outside_pmap(tree):
        todo = [tree]
        while todo:
            node = todo.pop()
            if isinstance(node, ast.ClassDef) and node.name == "PMap":
                continue
            yield node
            todo.extend(ast.iter_child_nodes(node))

    found = []
    for path in sorted((SRC / "girkit").glob("*.py")):
        nodes = list(outside_pmap(ast.parse(path.read_text())))
        aliases = {t.id for node in nodes
                   if isinstance(node, ast.Assign)
                   and is_map(node.value, set())
                   for t in node.targets if isinstance(t, ast.Name)}
        found += [f"{path.name}:{node.lineno}"
                  for node in nodes
                  if (isinstance(node, ast.Subscript)
                      and isinstance(node.ctx, (ast.Store, ast.Del))
                      and is_map(node.value, aliases))
                  or (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in _DICT_MUTATORS
                      and is_map(node.func.value, aliases))]
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reaches_into_another_ones_privates():
    """No module of the package reads an underscore-prefixed attribute of a
    module it imported (`core._x`) or imports such a name (`from .core
    import _x`): what modules share is public."""
    found = []
    for path in sorted((SRC / "girkit").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name.split(".")[0]
                            for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                if node.module is None:  # `from . import core`
                    modules |= {a.asname or a.name for a in node.names}
                found += [f"{path.name}:{node.lineno} {a.name}"
                          for a in node.names if _private(a.name)]
        found += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert found == []


def test_each_module_is_a_package_attribute():
    """`import girkit.X as m` binds the module X, so no name the package
    re-exports may shadow a submodule."""
    import girkit
    names = sorted(p.stem for p in (SRC / "girkit").glob("*.py")
                   if p.stem != "__init__")
    for name in names:
        importlib.import_module(f"girkit.{name}")
    shadowed = [n for n in names
                if getattr(girkit, n) is not sys.modules[f"girkit.{n}"]]
    assert shadowed == []
