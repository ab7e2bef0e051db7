"""Nesting: every stage after the parser walks terms and graph terms of
any depth through `core.descend`, so it takes the same few Python frames
at any depth. Four families, built without the parser (which still
recurses once per nesting level), run every walker at 3,000 levels on the
main thread at the default recursion limit and thread stack."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from girkit import cli
from girkit.core import (
    App, Assign, Cst, Deref, FunTy, GirError, HARD, JsonSchemaError, Lam,
    Let, Nm, PURE, QualifiedType, RW, RefNew, RwEffect, TY_INT,
    alpha_equal_terms, descend, graph_free_names, graph_to_text,
    initial_store, rename_graph, subst_term, term_free_names, term_to_text,
    ty_free_names, ty_to_text,
)
from girkit.graphir import check_deps, initial_state, synthesize_config
from girkit.interp import canonical_value, eval_direct, eval_graph, eval_store
from girkit.mnf import (
    check_binding, check_mnf, collapse_administrative, embed, is_mnf, to_mnf,
)
from girkit.schedule import emit, flatten_config, schedule
from girkit.typecheck import infer_direct
from test_higher_order import with_deep_recursion

N = 3000
EVAL_N = 1100
KINDS = ("lam", "let", "app", "spine")


def deep_term(kind: str, n: int, first_id: int = 0):
    """(store, term) of the family `kind` at depth `n`, binders minted
    from the store's supply from id `first_id` on:

    - "lam": `fun (x1: Int^{}) =>{rd{} wr{}} … fun (xn: …) … x1`, n nested
      lambdas whose innermost body names the outermost parameter;
    - "let": `let y = 7 in let x1 = (let x2 = (… let xn = y in xn …) in
      x2) in x1`, n lets nested in bound position;
    - "app": `let f = fun (x: Int^{}) =>{rd{} wr{}} x in f (f (… (f 7)
      …))`, n applications nested in argument position;
    - "spine": `let r = ref(w, 0) in let g = fun (p: Int^{}) =>{rd{r}
      wr{r}} (let u1 = r := p in … let un = r := p in !r) in g 7`, a let
      spine of n writes inside a lambda body."""
    store = initial_store()
    store.supply.reserve(first_id)
    var = store.supply.var
    pure = PURE
    if kind == "lam":
        xs = [var("x") for _ in range(n)]
        t = Nm(xs[0])
        for x in reversed(xs):
            t = Lam(x, QualifiedType(TY_INT), pure, t)
        return store, t
    if kind == "let":
        y, xs = var("y"), [var("x") for _ in range(n)]
        t = Nm(y)
        for x in reversed(xs):
            t = Let(x, t, Nm(x))
        return store, Let(y, Cst(7), t)
    if kind == "app":
        f, x = var("f"), var("x")
        t = Cst(7)
        for _ in range(n):
            t = App(Nm(f), t)
        return store, Let(f, Lam(x, QualifiedType(TY_INT), pure, Nm(x)), t)
    r, g, p = var("r"), var("g"), var("p")
    us = [var("u") for _ in range(n)]
    t = Deref(Nm(r))
    for u in reversed(us):
        t = Let(u, Assign(Nm(r), Nm(p)), t)
    rw = RwEffect(frozenset({r}), frozenset({r}))
    lam = Lam(p, QualifiedType(TY_INT), rw, t)
    return store, Let(r, RefNew(Nm(store.w), Cst(0)),
                      Let(g, lam, App(Nm(g), Cst(7))))


def _first_binder(t):
    """(binder, the term it scopes over, a value to put for it)."""
    if isinstance(t, Lam):
        return t.param, t.body, Cst(1)
    return t.var, t.body, t.bound


@pytest.fixture(autouse=True)
def default_limit():
    assert sys.getrecursionlimit() < N


@pytest.mark.parametrize("kind", KINDS)
def test_term_walkers(kind):
    store, t = deep_term(kind, N)
    twin, shifted = deep_term(kind, N)[1], deep_term(kind, N, 10 ** 6)[1]
    assert t == twin and hash(t) == hash(twin) and t != shifted
    assert alpha_equal_terms(t, shifted)
    assert term_free_names(t) <= {store.w}
    x, body, v = _first_binder(t)
    assert x in term_free_names(body)
    assert x not in term_free_names(subst_term(body, x, v))
    text = term_to_text(t)
    assert len(text) > N and text.count("(") >= text.count(")")


@pytest.mark.parametrize("kind", KINDS)
def test_front_end(kind):
    store, t = deep_term(kind, N)
    ctx = store.typing()
    typing = infer_direct(ctx, t)
    mark = store.supply.next_id
    g = to_mnf(t, store.supply)
    assert check_mnf(ctx, g).qt.ty == typing.qt.ty
    assert check_binding(ctx, g) == check_mnf(ctx, g)
    assert is_mnf(embed(g)) and is_mnf(t) is (kind == "let")
    assert alpha_equal_terms(collapse_administrative(g, mark), t)
    if kind == "lam":  # a type nested as deep as the lambdas it types
        assert isinstance(typing.qt.ty, FunTy)
        assert ty_free_names(typing.qt.ty) == frozenset()
        assert ty_to_text(typing.qt.ty).count("=>") == N


@pytest.mark.parametrize("kind", KINDS)
def test_graph_walkers(kind):
    store, t = deep_term(kind, N)
    g = to_mnf(t, store.supply)
    assert graph_free_names(g) == term_free_names(t)
    renamed = rename_graph(g, {}, fresh=store.supply)
    assert renamed != g and check_mnf(store.typing(), renamed)
    text = graph_to_text(g)
    assert len(graph_to_text(renamed)) >= len(text) > N
    cfg = synthesize_config(store, g)
    assert cli.export_dot(cfg.graph, cfg.dep).count("\n") > N
    doc = descend(cli._graph_json(cfg.graph))
    assert descend(cli._graph_of(doc)) == cfg.graph


@pytest.mark.parametrize("kind", KINDS)
def test_synthesis_and_scheduling(kind):
    store, t = deep_term(kind, N)
    typing = infer_direct(store.typing(), t)
    g = to_mnf(t, store.supply)
    for regime in (HARD, RW):
        cfg = synthesize_config(store, g, regime)
        st, _ = initial_state(store, cfg.z, regime)
        assert check_deps(st, cfg.graph).qt.ty == typing.qt.ty
        for freq, compact in ((False, False), (True, True)):
            text = emit(schedule(flatten_config(cfg), freq, compact))
            # every lambda stays, and so does every write under `hard`;
            # aliases resolve away, and `rw` drops overwritten writes
            deep = kind == "lam" or kind == "spine" and regime == HARD
            assert text.count("\n") >= (N if deep else 0)


def test_json_names_the_nesting_it_cannot_hold():
    """The `json` module nests its containers on the Python stack, so a
    deep graph document exports as a diagnostic that points to DOT, and
    an input nested too deep is a schema error, not an internal one."""
    store, t = deep_term("lam", N)
    cfg = synthesize_config(store, to_mnf(t, store.supply))
    with pytest.raises(GirError) as err:
        cli.export_json(cfg.graph, cfg.dep)
    assert not isinstance(err.value, JsonSchemaError)
    assert "json" in err.value.message and "--dot" in err.value.message
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(JsonSchemaError, match="json"):
        cli.import_json('{"format": "gir-graph", "graph": %s}' % deep)


@pytest.mark.parametrize("kind", ("lam", "let", "app"))
def test_evaluators(kind):
    """The step rules substitute and rename through the whole depth: a
    `let` family's first step puts 7 for `y` under 1,100 nested lets.
    The `spine` family nests nothing; `test_spine` runs the evaluators
    over long spines."""
    store, t = deep_term(kind, EVAL_N)
    want = canonical_value(store, eval_direct(store, t).value)
    if kind != "lam":
        assert want == ("cst", "Int", 7)
    res = eval_store(store, t)
    assert canonical_value(res.store, res.value) == want
    res = eval_graph(synthesize_config(store, to_mnf(t, store.supply)))
    assert canonical_value(res.store, res.value) == want


def test_walks_are_linear_in_the_nesting():
    """Each lambda's free names are found once per walk, and each function
    type's once, so the lambda rule costs no walk of its body: 3,000
    nested lambdas type, check and synthesize in about 0.1 s each (they
    took 7–20 s, and a raised recursion limit, when each lambda walked its
    body again). The bound leaves room for a loaded machine."""
    store, t = deep_term("lam", N)
    ctx = store.typing()
    g = to_mnf(t, store.supply)
    for stage in (lambda: infer_direct(ctx, t), lambda: check_mnf(ctx, g),
                  lambda: synthesize_config(store, g)):
        start = time.process_time()
        stage()
        assert time.process_time() - start < 1.0


SRC = Path(__file__).resolve().parent.parent / "src"
LAMBDAS = 490  # the deepest the parser takes


@pytest.mark.parametrize("command", [
    ["mnf"], ["graph", "--dot", "{out}"], ["graph"],
    ["schedule", "-o", "{out}"],
    ["schedule", "--regime", "rw", "--freq", "--compact", "-o", "{out}"],
    ["run", "--semantics", "direct"], ["run", "--semantics", "store"],
    ["run", "--semantics", "graph"],
], ids=" ".join)
def test_gir_takes_what_the_parser_takes(command, tmp_path):
    """`gir` on the deepest nested lambdas the parser takes, in a process
    of its own: every command exits 0, but for the JSON export, whose
    depth is the `json` module's; a scheduled program parses and runs to
    a closure of the source's outermost parameter."""
    src = tmp_path / "deep.gir"
    src.write_text("".join(f"fun (x{i}: Int^{{}}) =>{{rd{{}} wr{{}}}} "
                           for i in range(LAMBDAS)) + "x0\n")
    out = tmp_path / "out"
    argv = [a.format(out=out) for a in command] + [str(src)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    p = subprocess.run([sys.executable, "-m", "girkit.cli", *argv], env=env,
                       capture_output=True, text=True, timeout=300)
    if command == ["graph"] and p.returncode == 1:
        assert "json module's recursion limit" in p.stderr
        assert "--dot" in p.stderr
        return
    assert p.returncode == 0, p.stderr
    if command[0] == "schedule":
        values = []

        def run(text):
            store = initial_store()
            res = eval_store(store, cli.parse(text, store))
            values.append(canonical_value(res.store, res.value))

        # the parser recurses per nesting level, so its check runs where
        # it has room to
        with_deep_recursion(lambda: run(src.read_text()))
        with_deep_recursion(lambda: run(out.read_text()))
        assert values[0] == values[1]
