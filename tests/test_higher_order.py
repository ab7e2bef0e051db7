"""Higher-order and reference-typed lambdas through every stage, the
invariants that let the type checker and the scheduler leave checks out,
and a scoping guard on everything `gir schedule` emits."""

import importlib
import random
import sys
import threading
from collections import Counter
from types import GeneratorType

import pytest

from girkit import typecheck
from girkit.cli import (
    _build_config, _front_end, export_json, import_json, main, parse,
)
from girkit.core import (
    App, Assign, Deref, GLet, HARD, Lam, Let, NLam, RefNew, RW, initial_store,
    term_to_text,
)
from girkit.graphir import synthesize_config
from girkit.interp import canonical_value, eval_store
from girkit.mnf import check_mnf, to_mnf
from girkit.schedule import _Deps, emit, flatten_config, schedule
from girkit.testkit import GenConfig, gen_well_typed

FN = "((y: Int^{}) =>{rd{} wr{}} Int^{})^{}"

# name -> (source, canonical value, or None for a closure)
PROGRAMS = {
    # a function-typed parameter, applied twice; its type names the cell
    # `r`, which evaluation substitutes into it
    "twice": (
        "let r = ref(w, 5) in "
        "let get = fun (x: Int^{}) =>{rd{r} wr{}} !r in "
        "let twice = fun (g: ((y: Int^{}) =>{rd{r} wr{}} Int^{})^{r}) "
        "=>{rd{} wr{}} (fun (z: Int^{}) =>{rd{r} wr{}} g (g z)) in "
        "let h = twice get in h 0",
        ("cst", "Int", 5)),
    # a parameter whose qualifier names a cell
    "ref_param": (
        "let r = ref(w, 3) in "
        "let k = fun (c: Ref[Int]^{r}) =>{rd{c} wr{}} !c in k r",
        ("cst", "Int", 3)),
    # a latent effect that names a cell the body does not touch
    "latent_cell": (
        "let r = ref(w, 3) in "
        "let k = fun (c: Int^{}) =>{rd{r} wr{}} c in k 1",
        ("cst", "Int", 1)),
    # a lambda that returns its function argument
    "closure": (
        f"let t = fun (g: {FN}) =>{{rd{{}} wr{{}}}} g in t",
        None),
}

SCHED_MODES = ([], ["--freq"], ["--compact"], ["--freq", "--compact"])
SEMANTICS = ("direct", "store", "graph")
ALL_PASSES = "cse,comm,dce,hoist,inline"


def evaluate(text):
    store = initial_store()
    r = eval_store(store, parse(text, store))
    return canonical_value(r.store, r.value)


def assert_value(got, want):
    if want is None:  # a closure's parameter is renamed on re-parse
        assert got[0] == "closure", got
    else:
        assert got == want


@pytest.fixture
def src_file(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.gir"
        p.write_text(PROGRAMS[name][0])
        return str(p)
    return write


def run_gir(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 0, err
    return out


@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestEveryStage:
    def test_check(self, name, src_file, capsys):
        out = run_gir(capsys, ["check", src_file(name)])
        if name == "closure":
            assert out == (
                "((g_1: ((y_2: Int^{}) =>{rd{} wr{}} Int^{})^{}) "
                "=>{rd{} wr{}} ((y_2: Int^{}) =>{rd{} wr{}} Int^{})^{g_1})^{}"
                " ; rd{} wr{}\n")
        else:
            assert out.startswith("Int^{} ; ")

    @pytest.mark.parametrize("regime", ["hard", "rw"])
    def test_graph_json_roundtrips_and_dot_walks_lambda_bodies(
            self, name, regime, src_file, tmp_path, capsys):
        js, dot = tmp_path / "g.json", tmp_path / "g.dot"
        run_gir(capsys, ["graph", src_file(name), "--regime", regime,
                         "--json", str(js), "--dot", str(dot)])
        text = js.read_text()
        assert export_json(*import_json(text)) == text
        drawn = dot.read_text()
        cfg = _build_config(PROGRAMS[name][0], RW if regime == "rw" else HARD)
        for lam in bindings(cfg.graph):
            if isinstance(lam, NLam):
                assert f':= fun {lam.param.pretty()}"' in drawn
                if isinstance(lam.body, GLet):  # the body is drawn too
                    assert f'"{lam.body.var.pretty()}" [label=' in drawn

    @pytest.mark.parametrize("regime", ["hard", "rw"])
    def test_run_agrees_across_semantics(self, name, regime, src_file,
                                         capsys):
        path = src_file(name)
        values = {run_gir(capsys, ["run", path, "--regime", regime,
                                   "--semantics", sem]).splitlines()[0]
                  for sem in SEMANTICS}
        want = PROGRAMS[name][1]
        assert values == {f"value: {want or ('closure', 1)}"}

    @pytest.mark.parametrize("regime", ["hard", "rw"])
    def test_opt_with_every_pass_keeps_the_value(self, name, regime,
                                                 src_file, capsys):
        out = run_gir(capsys, ["opt", src_file(name), "--regime", regime,
                               "--passes", ALL_PASSES])
        assert_value(evaluate(out.splitlines()[-1]), PROGRAMS[name][1])

    @pytest.mark.parametrize("mode", SCHED_MODES,
                             ids=["plain", "freq", "compact", "freq+compact"])
    @pytest.mark.parametrize("regime", ["hard", "rw"])
    def test_schedule_output_reparses_to_the_value(self, name, regime, mode,
                                                   src_file, capsys):
        """`ref_param` and `latent_cell` name the cell `r` in a lambda's
        annotations, which compact scheduling once folded into its other
        use or left out, so the emitted text did not parse."""
        out = run_gir(capsys, ["schedule", src_file(name), "--regime",
                               regime] + mode)
        assert_value(evaluate(out), PROGRAMS[name][1])


def bindings(g):
    """Every let binding of a graph term, nested blocks and lambda bodies
    included."""
    todo = [g]
    while todo:
        u = todo.pop()
        if isinstance(u, GLet):
            yield u.binding
            todo += [u.binding, u.body]
        elif isinstance(u, NLam):
            todo.append(u.body)


def chain_programs(sizes):
    """The benchmark's `chain` programs at seed 0 whose source lets are in
    `sizes`, generated in the benchmark's order."""
    from benchmark import gen
    rng = random.Random(0)
    out = []
    for i, (lets, ret_cell) in enumerate(gen.CHAIN_SLOTS):
        prog = gen.chain_program(rng, lets, 4 + i % 5, ret_cell)
        if lets in sizes:
            out.append(prog.text)
    return out


def corpus(seeds, chain_sizes):
    """(store, term) for testkit seeds, chain programs and `PROGRAMS`."""
    out = [_front_end(text)[:2] for text in chain_programs(chain_sizes)]
    out += [_front_end(src)[:2] for src, _ in PROGRAMS.values()]
    for seed in seeds:
        store = initial_store()
        out.append((store, gen_well_typed(GenConfig(seed=seed, max_depth=6),
                                          store)))
    return out


CHAIN_SIZES = (50, 60, 75, 90, 110, 130)


class TestOmittedChecksStayImplied:
    """Properties that make three checks unnecessary: a qualifier-escape
    test after each typing rule, a test in the lambda rule that the latent
    effect names only captures, and a hard dependency on the parameter
    added by hand to effectful lambda-body nodes before scheduling."""

    def typed_everywhere(self):
        for store, t in corpus(range(200), CHAIN_SIZES):
            typecheck.infer_direct(store.typing(), t)
            g = to_mnf(t, store.supply)
            check_mnf(store.typing(), g)
            for regime in (HARD, RW):
                synthesize_config(store, g, regime)

    def test_inferred_qualifiers_lie_in_the_observation(self, monkeypatch):
        infer, name_typing = typecheck._infer, typecheck.name_typing
        seen, kinds = [], Counter()

        def check(ctx, t, typing):
            assert typing.qt.qual <= ctx.phi, (t, typing)
            seen.append(typing)
            kinds[type(t)] += 1
            return typing

        def checked(ctx, t):
            walk = infer(ctx, t)
            if type(walk) is not GeneratorType:  # an atom's typing
                return check(ctx, t, walk)
            return checked_walk(ctx, t, walk)

        def checked_walk(ctx, t, walk):
            return check(ctx, t, (yield from walk))

        def checked_name(ctx, n, span=None):
            typing = name_typing(ctx, n, span)
            assert typing.qt.qual <= ctx.phi, (n, typing)
            seen.append(typing)
            return typing

        # `infer_direct` types a term and each of its subterms through
        # typecheck's `_infer`, looked up in its module globals, also when
        # mnf types a node; graphs type their alias bindings and tails by
        # the name rule
        monkeypatch.setattr(typecheck, "_infer", checked)
        for module in ("typecheck", "mnf", "graphir"):
            monkeypatch.setattr(importlib.import_module(f"girkit.{module}"),
                                "name_typing", checked_name)
        self.typed_everywhere()
        assert len(seen) > 10_000
        assert sum(bool(t.qt.qual) for t in seen) > 1000
        # compound subterms are checked too, not only names and nodes
        compound = (Lam, App, RefNew, Deref, Assign, Let)
        assert all(kinds[k] > 500 for k in compound), kinds

    def test_lambda_rule_callers_pass_the_latent_names(self, monkeypatch):
        check_lam = typecheck.check_lam
        callers = set()

        def checked_from(module):
            def checked(ctx, lam, free, check_body, span=None):
                assert free >= lam.latent.flat - {lam.param}, (lam, free)
                callers.add(module)
                return check_lam(ctx, lam, free, check_body, span)
            return checked

        for module in ("typecheck", "mnf", "graphir"):
            monkeypatch.setattr(importlib.import_module(f"girkit.{module}"),
                                "check_lam", checked_from(module))
        self.typed_everywhere()
        assert callers == {"typecheck", "mnf", "graphir"}

    def test_effectful_lambda_body_nodes_need_their_parameter(self):
        checked = 0
        for store, t in corpus(range(200), CHAIN_SIZES):
            g = to_mnf(t, store.supply)
            for regime in (HARD, RW):
                cfg = synthesize_config(store, g, regime)
                sg = flatten_config(cfg)
                dv = _Deps(sg)
                for var, param in innermost_params(cfg.graph):
                    node = sg.nodes.get(var)
                    if node is None or not (node.hard or node.soft):
                        continue
                    i = dv.index_of(var)
                    assert dv.index_of(param) in dv.bound[i], (var, param)
                    checked += 1
        assert checked > 300


def innermost_params(g):
    """(binder, innermost enclosing lambda parameter) for every let binder
    inside a lambda body."""
    todo = [(g, None)]
    while todo:
        u, param = todo.pop()
        if isinstance(u, GLet):
            if param is not None:
                yield u.var, param
            todo += [(u.binding, param), (u.body, param)]
        elif isinstance(u, NLam):
            todo.append((u.body, u.param))


def with_deep_recursion(check):
    """Run `check` on a thread with room to recurse: the parser recurses
    once per let, and a long chain's scheduled text passes its default
    ceiling of about 500 lets."""
    errors = []

    def run():
        try:
            check()
        except Exception as e:  # noqa: BLE001 — re-raised below
            errors.append(e)

    limit, size = sys.getrecursionlimit(), threading.stack_size(1 << 28)
    sys.setrecursionlimit(50_000)
    try:
        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=300)
        assert not worker.is_alive()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)
    if errors:
        raise errors[0]


def test_everything_schedule_emits_is_in_scope():
    """Every mode of `gir schedule` emits text that parses: each name it
    prints is bound. Values are not compared here: scheduling still drops
    writes that no block result names."""
    texts = [src for src, _ in PROGRAMS.values()]
    texts += chain_programs((130, 420))
    texts += [term_to_text(gen_well_typed(GenConfig(seed=seed, max_depth=6),
                                          initial_store()))
              for seed in range(150)]

    def check():
        for text in texts:
            for regime in (HARD, RW):
                sg = flatten_config(_build_config(text, regime))
                for freq in (False, True):
                    for compact in (False, True):
                        parse(emit(schedule(sg, freq=freq, compact=compact)))

    with_deep_recursion(check)
