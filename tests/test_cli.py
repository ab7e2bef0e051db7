"""Surface parser, DOT/JSON serialization, and the `gir` command-line
driver (subcommands, diagnostics, exit codes)."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from girkit import cli
from girkit.cli import (
    _build_config, export_dot, export_json, import_json, main, parse,
)
from girkit.core import (
    Cst, Deref, GLet, HARD, JsonSchemaError, Let, NLam, ParseError,
    RefNew, RW, graph_free_names, graph_to_text, initial_store,
    term_children, term_to_text,
)
from girkit.interp import eval_direct, eval_graph
from girkit.testkit import GenConfig, gen_well_typed
from girkit.typecheck import infer_direct


class TestParser:
    def test_allocation_and_read(self):
        store = initial_store()
        t = parse("let x = ref(w, 0) in !x", store)
        assert isinstance(t, Let) and isinstance(t.bound, RefNew)
        assert isinstance(t.body, Deref)
        assert t.bound.cap.name == store.w

    def test_identity_function_round_trips_through_the_checker(self):
        store = initial_store()
        t = parse("(fun (p: Int^{}) =>{rd{} wr{}} p) 3", store)
        infer_direct(store.typing(), t)
        assert eval_direct(store.copy(), t).value == Cst(3)

    def test_shadowing_rebinds_the_inner_occurrence(self):
        store = initial_store()
        t = parse("let x = 1 in let x = 2 in x", store)
        inner = t.body
        assert inner.body.name == inner.var != t.var

    def test_unbalanced_parenthesis_is_a_spanned_error(self):
        src = "let x = (1 in x"
        with pytest.raises(ParseError) as exc:
            parse(src)
        span = exc.value.span
        assert src[span.start:span.end] == "in"

    def test_unbound_identifier_is_rejected(self):
        with pytest.raises(ParseError, match="unbound"):
            parse("let x = 1 in y")

    def test_trailing_input_is_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("1 )")

    def test_reference_qualifiers_in_types_resolve_to_binders(self):
        store = initial_store()
        src = ("let x = ref(w, 0) in "
               "let f = fun (p: Ref[Int]^{x}) =>{rd{x,p} wr{}} !p in f x")
        typing = infer_direct(store.typing(), parse(src, store))
        assert typing.qt.ty.name == "Int"

    # sha256 of every parse below, as the one-token-at-a-time tokenizer
    # and the bounds-checked cursor gave it
    PARSE_DIGEST = ("3b4d3b39d71811ee4e4524d9d24e753f"
                    "35b95070edf604faa49c99ec7aa51f04")

    def test_parse_is_pinned(self):
        """The benchmark's `chain` and `opt` programs at seed 0 and the
        text of testkit seeds 0..199 parse to the same terms, binder ids
        and node spans: the digest covers each term's text (whose names
        print their ids) and every node's type and span."""
        root = str(Path(__file__).resolve().parent.parent)
        if root not in sys.path:
            sys.path.insert(0, root)
        import random

        from benchmark import gen

        rng = random.Random("chain:0")
        texts = [gen.chain_program(rng, lets, 4 + i % 5, ret_cell).text
                 for i, (lets, ret_cell) in enumerate(gen.CHAIN_SLOTS)]
        rng = random.Random("opt:0")
        texts += [gen.opt_program(rng, i).text
                  for i in range(gen.OPT_PROGRAMS)]
        texts += [term_to_text(gen_well_typed(
            GenConfig(seed=seed, max_depth=6), initial_store()))
            for seed in range(200)]
        digest = hashlib.sha256()
        # the parser and `term_to_text` recurse once per let, and the
        # longest `chain` program has 600
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2000)
        try:
            for text in texts:
                t = parse(text, initial_store())
                digest.update(term_to_text(t).encode())
                todo = [t]
                while todo:
                    u = todo.pop()
                    digest.update(f"|{type(u).__name__} {u.span.start} "
                                  f"{u.span.end}".encode())
                    todo += term_children(u)
        finally:
            sys.setrecursionlimit(limit)
        assert digest.hexdigest() == self.PARSE_DIGEST


class TestDotExport:
    def _two_write(self, regime):
        src = "let r = ref(w, 0) in let a = r := 1 in let b = r := 2 in !r"
        cfg = _build_config(src, regime)
        return export_dot(cfg.graph, cfg.dep)

    def test_well_formed_digraph(self):
        dot = self._two_write(HARD)
        assert dot.startswith("digraph G {") and dot.rstrip().endswith("}")

    def test_hard_effect_edges_are_dashed(self):
        dot = self._two_write(HARD)
        assert "[style=dashed]" in dot
        assert "[style=dotted]" not in dot

    def test_soft_effect_edges_are_dotted(self):
        dot = self._two_write(RW)
        assert "[style=dotted]" in dot

    def test_data_edges_are_solid(self):
        dot = self._two_write(HARD)
        plain = [l for l in dot.splitlines()
                 if "->" in l and "style" not in l]
        assert plain  # operand edges carry no style attribute


def lam_graph(**fields):
    """The graph of a document whose one node is a lambda, with `fields`
    replacing the lambda's own."""
    lam = {"id": "v1:f", "op": "lam", "param": "v2:p",
           "paramQt": {"ty": "Int", "qual": []},
           "latent": {"rd": [], "wr": []},
           "body": {"nodes": [], "result": "v2:p"}, **fields}
    return {"graph": {"nodes": [lam], "result": "v1:f"}}


class TestJsonRoundtrip:
    def _cfg(self, regime=HARD):
        src = ("let r = ref(w, 0) in "
               "let f = fun (p: Int^{}) =>{rd{r} wr{}} !r in "
               "let u = r := 3 in f 0")
        return _build_config(src, regime)

    @pytest.mark.parametrize("regime", [HARD, RW])
    def test_structural_roundtrip(self, regime):
        cfg = self._cfg(regime)
        text = export_json(cfg.graph, cfg.dep, cfg.store.w)
        g, dep, start = import_json(text)
        assert graph_to_text(g) == graph_to_text(cfg.graph)
        assert g == cfg.graph and dep == cfg.dep and start == cfg.store.w

    def test_serialization_is_byte_stable(self):
        a = self._cfg()
        b = self._cfg()
        assert (export_json(a.graph, a.dep, a.store.w)
                == export_json(b.graph, b.dep, b.store.w))

    def test_double_roundtrip_is_identity_on_bytes(self):
        cfg = self._cfg()
        text = export_json(cfg.graph, cfg.dep, cfg.store.w)
        g, dep, start = import_json(text)
        assert export_json(g, dep, start) == text

    def test_unknown_op_is_a_schema_error(self):
        cfg = self._cfg()
        doc = json.loads(export_json(cfg.graph, cfg.dep, cfg.store.w))
        doc["graph"]["nodes"][0]["op"] = "mystery"
        with pytest.raises(JsonSchemaError, match="unknown op"):
            import_json(json.dumps(doc))

    def test_malformed_name_is_a_schema_error(self):
        cfg = self._cfg()
        doc = json.loads(export_json(cfg.graph, cfg.dep, cfg.store.w))
        doc["graph"]["result"] = "nonsense"
        with pytest.raises(JsonSchemaError, match="malformed name"):
            import_json(json.dumps(doc))

    def test_wrong_format_tag_is_rejected(self):
        with pytest.raises(JsonSchemaError, match="not a graph"):
            import_json('{"format": "other"}')

    def test_invalid_json_is_rejected(self):
        with pytest.raises(JsonSchemaError, match="invalid JSON"):
            import_json("{")

    @pytest.mark.parametrize("value", [["Int", True], ["Bool", 1]],
                             ids=["int-true", "bool-one"])
    def test_a_constant_tagged_with_another_type_is_a_schema_error(
            self, value):
        """A constant's tag names its type: true is no Int, 1 no Bool."""
        cfg = self._cfg()
        doc = json.loads(export_json(cfg.graph, cfg.dep, cfg.store.w))
        todo = [doc]
        while todo[-1].get("op") != "cst":  # the first constant node
            u = todo.pop()
            todo += [v for v in u.values() if isinstance(v, dict)]
            todo += [v for v in u.get("nodes", ()) if isinstance(v, dict)]
        todo[-1]["value"] = value
        with pytest.raises(JsonSchemaError, match="malformed constant"):
            import_json(json.dumps(doc))

    @pytest.mark.parametrize("field, dep", [
        ("dep", {"hard": [], "soft": {}}),
        ("dep", {"hard": {}, "soft": {"v1:x": 3}}),
        ("bodyDep", {"hard": 1, "soft": {}}),
    ], ids=["hard-list", "soft-int", "body-hard-int"])
    def test_malformed_dep_map_is_a_schema_error(self, field, dep):
        cfg = self._cfg()
        doc = json.loads(export_json(cfg.graph, cfg.dep, cfg.store.w))
        todo = [doc]
        while field not in todo[-1]:  # the first node that has `field`
            u = todo.pop()
            todo += [v for v in u.values() if isinstance(v, dict)]
            todo += [v for v in u.get("nodes", ()) if isinstance(v, dict)]
        todo[-1][field] = dep
        with pytest.raises(JsonSchemaError, match="dep map|qualifier"):
            import_json(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        ({"version": 2}, "unsupported version 2"),
        # True == 1 == 1.0, so only the type tells these from version 1
        ({"version": True}, "unsupported version True"),
        ({"version": 1.0}, "unsupported version 1.0"),
        ({"graph": {"nodes": []}}, "graph must have nodes/result"),
        ({"graph": {"nodes": {}, "result": "v1:x"}}, "nodes must be a list"),
        ({"graph": {"nodes": [3], "result": "v1:x"}},
         "malformed node entry 3"),
        ({"graph": {"nodes": [{"id": "v1:x"}], "result": "v1:x"}},
         "malformed node"),
        ({"graph": {"nodes": [], "result": 5}}, "name must be a string"),
        ({"graph": {"nodes": [{"id": "v1:x", "op": "deref", "args": []}],
                    "result": "v1:x"}}, "op 'deref' needs 1 args"),
        ({"graph": {"nodes": [{"id": "v1:f", "op": "lam"}],
                    "result": "v1:f"}}, "lam node missing 'param'"),
        (lam_graph(latent={"rd": []}), "effect must have rd/wr"),
        (lam_graph(paramQt={"ty": "Int"}),
         "qualified type must have ty/qual"),
        (lam_graph(paramQt={"ty": "Float", "qual": []}),
         "unknown base type"),
        (lam_graph(paramQt={"ty": {"ref": "Alloc"}, "qual": []}),
         "bad reference payload"),
        (lam_graph(paramQt={"ty": {"fun": {}}, "qual": []}),
         "malformed function type"),
        (lam_graph(paramQt={"ty": 3, "qual": []}),
         "unknown type encoding"),
    ], ids=["version", "version-bool", "version-float", "graph-keys",
            "nodes-dict", "entry-int", "entry-without-op", "name-int",
            "args-count", "lam-no-param",
            "effect-keys", "qt-keys", "base-type", "ref-payload",
            "fun-type", "type-int"])
    def test_each_malformed_part_is_a_schema_error(self, doc, message):
        doc = {"format": "gir-graph", "version": 1, "start": None,
               "dep": None, "graph": {"nodes": [], "result": "v1:x"}, **doc}
        with pytest.raises(JsonSchemaError, match=re.escape(message)):
            import_json(json.dumps(doc))


def graph_names(g):
    """Every name a graph term binds or mentions."""
    names = set(graph_free_names(g))
    todo = [g]
    while todo:
        u = todo.pop()
        if isinstance(u, GLet):
            names.add(u.var)
            todo += [u.binding, u.body]
        elif isinstance(u, NLam):
            names.add(u.param)
            todo.append(u.body)
    return names


@pytest.fixture
def src_file(tmp_path):
    def write(text, name="prog.gir"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


class TestMain:
    def test_check_prints_type_and_effect(self, src_file, capsys):
        path = src_file("let x = ref(w, 0) in !x")
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "Int" in out and ";" in out

    def test_check_reports_diagnostics_with_exit_1(self, src_file, capsys):
        path = src_file("let x = (1 in x")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert "expected a closing parenthesis" in err
        assert ":11-13:" in err  # the byte span of the offending token

    def test_the_parser_is_built_once_per_process(self, src_file, capsys,
                                                  monkeypatch):
        built = []
        build = cli._build_argparser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_ARGPARSER", None)
        monkeypatch.setattr(cli, "_build_argparser", counting)
        path = src_file("let x = ref(w, 0) in !x")
        assert main(["check", path]) == 0
        assert main(["check", src_file("let x = (1 in x", "bad.gir")]) == 1
        assert built == [1]

    def test_a_replaced_command_runs(self, src_file, monkeypatch):
        monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
        assert main(["check", src_file("1")]) == 7

    def test_an_internal_failure_exits_2(self, src_file, capsys,
                                         monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_check", broken)
        assert main(["check", src_file("1")]) == 2
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    @pytest.mark.parametrize("src, code, spanned, msg", [
        # an application spans its function and arguments
        ("let f = fun (p: Int^{}) =>{rd{} wr{}} p in f true", "E002",
         "f true", "argument type Bool does not match domain Int"),
        ("let f = fun (p: Ref[Int]^{}) =>{rd{} wr{}} "
         "fun (q: Int^{}) =>{rd{p} wr{}} !p in let r = ref(w, 0) in f r",
         "E002", "f r", "parameter p#v1 occurs in the result type"),
        ("1 2", "E002", "1 2", "applied non-function Int^{}"),
        ("ref(1, 2)", "E002", "ref(1, 2)",
         "ref needs the allocation capability, got Int"),
        ("let r = ref(w, 0) in r := true", "E002", ":=",
         "assignment payload Bool vs cell Ref[Int]"),
        ("let r = ref(w, 0) in fun (q: Int^{}) =>{rd{r} wr{}} !r", "E002",
         "let r = ref(w, 0) in fun (q: Int^{}) =>{rd{r} wr{}} !r",
         "let-bound r#v1 occurs in the body's result type"),
        ("let x = 1 in $", "E013", "$", "unexpected character '$'"),
        ("let x = ) in x", "E013", ")", "expected a term, found ')'"),
        ("fun (p: Ref[Alloc]^{}) =>{rd{} wr{}} p", "E013", "Alloc",
         "references hold base values, got 'Alloc'"),
        ("fun (p: 3^{}) =>{rd{} wr{}} p", "E013", "3",
         "expected a type, found '3'"),
    ])
    def test_check_spans_each_diagnostic(self, src_file, capsys, src, code,
                                         spanned, msg):
        assert main(["check", src_file(src)]) == 1
        err = capsys.readouterr().err
        m = re.search(r":(\d+)-(\d+): \[(E\d+)\] (.*)", err)
        assert m, err
        assert (m[3], src[int(m[1]):int(m[2])], m[4]) == (code, spanned, msg)

    def test_missing_file_is_a_diagnostic(self, capsys):
        assert main(["check", "/nonexistent/input.gir"]) == 1
        err = capsys.readouterr().err
        assert "[E000]" in err and "/nonexistent/input.gir" in err

    def test_non_utf8_input_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.gir"
        path.write_bytes(b"let x = 1 in x\xff")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[E000]" in err and str(path) in err and "UTF-8" in err

    def test_unwritable_output_is_a_diagnostic(self, src_file, capsys):
        path = src_file("let x = ref(w, 0) in !x")
        assert main(["graph", path, "--dot", "/nonexistent/x.dot"]) == 1
        err = capsys.readouterr().err
        assert "[E000]" in err and "/nonexistent/x.dot" in err

    def test_mnf_prints_a_graph_term(self, src_file, capsys):
        path = src_file("!ref(w, 1)")
        assert main(["mnf", path]) == 0
        assert capsys.readouterr().out.startswith("let ")

    def test_graph_emits_importable_json(self, src_file, capsys):
        path = src_file("let x = ref(w, 0) in !x")
        assert main(["graph", path, "--regime", "rw"]) == 0
        g, dep, start = import_json(capsys.readouterr().out)
        assert start is not None and dep is not None

    def test_graph_writes_dot_to_a_file(self, src_file, tmp_path):
        path = src_file("let x = ref(w, 0) in !x")
        dot_path = tmp_path / "g.dot"
        assert main(["graph", path, "--dot", str(dot_path)]) == 0
        assert dot_path.read_text().startswith("digraph")

    def test_opt_reports_fired_rewrites(self, src_file, capsys):
        path = src_file("let dead = 41 in 7")
        assert main(["opt", path, "--passes", "dce"]) == 0
        out = capsys.readouterr().out
        assert "fired" in out and "41" not in out.splitlines()[-1]

    @pytest.mark.parametrize("regime", ["hard", "rw"])
    def test_opt_drops_an_unused_allocation_in_both_regimes(
            self, regime, src_file, capsys):
        # under hard, y's allocation depends on x's; re-synthesis after the
        # rewrite drops that edge with x
        path = src_file("let x = ref(w, 1) in let y = ref(w, 2) in !y")
        assert main(["opt", path, "--passes", "dce",
                     "--regime", regime]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dce @ []: fired"
        assert "x_1" not in out[-1] and out[-1].startswith("let y_2 = ")

    @pytest.mark.parametrize("regime", ["hard", "rw"])
    def test_opt_drops_an_allocation_through_an_alias_of_w(
            self, regime, src_file, capsys):
        # reading `a`, typed Alloc, is allocating, so `r` is dead and
        # discardable; then so is `a`
        path = src_file("let a = w in let r = ref(a, 1) in 0")
        assert main(["opt", path, "--passes", "dce",
                     "--regime", regime]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["dce @ [1]: fired", "dce @ []: fired"]
        assert "ref" not in out[-1] and "w" not in out[-1]

    def test_opt_inline_mints_no_clashing_binder(self, src_file, capsys):
        # fresh binders must come from the program's own supply; a fresh
        # store's supply re-mints ids the program already uses
        path = src_file("let f = fun (p: Int^{}) =>{rd{} wr{}} "
                        "(let q = p in q) in let a = 1 in f a")
        assert main(["opt", path, "--passes", "inline"]) == 0
        out = capsys.readouterr().out
        assert "fired" in out
        binders = re.findall(r"(?:let |fun \()(\w+)", out.splitlines()[-1])
        assert len(binders) == len(set(binders)), binders

    def test_opt_rejects_unknown_passes(self, src_file, capsys):
        path = src_file("1")
        assert main(["opt", path, "--passes", "nosuch"]) == 1
        assert "unknown pass" in capsys.readouterr().err

    def test_schedule_emits_source_text(self, src_file, capsys):
        path = src_file("let x = ref(w, 5) in !x")
        assert main(["schedule", path, "--compact"]) == 0
        assert capsys.readouterr().out.strip() == "!ref(w, 5)"

    def test_schedule_synthetic_benchmark_times(self, capsys):
        assert main(["schedule", "--synthetic", "200", "--depth", "3",
                     "--time"]) == 0
        assert "time=" in capsys.readouterr().out

    def test_schedule_synthetic_timing_runs_the_asked_configuration(
            self, monkeypatch, capsys):
        import girkit.schedule as sched
        real, calls = sched.schedule, []

        def spy(sg, freq=False, compact=False, matchers=()):
            calls.append((freq, compact, tuple(matchers)))
            return real(sg, freq, compact, matchers)

        monkeypatch.setattr(sched, "schedule", spy)
        assert main(["schedule", "--synthetic", "50", "--depth", "3",
                     "--time", "--freq", "--compact", "--match", "gemm"]) == 0
        assert "time=" in capsys.readouterr().out
        assert calls and set(calls) == {(True, True, ("gemm",))}

    @pytest.mark.parametrize("extra", [[], ["--compact", "--match", "gemm"]],
                             ids=["plain", "compact-gemm"])
    def test_schedule_synthetic_output_is_a_function_of_the_seed(
            self, capsys, extra):
        def run(seed):
            assert main(["schedule", "--synthetic", "60", "--depth", "3",
                         "--seed", str(seed), *extra]) == 0
            return capsys.readouterr().out
        first = run(0)
        assert first.startswith("let ")
        assert run(0) == first and run(1) != first

    def test_schedule_rejects_a_file_beside_synthetic(self, src_file,
                                                       capsys):
        path = src_file("let x = ref(w, 5) in !x")
        assert main(["schedule", path, "--synthetic", "5"]) == 1
        captured = capsys.readouterr()
        assert "E013" in captured.err and "not both" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--synthetic", "0"],
        ["--synthetic", "-3"],
        ["--synthetic", "-3", "--time"],
    ])
    def test_schedule_rejects_a_synthetic_size_below_one(self, capsys, argv):
        assert main(["schedule", *argv]) == 1
        err = capsys.readouterr().err
        assert f"--synthetic needs N >= 1, got {argv[1]}" in err
        assert "needs FILE" not in err and "internal error" not in err

    @pytest.mark.parametrize("time", [[], ["--time"]])
    def test_schedule_rejects_a_negative_depth(self, capsys, time):
        assert main(["schedule", "--synthetic", "5", "--depth", "-1",
                     *time]) == 1
        captured = capsys.readouterr()
        assert "E013" in captured.err
        assert "--depth needs N >= 0, got -1" in captured.err
        assert captured.out == ""

    # sha256 of the concatenated stdout below, as the optimizer gave it
    # when every fired rewrite re-synthesized the whole graph
    OPT_DIGEST = ("df9fb97bf26c497b7ca06d63b4e80efe"
                  "7473ce9666d93153a3f5b50ef399003e")

    def test_opt_output_is_pinned(self, src_file, capsys):
        """`gir opt` with every pass prints the same reports and programs
        on testkit seeds 0..49 in both regimes."""
        digest = hashlib.sha256()
        for seed in range(50):
            path = src_file(term_to_text(gen_well_typed(
                GenConfig(seed=seed, max_depth=6), initial_store())))
            for regime in ("hard", "rw"):
                assert main(["opt", path, "--regime", regime, "--passes",
                             "dce,comm,hoist,inline,cse", "--report",
                             "json", "--fuel", "50"]) == 0
                digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == self.OPT_DIGEST

    def test_opt_rejects_negative_fuel(self, src_file, capsys):
        path = src_file("let dead = 41 in 7")
        assert main(["opt", path, "--fuel", "-2"]) == 1
        err = capsys.readouterr().err
        assert "E013" in err and "--fuel needs N >= 0, got -2" in err

    def test_fuzz_rejects_a_negative_count(self, capsys):
        assert main(["fuzz", "--count", "-2"]) == 1
        captured = capsys.readouterr()
        assert "E013" in captured.err
        assert "--count needs N >= 0, got -2" in captured.err
        assert "programs checked" not in captured.out

    def test_fuzz_rejects_a_negative_max_depth(self, capsys):
        assert main(["fuzz", "--count", "1", "--max-depth", "-2"]) == 1
        captured = capsys.readouterr()
        assert "E013" in captured.err
        assert "--max-depth needs N >= 0, got -2" in captured.err
        assert "programs checked" not in captured.out

    @pytest.mark.parametrize("sem", ["direct", "store", "graph"])
    def test_run_agrees_across_semantics(self, src_file, capsys, sem):
        path = src_file(
            "let r = ref(w, 1) in let u = r := 2 in !r")
        assert main(["run", path, "--semantics", sem]) == 0
        out = capsys.readouterr().out
        assert "('cst', 'Int', 2)" in out and "steps:" in out

    @pytest.mark.parametrize("sem", ["direct", "store", "graph"])
    def test_run_trace_prints_a_rule_line_per_step(self, src_file, capsys,
                                                   sem):
        path = src_file(
            "let r = ref(w, 1) in let u = r := 2 in !r")
        assert main(["run", path, "--semantics", sem, "--trace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rules = [s for s in lines if re.fullmatch(r"  \[[a-z-]+\]", s)]
        assert lines[-1].startswith("steps: ")
        steps = int(lines[-1].split()[1])
        assert steps > 0 and len(rules) == steps == len(lines) - 2

    def test_run_starts_from_a_name_the_graph_does_not_use(
            self, src_file, capsys, monkeypatch):
        seen = []

        def capture(cfg, **kw):
            seen.append(cfg)
            return eval_graph(cfg, **kw)

        monkeypatch.setattr(cli, "eval_graph", capture)
        path = src_file("let r = ref(w, 1) in let u = r := 2 in !r")
        assert main(["run", path, "--semantics", "graph"]) == 0
        (cfg,) = seen
        assert cfg.z not in graph_names(cfg.graph)

    def test_fuzz_smoke(self, capsys):
        assert main(["fuzz", "--count", "5", "--seed", "1",
                     "--max-depth", "3", "--check", "translation"]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_fuzz_seed_comes_from_the_flag_alone(self, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("GIR_SEED", "5")
        assert main(["fuzz", "--count", "1", "--seed", "0",
                     "--max-depth", "3", "--check", "translation"]) == 0
        assert "seed=0)" in capsys.readouterr().out


def test_benchmark_trace_hooks_find_every_name_they_wrap():
    """The benchmark's tracer wraps functions by name in `girkit.cli`,
    `girkit.testkit` and the optimizer's rule table; renaming or dropping
    one of them breaks every traced run."""
    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from types import SimpleNamespace

    from benchmark import spans
    from girkit import testkit
    from girkit.schedule import emit, schedule

    ops = SimpleNamespace(schedule=schedule, emit=emit)
    before = (cli.synthesize_config, cli.to_mnf, cli.optimize,
              cli.flatten_config, testkit.synthesize)
    tracer = spans.Tracer()
    try:
        spans.install(tracer, ops)
    finally:
        tracer.uninstall()
    assert (cli.synthesize_config, cli.to_mnf, cli.optimize,
            cli.flatten_config, testkit.synthesize) == before
    assert (ops.schedule, ops.emit) == (schedule, emit)


def test_module_entry_point_runs_without_a_runtime_warning(src_file):
    # `python -m girkit.cli` warns when importing the package already
    # imported `girkit.cli`
    path = src_file("let x = ref(w, 0) in !x")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    p = subprocess.run([sys.executable, "-m", "girkit.cli", "check", path],
                       env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert "RuntimeWarning" not in p.stderr
