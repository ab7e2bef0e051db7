"""Command-line driver: surface-syntax parser, DOT/JSON serialization of
annotated graphs, and the `gir` subcommands (check, mnf, graph, opt,
schedule, run, fuzz).

Exit codes: 0 on success, 1 on a reported diagnostic, 2 on internal errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .core import (
    App, Assign, BASE_TYPES, BaseTy, Cst, Deref, DepMap, FunTy,
    GirError, GLet, GName, HARD, JsonSchemaError, Lam, Let, LOC, Name,
    NCst, NLam, NODE_OPERATOR, Nm, OMEGA, OPERATORS, ParseError, Qualifier,
    QualifiedType, RefNew, RefTy, RuntimeConfig, RW, RwEffect, Span, Store,
    Term, UNIT_V, VAR, const_key, descend, effect_to_text, graph_to_text,
    initial_store, qt_to_text, record, spine,
)
from . import testkit
from .typecheck import infer_direct
from .mnf import to_mnf
from .graphir import erase, initial_state, synthesize_config
from .interp import canonical_value, eval_direct, eval_graph, eval_store
from .optimize import RULES, optimize
from .schedule import (
    MATCHERS, emit, flatten_config, schedule, synthetic_graph, time_schedule,
)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _diagnostic(err: GirError, file: str) -> str:
    """The report of `err`, tied to its byte range in `file` (0-0 when it
    has none)."""
    span = err.span if isinstance(err.span, Span) else Span(0, 0)
    return f"{file}:{span.start}-{span.end}: [{err.code}] {err.message}"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One pass of `finditer` finds every token. A character that no other
# group takes is `bad`, which makes `finditer` skip exactly the whitespace
# between tokens, as `\s` decides; a keyword is its own group, so a token's
# kind is its group's name or, for an operator, its text.
_TOKEN_RE = re.compile(r"""
    (?P<int>\d+)
  | (?P<kw>(?:let|in|fun|ref|unit|true|false|rd|wr)(?![A-Za-z0-9_]))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|=>|[(){}\[\],^!:=])
  | (?P<bad>\S)
""", re.VERBOSE)


@record
class Token:
    kind: str   # "int" | "ident" | "kw" | an operator literal | "eof"
    text: str
    start: int
    end: int


def tokenize(src: str) -> list:
    out = []
    append = out.append
    for m in _TOKEN_RE.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "op":
            kind = text
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}",
                             span=Span(m.start(), m.end()))
        start, end = m.span()
        append(Token(kind, text, start, end))
    append(Token("eof", "", len(src), len(src)))
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SUFFIX_RE = re.compile(r"_\d+$")

# A keyword's text is never another token's, so the parser tests for a
# keyword by its text alone.
_ATOM_KINDS = frozenset({"int", "ident", "(", "!"})
_ATOM_KEYWORDS = frozenset({"unit", "true", "false", "ref"})
_CONSTANTS = {"unit": UNIT_V, "true": True, "false": False}


class _Parser:
    """Recursive-descent parser for the surface syntax:

        t ::= unit | true | false | <int> | <ident>
            | fun (x: TY^{q}) =>{rd{q} wr{q}} t
            | t t | ref(t, t) | !t | t := t | let x = t in t | (t)
        TY ::= Unit | Bool | Int | Alloc | Ref[B]
            | ((x: TY^{q}) =>{rd{q} wr{q}} TY^{q})

    Binders are α-renamed to fresh names; the free identifier `w` denotes
    the store's allocation capability.

    `i` indexes the next token. Only `eof` ends the token list and no rule
    consumes it, so `toks[i]` is always a token, and one past any token
    but `eof` too. The rules a let spine runs per binder (`let`, `term`,
    `assign`, `app`, `atom`) read the tokens straight from the list; a
    token they do not expect sends them to `expect`, `expect_kw` or
    `lookup`, which raise the error."""

    def __init__(self, src: str, store: Store):
        self.toks = tokenize(src)
        self.i = 0
        self.supply = store.supply
        self.scope: dict = {"w": store.w}
        self.bases: dict = {}  # binder text -> the text its names print

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, what: str = "") -> Token:
        i = self.i
        t = self.toks[i]
        if t.kind != kind:
            want = what or kind
            found = t.text or "end of input"
            raise ParseError(f"expected {want}, found {found!r}",
                             span=Span(t.start, t.end))
        self.i = i + 1
        return t

    def expect_kw(self, word: str) -> Token:
        i = self.i
        t = self.toks[i]
        if t.kind != "kw" or t.text != word:
            raise ParseError(f"expected {word!r}, found "
                             f"{t.text or 'end of input'!r}",
                             span=Span(t.start, t.end))
        self.i = i + 1
        return t

    # -- binders / identifiers ---------------------------------------------

    def fresh(self, text: str) -> Name:
        base = self.bases.get(text)
        if base is None:
            base = self.bases[text] = _SUFFIX_RE.sub("", text) or "x"
        return self.supply.var(base)

    def lookup(self, tok: Token) -> Name:
        n = self.scope.get(tok.text)
        if n is None:
            raise ParseError(f"unbound identifier {tok.text!r}",
                             span=Span(tok.start, tok.end))
        return n

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Term:
        t = self.term()
        tk = self.peek()
        if tk.kind != "eof":
            raise ParseError(f"trailing input at {tk.text!r}",
                             span=Span(tk.start, tk.end))
        return t

    def term(self) -> Term:
        text = self.toks[self.i].text
        if text == "let":
            return self.let()
        if text == "fun":
            return self.lam()
        return self.assign()

    def let(self) -> Term:
        toks, i = self.toks, self.i
        start = toks[i].start  # `term` saw the `let`
        ident = toks[i + 1]
        if ident.kind != "ident" or toks[i + 2].kind != "=":
            self.i = i + 1
            self.expect("ident", "a binder")
            self.expect("=")
        self.i = i + 3
        bound = self.term()
        i = self.i
        if toks[i].text != "in":
            self.expect_kw("in")
        self.i = i + 1
        text = ident.text
        var = self.fresh(text)
        scope = self.scope
        saved = scope.get(text)
        scope[text] = var
        body = self.term()
        if saved is None:
            del scope[text]
        else:
            scope[text] = saved
        return Let(var, bound, body, span=Span(start, toks[self.i].start))

    def lam(self) -> Term:
        start = self.expect_kw("fun").start
        param, qt, latent, undo = self.binder()
        body = self.term()
        self.unbind(undo)
        return Lam(param, qt, latent, body,
                   span=Span(start, self.peek().start))

    def binder(self) -> tuple:
        """`(x: TY^{q}) =>{rd{q} wr{q}}`, the head of a lambda and of a
        function type: (parameter, its type, latent effect, what `unbind`
        needs). x is in scope from its own type on, until `unbind`."""
        self.expect("(")
        text = self.expect("ident", "a parameter").text
        self.expect(":")
        param = self.fresh(text)
        saved = self.scope.get(text)
        self.scope[text] = param
        qt = self.qualified_type()
        self.expect(")")
        self.expect("=>")
        return param, qt, self.effect(), (text, saved)

    def unbind(self, undo: tuple) -> None:
        """Give the parameter's text the meaning it had before `binder`."""
        text, saved = undo
        if saved is None:
            del self.scope[text]
        else:
            self.scope[text] = saved

    def assign(self) -> Term:
        lhs = self.app()
        i = self.i
        tok = self.toks[i]
        if tok.kind == ":=":
            self.i = i + 1
            rhs = self.app()
            return Assign(lhs, rhs, span=Span(tok.start, tok.end))
        return lhs

    def app(self) -> Term:
        toks = self.toks
        start = toks[self.i].start
        t = self.atom()
        tk = toks[self.i]
        while tk.kind in _ATOM_KINDS or tk.text in _ATOM_KEYWORDS:
            arg = self.atom()
            tk = toks[self.i]
            t = App(t, arg, span=Span(start, tk.start))
        return t

    def atom(self) -> Term:
        i = self.i
        tk = self.toks[i]
        kind = tk.kind
        if kind == "ident":
            n = self.scope.get(tk.text)
            if n is None:
                self.lookup(tk)
            self.i = i + 1
            return Nm(n, span=Span(tk.start, tk.end))
        if kind == "int":
            self.i = i + 1
            return Cst(int(tk.text), span=Span(tk.start, tk.end))
        if kind == "!":
            self.i = i + 1
            inner = self.atom()
            return Deref(inner, span=Span(tk.start, tk.end))
        if kind == "(":
            self.i = i + 1
            t = self.term()
            self.expect(")", "a closing parenthesis")
            return t
        text = tk.text
        if text in _CONSTANTS:
            self.i = i + 1
            return Cst(_CONSTANTS[text], span=Span(tk.start, tk.end))
        if text == "ref":
            self.i = i + 1
            self.expect("(")
            cap = self.term()
            self.expect(",")
            init = self.term()
            self.expect(")")
            return RefNew(cap, init, span=Span(tk.start, self.peek().start))
        raise ParseError(f"expected a term, found "
                         f"{tk.text or 'end of input'!r}",
                         span=Span(tk.start, tk.end))

    # -- types, qualifiers, effects ----------------------------------------

    def qualifier(self) -> Qualifier:
        self.expect("{")
        names = []
        if self.peek().kind != "}":
            names.append(self.lookup(self.expect("ident", "a name")))
            while self.peek().kind == ",":
                self.next()
                names.append(self.lookup(self.expect("ident", "a name")))
        self.expect("}")
        return frozenset(names)

    def effect(self) -> RwEffect:
        self.expect("{")
        self.expect_kw("rd")
        rd = self.qualifier()
        self.expect_kw("wr")
        wr = self.qualifier()
        self.expect("}")
        return RwEffect(rd, wr)

    def qualified_type(self):
        ty = self.type_()
        self.expect("^")
        q = self.qualifier()
        return QualifiedType(ty, q)

    def type_(self):
        tk = self.peek()
        if tk.kind == "ident":
            if tk.text in BASE_TYPES:
                self.next()
                return BASE_TYPES[tk.text]
            if tk.text == "Ref":
                self.next()
                self.expect("[")
                base = self.expect("ident", "a base type")
                if base.text not in ("Unit", "Bool", "Int"):
                    raise ParseError(
                        f"references hold base values, got {base.text!r}",
                        span=Span(base.start, base.end))
                self.expect("]")
                return RefTy(BASE_TYPES[base.text])
        if tk.kind == "(":
            # ((x: TY^{q}) =>{rd{q} wr{q}} TY^{q})
            self.next()
            param, pqt, latent, undo = self.binder()
            rqt = self.qualified_type()
            self.expect(")")
            self.unbind(undo)
            return FunTy(param, pqt, latent, rqt)
        raise ParseError(f"expected a type, found "
                         f"{tk.text or 'end of input'!r}",
                         span=Span(tk.start, tk.end))


def parse(text: str, store: Optional[Store] = None) -> Term:
    """Parse surface syntax into a term; binders are freshly α-renamed from
    the store's name supply and the free identifier `w` denotes the store's
    allocation capability."""
    store = store if store is not None else initial_store()
    return _Parser(text, store).parse()


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _node_label(b) -> str:
    if isinstance(b, NLam):
        return f"fun {b.param.pretty()}"
    if isinstance(b, GLet):
        return "block"
    return graph_to_text(b)


def export_dot(g, dep: Optional[DepMap] = None) -> str:
    """Render an annotated graph term as one DOT digraph: solid edges are
    data dependencies, dashed are hard effect dependencies, dotted soft."""
    lines = ["digraph G {", "  rankdir=BT;"]

    def node_id(n: Name) -> str:
        return f'"{n.pretty()}"'

    def walk(g):
        """The lines of a block and the blocks inside it: a walk (see
        `core.descend`)."""
        lets, tail = spine(g)
        for g in lets:
            b = g.binding
            lines.append(f"  {node_id(g.var)} "
                         f"[label=\"{g.var.pretty()} := {_node_label(b)}\"];")
            o = NODE_OPERATOR.get(type(b))
            for m in (o.operands(b) if o else
                      (b.name,) if isinstance(b, GName) else ()):
                lines.append(f"  {node_id(g.var)} -> {node_id(m)};")
            d = g.dep
            if d is not None:
                for k in sorted(d.hard):
                    lines.append(f"  {node_id(g.var)} -> "
                                 f"{node_id(d.hard[k])} [style=dashed];")
                for k in sorted(d.soft):
                    for t in sorted(d.soft[k]):
                        lines.append(f"  {node_id(g.var)} -> "
                                     f"{node_id(t)} [style=dotted];")
            if isinstance(b, NLam):
                yield walk(b.body)
            elif isinstance(b, GLet):
                yield walk(b)
        if isinstance(tail, GName):
            lines.append(f"  {node_id(tail.name)} [peripheries=2];")

    descend(walk(g))
    if dep is not None:
        for k in sorted(dep.hard):
            lines.append(f"  \"result\" -> \"{dep.hard[k].pretty()}\" "
                         f"[style=dashed];")
        for k in sorted(dep.soft):
            for t in sorted(dep.soft[k]):
                lines.append(f"  \"result\" -> \"{t.pretty()}\" "
                             f"[style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON export / import (lossless)
# ---------------------------------------------------------------------------

_FORMAT = "gir-graph"
_VERSION = 1


def _name_str(n: Name) -> str:
    kind = "l" if n.kind == LOC else "v"
    return f"{kind}{n.id}:{n.text}"


_NAME_STR_RE = re.compile(r"^([lv])(\d+):(.*)$")


def _name_of(s) -> Name:
    if not isinstance(s, str):
        raise JsonSchemaError(f"name must be a string, got {s!r}")
    m = _NAME_STR_RE.match(s)
    if not m:
        raise JsonSchemaError(f"malformed name {s!r}")
    kind = LOC if m.group(1) == "l" else VAR
    return Name(kind, int(m.group(2)), m.group(3))


def _names_json(names) -> list:
    return [_name_str(n) for n in sorted(names)]


def _qual_of(v) -> Qualifier:
    if not isinstance(v, list):
        raise JsonSchemaError(f"qualifier must be a list, got {v!r}")
    return frozenset(_name_of(s) for s in v)


def _eff_json(e: RwEffect) -> dict:
    return {"rd": _names_json(e.reads), "wr": _names_json(e.writes)}


def _eff_of(v) -> RwEffect:
    if not isinstance(v, dict) or set(v) != {"rd", "wr"}:
        raise JsonSchemaError(f"effect must have rd/wr, got {v!r}")
    return RwEffect(_qual_of(v["rd"]), _qual_of(v["wr"]))


def _ty_json(ty) -> object:
    if isinstance(ty, BaseTy):
        return ty.name
    if isinstance(ty, RefTy):
        return {"ref": ty.payload.name}
    if isinstance(ty, FunTy):
        return {"fun": {"param": _name_str(ty.param),
                        "paramQt": _qt_json(ty.param_qt),
                        "latent": _eff_json(ty.latent),
                        "resultQt": _qt_json(ty.result_qt)}}
    raise JsonSchemaError(f"unserializable type {ty!r}")


def _ty_of(v):
    if isinstance(v, str):
        if v not in BASE_TYPES:
            raise JsonSchemaError(f"unknown base type {v!r}")
        return BASE_TYPES[v]
    if isinstance(v, dict) and set(v) == {"ref"}:
        p = v["ref"]
        if p not in ("Unit", "Bool", "Int"):
            raise JsonSchemaError(f"bad reference payload {p!r}")
        return RefTy(BASE_TYPES[p])
    if isinstance(v, dict) and set(v) == {"fun"}:
        f = v["fun"]
        try:
            return FunTy(_name_of(f["param"]), _qt_of(f["paramQt"]),
                         _eff_of(f["latent"]), _qt_of(f["resultQt"]))
        except (KeyError, TypeError) as e:
            raise JsonSchemaError(f"malformed function type: {e}")
    raise JsonSchemaError(f"unknown type encoding {v!r}")


def _qt_json(qt: QualifiedType) -> dict:
    return {"ty": _ty_json(qt.ty), "qual": _names_json(qt.qual)}


def _qt_of(v) -> QualifiedType:
    if not isinstance(v, dict) or set(v) != {"ty", "qual"}:
        raise JsonSchemaError(f"qualified type must have ty/qual, got {v!r}")
    return QualifiedType(_ty_of(v["ty"]), _qual_of(v["qual"]))


def _dep_json(d: Optional[DepMap]):
    if d is None:
        return None
    return {"hard": {_name_str(k): _name_str(d.hard[k])
                     for k in sorted(d.hard)},
            "soft": {_name_str(k): _names_json(d.soft[k])
                     for k in sorted(d.soft)}}


def _dep_of(v) -> Optional[DepMap]:
    if v is None:
        return None
    if (not isinstance(v, dict) or set(v) != {"hard", "soft"}
            or not all(isinstance(m, dict) for m in v.values())):
        raise JsonSchemaError(f"dep map must have hard/soft maps, got {v!r}")
    hard = {_name_of(k): _name_of(t) for k, t in v["hard"].items()}
    soft = {_name_of(k): _qual_of(ts) for k, ts in v["soft"].items()}
    return DepMap.make(hard, soft)


def _value_of(v):
    """The constant whose `core.const_key` is the list `v`."""
    try:
        value = {"Unit": UNIT_V, "Alloc": OMEGA}.get(v[0], v[-1])
        if isinstance(v, list) and list(const_key(value)) == v:
            return value
    except (IndexError, KeyError, TypeError):
        pass
    raise JsonSchemaError(f"malformed constant {v!r}")


_OPERATOR_NAMED = {o.op: o for o in OPERATORS}


def _exp_json(b):
    """The walk (see `core.descend`) whose result is a binding's JSON
    entry."""
    if isinstance(b, NCst):
        return {"op": "cst", "value": list(const_key(b.value))}
    if isinstance(b, NLam):
        out = {"op": "lam", "param": _name_str(b.param),
               "paramQt": _qt_json(b.param_qt),
               "latent": _eff_json(b.latent),
               "body": (yield _graph_json(b.body))}
        if b.body_dep is not None:
            out["bodyDep"] = _dep_json(b.body_dep)
        return out
    o = NODE_OPERATOR.get(type(b))
    if o is not None:
        return {"op": o.op, "args": [_name_str(n) for n in o.operands(b)]}
    if isinstance(b, GName):
        return {"op": "name", "args": [_name_str(b.name)]}
    if isinstance(b, GLet):
        return {"op": "block", "graph": (yield _graph_json(b))}
    raise JsonSchemaError(f"unserializable binding {b!r}")


def _args_of(v, n: int) -> list:
    args = v.get("args")
    if not isinstance(args, list) or len(args) != n:
        raise JsonSchemaError(f"op {v.get('op')!r} needs {n} args, "
                              f"got {args!r}")
    return [_name_of(a) for a in args]


def _exp_of(v):
    """The walk whose result is the binding a JSON entry encodes."""
    if not isinstance(v, dict) or "op" not in v:
        raise JsonSchemaError(f"malformed node {v!r}")
    op = v["op"]
    if op == "cst":
        return NCst(_value_of(v.get("value")))
    if op == "lam":
        try:
            body_dep = _dep_of(v.get("bodyDep"))
            return NLam(_name_of(v["param"]), _qt_of(v["paramQt"]),
                        _eff_of(v["latent"]), (yield _graph_of(v["body"])),
                        body_dep)
        except KeyError as e:
            raise JsonSchemaError(f"lam node missing {e}")
    o = _OPERATOR_NAMED.get(op)
    if o is not None:
        return o.node(*_args_of(v, len(o.fields)))
    if op == "name":
        return GName(*_args_of(v, 1))
    if op == "block":
        return (yield _graph_of(v.get("graph")))
    raise JsonSchemaError(f"unknown op kind {op!r}")


def _graph_json(g):
    nodes, g = spine(g)
    for i, u in enumerate(nodes):  # each let becomes its JSON entry
        nodes[i] = {"id": _name_str(u.var), **(yield _exp_json(u.binding))}
        if u.dep is not None:
            nodes[i]["dep"] = _dep_json(u.dep)
    if not isinstance(g, GName):
        raise JsonSchemaError(f"graph tail must be a name, got {g!r}")
    return {"nodes": nodes, "result": _name_str(g.name)}


def _graph_of(v):
    if not isinstance(v, dict) or "nodes" not in v or "result" not in v:
        raise JsonSchemaError(f"graph must have nodes/result, got {v!r}")
    if not isinstance(v["nodes"], list):
        raise JsonSchemaError("nodes must be a list")
    g = GName(_name_of(v["result"]))
    for entry in reversed(v["nodes"]):
        if not isinstance(entry, dict) or "id" not in entry:
            raise JsonSchemaError(f"malformed node entry {entry!r}")
        binding = yield _exp_of(entry)
        dep = _dep_of(entry.get("dep"))
        g = GLet(_name_of(entry["id"]), binding, g, dep)
    return g


# the `json` module nests its containers on the Python stack
_JSON_DEPTH = ("the graph nests deeper than the json module's recursion "
               "limit")


def export_json(g, dep: Optional[DepMap] = None,
                start: Optional[Name] = None) -> str:
    """Serialize an annotated graph term (plus optional top-level
    dependency and start name) to canonical JSON: stable key order, no
    incidental whitespace, byte-stable across runs."""
    doc = {"format": _FORMAT, "version": _VERSION,
           "start": _name_str(start) if start is not None else None,
           "dep": _dep_json(dep),
           "graph": descend(_graph_json(g))}
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    except RecursionError:
        raise GirError(_JSON_DEPTH + "; export it with --dot") from None


def import_json(text: str):
    """Inverse of export_json; returns (graph, dep, start)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise JsonSchemaError(f"invalid JSON: {e}")
    except RecursionError:
        raise JsonSchemaError(_JSON_DEPTH) from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise JsonSchemaError("not a graph document")
    version = doc.get("version")
    if type(version) is not int or version != _VERSION:  # True == 1 == 1.0
        raise JsonSchemaError(f"unsupported version {version!r}")
    g = descend(_graph_of(doc.get("graph")))
    dep = _dep_of(doc.get("dep"))
    start = _name_of(doc["start"]) if doc.get("start") is not None else None
    return g, dep, start


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise GirError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise GirError(f"cannot read {path}: not UTF-8 (byte {e.start})"
                       ) from None


def _write_out(text: str, path: Optional[str]):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise GirError(f"cannot write {path}: {e.strerror}") from None


def _front_end(src: str) -> tuple:
    """Parse and type a program against one initial store. Every later stage
    draws fresh names from that store's supply, so they never clash with
    the program's own. Returns (store, term, typing)."""
    store = initial_store()
    t = parse(src, store)
    return store, t, infer_direct(store.typing(), t)


def _build_config(src: str, regime: str) -> RuntimeConfig:
    store, t, _ = _front_end(src)
    return synthesize_config(store, to_mnf(t, store.supply), regime)


def cmd_check(args) -> int:
    _, _, typing = _front_end(_read(args.file))
    print(f"{qt_to_text(typing.qt)} ; {effect_to_text(typing.eff)}")
    return 0


def cmd_mnf(args) -> int:
    store, t, _ = _front_end(_read(args.file))
    print(graph_to_text(to_mnf(t, store.supply)))
    return 0


def cmd_graph(args) -> int:
    cfg = _build_config(_read(args.file), args.regime)
    if args.dot:
        _write_out(export_dot(cfg.graph, cfg.dep), args.dot)
    if args.json or not args.dot:
        _write_out(export_json(cfg.graph, cfg.dep, cfg.store.w), args.json)
    return 0


def cmd_opt(args) -> int:
    if args.fuel < 0:
        raise ParseError(f"--fuel needs N >= 0, got {args.fuel}")
    passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    for p in passes:
        if p not in RULES:
            raise ParseError(f"unknown pass {p!r}; choose from "
                             f"{','.join(RULES)}")
    store, t, _ = _front_end(_read(args.file))
    g = to_mnf(t, store.supply)
    # `optimize` synthesizes the program itself
    st, _ = initial_state(store, regime=args.regime)
    g2, reports = optimize(st, g, passes, fuel=args.fuel,
                           supply=store.supply)
    if args.report == "json":
        out = [{"rule": r.rule, "site": list(r.site), "fired": r.fired,
                "reason": r.reason} for r in reports]
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        for r in reports:
            print(f"{r.rule} @ {list(r.site)}: "
                  f"{'fired' if r.fired else r.reason}")
    print(graph_to_text(erase(g2)))
    return 0


def cmd_schedule(args) -> int:
    matchers = tuple(args.match or ())
    for m in matchers:
        if m not in MATCHERS:
            raise ParseError(f"unknown matcher {m!r}; choose from "
                             f"{','.join(MATCHERS)}")
    if args.synthetic is not None:
        if args.file:
            raise ParseError("schedule takes FILE or --synthetic N, "
                             "not both")
        if args.synthetic < 1:
            raise ParseError(f"--synthetic needs N >= 1, got "
                             f"{args.synthetic}")
        if args.depth < 0:
            raise ParseError(f"--depth needs N >= 0, got {args.depth}")
        if args.time:
            t = time_schedule(args.synthetic, args.depth, args.seed,
                              freq=args.freq, compact=args.compact,
                              matchers=matchers)
            print(f"n={args.synthetic} depth={args.depth} "
                  f"seed={args.seed} time={t:.3f}s")
            return 0
        sg = synthetic_graph(args.synthetic, args.depth, args.seed)
    elif not args.file:
        raise ParseError("schedule needs FILE or --synthetic N")
    else:
        sg = flatten_config(_build_config(_read(args.file), args.regime))
    block = schedule(sg, freq=args.freq, compact=args.compact,
                     matchers=matchers)
    _write_out(emit(block) + "\n", args.out)
    return 0


def cmd_run(args) -> int:
    src = _read(args.file)
    if args.semantics == "graph":
        res = eval_graph(_build_config(src, args.regime), trace=args.trace)
    else:
        store, t, _ = _front_end(src)
        run = eval_direct if args.semantics == "direct" else eval_store
        res = run(store, t, trace=args.trace)
    if args.trace and res.trace is not None:
        for entry in res.trace:
            print(f"  [{entry[0]}]")
    value = canonical_value(res.store, res.value)
    print(f"value: {value}")
    print(f"steps: {res.steps}")
    return 0


def cmd_fuzz(args) -> int:
    if args.count < 0:
        raise ParseError(f"--count needs N >= 0, got {args.count}")
    if args.max_depth < 0:
        raise ParseError(f"--max-depth needs N >= 0, got {args.max_depth}")
    summary = testkit.fuzz(count=args.count, seed=args.seed,
                           max_depth=args.max_depth, check=args.check)
    print(summary.render())
    return 0 if summary.failures == 0 else 1


# ---------------------------------------------------------------------------
# Argument parsing / entry point
# ---------------------------------------------------------------------------

def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gir",
        description="Check, normalize, synthesize, rewrite, schedule, and "
                    "run programs of a qualified, effectful calculus.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_regime(p):
        p.add_argument("--regime", choices=(HARD, RW), default=HARD,
                       help="dependency regime (default: hard)")

    p = sub.add_parser("check", help="type-check a source file")
    p.add_argument("file")
    p.set_defaults(fn="cmd_check")

    p = sub.add_parser("mnf", help="print the normalized (graph) form")
    p.add_argument("file")
    p.set_defaults(fn="cmd_mnf")

    p = sub.add_parser("graph", help="synthesize and export the "
                                     "dependency-annotated graph")
    p.add_argument("file")
    add_regime(p)
    p.add_argument("--dot", metavar="OUT", help="write DOT here")
    p.add_argument("--json", metavar="OUT", help="write JSON here "
                                                 "(default: stdout)")
    p.set_defaults(fn="cmd_graph")

    p = sub.add_parser("opt", help="apply graph rewrites")
    p.add_argument("file")
    add_regime(p)
    p.add_argument("--passes", default="dce",
                   help="comma-separated rule names "
                        "(dce,comm,hoist,inline,cse)")
    p.add_argument("--fuel", type=int, default=1000,
                   help="bound on the rewrites fired")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn="cmd_opt")

    p = sub.add_parser("schedule", help="schedule a graph back to trees")
    p.add_argument("file", nargs="?")
    add_regime(p)
    p.add_argument("--freq", action="store_true",
                   help="frequency-driven code motion")
    p.add_argument("--compact", action="store_true",
                   help="inline single-use pure nodes")
    p.add_argument("--match", action="append", metavar="NAME",
                   help="tree matcher to apply (gemm, addmul)")
    p.add_argument("-o", "--out", metavar="OUT")
    p.add_argument("--synthetic", type=int, metavar="N",
                   help="schedule a synthetic n-node benchmark graph")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time", action="store_true",
                   help="print scheduling wall time instead of output")
    p.set_defaults(fn="cmd_schedule")

    p = sub.add_parser("run", help="evaluate a source file")
    p.add_argument("file")
    add_regime(p)
    p.add_argument("--semantics", choices=("direct", "store", "graph"),
                   default="graph")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn="cmd_run")

    p = sub.add_parser("fuzz", help="random differential testing")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--check", default="differential",
                   choices=testkit.CHECKS)
    p.set_defaults(fn="cmd_fuzz")

    return ap


_ARGPARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list] = None) -> int:
    global _ARGPARSER
    if _ARGPARSER is None:  # built once per process
        _ARGPARSER = _build_argparser()
    args = _ARGPARSER.parse_args(argv)
    file = getattr(args, "file", None) or "<input>"
    try:
        # looked up by name at call time, so a replaced `cmd_*` runs
        return globals()[args.fn](args)
    except GirError as err:
        print(_diagnostic(err, file), file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 — internal failure
        print(f"internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
