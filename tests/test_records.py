"""Immutable records and the typing rules' sharing.

Every frozen record of the package is declared through `core.record`: a
slotted frozen dataclass whose `__init__` stores each field through its
slot descriptor. Each must behave as a plain `@dataclass(frozen=True)`
with the same fields and class body does, apart from having no instance
dict. The typing rules hand back an input whenever the record they would
build equals it."""

import ast
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import sys
from pathlib import Path

import pytest

import girkit
from girkit.cli import parse, tokenize
from girkit.core import (
    Cst, Nm, OPERATORS, PURE, QualifiedType, RefTy, RwEffect, TY_INT,
    TypingContext, graph_to_text, initial_store, spine,
    term_to_text,
)
from girkit.graphir import synthesize_config
from girkit.mnf import to_mnf
from girkit.testkit import GenConfig
from girkit.typecheck import Typing, bind_let, infer_direct, let_typing

PROGRAM = """
let r = ref(w, 1) in
let f = fun (p: Int^{}) =>{rd{r} wr{r}} (let u = r := p in !r) in
let t = true in let n = unit in let y = f 2 in y
"""


def _records() -> list:
    """Every frozen dataclass a module of the package defines."""
    found = []
    for info in pkgutil.iter_modules(girkit.__path__):
        mod = importlib.import_module(f"girkit.{info.name}")
        found += [v for v in vars(mod).values()
                  if isinstance(v, type) and v.__module__ == mod.__name__
                  and dataclasses.is_dataclass(v)
                  and v.__dataclass_params__.frozen]
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


RECORDS = _records()


def _config():
    store = initial_store()
    term = parse(PROGRAM, store)
    return term, synthesize_config(store, to_mnf(term, store.supply))


def _instances() -> dict:
    """Records of each class, as the pipeline builds them from PROGRAM."""
    term, cfg = _config()
    seen: dict = {}
    ctx = initial_store().typing()
    todo = [term, cfg.graph, cfg.dep]
    todo += [infer_direct(ctx, parse(src)) for src in (
        PROGRAM, "ref(w, 1)", "fun (p: Int^{}) =>{rd{} wr{}} p")]
    todo += tokenize(PROGRAM) + list(OPERATORS)
    todo += [GenConfig(), GenConfig(seed=3, max_depth=2)]
    while todo:
        x = todo.pop()
        if not dataclasses.is_dataclass(x) or type(x) not in RECORDS:
            continue
        seen.setdefault(type(x), []).append(x)
        todo += [getattr(x, f.name) for f in dataclasses.fields(x)]
    return seen


INSTANCES = _instances()


def _body(cls) -> dict:
    """The functions `cls`'s class body defines (dataclass and `record`
    compile theirs elsewhere)."""
    path = sys.modules[cls.__module__].__file__
    body = {}
    for k, v in vars(cls).items():
        fn = getattr(v, "fget", getattr(v, "__func__", v))
        code = getattr(fn, "__code__", None)
        if code is not None and code.co_filename == path:
            body[k] = v
    return body


def _twin(cls):
    """A plain `@dataclass(frozen=True)` with `cls`'s fields and the
    functions its class body defines but `__eq__` and `__hash__`, without
    slots."""
    body = {k: v for k, v in _body(cls).items()
            if k not in ("__eq__", "__hash__")}
    spec = [(f.name, f.type, dataclasses.field(
        default=f.default, default_factory=f.default_factory, init=f.init,
        repr=f.repr, hash=f.hash, compare=f.compare))
        for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=body,
                                      frozen=True)


def _hash(x):
    try:
        return hash(x)
    except TypeError:  # a field, or the record, is unhashable
        return TypeError


def _as_twin(twin, x):
    return twin(**{f.name: getattr(x, f.name)
                   for f in dataclasses.fields(x)})


def _decorated_records() -> list:
    """(module, class) of every class decorated `@record` in the package's
    source."""
    src = Path(girkit.__file__).parent
    return sorted(
        (f"girkit.{path.stem}", node.name)
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "record"
                for d in node.decorator_list))


def test_every_record_is_reached():
    assert [(c.__module__, c.__name__) for c in RECORDS] \
        == _decorated_records()
    assert [c.__name__ for c in RECORDS if c not in INSTANCES] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecordContract:
    def test_slotted_without_an_instance_dict(self, cls):
        assert "__slots__" in vars(cls)
        for x in INSTANCES[cls]:
            assert not hasattr(x, "__dict__")

    def test_fields_cannot_be_set_or_deleted(self, cls):
        x = INSTANCES[cls][0]
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, f.name)

    def test_matches_a_plain_frozen_dataclass(self, cls):
        """Fields, signature and repr as the twin's; `==` and `hash` as
        the twin's too, unless the class body defines its own, which the
        record keeps."""
        twin = _twin(cls)

        def spec(c):
            return [(f.name, f.type, f.default, f.default_factory, f.init,
                     f.repr, f.hash, f.compare)
                    for f in dataclasses.fields(c)]

        assert spec(cls) == spec(twin)
        assert str(inspect.signature(cls)) == str(inspect.signature(twin))
        if cls.__doc__.startswith(f"{cls.__name__}("):  # written by dataclass
            assert cls.__doc__ == twin.__doc__
        own = _body(cls)
        for k in ("__eq__", "__hash__"):
            if k in own:
                assert vars(cls)[k] is own[k]
        xs = INSTANCES[cls]
        ts = [_as_twin(twin, x) for x in xs]
        for x, t in zip(xs, ts):
            assert repr(x) == repr(t)
            assert x == _as_twin(cls, x)
            assert _hash(x) == _hash(_as_twin(cls, x))
            if "__hash__" not in own and "__eq__" not in own:
                assert _hash(x) == _hash(t)
        if "__eq__" not in own:
            for (x, t), (y, u) in zip(zip(xs, ts), zip(xs[1:], ts[1:])):
                assert (x == y) == (t == u)

    def test_defaults_and_factories_hold(self, cls):
        fs = dataclasses.fields(cls)
        x = INSTANCES[cls][0]
        required = [getattr(x, f.name) for f in fs
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        a, b = cls(*required), cls(*required)
        t = _twin(cls)(*required)
        for f in fs[len(required):]:
            assert getattr(a, f.name) == getattr(t, f.name)
            if f.default_factory is not dataclasses.MISSING:
                assert getattr(a, f.name) is not getattr(b, f.name)
            else:
                assert getattr(a, f.name) is f.default


def test_a_parsed_term_and_a_synthesized_config_pickle():
    term, cfg = _config()
    back = pickle.loads(pickle.dumps(term))
    assert back == term and term_to_text(back) == term_to_text(term)
    assert [u.span for u in spine(back)[0]] == [u.span for u in
                                                spine(term)[0]]
    cfg2 = pickle.loads(pickle.dumps(cfg))
    assert cfg2.graph == cfg.graph and cfg2.dep == cfg.dep
    assert graph_to_text(cfg2.graph) == graph_to_text(cfg.graph)


# ---------------------------------------------------------------------------
# Sharing: a rule returns an input whose value it would rebuild
# ---------------------------------------------------------------------------

def _names(n):
    store = initial_store()
    return [store.supply.var(f"n{i}") for i in range(n)]


class TestSharing:
    def test_seq_with_pure_is_the_other_operand(self):
        a, b = _names(2)
        e = RwEffect(frozenset({a}), frozenset({b}))
        assert PURE.seq(e) is e and e.seq(PURE) is e
        assert e.seq(RwEffect.read(frozenset({a}))) is e
        both = e.seq(RwEffect.write(frozenset({a})))
        assert both == RwEffect(frozenset({a}), frozenset({a, b}))

    def test_subst_of_an_absent_name_is_self(self):
        a, b, c = _names(3)
        e = RwEffect(frozenset({a}), frozenset({b}))
        assert e.subst(c, frozenset({a, b})) is e
        assert e.subst(a, frozenset({c})) == RwEffect(frozenset({c}),
                                                      frozenset({b}))

    def test_let_typing_of_an_unmentioned_binder_is_the_body_typing(self):
        x, a, b = _names(3)
        body = Typing(QualifiedType(RefTy(TY_INT), frozenset({a})),
                      RwEffect(frozenset({a}), frozenset({b})))
        bound = Typing(QualifiedType(TY_INT), PURE)
        assert let_typing(x, bound, body) is body
        mentioned = Typing(body.qt, RwEffect(frozenset({x}), frozenset()))
        got = let_typing(x, Typing(QualifiedType(TY_INT, frozenset({a})),
                                   PURE), mentioned)
        assert got.eff == RwEffect(frozenset({a}), frozenset())
        assert got.qt is body.qt

    def test_bind_let_keeps_a_bound_type_the_overlap_leaves(self):
        r, x, y = _names(3)
        ctx = TypingContext({r: QualifiedType(RefTy(TY_INT))},
                            frozenset({r}))
        bound = Typing(QualifiedType(RefTy(TY_INT), frozenset({r})), PURE)
        assert bind_let(ctx, x, bound).lookup(x) is bound.qt
        narrowed = TypingContext({r: QualifiedType(RefTy(TY_INT))})
        qt = bind_let(narrowed, y, bound).lookup(y)
        assert qt == QualifiedType(RefTy(TY_INT)) and qt is not bound.qt

    def test_constants_and_untracked_names_share_a_typing(self):
        x, = _names(1)
        ctx = TypingContext({x: QualifiedType(TY_INT)}, frozenset({x}))
        one = infer_direct(ctx, Cst(1))
        assert one == Typing(QualifiedType(TY_INT), PURE)
        assert infer_direct(ctx, Cst(2)) is one
        assert infer_direct(ctx, Nm(x)) is one
        assert infer_direct(ctx, Cst(True)) is not one
