"""The exact text of every diagnostic that prints a qualifier, an effect or
a qualified type, and of every parse error. Qualifier members print in
canonical name order, so each message below is fixed text. A message that
surface syntax cannot reach is triggered on a hand-built context."""

import pytest

from girkit import interp
from girkit.cli import parse
from girkit.core import (
    App, Assign, Cell, Cst, Deref, FunTy, GLet, GName, GirError, Lam, Let,
    Name, NameSupply, Nm, NDeref, PURE, Qualifier, QualifiedType, RefNew,
    RefTy, RwEffect, SideConditionFailed, TY_INT, TypingContext,
    initial_store,
)
from girkit.graphir import initial_state, synthesize
from girkit.optimize import RULES
from girkit.typecheck import infer_direct


def q(*names: Name) -> Qualifier:
    return Qualifier(frozenset(names))


def message(thunk) -> str:
    with pytest.raises(GirError) as err:
        thunk()
    return f"{type(err.value).__name__}: {err.value.message}"


def source_message(text: str) -> str:
    store = initial_store()
    t = parse(text, store)
    return message(lambda: infer_direct(store.typing(), t))


@pytest.fixture
def names():
    """x and c: Ref[Int] cells; f and p: a function and its parameter."""
    sup = NameSupply()
    return sup.var("x"), sup.var("c"), sup.var("f"), sup.var("p")


def cells(x, c) -> TypingContext:
    return (TypingContext().bind(x, QualifiedType(RefTy(TY_INT)))
            .bind(c, QualifiedType(RefTy(TY_INT))))


def fun_ty(p, latent, result_qual):
    return FunTy(p, QualifiedType(TY_INT), latent,
                 QualifiedType(TY_INT, result_qual))


class TestObservation:
    def test_effect_escape(self, names):
        # f's qualifier reaches the cells, which are not observable
        x, c, f, p = names
        latent = RwEffect(q(c), q(x, c))
        ctx = (cells(x, c)
               .bind(f, QualifiedType(fun_ty(p, latent, q()), q(c, x)))
               .with_phi(q(f)))
        assert message(lambda: infer_direct(ctx, App(Nm(f), Cst(1)))) == (
            "EffectEscape: effect (r:{c#v1};w:{x#v0,c#v1}) escapes "
            "observation {f#v2}")


class TestApplication:
    def test_non_function(self, names):
        x, c, f, p = names
        ctx = cells(x, c).with_phi(q(x, c))
        assert message(lambda: infer_direct(ctx, App(Nm(x), Cst(2)))) == (
            "TypeMismatch: applied non-function Ref[Int]^{x#v0}")

    def test_overlap(self):
        # f and its argument g both capture the two cells
        assert source_message(
            "let x = ref(w, 0) in let c = ref(w, 1) in "
            "let g = fun (q: Int^{}) =>{rd{c,x} wr{}} (let a = !x in !c) in "
            "let f = fun (h: ((q: Int^{}) =>{rd{c,x} wr{}} Int^{})^{x}) "
            "=>{rd{c,x} wr{}} (let a = !x in !c) in f g") == (
            "OverlapViolation: argument/function overlap {x#v1,c#v2} "
            "exceeds declared domain qualifier {x#v1}")

    def test_latent_not_confined(self, names):
        x, c, f, p = names
        latent = RwEffect(q(x, c), q())
        ctx = (cells(x, c)
               .bind(f, QualifiedType(fun_ty(p, latent, q())))
               .with_phi(q(f, c, x)))
        assert message(lambda: infer_direct(ctx, App(Nm(f), Cst(1)))) == (
            "EffectEscape: latent effect (r:{x#v0,c#v1};w:{}) not confined "
            "to the function qualifier plus parameter")

    def test_result_qualifier_escapes(self, names):
        x, c, f, p = names
        ctx = (cells(x, c)
               .bind(f, QualifiedType(fun_ty(p, PURE, q(c, x, p))))
               .with_phi(q(f)))
        assert message(lambda: infer_direct(ctx, App(Nm(f), Cst(1)))) == (
            "QualifierEscape: result qualifier {x#v0,c#v1,p#v3} escapes")


class TestStoredValues:
    """f returns an Int that reaches both cells."""

    def ctx(self, names):
        x, c, f, p = names
        store = initial_store()
        ctx = (cells(x, c).bind(store.w, store.typing().lookup(store.w))
               .bind(f, QualifiedType(fun_ty(p, PURE, q(c, x))))
               .with_phi(q(store.w, x, c, f)))
        return store, ctx

    def test_allocation(self, names):
        store, ctx = self.ctx(names)
        f = names[2]
        assert message(lambda: infer_direct(
            ctx, RefNew(Nm(store.w), App(Nm(f), Cst(1))))) == (
            "TypeMismatch: stored value must be untracked (qualifier ∅), "
            "got {x#v0,c#v1}")

    def test_assignment(self, names):
        store, ctx = self.ctx(names)
        x, f = names[0], names[2]
        assert message(lambda: infer_direct(
            ctx, Assign(Nm(x), App(Nm(f), Cst(1))))) == (
            "TypeMismatch: stored value must be untracked (qualifier ∅), "
            "got {x#v0,c#v1}")


class TestLambda:
    def test_capture_outside_observation(self, names):
        x, c, f, p = names
        lam = Lam(p, QualifiedType(TY_INT), RwEffect(q(c, x), q()),
                  Deref(Nm(x)))
        ctx = cells(x, c).with_phi(q(f))
        assert message(lambda: infer_direct(ctx, lam)) == (
            "QualifierEscape: closure captures {x#v0,c#v1} outside "
            "observation")

    def test_body_effect_not_covered(self):
        assert source_message(
            "let x = ref(w, 0) in let c = ref(w, 1) in "
            "let f = fun (p: Int^{}) =>{rd{c} wr{}} "
            "(let u = c := !x in !c) in 0") == (
            "EffectEscape: body effect (r:{x#v1,c#v2};w:{c#v2}) not covered "
            "by declared latent (r:{c#v2};w:{})")


def test_comm_names_the_overlap():
    # y aliases the cell, so both reads touch {r, y} once saturated
    store = initial_store()
    sup = store.supply
    r = store.alloc(Cell(0), "r")
    y, a, b = sup.var("y"), sup.var("a"), sup.var("b")
    g = GLet(y, GName(r), GLet(a, NDeref(y), GLet(b, NDeref(y), GName(b))))
    st, _ = initial_state(store)
    g2, _ = synthesize(st, g)
    with pytest.raises(SideConditionFailed) as err:
        RULES["comm"](st, g2, (1,), sup)
    assert err.value.message == "effects overlap on {r#l1,y#v2}"


class TestSeparationProbe:
    def test_overlap_up_front(self):
        store = initial_store()
        x, c = store.alloc(Cell(0), "x"), store.alloc(Cell(1), "c")
        p = store.supply.var("p")
        lam = Lam(p, QualifiedType(TY_INT), RwEffect(q(c, x), q()), Cst(0))
        assert message(lambda: interp.separation_probe(lam, lam, store)) == (
            "OverlapViolation: probe precondition: saturated qualifiers "
            "overlap on {x#l1,c#l2}")

    def test_overlap_after_stepping(self, monkeypatch):
        # once the second term has stepped to its value, re-type it as the
        # first term's closure: the report names the shared cells
        store = initial_store()
        x, c = store.alloc(Cell(0), "x"), store.alloc(Cell(1), "c")
        p, u = store.supply.var("p"), store.supply.var("u")
        lam = Lam(p, QualifiedType(TY_INT), RwEffect(q(c, x), q()), Cst(0))
        infer = interp.infer_direct
        monkeypatch.setattr(interp, "infer_direct", lambda ctx, t: infer(
            ctx, lam if t == Cst(1) else t))
        rep = interp.separation_probe(lam, Let(u, Cst(1), Nm(u)), store)
        assert not rep.disjoint
        assert rep.failure == "overlap {x#l1,c#l2} after 1 steps"



class TestParseErrors:
    """One input per path on which the tokenizer or the parser rejects
    its input: the code, the message and the span, byte for byte."""

    @pytest.mark.parametrize("src, msg, start, end", [
        # unexpected characters: first, inside an identifier, last
        ("$x", "unexpected character '$'", 0, 1),
        ("x$y", "unexpected character '$'", 1, 2),
        ("let x = 1 in x$", "unexpected character '$'", 14, 15),
        # identifiers are ASCII
        ("let x = 1 in λ", "unexpected character 'λ'", 13, 14),
        ("let é = 1 in é", "unexpected character 'é'", 4, 5),
        # truncated inputs
        ("let", "expected a binder, found 'end of input'", 3, 3),
        ("let x", "expected =, found 'end of input'", 5, 5),
        ("let x =", "expected a term, found 'end of input'", 7, 7),
        ("let x = 1 in", "expected a term, found 'end of input'", 12, 12),
        ("fun (", "expected a parameter, found 'end of input'", 5, 5),
        ("ref(w,", "expected a term, found 'end of input'", 6, 6),
        # a wrong token where the grammar wants another
        ("let 1 = 1 in 1", "expected a binder, found '1'", 4, 5),
        ("let x 1 in x", "expected =, found '1'", 6, 7),
        ("let x = 1 ) in x", "expected 'in', found ')'", 10, 11),
        ("ref(w)", "expected ,, found ')'", 5, 6),
        ("1 :=", "expected a term, found 'end of input'", 4, 4),
        # missing closing parentheses
        ("(1", "expected a closing parenthesis, found 'end of input'", 2, 2),
        ("ref(w, 1", "expected ), found 'end of input'", 8, 8),
        ("let x = 1 in y", "unbound identifier 'y'", 13, 14),
        ("1 )", "trailing input at ')'", 2, 3),
    ])
    def test_parse_error(self, src, msg, start, end):
        with pytest.raises(GirError) as err:
            parse(src)
        e = err.value
        assert (e.code, e.message, e.span.start, e.span.end) == (
            "E013", msg, start, end)
