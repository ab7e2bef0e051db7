"""Let spines: `core.spine` and every walker that loops over it instead of
recursing once per binder. A long program passes every stage but the
parser at the default recursion limit, and the evaluators' step rules run
a long spine in a few frames."""

import random
import sys

from girkit.cli import parse
from girkit.core import (
    Cst, GLet, GName, HARD, Let, NCst, Nm, alpha_equal_terms,
    graph_free_names, graph_to_text, initial_store, rename_graph,
    spine, subst_term, term_free_names, term_to_text,
)
from girkit.graphir import (
    check_deps, erase, initial_state, resynthesize, synthesize_config,
)
from girkit.interp import canonical_value, eval_direct, eval_graph, eval_store
from girkit.mnf import (
    check_mnf, collapse_administrative, embed, is_mnf, to_mnf,
)
from girkit.optimize import _resolve_lam
from girkit.schedule import emit, flatten_config, schedule
from girkit.testkit import make_corrupted
from girkit.typecheck import infer_direct
from test_graphir import let_chain
from test_higher_order import with_deep_recursion

LETS = 5000


def test_spine_lists_the_lets_outermost_first_and_the_tail():
    store = initial_store()
    x, y = store.supply.var("x"), store.supply.var("y")
    inner = Let(y, Cst(2), Nm(y))
    t = Let(x, Cst(1), inner)
    assert spine(t) == ([t, inner], Nm(y))
    g = GLet(x, NCst(1), GName(x))
    assert spine(g) == ([g], GName(x))
    assert spine(Nm(x)) == ([], Nm(x))


def test_every_walker_but_the_parser_takes_a_long_spine():
    from benchmark import gen
    text = gen.chain_program(random.Random(0), LETS, 4, False).text
    store, parsed = initial_store(), []
    # the parser still recurses once per let
    with_deep_recursion(lambda: parsed.append(parse(text, store)))
    t = parsed[0]
    assert sys.getrecursionlimit() < LETS
    assert len(spine(t)[0]) >= LETS
    ctx = store.typing()

    free = term_free_names(t)
    assert free <= frozenset(ctx.env)
    fresh = store.supply.loc("w2")
    renamed = subst_term(t, store.w, Nm(fresh))
    assert term_free_names(renamed) == free - {store.w} | {fresh}
    assert alpha_equal_terms(subst_term(renamed, fresh, Nm(store.w)), t)
    assert term_to_text(t).startswith("let ")
    typing = infer_direct(ctx, t)

    watermark = store.supply.next_id
    g = to_mnf(t, store.supply)
    assert graph_free_names(g) == free
    assert graph_free_names(rename_graph(g, {}, fresh=store.supply)) == free
    assert graph_to_text(g).startswith("let ")
    assert is_mnf(embed(g))
    assert check_mnf(ctx, g) == typing
    assert alpha_equal_terms(collapse_administrative(g, watermark), t)
    # a name bound to the whole program as a nested block: the chase goes
    # through its spine to the tail's binding, a read
    f, record = store.supply.var("f"), {}
    resynthesize(initial_state(store)[0], GLet(f, g, GName(f)), record)
    assert _resolve_lam(record, f) is None

    cfg = synthesize_config(store, g, HARD)
    assert graph_to_text(erase(cfg.graph)) == graph_to_text(g)
    st_, _ = initial_state(store, cfg.z, HARD)
    assert check_deps(st_, cfg.graph) == typing
    sg = flatten_config(cfg)
    for freq, compact in ((False, False), (True, True)):
        assert emit(schedule(sg, freq=freq, compact=compact)).startswith(
            "let ")
    corrupted, node = make_corrupted(t)
    assert node in {u.var for u in spine(corrupted.graph)[0]}


def stack_depth() -> int:
    f, depth = sys._getframe(), 0
    while f is not None:
        f, depth = f.f_back, depth + 1
    return depth


def test_the_evaluators_step_a_spine_in_a_few_frames():
    """Substitution loops over the spine, so the step rules need no frame
    per binder."""
    store, t = let_chain(400)
    cfg = synthesize_config(store, to_mnf(t, store.supply))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 200)
    try:
        results = [eval_direct(store, t), eval_store(store, t),
                   eval_graph(cfg)]
    finally:
        sys.setrecursionlimit(limit)
    assert [canonical_value(r.store, r.value) for r in results] == [
        ("cst", "Int", 399)] * 3


def test_long_spines_compare_and_hash_in_a_loop():
    """`Let` and `GLet` equality and `Let`'s hash walk the spine: a long
    program compares with a rebuilt copy of itself at the default
    recursion limit."""
    from benchmark import gen
    text = gen.chain_program(random.Random(0), LETS, 4, False).text
    store, parsed = initial_store(), []
    with_deep_recursion(lambda: parsed.append(parse(text, store)))
    t = parsed[0]
    assert sys.getrecursionlimit() < LETS
    lets, tail = spine(t)
    copy, changed = tail, tail
    for i, u in enumerate(reversed(lets)):
        copy = Let(u.var, u.bound, copy)
        changed = Let(u.var, Cst(-1) if i == 0 else u.bound, changed)
    assert copy is not t and copy == t and hash(copy) == hash(t)
    assert changed != t
    g = to_mnf(t, store.supply)
    cfg = synthesize_config(store, g, HARD)
    assert erase(cfg.graph) == g
    assert cfg.graph != g  # the annotations differ
