"""The random-program generator, the three-semantics runner, the fuzz
driver's shrinker, and the no-synthesis dependency oracle."""

import dataclasses

import pytest

from girkit import cli, testkit
from girkit.core import Cst, EMPTY_DEP, HARD, RW, Stuck, term_to_text
from girkit.graphir import initial_state
from girkit.mnf import to_mnf
from girkit.typecheck import infer_direct
from girkit.testkit import (
    CHECKS, GenConfig, _fresh_store_for, _still_fails, brute_deps, fuzz,
    gen_well_typed, make_corrupted, opportunity, run_three,
    shrink_candidates,
)


class TestGenerator:
    def test_depth_zero_yields_a_constant(self):
        t = gen_well_typed(GenConfig(seed=0, max_depth=0))
        assert isinstance(t, Cst)

    def test_output_is_always_well_typed(self):
        for seed in range(60):
            store = _fresh_store_for(Cst(0))
            t = gen_well_typed(GenConfig(seed=seed, max_depth=5), store)
            infer_direct(store.typing(), t)  # must not raise

    def test_same_seed_reproduces_the_same_term(self):
        cfg = GenConfig(seed=17, max_depth=5)
        assert term_to_text(gen_well_typed(cfg)) \
            == term_to_text(gen_well_typed(cfg))

    def test_different_seeds_explore_different_terms(self):
        texts = {term_to_text(gen_well_typed(GenConfig(seed=s, max_depth=5)))
                 for s in range(30)}
        assert len(texts) > 15

    def test_config_is_immutable(self):
        cfg = GenConfig(seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1


class TestBruteDeps:
    def test_pure_program_has_the_empty_slice(self):
        store = _fresh_store_for(Cst(0))
        g = to_mnf(Cst(1), store.supply)
        st, _ = initial_state(store)
        assert brute_deps(st, g) == EMPTY_DEP

    def test_write_slice_points_at_the_assigning_node(self):
        store = _fresh_store_for(Cst(0))
        sup = store.supply
        from girkit.core import Assign, Let, Nm, RefNew
        x, u = sup.var("x"), sup.var("u")
        t = Let(x, RefNew(Nm(store.w), Cst(1)),
                Let(u, Assign(Nm(x), Cst(2)), Nm(u)))
        g = to_mnf(t, sup)
        st, _ = initial_state(store, regime=HARD)
        got = brute_deps(st, g)
        # the program's sole effect is the write; its hard entry must name
        # a node of the graph (the assign), keyed by the written cell
        assert len(got.hard) == 1 and not got.soft


class TestRunThree:
    def test_agreeing_program_reports_one_value(self):
        values, steps = run_three(gen_well_typed(GenConfig(seed=8,
                                                           max_depth=4)))
        assert set(values) == {"direct", "store", "graph"}
        assert len(set(values.values())) == 1
        assert all(s >= 0 for s in steps.values())


class TestDifferential:
    def test_corpus_sample_agrees(self):
        for seed in range(20):
            t = gen_well_typed(GenConfig(seed=seed, max_depth=4))
            for regime in (HARD, RW):
                values, _ = run_three(t, regime=regime)
                assert len(set(values.values())) == 1, values


class TestCorruption:
    def test_each_corruption_point_is_detected(self):
        from girkit.core import DependencyViolation
        from girkit.interp import eval_graph
        t = gen_well_typed(GenConfig(seed=4, max_depth=5))
        for pick in range(3):
            cfg, node = make_corrupted(t, pick=pick)
            with pytest.raises(DependencyViolation) as exc:
                eval_graph(cfg)
            assert exc.value.payload["node"] == node


class TestOpportunity:
    @pytest.mark.parametrize("rule", ["dce", "comm", "hoist", "inline",
                                      "cse"])
    def test_generated_program_gives_the_rule_a_site(self, rule):
        from girkit.graphir import synthesize
        from girkit.optimize import optimize
        store, g = opportunity(rule, GenConfig(seed=2, max_depth=3))
        st, _ = initial_state(store)
        g2, _ = synthesize(st, g)
        _, reports = optimize(st, g2, [rule], fuel=4, supply=store.supply)
        assert any(r.fired for r in reports)


class TestFuzz:
    def test_summary_counts_and_renders(self):
        s = fuzz(count=10, seed=0, max_depth=4, check="synthesis")
        assert s.count == 10 and s.failures == 0
        assert "0 failure(s)" in s.render()

    @pytest.mark.parametrize("check", ["translation", "synthesis", "deps",
                                       "differential", "optimizer"])
    def test_fixed_seed_range_has_no_failures(self, check):
        s = fuzz(count=150, seed=0, check=check)
        assert s.failures == 0, s.render()

    @staticmethod
    def _inject(monkeypatch, check, fail):
        """Make `check` also fail, through `fail`, on every program that
        dereferences; returns the patched check."""
        real = testkit._CHECK_FNS[check]

        def patched(t, store):
            msg = real(t, store)
            if msg is None and "!" in term_to_text(t):
                return fail()
            return msg

        monkeypatch.setitem(testkit._CHECK_FNS, check, patched)
        return patched

    def _assert_minimal_replayable(self, s, patched, capsys):
        assert s.failures > 0
        lines = s.render().splitlines()
        for idx, msg in s.details:
            text = msg.rpartition(" on ")[2]
            store, t, _ = cli._front_end(text)
            assert testkit._run_check(patched, t, store) is not None
            for cand in shrink_candidates(t):
                assert not _still_fails(patched, cand), term_to_text(cand)
            replay = lines[lines.index(f"  #{idx}: {msg}") + 1]
            assert replay == (f"    replay: gir fuzz --count 1 "
                              f"--seed {s.seed + idx} --max-depth "
                              f"{s.max_depth} --check {s.check}")
            capsys.readouterr()
            assert cli.main(replay.split()[2:]) == 1
            assert f"  #0: {msg}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("check", CHECKS)
    def test_injected_failure_shrinks_to_a_minimal_replayable_program(
            self, check, monkeypatch, capsys):
        patched = self._inject(monkeypatch, check,
                               lambda: "injected: program dereferences")
        s = fuzz(count=40, seed=0, max_depth=5, check=check)
        self._assert_minimal_replayable(s, patched, capsys)
        assert all(msg.startswith("injected: program dereferences on ")
                   for _, msg in s.details)

    def test_error_raised_by_a_check_is_a_shrunk_failure(
            self, monkeypatch, capsys):
        def fail():
            raise Stuck("injected")

        patched = self._inject(monkeypatch, "translation", fail)
        s = fuzz(count=40, seed=100, max_depth=5, check="translation")
        self._assert_minimal_replayable(s, patched, capsys)
        assert all(msg.startswith("unexpected error: Stuck: injected on ")
                   for _, msg in s.details)

    def test_optimizer_failure_is_shrunk_to_a_program_that_still_fails(
            self, monkeypatch):
        from girkit.cli import _front_end
        from girkit.core import SideConditionFailed, graph_free_names
        from girkit.optimize import RULES
        from girkit.testkit import _check_optimizer

        def drop_unused(st, g, site, supply):
            # dce without its effect premise: drops unused writes too
            if site.focus.var in graph_free_names(site.focus.body):
                raise SideConditionFailed("used")
            return site.rebuild(site.focus.body)

        monkeypatch.setitem(RULES, "dce", drop_unused)
        # few generated programs write a cell they return; seed 189 does
        s = fuzz(count=1, seed=189, check="optimizer")
        assert s.failures == 1
        msg = s.details[0][1]
        text = msg.partition(" on ")[2]
        store, t, _ = _front_end(text)
        assert _check_optimizer(t, store) is not None
        original = gen_well_typed(GenConfig(seed=189, max_depth=6))
        assert len(text) < len(term_to_text(original))

    def test_unknown_check_is_rejected(self):
        with pytest.raises(ValueError):
            fuzz(count=1, seed=0, max_depth=3, check="nosuch")
