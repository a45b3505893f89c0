"""Dependency closure, premise filtering, and best-first proof search."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    EagerGenerator,
    RecordingGenerator,
    brute_force_prove,
    corpus_of,
    pfile,
    premise,
    random_search_fixture,
    theorem,
)
from proverloop.errors import CorruptDocument, EnvironmentFailure, IoFailure, ProverloopError
from proverloop.retriever import EmbeddingModel, precompute_embeddings
from proverloop.search import (
    GOAL,
    SearchBudget,
    TableEnvironment,
    TableFixture,
    TableGenerator,
    TickClock,
    accessible_premises,
    best_first_search,
    build_dependency_graph,
    replay_proof,
    retrieve_premises,
)


def edge(source, tactic, log_prob, target, requires_premise=None, fails=False):
    return {
        "from": source, "tactic": tactic, "log_prob": log_prob, "to": target,
        **({"requires_premise": requires_premise} if requires_premise else {}),
        **({"fails": True} if fails else {}),
    }


def fixture_of(initial, *edges):
    return TableFixture.from_json({"initial": initial, "edges": list(edges)})


THM = theorem("thm.t", path="lib/t.lean")
KEY = "lib/t.lean::thm.t"


class TestDependencyGraph:
    def test_closure_is_reflexive(self):
        corpus = corpus_of(pfile("lib/a.lean", names=("a.x",)))
        assert build_dependency_graph(corpus) == {"lib/a.lean": frozenset({"lib/a.lean"})}

    def test_closure_is_transitive(self):
        corpus = corpus_of(
            pfile("lib/a.lean", names=("a.x",)),
            pfile("lib/b.lean", names=("b.x",), imports=("lib/a.lean",)),
            pfile("lib/c.lean", names=("c.x",), imports=("lib/b.lean",)),
        )
        graph = build_dependency_graph(corpus)
        assert graph["lib/c.lean"] == frozenset({"lib/a.lean", "lib/b.lean", "lib/c.lean"})
        assert graph["lib/b.lean"] == frozenset({"lib/a.lean", "lib/b.lean"})

    def test_unknown_file_rejected(self):
        corpus = corpus_of(pfile("lib/a.lean", names=("a.x",)))
        ghost = theorem("ghost.thm", path="lib/ghost.lean")
        with pytest.raises(ProverloopError, match="^file not in corpus: 'lib/ghost.lean'$"):
            accessible_premises(build_dependency_graph(corpus), corpus, ghost)


class TestAccessiblePremises:
    def corpus(self):
        return corpus_of(
            pfile("lib/base.lean", names=("base.one", "base.two")),
            pfile("lib/mid.lean", names=("mid.one",), imports=("lib/base.lean",)),
            pfile("lib/top.lean", imports=("lib/mid.lean",), premises=(
                premise("top.before", path="lib/top.lean", start=(10, 1), end=(12, 1)),
                premise("top.after", path="lib/top.lean", start=(80, 1), end=(82, 1)),
            )),
        )

    def test_imports_and_earlier_own_file_premises(self):
        corpus = self.corpus()
        graph = build_dependency_graph(corpus)
        thm = theorem("top.thm", path="lib/top.lean", start=(50, 1), end=(60, 1))
        got = accessible_premises(graph, corpus, thm)
        assert [p.full_name for p in got] == \
            ["base.one", "base.two", "mid.one", "top.before"]

    def test_premise_defined_after_the_theorem_is_excluded(self):
        corpus = self.corpus()
        graph = build_dependency_graph(corpus)
        thm = theorem("top.thm", path="lib/top.lean", start=(50, 1), end=(60, 1))
        names = {p.full_name for p in accessible_premises(graph, corpus, thm)}
        assert "top.after" not in names

    def test_unimported_files_stay_invisible(self):
        corpus = self.corpus()
        graph = build_dependency_graph(corpus)
        thm = theorem("mid.thm", path="lib/mid.lean", start=(50, 1), end=(60, 1))
        names = {p.full_name for p in accessible_premises(graph, corpus, thm)}
        assert names == {"base.one", "base.two", "mid.one"}

    def test_first_theorem_of_a_root_file_sees_nothing(self):
        corpus = corpus_of(pfile("lib/solo.lean", premises=(
            premise("solo.later", path="lib/solo.lean", start=(90, 1), end=(92, 1)),
        )))
        graph = build_dependency_graph(corpus)
        thm = theorem("solo.thm", path="lib/solo.lean", start=(5, 1), end=(9, 1))
        assert accessible_premises(graph, corpus, thm) == []


class TestRetrievePremises:
    def setup_index(self, n=8):
        corpus = corpus_of(pfile(
            "lib/pool.lean", names=tuple(f"pool.p{i}" for i in range(n)),
        ))
        model = EmbeddingModel.random_init(dim=8, n_features=256, seed=1)
        return corpus, model, precompute_embeddings(model, corpus)

    def test_keeps_a_quarter_rounded_up(self):
        corpus, model, index = self.setup_index(n=8)
        got = retrieve_premises(model, index, "⊢ q", corpus.all_premises(),
                                fraction=0.25, max_n=100)
        assert len(got) == 2  # ceil(0.25 * 8)

    def test_cap_applies_after_the_fraction(self):
        corpus, model, index = self.setup_index(n=8)
        got = retrieve_premises(model, index, "⊢ q", corpus.all_premises(),
                                fraction=1.0, max_n=3)
        assert len(got) == 3

    def test_no_accessible_premises_is_empty(self):
        _, model, index = self.setup_index()
        assert retrieve_premises(model, index, "⊢ q", []) == []

    def test_ranking_matches_independent_scoring(self):
        corpus, model, index = self.setup_index(n=8)
        accessible = corpus.all_premises()
        state = "⊢ some goal"
        q = model.embed(state)
        order = sorted(accessible,
                       key=lambda p: (-float(index.matrix[index.rows_of([p])[0]] @ q), p.key))
        got = retrieve_premises(model, index, state, accessible,
                                fraction=0.5, max_n=100)
        assert [p.key for p in got] == [p.key for p in order[:4]]

    def test_ties_break_by_ascending_key(self):
        corpus, _, _ = self.setup_index(n=8)
        w = np.zeros((4, 64))
        w[0, 0] = 1.0
        flat_model = EmbeddingModel(weight=w)  # every similarity ties exactly
        index = precompute_embeddings(flat_model, corpus)
        got = retrieve_premises(flat_model, index, "⊢ q", corpus.all_premises(),
                                fraction=0.25, max_n=100)
        assert [p.full_name for p in got] == ["pool.p0", "pool.p1"]

    def test_ties_keep_ascending_key_order_whatever_the_accessible_order(self):
        corpus, _, _ = self.setup_index(n=8)
        w = np.zeros((4, 64))
        w[0, 0] = 1.0
        flat_model = EmbeddingModel(weight=w)  # every similarity ties exactly
        index = precompute_embeddings(flat_model, corpus)
        accessible = sorted(corpus.all_premises(), key=lambda p: p.key, reverse=True)
        got = retrieve_premises(flat_model, index, "⊢ q", accessible,
                                fraction=0.5, max_n=100)
        assert [p.key for p in got] == sorted(p.key for p in accessible)[:4]

    def test_model_index_version_mismatch(self):
        corpus, model, index = self.setup_index()
        other = EmbeddingModel.random_init(dim=8, n_features=256, seed=2)
        with pytest.raises(ProverloopError, match="^index built at .*, model is "):
            retrieve_premises(other, index, "⊢ q", corpus.all_premises())

    def test_premise_missing_from_index(self):
        corpus, model, index = self.setup_index()
        stranger = premise("ghost.p", path="lib/ghost.lean")
        with pytest.raises(ProverloopError,
                           match="^premise 'lib/ghost.lean::ghost.p' missing from index$"):
            retrieve_premises(model, index, "⊢ q", [stranger])


class TestTableFixture:
    def test_round_trip(self, tmp_path):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "step", -0.5, "s1", requires_premise="base.one"),
            edge("s1", "finish", -0.25, GOAL),
            edge("s0", "boom", -0.1, "s1", fails=True),
        )
        fx.save(tmp_path / "fx.json")
        again = TableFixture.load(tmp_path / "fx.json")
        assert again.initial == fx.initial
        assert again.edges == fx.edges

    def test_duplicate_transition_rejected(self):
        with pytest.raises(CorruptDocument):
            fixture_of({KEY: "s0"},
                       edge("s0", "step", -0.5, "s1"),
                       edge("s0", "step", -0.25, GOAL))

    def test_positive_log_probability_rejected(self):
        with pytest.raises(CorruptDocument):
            fixture_of({KEY: "s0"}, edge("s0", "step", 0.5, GOAL))

    def test_missing_sections_rejected(self):
        with pytest.raises(CorruptDocument):
            TableFixture.from_json({"edges": []})
        with pytest.raises(CorruptDocument):
            TableFixture.from_json({"initial": {}})

    def test_unreadable_and_corrupt_files(self, tmp_path):
        with pytest.raises(IoFailure):
            TableFixture.load(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorruptDocument):
            TableFixture.load(bad)


class TestTableEnvironment:
    def env(self):
        return TableEnvironment(fixture_of(
            {KEY: "s0"},
            edge("s0", "step", -0.5, "s1"),
            edge("s1", "finish", -0.25, GOAL),
            edge("s0", "boom", -0.1, "s1", fails=True),
        ))

    def test_initial_state(self):
        assert self.env().initial_state(THM) == "s0"

    def test_unknown_theorem(self):
        with pytest.raises(EnvironmentFailure):
            self.env().initial_state(theorem("ghost.t", path="lib/ghost.lean"))

    def test_apply_outcomes(self):
        env = self.env()
        assert env.apply("s0", "step") == "s1"
        assert env.apply("s1", "finish") == GOAL
        assert env.apply("s0", "made-up") is None
        with pytest.raises(EnvironmentFailure):
            env.apply("s0", "boom")


class TestTableGenerator:
    def test_most_probable_first_then_name(self):
        gen = TableGenerator(fixture_of(
            {KEY: "s0"},
            edge("s0", "bb", -0.5, "s1"),
            edge("s0", "aa", -0.5, "s2"),
            edge("s0", "cc", -0.1, "s3"),
        ))
        assert gen.propose("s0", None, 10) == [("cc", -0.1), ("aa", -0.5), ("bb", -0.5)]
        assert gen.propose("s0", None, 2) == [("cc", -0.1), ("aa", -0.5)]
        assert gen.propose("elsewhere", None, 10) == []

    def test_premise_gating(self):
        gen = TableGenerator(fixture_of(
            {KEY: "s0"},
            edge("s0", "free", -0.5, "s1"),
            edge("s0", "gated", -0.1, GOAL, requires_premise="base.one"),
        ))
        without = gen.propose("s0", lambda: [], 10)
        assert without == [("free", -0.5)]
        with_premise = gen.propose(
            "s0", lambda: [premise("base.one", path="lib/base.lean")], 10)
        assert with_premise == [("gated", -0.1), ("free", -0.5)]
        ungated = gen.propose("s0", None, 10)
        assert ungated == [("gated", -0.1), ("free", -0.5)]

    def counting(self, retrieved=()):
        calls = []

        def premises():
            calls.append(1)
            return list(retrieved)

        return premises, calls

    def test_premises_are_not_pulled_at_a_state_without_a_gated_edge(self):
        gen = TableGenerator(fixture_of(
            {KEY: "s0"},
            edge("s0", "free", -0.5, "s1"),
            edge("s1", "gated", -0.1, GOAL, requires_premise="base.one"),
        ))
        premises, calls = self.counting()
        assert gen.propose("s0", premises, 10) == [("free", -0.5)]
        assert gen.propose("elsewhere", premises, 10) == []
        assert calls == []

    def test_two_gated_edges_pull_premises_once_and_none_proposes_both(self):
        gen = TableGenerator(fixture_of(
            {KEY: "s0"},
            edge("s0", "one", -0.1, GOAL, requires_premise="base.one"),
            edge("s0", "two", -0.2, GOAL, requires_premise="base.two"),
            edge("s0", "free", -0.5, "s1"),
        ))
        premises, calls = self.counting([premise("base.two", path="lib/base.lean")])
        assert gen.propose("s0", premises, 10) == [("two", -0.2), ("free", -0.5)]
        assert calls == [1]
        assert gen.propose("s0", None, 10) == [("one", -0.1), ("two", -0.2), ("free", -0.5)]


def search_on(fx, budget=None, clock=None, retrieval_fn=None):
    return best_first_search(
        TableEnvironment(fx), TableGenerator(fx), THM,
        retrieval_fn=retrieval_fn,
        budget=budget or SearchBudget(),
        clock=clock or TickClock(),
    )


class TestBestFirstSearch:
    def test_single_closing_edge(self):
        fx = fixture_of({KEY: "s0"}, edge("s0", "win", -0.5, GOAL))
        res = search_on(fx)
        assert res.status == "proved"
        assert res.proof == ["win"]
        assert res.total_log_prob == -0.5
        assert res.expansions == 1
        assert res.env_failures == 0

    def test_dead_end_exhausts(self):
        fx = fixture_of({KEY: "s0"}, edge("s0", "into", -0.5, "s1"))
        res = search_on(fx)
        assert res.status == "exhausted"
        assert res.proof is None and res.total_log_prob is None

    def test_prefers_higher_total_probability_over_shorter_proof(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "direct", -2.0, GOAL),
            edge("s0", "b", -0.5, "s1"),
            edge("s1", "c", -0.5, GOAL),
        )
        res = search_on(fx)
        assert res.status == "proved"
        assert res.proof == ["b", "c"]
        assert res.total_log_prob == -1.0
        proofs = brute_force_prove(TableEnvironment(fx), TableGenerator(fx), THM, 4)
        assert res.total_log_prob == max(lp for _, lp in proofs)

    def test_duplicate_state_keeps_only_the_better_route(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "x", -1.0, "s1"),
            edge("s0", "y", -0.1, "s1"),
            edge("s1", "z", -0.1, GOAL),
        )
        res = search_on(fx)
        assert res.status == "proved"
        assert res.proof == ["y", "z"]
        assert res.total_log_prob == pytest.approx(-0.2)
        assert res.expansions == 2  # s0 and s1 once each; the worse route is pruned

    def test_timeout_budget(self):
        fx = fixture_of({KEY: "s0"}, edge("s0", "win", -0.5, GOAL))
        res = search_on(fx, budget=SearchBudget(time_ms=0.5))
        assert res.status == "timeout"
        assert res.expansions == 0

    def test_expansion_budget(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "a", -0.5, "s1"),
            edge("s1", "b", -0.5, "s2"),
            edge("s2", "c", -0.5, GOAL),
        )
        res = search_on(fx, budget=SearchBudget(max_expansions=1))
        assert res.status == "timeout"
        assert res.expansions == 1

    def test_environment_crashes_are_counted_and_skipped(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "boom", -0.1, GOAL, fails=True),
            edge("s0", "win", -0.5, GOAL),
        )
        res = search_on(fx)
        assert res.status == "proved"
        assert res.proof == ["win"]
        assert res.env_failures == 1

    def test_a_tactic_that_does_not_apply_is_skipped(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "b", -0.5, "s1"),
            edge("s1", "c", -0.5, GOAL),
        )

        class Guessing(TableGenerator):
            """Proposes first, at every state, a tactic the table lacks."""

            def propose(self, state, premises, n):
                return [("made-up", -0.01), *super().propose(state, premises, n)]

        res = best_first_search(TableEnvironment(fx), Guessing(fx), THM, clock=TickClock())
        assert res.status == "proved" and res.env_failures == 0
        assert res == search_on(fx)

    def test_positive_log_probability_from_a_generator_is_an_error(self):
        fx = fixture_of({KEY: "s0"}, edge("s0", "win", -0.5, GOAL))

        class Overconfident:
            def propose(self, state, premises, n):
                return [("win", 0.25)]

        with pytest.raises(ProverloopError,
                           match=r"^generator proposed log-probability 0\.25 > 0$"):
            best_first_search(TableEnvironment(fx), Overconfident(), THM,
                              clock=TickClock())

    def test_a_score_that_overflows_is_an_error_naming_the_theorem(self):
        """Each log-probability is finite, but their sum is not: no proof
        can carry a total of -inf into a JSON report."""
        fx = fixture_of({KEY: "s0"}, edge("s0", "a", -1e308, "s1"),
                        edge("s1", "b", -1e308, GOAL))
        with pytest.raises(ProverloopError, match=re.escape(
                f"search on {KEY!r}: cumulative log-probability -1e+308 + -1e+308 "
                "is not finite")):
            search_on(fx)

    def test_retrieval_gates_what_search_can_use(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "gated", -0.1, GOAL, requires_premise="base.one"),
        )
        blind = search_on(fx, retrieval_fn=lambda state: [])
        assert blind.status == "exhausted"
        sighted = search_on(
            fx, retrieval_fn=lambda state: [premise("base.one", path="lib/base.lean")])
        assert sighted.status == "proved"

    def test_tick_clock_makes_elapsed_time_reproducible(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "b", -0.5, "s1"),
            edge("s1", "c", -0.5, GOAL),
        )
        a = search_on(fx, clock=TickClock())
        b = search_on(fx, clock=TickClock())
        assert a.elapsed_ms == b.elapsed_ms
        assert a.elapsed_ms > 0.0


class TestReplay:
    def fx(self):
        return fixture_of(
            {KEY: "s0"},
            edge("s0", "b", -0.5, "s1"),
            edge("s1", "c", -0.5, GOAL),
            edge("s0", "boom", -0.1, "s1", fails=True),
        )

    def test_valid_proof_replays(self):
        assert replay_proof(TableEnvironment(self.fx()), THM, ["b", "c"]) is True

    def test_wrong_tactic_fails(self):
        assert replay_proof(TableEnvironment(self.fx()), THM, ["b", "nope"]) is False

    def test_too_short_or_too_long_fails(self):
        env = TableEnvironment(self.fx())
        assert replay_proof(env, THM, ["b"]) is False
        assert replay_proof(env, THM, []) is False
        assert replay_proof(env, THM, ["b", "c", "extra"]) is False

    def test_crashing_step_fails(self):
        assert replay_proof(TableEnvironment(self.fx()), THM, ["boom", "c"]) is False


class TestBruteForce:
    def test_single_depth_one_proof(self):
        fx = fixture_of({KEY: "s0"}, edge("s0", "win", -0.5, GOAL))
        env, gen = TableEnvironment(fx), TableGenerator(fx)
        assert brute_force_prove(env, gen, THM, 1) == [(("win",), -0.5)]

    def test_depth_limit_below_shortest_proof(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "b", -0.5, "s1"),
            edge("s1", "c", -0.5, GOAL),
        )
        env, gen = TableEnvironment(fx), TableGenerator(fx)
        assert brute_force_prove(env, gen, THM, 1) == []
        assert brute_force_prove(env, gen, THM, 2) == [(("b", "c"), -1.0)]

    def test_enumerates_every_proof(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "direct", -2.0, GOAL),
            edge("s0", "b", -0.5, "s1"),
            edge("s1", "c", -0.5, GOAL),
        )
        env, gen = TableEnvironment(fx), TableGenerator(fx)
        proofs = brute_force_prove(env, gen, THM, 4)
        assert sorted(proofs) == [(("b", "c"), -1.0), (("direct",), -2.0)]

    def test_gating_applies_to_the_oracle_too(self):
        fx = fixture_of(
            {KEY: "s0"},
            edge("s0", "gated", -0.1, GOAL, requires_premise="base.one"),
        )
        env, gen = TableEnvironment(fx), TableGenerator(fx)
        assert brute_force_prove(env, gen, THM, 2, retrieval_fn=lambda s: []) == []
        assert brute_force_prove(env, gen, THM, 2) == [(("gated",), -0.1)]


PREMISE_NAMES = ("base.one", "base.two", "base.three")


@st.composite
def gated_searches(draw):
    """A small table whose edges may be gated, crash or loop back, the
    premises retrieval returns at each state, and an expansion cap."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    edges = []
    for state in states:
        for t in range(draw(st.integers(0, 3))):
            edges.append(edge(
                state, f"t{t}", draw(st.sampled_from((0.0, -0.25, -0.5, -1.0, -2.0))),
                draw(st.sampled_from(states + [GOAL])),
                requires_premise=draw(st.none() | st.sampled_from(PREMISE_NAMES)),
                fails=draw(st.sampled_from((False, False, False, True))),
            ))
    retrieved = {s: draw(st.sets(st.sampled_from(PREMISE_NAMES))) for s in states}
    cap = draw(st.none() | st.integers(1, 6))
    return fixture_of({KEY: "s0"}, *edges), retrieved, cap


class TestOnDemandPremises:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(gated_searches())
    def test_search_equals_the_eager_reference_and_retrieves_only_at_gated_states(
            self, search):
        fx, retrieved, cap = search
        pulled = []

        def retrieval_fn(state):
            pulled.append(state)
            return [premise(name, path="lib/base.lean") for name in sorted(retrieved[state])]

        budget = SearchBudget(max_expansions=cap)
        env = TableEnvironment(fx)
        eager = best_first_search(env, EagerGenerator(TableGenerator(fx)), THM,
                                  retrieval_fn=retrieval_fn, budget=budget, clock=TickClock())
        assert len(pulled) == eager.expansions
        pulled.clear()

        generator = RecordingGenerator(TableGenerator(fx))
        lazy = best_first_search(env, generator, THM, retrieval_fn=retrieval_fn,
                                 budget=budget, clock=TickClock())
        assert lazy == eager
        gated = {e.source for e in fx.edges if e.requires_premise is not None}
        assert pulled == [s for s in generator.states if s in gated]


class TestAgainstRandomInstances:
    def test_search_agrees_with_the_oracle_on_provability_and_score(self):
        for seed in range(12):
            fx, thm = random_search_fixture(seed)
            env, gen = TableEnvironment(fx), TableGenerator(fx)
            res = best_first_search(env, gen, thm, clock=TickClock())
            proofs = brute_force_prove(env, gen, thm, 4)
            if proofs:
                assert res.status == "proved"
                assert res.total_log_prob == pytest.approx(
                    max(lp for _, lp in proofs), abs=1e-12)
                assert replay_proof(env, thm, res.proof)
            else:
                assert res.status == "exhausted"
