"""Premise-aware best-first proof search with proof replay.

Environments and tactic generators are small protocols so tests can drive
search with table-backed fixtures: a JSON file of labeled transitions with
log-probabilities and per-theorem initial states. A transition to the
marker "PROVED" closes the proof.

Search keeps a max-priority frontier on cumulative log-probability. Goal
transitions enter the frontier as terminal entries and the proof is returned
when one is popped, which for step costs of -log p >= 0 makes the returned
proof maximal in total log-probability.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Protocol

from .corpus import Corpus, Premise, Theorem
from .errors import CorruptDocument, EnvironmentFailure, ProverloopError
from .retriever import EmbeddingIndex, EmbeddingModel, rank_by_similarity
from .storage import dump_json, json_field, read_json, write_atomic

GOAL = "PROVED"


class ProofEnvironment(Protocol):
    def initial_state(self, theorem: Theorem) -> str: ...

    def apply(self, state: str, tactic: str) -> str | None:
        """The state the tactic leads to, GOAL when it closes the proof, or
        None when it does not apply."""


PremisesFn = Callable[[], list[Premise]]


class TacticGenerator(Protocol):
    def propose(
        self, state: str, premises: PremisesFn | None, n: int
    ) -> list[tuple[str, float]]:
        """At most n (tactic, log-probability) pairs for the state.

        premises returns the state's retrieved premises; a generator calls
        it at most once, and only when its proposals depend on them. None
        is the oracle's view: every premise is available.
        """


# -- dependency graph and retrieval ------------------------------------------

def build_dependency_graph(corpus: Corpus) -> dict[str, frozenset[str]]:
    """The reflexive-transitive closure of the corpus import relation: each
    file's path mapped to the paths it reaches, itself included."""
    closure: dict[str, frozenset[str]] = {}
    for f in corpus.files:  # topological order: imports are already closed
        reach: set[str] = {f.path}
        for target in f.imports:
            reach.update(closure[target])
        closure[f.path] = frozenset(reach)
    return closure


def accessible_premises(
    graph: dict[str, frozenset[str]], corpus: Corpus, theorem: Theorem
) -> list[Premise]:
    """Premises legal to use in the theorem's proof.

    Everything from transitively imported files, plus premises of the
    theorem's own file that end before the theorem starts. Ordered by file
    topological order, then position.
    """
    reach = graph.get(theorem.file_path)
    if reach is None:
        raise ProverloopError(f"file not in corpus: {theorem.file_path!r}")
    out: list[Premise] = []
    for f in corpus.files:
        if f.path not in reach:
            continue
        if f.path == theorem.file_path:
            own = [p for p in f.premises if p.end < theorem.start]
            out.extend(sorted(own, key=lambda p: p.start))
        else:
            out.extend(sorted(f.premises, key=lambda p: p.start))
    return out


def retrieve_premises(
    model: EmbeddingModel,
    index: EmbeddingIndex,
    state: str,
    accessible: list[Premise],
    fraction: float = 0.25,
    max_n: int = 100,
) -> list[Premise]:
    """Top premises by cosine similarity among the accessible ones.

    Keeps ceil(fraction * N) of the N accessible premises, then at most
    max_n. Ties break by ascending premise key. Each call gathers the
    accessible premises' rows of the index and their embeddings.
    """
    if not accessible:
        return []
    index.check_model(model)
    rows = index.rows_of(accessible)
    keep = min(max_n, math.ceil(fraction * len(accessible)))
    order = rank_by_similarity(index.matrix[rows] @ model.embed(state), rows, keep)
    return [accessible[i] for i in order]


# -- table-backed fixtures -----------------------------------------------------

@dataclass(frozen=True)
class Edge:
    """One transition of a TableFixture: tactic takes source to target."""

    source: str
    tactic: str
    log_prob: float
    target: str  # GOAL for closing transitions
    requires_premise: str | None = None
    fails: bool = False


@dataclass
class TableFixture:
    """Transition table shared by the fixture environment and generator."""

    initial: dict[str, str]  # theorem key_str -> initial state
    edges: list[Edge]
    by_source: dict[str, list[Edge]] = field(init=False, repr=False)
    lookup: dict[tuple[str, str], Edge] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.by_source = {}
        self.lookup = {}
        for e in self.edges:
            key = (e.source, e.tactic)
            if key in self.lookup:
                raise CorruptDocument(f"duplicate transition {key!r}")
            if e.log_prob > 0.0:
                raise CorruptDocument(f"positive log-probability on {key!r}")
            self.lookup[key] = e
            self.by_source.setdefault(e.source, []).append(e)

    def to_json(self) -> dict:
        edges = []
        for e in self.edges:
            obj: dict = {
                "from": e.source,
                "tactic": e.tactic,
                "log_prob": e.log_prob,
                "to": e.target,
            }
            if e.requires_premise is not None:
                obj["requires_premise"] = e.requires_premise
            if e.fails:
                obj["fails"] = True
            edges.append(obj)
        return {"initial": dict(sorted(self.initial.items())), "edges": edges}

    @classmethod
    def from_json(cls, doc: object) -> TableFixture:
        initial = json_field(doc, "initial", dict, "search table")
        for key in initial:
            json_field(initial, key, str, "search table initial")
        edges = [
            Edge(
                source=json_field(e, "from", str, "search table edge"),
                tactic=json_field(e, "tactic", str, "search table edge"),
                log_prob=json_field(e, "log_prob", float, "search table edge"),
                target=json_field(e, "to", str, "search table edge"),
                requires_premise=json_field(e, "requires_premise", str, "search table edge",
                                            default=None),
                fails=json_field(e, "fails", bool, "search table edge", default=False),
            )
            for e in json_field(doc, "edges", list, "search table")
        ]
        return cls(initial=initial, edges=edges)

    def save(self, path: str | Path) -> None:
        write_atomic(path, dump_json(self.to_json()))

    @classmethod
    def load(cls, path: str | Path) -> TableFixture:
        return cls.from_json(read_json(path, "search table"))


class TableEnvironment:
    def __init__(self, fixture: TableFixture) -> None:
        self.fixture = fixture

    def initial_state(self, theorem: Theorem) -> str:
        state = self.fixture.initial.get(theorem.key_str)
        if state is None:
            raise EnvironmentFailure(f"no initial state for {theorem.key_str!r}")
        return state

    def apply(self, state: str, tactic: str) -> str | None:
        edge = self.fixture.lookup.get((state, tactic))
        if edge is None:
            return None
        if edge.fails:
            raise EnvironmentFailure(f"transition {state!r} -{tactic!r}-> crashed")
        return edge.target


class TableGenerator:
    """Proposes the table's outgoing transitions, most probable first.

    An edge gated on a premise is only proposed when that premise was
    retrieved. The premises are pulled once, and only at a state with a
    gated edge; passing premises=None disables gating (the oracle's view).
    """

    def __init__(self, fixture: TableFixture) -> None:
        self.fixture = fixture

    def propose(
        self, state: str, premises: PremisesFn | None, n: int
    ) -> list[tuple[str, float]]:
        edges = self.fixture.by_source.get(state, ())
        if premises is not None and any(e.requires_premise is not None for e in edges):
            available = {p.full_name for p in premises()}
            edges = [e for e in edges
                     if e.requires_premise is None or e.requires_premise in available]
        out = sorted(((e.tactic, e.log_prob) for e in edges), key=lambda t: (-t[1], t[0]))
        return out[:n]


# -- search -----------------------------------------------------------------------

RetrievalFn = Callable[[str], list[Premise]]


@dataclass(frozen=True)
class SearchBudget:
    time_ms: float = 600_000.0
    max_expansions: int | None = None
    candidates: int = 64


@dataclass
class SearchResult:
    status: str  # proved | exhausted | timeout
    proof: list[str] | None
    total_log_prob: float | None
    expansions: int
    elapsed_ms: float
    env_failures: int


class TickClock:
    """Deterministic stand-in for time.monotonic: one millisecond per call."""

    def __init__(self) -> None:
        self.ticks = 0

    def __call__(self) -> float:
        self.ticks += 1
        return self.ticks * 1e-3


def best_first_search(
    env: ProofEnvironment,
    generator: TacticGenerator,
    theorem: Theorem,
    retrieval_fn: RetrievalFn | None = None,
    budget: SearchBudget = SearchBudget(),
    clock: Callable[[], float] | None = None,
) -> SearchResult:
    """Expand highest cumulative log-probability first; prune repeat states.

    A revisited state survives only with a better score, and a score that
    is not finite raises a ProverloopError naming the theorem. Environment
    crashes count as failures and the edge is skipped. The generator pulls
    a state's premises from retrieval_fn on demand, at most once per
    expansion.
    """
    import heapq

    clock = clock or time.monotonic
    t0 = clock()
    elapsed = lambda: (clock() - t0) * 1000.0

    root = env.initial_state(theorem)
    counter = 0
    # entries: (negated score, insertion counter, state or None for goal, path)
    frontier: list[tuple[float, int, str | None, tuple[str, ...]]] = [
        (0.0, counter, root, ())
    ]
    best_score: dict[str | None, float] = {root: 0.0}
    expansions = 0
    failures = 0

    while frontier:
        if elapsed() > budget.time_ms:
            return SearchResult("timeout", None, None, expansions, elapsed(), failures)
        neg, _, state, path = heapq.heappop(frontier)
        score = -neg
        if score < best_score.get(state, -math.inf):
            continue  # superseded entry
        if state is None:
            return SearchResult("proved", list(path), score, expansions, elapsed(), failures)
        if budget.max_expansions is not None and expansions >= budget.max_expansions:
            return SearchResult("timeout", None, None, expansions, elapsed(), failures)
        expansions += 1
        premises = None if retrieval_fn is None else partial(retrieval_fn, state)
        for tactic, log_prob in generator.propose(state, premises, budget.candidates):
            if log_prob > 0.0:
                raise ProverloopError(f"generator proposed log-probability {log_prob} > 0")
            try:
                target = env.apply(state, tactic)
            except EnvironmentFailure:
                failures += 1
                continue
            if target is None:
                continue
            new_score = score + log_prob
            if not math.isfinite(new_score):
                raise ProverloopError(
                    f"search on {theorem.key_str!r}: cumulative log-probability "
                    f"{score} + {log_prob} is not finite")
            key = None if target == GOAL else target
            if key in best_score and best_score[key] >= new_score:
                continue
            best_score[key] = new_score
            counter += 1
            heapq.heappush(frontier, (-new_score, counter, key, path + (tactic,)))
    return SearchResult("exhausted", None, None, expansions, elapsed(), failures)


def replay_proof(env: ProofEnvironment, theorem: Theorem, proof: list[str]) -> bool:
    """True iff applying the tactics in order lands exactly on a proved goal."""
    try:
        state = env.initial_state(theorem)
        for i, tactic in enumerate(proof):
            state = env.apply(state, tactic)
            if state is None:
                return False
            if state == GOAL:
                return i == len(proof) - 1
    except EnvironmentFailure:
        return False
    return False
