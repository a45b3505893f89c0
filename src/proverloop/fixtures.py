"""The bundled three-repository demo curriculum.

Everything here is deterministic. The curriculum is built so that

* repository easy-theorem counts order it algebra > number > topology,
* one admitted-but-unproven theorem in the number repository can only be
  closed after the retriever has trained on the algebra repository: its one
  useful transition is gated on retrieving ``core.chain_lift``, which the
  algebra theorems teach and five near-duplicate "frame" premises drown out
  for an untrained encoder.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import (
    KIND_DEFINITION,
    KIND_THEOREM_LIKE,
    Premise,
    PremiseFile,
    PROVED_MARKER,
    STATUS_PROVEN,
    STATUS_SORRY,
    Theorem,
    TracedTactic,
    premise_key,
)
from .database import RepositoryRecord
from .pipeline import write_fixture_dir
from .search import GOAL, Edge, TableFixture
from .storage import write_atomic

GATE_PREMISE = "core.chain_lift"
GATE_STATE = "⊢ lift the chain to the stable frame"
GATED_THEOREM = "num.gated_goal"

_CORE_PATH = "lib/core.lean"
_ALG_PATH = "alg/basic.lean"
_NUM_PATH = "num/theory.lean"
_TOPO_PATH = "topo/space.lean"


def _premise(path: str, name: str, line: int, code: str, kind: str = KIND_THEOREM_LIKE) -> Premise:
    return Premise(
        full_name=name, file_path=path, statement=code,
        start=(line, 1), end=(line, 1 + len(code)), kind=kind,
    )


def _core_file() -> PremiseFile:
    p = _CORE_PATH
    premises = (
        _premise(p, "core.add_comm", 1, "add a b = add b a over the carrier"),
        _premise(p, "core.zero_left", 2, "add zero a = a for the canonical zero"),
        _premise(p, "core.mul_assoc", 3, "mul (mul a b) c = mul a (mul b c)"),
        _premise(p, "core.pair_swap", 4, "swap (pair a b) = pair b a", KIND_DEFINITION),
        _premise(p, GATE_PREMISE, 5, "Stabilize (Frame.ofChain c) -> LiftsTo c StableFrame"),
        _premise(p, "core.frame_calm", 6, "lift the chain to the stable frame when calm"),
        _premise(p, "core.frame_quick", 7, "lift the chain to the stable frame quickly"),
        _premise(p, "core.frame_slow", 8, "lift the chain to the stable frame slowly"),
        _premise(p, "core.frame_spare", 9, "lift the chain to the stable frame on the spare rail"),
        _premise(p, "core.frame_tidy", 10, "lift the chain to the stable frame and tidy links"),
    )
    return PremiseFile(path=p, imports=(), premises=premises)


def _alg_file() -> PremiseFile:
    p = _ALG_PATH
    premises = (
        _premise(p, "alg.fold_left", 1, "fold step zero xs consumes xs from the left"),
        _premise(p, "alg.fold_right", 2, "fold step zero xs consumes xs from the right"),
        _premise(p, "alg.step_def", 3, "step x = add x one", KIND_DEFINITION),
        _premise(p, "alg.unit_law", 4, "mul one a = a"),
        _premise(p, "alg.sum_pair", 5, "sum (pair a b) = add a b"),
    )
    return PremiseFile(path=p, imports=(_CORE_PATH,), premises=premises)


def _num_file() -> PremiseFile:
    p = _NUM_PATH
    premises = (
        _premise(p, "num.parity_def", 1, "parity n = remainder n two", KIND_DEFINITION),
        _premise(p, "num.square_mono", 2, "n <= m implies square n <= square m"),
        _premise(p, "num.gap_bound", 3, "gap n (succ n) = one"),
        _premise(p, "num.step_count", 4, "count (steps n) = n"),
    )
    return PremiseFile(path=p, imports=(_CORE_PATH,), premises=premises)


def _topo_file() -> PremiseFile:
    p = _TOPO_PATH
    premises = (
        _premise(p, "topo.open_union", 1, "a union of open sets is open"),
        _premise(p, "topo.closure_mono", 2, "s within t implies closure s within closure t"),
        _premise(p, "topo.interior_idem", 3, "interior (interior s) = interior s"),
    )
    return PremiseFile(path=p, imports=(_CORE_PATH,), premises=premises)


def _tactic(state: str, name: str, after: str) -> TracedTactic:
    text = f"exact {name} h"
    return TracedTactic(
        tactic=text, annotated_tactic=text, referenced_premises=(name,),
        state_before=state, state_after=after,
    )


def _theorem(
    url: str,
    commit: str,
    path: str,
    name: str,
    statement: str,
    line: int,
    steps: list[tuple[str, str]],
    status: str = STATUS_PROVEN,
) -> Theorem:
    """steps: (state_before, referenced premise) per tactic."""
    tactics = []
    for i, (state, ref) in enumerate(steps):
        after = steps[i + 1][0] if i + 1 < len(steps) else PROVED_MARKER
        tactics.append(_tactic(state, ref, after))
    return Theorem(
        url=url, commit=commit, file_path=path, full_name=name,
        statement=statement, start=(line, 1), end=(line + 1, 1),
        traced_tactics=tuple(tactics), status=status,
    )


def repo_algebra() -> tuple[RepositoryRecord, TableFixture]:
    url, commit = "fixture://repos/algebra", "aaa1111"
    path = _ALG_PATH
    mk = lambda name, statement, line, steps, status=STATUS_PROVEN: _theorem(
        url, commit, path, name, statement, line, steps, status
    )
    theorems = [
        # eight one-step proofs: six teach the gated premise, two vary coverage
        mk("alg.lift_a", "chain lifting holds in scenario a", 21, [(GATE_STATE, GATE_PREMISE)]),
        mk("alg.lift_b", "chain lifting holds in scenario b", 23, [(GATE_STATE, GATE_PREMISE)]),
        mk("alg.lift_c", "chain lifting holds in scenario c", 25, [(GATE_STATE, GATE_PREMISE)]),
        mk("alg.lift_d", "chain lifting holds in scenario d", 27, [(GATE_STATE, GATE_PREMISE)]),
        mk("alg.lift_e", "chain lifting holds in scenario e", 29, [(GATE_STATE, GATE_PREMISE)]),
        mk("alg.lift_f", "chain lifting holds in scenario f", 31, [(GATE_STATE, GATE_PREMISE)]),
        mk("alg.zero_use", "add zero x = x", 33, [("⊢ add zero x = x", "core.zero_left")]),
        mk("alg.comm_use", "add x y = add y x", 35, [("⊢ add x y = add y x", "core.add_comm")]),
        mk("alg.two_a", "folding then regrouping", 37, [
            ("⊢ fold consumes the list from the left", "alg.fold_left"),
            ("⊢ regroup the triple product", "core.mul_assoc"),
        ]),
        mk("alg.two_b", "pair sums swap", 39, [
            ("⊢ sum of a pair is the add of parts", "alg.sum_pair"),
            ("⊢ swap the pair components", "core.pair_swap"),
        ]),
        mk("alg.three_a", "stepping respects units", 41, [
            ("⊢ unfold the step map", "alg.step_def"),
            ("⊢ cancel the unit factor", "alg.unit_law"),
            ("⊢ drop the zero summand", "core.zero_left"),
        ]),
        mk("alg.three_b", "right folds agree", 43, [
            ("⊢ fold consumes the list from the right", "alg.fold_right"),
            ("⊢ commute the final addition", "core.add_comm"),
            ("⊢ collapse the pair sum", "alg.sum_pair"),
        ]),
        mk("alg.axiom_x", "axiom-like fact x", 45, []),
        mk("alg.axiom_y", "axiom-like fact y", 47, []),
        mk("alg.axiom_z", "axiom-like fact z", 49, []),
        mk("alg.open_task", "an easy open goal", 51, [], status=STATUS_SORRY),
    ]
    env = TableFixture(
        initial={premise_key(path, "alg.open_task"): "a_goal0"},
        edges=[
            Edge("a_goal0", "unfold step", -0.3, "a_goal1"),
            Edge("a_goal0", "detour", -1.5, "a_dead"),
            Edge("a_goal1", "finish", -0.2, GOAL),
        ],
    )
    files = [_core_file(), _alg_file()]
    return RepositoryRecord(
        url=url, commit=commit, name="algebra-warmup",
        date_added="2025-01-10T00:00:00Z", toolchain_version="v4.8.0",
        theorems=theorems, premise_files=files, traced_file_paths=[f.path for f in files],
    ), env


def repo_number() -> tuple[RepositoryRecord, TableFixture]:
    url, commit = "fixture://repos/number", "bbb2222"
    path = _NUM_PATH
    mk = lambda name, statement, line, steps, status=STATUS_PROVEN: _theorem(
        url, commit, path, name, statement, line, steps, status
    )
    theorems = [
        mk("num.easy_a", "parity of two is zero", 21, [("⊢ parity two = zero", "num.parity_def")]),
        mk("num.easy_b", "successor gaps are one", 23, [("⊢ gap n (succ n) = one", "num.gap_bound")]),
        mk("num.mid_a", "squares grow monotonically", 25, [
            ("⊢ compare the squares", "num.square_mono"),
            ("⊢ count the steps taken", "num.step_count"),
            ("⊢ commute the remaining sum", "core.add_comm"),
        ]),
        mk("num.mid_b", "parity gaps cancel", 27, [
            ("⊢ expand the parity", "num.parity_def"),
            ("⊢ bound the gap", "num.gap_bound"),
            ("⊢ drop zero on the left", "core.zero_left"),
        ]),
        mk("num.quad_a", "four-step chain a", 29, [
            ("⊢ stage one of chain a", "num.square_mono"),
            ("⊢ stage two of chain a", "num.parity_def"),
            ("⊢ stage three of chain a", "core.mul_assoc"),
            ("⊢ stage four of chain a", "num.step_count"),
        ]),
        mk("num.quad_b", "four-step chain b", 31, [
            ("⊢ stage one of chain b", "num.gap_bound"),
            ("⊢ stage two of chain b", "num.step_count"),
            ("⊢ stage three of chain b", "core.pair_swap"),
            ("⊢ stage four of chain b", "num.parity_def"),
        ]),
        mk("num.quad_c", "four-step chain c", 33, [
            ("⊢ stage one of chain c", "num.square_mono"),
            ("⊢ stage two of chain c", "core.zero_left"),
            ("⊢ stage three of chain c", "num.gap_bound"),
            ("⊢ stage four of chain c", "num.step_count"),
        ]),
        mk("num.quad_d", "four-step chain d", 35, [
            ("⊢ stage one of chain d", "num.parity_def"),
            ("⊢ stage two of chain d", "core.add_comm"),
            ("⊢ stage three of chain d", "num.square_mono"),
            ("⊢ stage four of chain d", "num.gap_bound"),
        ]),
        mk("num.pent_a", "five-step tower a", 37, [
            ("⊢ tower a level one", "num.step_count"),
            ("⊢ tower a level two", "num.square_mono"),
            ("⊢ tower a level three", "num.parity_def"),
            ("⊢ tower a level four", "core.mul_assoc"),
            ("⊢ tower a level five", "num.gap_bound"),
        ]),
        mk("num.pent_b", "five-step tower b", 39, [
            ("⊢ tower b level one", "num.gap_bound"),
            ("⊢ tower b level two", "core.pair_swap"),
            ("⊢ tower b level three", "num.step_count"),
            ("⊢ tower b level four", "num.parity_def"),
            ("⊢ tower b level five", "num.square_mono"),
        ]),
        mk(GATED_THEOREM, "the chain stabilizes", 41, [], status=STATUS_SORRY),
        mk("num.never_goal", "an out-of-reach goal", 43, [], status=STATUS_SORRY),
    ]
    env = TableFixture(
        initial={
            premise_key(path, GATED_THEOREM): GATE_STATE,
            premise_key(path, "num.never_goal"): "b_dead0",
        },
        edges=[
            Edge(GATE_STATE, f"exact {GATE_PREMISE} h", -0.4, "b_mid",
                 requires_premise=GATE_PREMISE),
            Edge("b_mid", "qed", -0.1, GOAL),
            Edge("b_dead0", "spin", -0.5, "b_dead1"),
            Edge("b_dead1", "spin again", -0.5, "b_dead0"),
        ],
    )
    files = [_core_file(), _num_file()]
    return RepositoryRecord(
        url=url, commit=commit, name="number-midway",
        date_added="2025-02-15T00:00:00Z", toolchain_version="v4.8.0",
        theorems=theorems, premise_files=files, traced_file_paths=[f.path for f in files],
    ), env


def repo_topology() -> tuple[RepositoryRecord, TableFixture]:
    url, commit = "fixture://repos/topology", "ccc3333"
    path = _TOPO_PATH
    mk = lambda name, statement, line, steps, status=STATUS_PROVEN: _theorem(
        url, commit, path, name, statement, line, steps, status
    )
    refs = ["topo.open_union", "topo.closure_mono", "topo.interior_idem",
            "core.mul_assoc", "core.add_comm", "core.pair_swap",
            "core.zero_left", "topo.open_union"]
    deep = lambda tag, n: [
        (f"⊢ {tag} settles layer {i + 1}", refs[(i + len(tag)) % len(refs)])
        for i in range(n)
    ]
    theorems = [
        mk("topo.mid", "interiors are idempotent here", 21, [
            ("⊢ reduce to interiors", "topo.interior_idem"),
            ("⊢ swap the remaining pair", "core.pair_swap"),
        ]),
        mk("topo.deep_a", "a seven-layer descent a", 23, deep("descent a", 7)),
        mk("topo.deep_b", "a seven-layer descent b", 25, deep("descent b", 7)),
        mk("topo.deep_c", "a seven-layer descent c", 27, deep("descent c", 7)),
        mk("topo.deep_d", "a seven-layer descent d", 29, deep("descent d", 7)),
        mk("topo.deeper_a", "an eight-layer descent a", 31, deep("deeper a", 8)),
        mk("topo.deeper_b", "an eight-layer descent b", 33, deep("deeper b", 8)),
        mk("topo.deeper_c", "an eight-layer descent c", 35, deep("deeper c", 8)),
        mk("topo.open_task2", "a reachable open goal", 37, [], status=STATUS_SORRY),
    ]
    env = TableFixture(
        initial={premise_key(path, "topo.open_task2"): "c_goal0"},
        edges=[
            Edge("c_goal0", "open the union", -0.6, "c_goal1"),
            Edge("c_goal1", "shrink the cover", -0.3, "c_goal2"),
            Edge("c_goal2", "close", -0.2, GOAL),
            Edge("c_goal1", "stall", -2.0, "c_goal1b"),
        ],
    )
    files = [_core_file(), _topo_file()]
    return RepositoryRecord(
        url=url, commit=commit, name="topology-tail",
        date_added="2025-03-20T00:00:00Z", toolchain_version="v4.9.0",
        theorems=theorems, premise_files=files, traced_file_paths=[f.path for f in files],
    ), env


BUNDLED_CONFIG = """\
# proverloop demo run
fixtures = repo_algebra, repo_number, repo_topology
out = out
seed = 16
strategy = single
ewc_lambda = 0.1

embedding_dim = 48
feature_buckets = 2048
init_scale = 0.03
lr = 0.9
warmup_steps = 0
batch_size = 4
clip_norm = 1.0
# evaluate only at epoch end so the checkpoint is the fully trained iterate
eval_every = 999
val_frac = 0.02
test_frac = 0.02

retrieval_fraction = 0.25
retrieval_max = 100
candidates = 64
time_budget_ms = 5000
max_expansions = 500
prove_after = true
wall_clock = false
"""


def write_bundled(out_dir: str | Path) -> list[Path]:
    """Materialize the three-repo curriculum plus a ready run config."""
    out = Path(out_dir)
    dirs = [out / sub for sub in ("repo_algebra", "repo_number", "repo_topology")]
    for (record, environment), sub in zip((repo_algebra(), repo_number(), repo_topology()), dirs):
        write_fixture_dir(record, environment, sub)
    write_atomic(out / "run.cfg", BUNDLED_CONFIG)
    return dirs
