"""Acceptance gate for the whole package, one test per shipping criterion.

Each criterion is a single test function so ``pytest -v`` prints one visible
verdict line per criterion. Numeric comparisons use the tolerances the
criteria were frozen with; timing bounds are asserted inside the tests.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    brute_force_prove,
    example_loss_and_grad,
    pfile,
    premise,
    random_search_fixture,
    tactic,
    theorem,
    toy_model,
    toy_retrieval_task,
)
from proverloop.corpus import STATUS_SORRY_PROVEN, corpus_from_files
from proverloop.database import MERGE_ALL, DynamicDatabase, RepositoryRecord
from proverloop.errors import AlreadyProven
from proverloop.fixtures import write_bundled
from proverloop.metrics import (
    average_test_curve,
    cfr,
    composite_score,
    expanded_bwt,
    forgetting_measure,
)
from proverloop.pipeline import (
    build_curriculum,
    ingest_fixtures,
    load_repo_fixture,
    override_config,
    parse_config,
    run_pipeline,
)
from proverloop.retriever import (
    Checkpoint,
    EmbeddingModel,
    EwcTerm,
    TrainConfig,
    TrainingExample,
    batch_loss_and_grad,
    ewc_penalty,
    ewc_penalty_grad,
    precompute_embeddings,
    recall_at_k,
    train_one_epoch,
)
from proverloop.search import (
    SearchBudget,
    TableEnvironment,
    TableGenerator,
    TickClock,
    accessible_premises,
    best_first_search,
    build_dependency_graph,
    replay_proof,
    retrieve_premises,
)

# -- criterion 1: composite scores on frozen setup tables -------------------------

# Raw lifecycle metrics for four training setups compared within one family,
# and the composite each family's min-max normalization must produce.
_SINGLE_SETUPS = {
    "setup_a": dict(wf5=7.6000, fm=6.5344, cfr=0.8722, ebwt=0.5124, wp5=0.8914, ip=0.3585),
    "setup_b": dict(wf5=0.1800, fm=0.8455, cfr=0.8767, ebwt=1.2086, wp5=2.4736, ip=1.0231),
    "setup_c": dict(wf5=7.1700, fm=4.0435, cfr=0.8805, ebwt=1.0397, wp5=1.4729, ip=0.2562),
    "setup_d": dict(wf5=0.7300, fm=2.1120, cfr=0.8458, ebwt=0.7563, wp5=3.4200, ip=1.0638),
}
_SINGLE_EXPECTED = {
    "setup_a": 0.1649, "setup_b": 0.9357, "setup_c": 0.4736, "setup_d": 0.6107,
}

_MERGED_SETUPS = {
    "setup_a": dict(wf5=15.8300, fm=10.4955, cfr=0.7618, ebwt=-0.1983, wp5=0.0000, ip=-1.4969),
    "setup_b": dict(wf5=2.2300, fm=4.0622, cfr=0.9365, ebwt=0.7270, wp5=0.0886, ip=-0.6408),
    "setup_c": dict(wf5=13.3400, fm=11.4362, cfr=0.7545, ebwt=-1.3354, wp5=0.0000, ip=-1.7062),
    "setup_d": dict(wf5=5.8200, fm=3.8005, cfr=0.9025, ebwt=-0.3880, wp5=0.1114, ip=-0.8869),
}
_MERGED_EXPECTED = {
    "setup_a": 0.1626, "setup_b": 0.9726, "setup_c": 0.0366, "setup_d": 0.7786,
}


def test_criterion_1_composite_scores_on_frozen_setup_tables():
    start = time.perf_counter()
    for setups, expected in ((_SINGLE_SETUPS, _SINGLE_EXPECTED),
                             (_MERGED_SETUPS, _MERGED_EXPECTED)):
        scores = composite_score(setups)
        for name, want in expected.items():
            assert scores[name] == pytest.approx(want, abs=2e-3), name
    assert time.perf_counter() - start < 1.0


# -- criterion 2: lifecycle metrics against hand computations ---------------------

def test_criterion_2_lifecycle_metrics_match_hand_computations():
    rows = [[60.0], [50.0, 70.0], [55.0, 65.0, 80.0]]
    assert forgetting_measure(rows) == pytest.approx(5.0, abs=1e-9)
    assert expanded_bwt(rows) == pytest.approx(-7.5, abs=1e-9)
    curve = average_test_curve(rows)
    assert curve == pytest.approx([60.0, 60.0, 200.0 / 3.0], abs=1e-9)
    assert cfr(curve) == pytest.approx(0.9, abs=1e-9)


# -- criterion 3: best-first search against an exhaustive oracle ------------------

def test_criterion_3_search_agrees_with_an_exhaustive_oracle():
    start = time.perf_counter()
    provable = 0
    for seed in range(60):
        fixture, thm = random_search_fixture(seed)
        env, gen = TableEnvironment(fixture), TableGenerator(fixture)
        result = best_first_search(env, gen, thm, clock=TickClock())
        proofs = brute_force_prove(env, gen, thm, 4)
        if proofs:
            provable += 1
            assert result.status == "proved", seed
            assert result.total_log_prob == pytest.approx(
                max(lp for _, lp in proofs), abs=1e-12)
            assert replay_proof(env, thm, result.proof)
        else:
            assert result.status == "exhausted", seed
    # sanity: both outcomes are well represented across the 60 instances
    assert 10 <= provable <= 55
    assert time.perf_counter() - start < 30.0


# -- criterion 4: analytic gradients against central finite differences -----------

_WORDS = ("lift", "chain", "map", "carrier", "guard", "index", "stable", "vanish")


def _random_example(rng):
    def text():
        return " ".join(rng.choice(_WORDS, size=int(rng.integers(2, 5))))

    negatives = tuple(
        premise(f"neg{i}", statement=text()) for i in range(int(rng.integers(1, 4)))
    )
    return TrainingExample(
        state=text(), positive=premise("pos", statement=text()), negatives=negatives,
    )


def _numeric_grad(f, theta, step=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (f(up) - f(down)) / (2.0 * step)
    return grad


def _relative_error(analytic, numeric):
    scale = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / scale


def test_criterion_4_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(100):
        model = EmbeddingModel(weight=rng.normal(0.0, 0.5, size=(3, 8)))
        example = _random_example(rng)

        _, grad = example_loss_and_grad(model, example)
        numeric = _numeric_grad(
            lambda th: example_loss_and_grad(model.with_flat(th), example)[0],
            model.flat())
        assert _relative_error(grad.reshape(-1), numeric) <= 1e-4

        term = EwcTerm(
            lam=float(rng.uniform(0.1, 2.0)),
            fisher=rng.uniform(0.0, 1.0, size=24),
            anchor=rng.normal(0.0, 0.5, size=24),
        )
        theta = rng.normal(0.0, 0.5, size=24)
        assert _relative_error(
            ewc_penalty_grad(theta, term),
            _numeric_grad(lambda th: ewc_penalty(th, term), theta)) <= 1e-4

        batch = [example, _random_example(rng)]
        _, batch_grad = batch_loss_and_grad(model, batch, ewc=term)
        batch_numeric = _numeric_grad(
            lambda th: batch_loss_and_grad(model.with_flat(th), batch, ewc=term)[0],
            model.flat())
        assert _relative_error(batch_grad.reshape(-1), batch_numeric) <= 1e-4


# -- criterion 5: one epoch separates the toy retrieval task ----------------------

def test_criterion_5_one_epoch_separates_the_toy_task():
    task = toy_retrieval_task()
    model = toy_model()
    index = precompute_embeddings(model, task.corpus)
    assert recall_at_k(model, index, task.val_pairs, k=10) <= 0.3

    config = TrainConfig(lr=1.0, warmup_steps=0, batch_size=8,
                         clip_norm=1.0, eval_every=None, seed=3)
    first = train_one_epoch(Checkpoint(model=model), task, config)
    assert first.best_val_r10 is not None
    assert first.best_val_r10 >= 0.9

    second = train_one_epoch(Checkpoint(model=model), task, config)
    assert np.array_equal(first.model.flat(), second.model.flat())
    assert first.best_val_r10 == second.best_val_r10
    assert first.to_json() == second.to_json()


# -- criterion 6: database persistence and merge laws -----------------------------

def _record(url, commit, name, date, theorems, files):
    return RepositoryRecord(
        url=url, commit=commit, name=name, date_added=date,
        theorems=theorems, premise_files=files,
        traced_file_paths=[f.path for f in files],
    )


def test_criterion_6_database_persistence_and_merge_laws(tmp_path):
    shared = "lib/shared.lean"
    older = _record(
        "fixture://repos/left", "aaa1111", "left", "2024-05-01T00:00:00Z",
        theorems=[
            theorem("shared.goal", path=shared, tactics=(tactic("base.x"),),
                    url="fixture://repos/left", commit="aaa1111"),
            theorem("left.open", path=shared, status="sorry_unproven",
                    url="fixture://repos/left", commit="aaa1111"),
        ],
        files=[pfile(shared, names=("base.x", "base.y"))],
    )
    newer = _record(
        "fixture://repos/right", "bbb2222", "right", "2024-06-01T00:00:00Z",
        theorems=[
            theorem("shared.goal", path=shared, tactics=(tactic("base.x"), tactic()),
                    url="fixture://repos/right", commit="bbb2222"),
            theorem("right.extra", path=shared, tactics=(tactic(),),
                    url="fixture://repos/right", commit="bbb2222"),
        ],
        files=[pfile(shared, names=("base.x",))],
    )
    db = DynamicDatabase([older, newer])

    # persisting and loading is the identity on the serialized form
    path = tmp_path / "database.json"
    db.persist(path)
    assert DynamicDatabase.load(path).dumps() == db.dumps()

    # merging dedups theorems to the most recently added copy and keeps the
    # first encountered version of a premise file path
    merged = db.generate_dataset(
        [older.repo_id, newer.repo_id], strategy=MERGE_ALL, seed=0)
    copies = [t for t in merged.theorems if t.full_name == "shared.goal"]
    assert len(copies) == 1
    assert len(copies[0].traced_tactics) == 2
    assert copies[0].url == "fixture://repos/right"
    assert merged.metadata.theorem_count == 3
    [kept_file] = [f for f in merged.corpus.files if f.path == shared]
    kept = [p.full_name for p in kept_file.premises]
    assert kept == ["base.x", "base.y"]

    # sorry transitions are monotone: proving is permanent and unrepeatable
    open_key = next(t for t in older.theorems if t.full_name == "left.open").key
    updated = db.record_sorry_proof(open_key, ["apply base.x"])
    assert updated.status == STATUS_SORRY_PROVEN
    assert updated.proof == ("apply base.x",)
    with pytest.raises(AlreadyProven):
        db.record_sorry_proof(open_key, ["rfl"])

    db.persist(path)
    again = DynamicDatabase.load(path)
    assert again.dumps() == db.dumps()
    statuses = [t.status for t in again.get_repository(older.repo_id).theorems
                if t.full_name == "left.open"]
    assert statuses == [STATUS_SORRY_PROVEN]


# -- criterion 7: deterministic curriculum with oracle quantiles ------------------

def test_criterion_7_deterministic_curriculum_with_oracle_quantiles(tmp_path):
    repo_dirs = write_bundled(tmp_path)

    def build():
        db = DynamicDatabase()
        for d in repo_dirs:
            record, _ = load_repo_fixture(d)
            db.add_repository(record)
        return db, build_curriculum(db)

    db, (thresholds, ordered) = build()
    _, (thresholds_again, ordered_again) = build()
    assert thresholds == thresholds_again
    assert ordered == ordered_again

    # cut points match an independently coded interpolated percentile
    finite = sorted(
        d.value for rec in db.repositories
        for d in rec.difficulty_cache.values() if d.kind == "finite"
    )

    def oracle(q):
        h = (len(finite) - 1) * q
        lo, hi = math.floor(h), math.ceil(h)
        return finite[lo] + (h - lo) * (finite[hi] - finite[lo])

    assert thresholds.p33 == pytest.approx(oracle(0.33), rel=1e-12)
    assert thresholds.p67 == pytest.approx(oracle(0.67), rel=1e-12)

    # easiest-first order over exactly the ingested repositories
    easy = [counts.easy for _, counts in ordered]
    assert easy == sorted(easy, reverse=True)
    assert sorted(rid for rid, _ in ordered) == sorted(db.repo_ids)
    for rid, counts in ordered:
        assert counts.total == len(db.get_repository(rid).theorems)


# -- criterion 8: end-to-end run proves a gated sorry, reproducibly ---------------

def test_criterion_8_end_to_end_run_proves_a_gated_sorry_reproducibly(tmp_path):
    start = time.perf_counter()
    write_bundled(tmp_path / "bundle")
    config = parse_config(tmp_path / "bundle" / "run.cfg")
    report = run_pipeline(config)

    # complete lower-triangular matrix over the three-task curriculum
    assert [len(row) for row in report.matrix_rows] == [1, 2, 3]
    assert len(report.validation) == 3
    raw = report.metric_report.to_json()
    assert set(raw) == {"wf5", "fm", "cfr", "ebwt", "wp5", "ip"}
    assert all(math.isfinite(v) for v in raw.values())

    # the gated goal was proved mid-run and recorded in the database
    gated = [a for a in report.attempts
             if a.theorem.endswith("num.gated_goal") and a.phase == "during"]
    assert gated and gated[0].result.status == "proved"
    db = DynamicDatabase.load(config.out_dir / "database.json")
    statuses = [t.status for rec in db.repositories for t in rec.theorems
                if t.full_name == "num.gated_goal"]
    assert statuses == [STATUS_SORRY_PROVEN]

    # the same search guided by the untrained initial weights fails it, so
    # the proof genuinely needed the training that preceded it
    fresh, environments = ingest_fixtures(config)
    record = next(rec for rec in fresh.repositories
                  if any(t.full_name == "num.gated_goal" for t in rec.theorems))
    thm = next(t for t in record.theorems if t.full_name == "num.gated_goal")
    untrained = EmbeddingModel.random_init(
        dim=config.embedding_dim, n_features=config.feature_buckets,
        seed=config.seed, scale=config.init_scale)
    corpus = corpus_from_files(record.premise_files)
    graph = build_dependency_graph(corpus)
    index = precompute_embeddings(untrained, corpus)
    accessible = accessible_premises(graph, corpus, thm)
    result = best_first_search(
        TableEnvironment(environments[record.repo_id]),
        TableGenerator(environments[record.repo_id]),
        thm,
        retrieval_fn=lambda state: retrieve_premises(
            untrained, index, state, accessible,
            fraction=config.retrieval_fraction, max_n=config.retrieval_max),
        budget=SearchBudget(time_ms=config.time_budget_ms,
                            max_expansions=config.max_expansions,
                            candidates=config.candidates),
        clock=TickClock(),
    )
    assert result.status != "proved"

    # a second run from the same seed reproduces every artifact byte for byte
    again = override_config(config, out_dir=tmp_path / "again")
    run_pipeline(again)
    for name in ("matrix.csv", "validation.csv", "metrics.json", "proofs.json",
                 "curriculum.json", "database.json"):
        assert (config.out_dir / name).read_bytes() == \
            (again.out_dir / name).read_bytes(), name
    checkpoints = {p.name: p.read_bytes() for p in (config.out_dir / "checkpoints").iterdir()}
    assert checkpoints
    assert checkpoints == {p.name: p.read_bytes()
                           for p in (again.out_dir / "checkpoints").iterdir()}

    assert time.perf_counter() - start < 300.0
