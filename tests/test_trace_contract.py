"""The benchmark tracer (perfbench/tracing.py) patches the package by name.

A rename or a changed signature in src/ would silently break
`perfbench/run.py --trace 1`; this runs the tracer over the bundled demo
and checks that it still finds, measures and restores what it wraps. It
also traces the benchmark's `merge-churn` workload (perfbench/workloads.py),
whose repositories share premise files, as the demo's do not.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from helpers import RecordingGenerator, dataset_from_metadata
from proverloop import pipeline, retriever
from proverloop.fixtures import write_bundled
from proverloop.pipeline import ingest_fixtures, override_config, parse_config
from proverloop.retriever import EvalSet
from proverloop.search import TableGenerator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module, read in place."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def traced_run(tracing, config):
    """The tracer after one run_pipeline(config) with it installed, and the
    number of indices the run made, counted at EmbeddingIndex itself."""
    tracer = tracing.Tracer()
    indices = []
    with pytest.MonkeyPatch.context() as mp:
        init = retriever.EmbeddingIndex.__init__
        mp.setattr(retriever.EmbeddingIndex, "__init__",
                   lambda self, *args, **kwargs: indices.append(init(self, *args, **kwargs)))
        tracer.install()
        try:
            pipeline.run_pipeline(config)
        finally:
            tracer.uninstall()
    return tracer, len(indices)


def assert_indices_are_traced_builds_without_hashing(tracing, tracer, indices):
    """Every index the run made is a traced precompute_embeddings call, and
    each is checked against its own model, so no version hash is computed."""
    metrics = tracing.layer_metrics(tracer.spans, tracer.featurize_cache.cache_info())
    assert metrics["retriever.index_builds"] == indices > 0
    assert metrics["retriever.version_hash_calls"] == 0


def assert_featurize_keys_are_whole_files(tracer, config):
    """The tracer's featurize cache holds exactly one key per premise file the
    run embeds, every file of every task's dataset corpus and of every
    repository whose prove stage retrieved: no per-text key, no part of a
    file, and no file featurized off the cached name."""
    db, _ = ingest_fixtures(config)
    out = Path(config.out_dir)
    files = [f for meta in sorted(out.glob("datasets/*/metadata.json"))
             for f in dataset_from_metadata(db, json.loads(meta.read_text("utf-8"))).corpus.files]
    files += [f for repo_id in retrieving_repositories(tracer, out)
              for f in db.get_repository(repo_id).premise_files]
    keys = {(f.texts, config.feature_buckets) for f in files if f.premises}
    cache = tracer.featurize_cache
    assert cache.cache_info().currsize == len(keys)
    misses = cache.cache_info().misses
    for texts, n_features in keys:
        cache(texts, n_features)
    assert cache.cache_info().misses == misses


def retrieving_repositories(tracer, out):
    """The repositories of the goals inside whose search a retrieval span
    opened; goal spans and proofs.json's attempts are in the same order."""
    spans = tracer.spans
    goals = [i for i, span in enumerate(spans) if span[0] == "search.goal"]
    attempts = json.loads((out / "proofs.json").read_text("utf-8"))["attempts"]
    assert len(goals) == len(attempts)

    def goal_of(i):
        while spans[i][0] != "search.goal":
            i = spans[i][3]
        return i

    return {attempts[goals.index(goal_of(i))]["repo"]
            for i, span in enumerate(spans) if span[0] == "search.retrieve"}


def attributes():
    """Every module attribute of the retriever and the class members the tracer wraps."""
    return {
        **{("module", k): v for k, v in vars(retriever).items()},
        **{("Checkpoint", k): v for k, v in vars(retriever.Checkpoint).items()},
        **{("EmbeddingModel", k): v for k, v in vars(retriever.EmbeddingModel).items()},
    }


@pytest.fixture(scope="module")
def demo_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace_demo")
    write_bundled(root)
    return override_config(parse_config(root / "run.cfg"), out_dir=str(root / "out"))


@pytest.fixture(scope="module")
def traced_demo(demo_config):
    tracing = load_perfbench("tracing")
    before = attributes()
    tracer, indices = traced_run(tracing, demo_config)
    metrics = tracing.layer_metrics(tracer.spans, tracer.featurize_cache.cache_info())
    return tracing, before, metrics, tracer, indices


def test_uninstall_restores_the_retriever(traced_demo):
    _, before, _, _, _ = traced_demo
    after = attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_every_per_layer_metric_is_reported(traced_demo):
    tracing, _, metrics, _, _ = traced_demo
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_frac"}


def test_wrapped_layers_were_called(traced_demo):
    _, _, metrics, _, _ = traced_demo
    for name in ("retriever.examples", "retriever.train_steps", "retriever.index_builds",
                 "retriever.recall_queries", "search.retrieval_calls"):
        assert metrics[name] > 0, name


def test_the_traced_query_count_is_every_scored_query(traced_demo, demo_config):
    """The demo evaluates once per epoch (eval_every = 999), on the task's
    validation set, then scores every task so far on its test set: the
    queries the tracer counts through len() of each recall_at_k's set."""
    _, _, metrics, _, _ = traced_demo
    db, _ = ingest_fixtures(demo_config)
    out = Path(demo_config.out_dir)
    datasets = [dataset_from_metadata(db, json.loads(meta.read_text("utf-8")))
                for meta in sorted(out.glob("datasets/*/metadata.json"))]
    val = [len(EvalSet.of_split(d.split.val, d.corpus)) for d in datasets]
    test = [len(EvalSet.of_split(d.split.test, d.corpus)) for d in datasets]
    assert len(datasets) == 3 and min(val + test) > 0
    assert metrics["retriever.recall_queries"] == sum(val) + sum(
        sum(test[:k]) for k in range(1, len(test) + 1))


def test_each_expansion_at_a_gated_state_retrieves_through_the_wrapped_name(
        traced_demo, tmp_path, monkeypatch):
    # retrieval that bypasses search.retrieve_premises would read 0 calls here
    # and quietly zero search.retrieve_ms_p50. The generator reads premises
    # only at a state with an edge gated on one, so only there is one retrieval.
    _, _, metrics, _, _ = traced_demo
    generators = []

    def recording(fixture):
        generators.append((fixture, RecordingGenerator(TableGenerator(fixture))))
        return generators[-1][1]

    monkeypatch.setattr(pipeline, "TableGenerator", recording)
    write_bundled(tmp_path)
    pipeline.run_pipeline(override_config(parse_config(tmp_path / "run.cfg"),
                                          out_dir=str(tmp_path / "out")))
    expanded = [(fixture, state) for fixture, g in generators for state in g.states]
    at_gated = sum(any(e.requires_premise is not None for e in fixture.by_source.get(state, ()))
                   for fixture, state in expanded)
    assert len(expanded) == metrics["search.expansions"]
    assert metrics["search.retrieval_calls"] == at_gated > 0


def test_featurizing_goes_through_the_cached_name(traced_demo):
    # a featurizer that bypasses retriever.ngram_features would read 0 here
    _, _, metrics, _, _ = traced_demo
    for name in ("retriever.featurize_misses", "retriever.featurize_cache_entries"):
        assert metrics[name] > 0, name


def test_every_demo_index_is_a_traced_build_without_hashing(traced_demo):
    tracing, _, _, tracer, indices = traced_demo
    assert_indices_are_traced_builds_without_hashing(tracing, tracer, indices)


def test_tracer_cache_has_the_featurizer_cache_size(traced_demo):
    _, _, _, tracer, _ = traced_demo
    assert tracer.featurize_cache.cache_info().maxsize == \
        retriever.ngram_features.cache_info().maxsize


def test_every_featurize_cache_key_is_one_demo_premise_file(traced_demo, demo_config):
    _, _, _, tracer, _ = traced_demo
    assert retrieving_repositories(tracer, demo_config.out_dir)
    assert_featurize_keys_are_whole_files(tracer, demo_config)


def test_every_featurize_cache_key_is_one_embedded_premise_file(tmp_path):
    # merge-churn re-adds each repository's files in the next, so a model
    # meets files whose texts it has partly embedded already; its prove
    # stages never retrieve, so the re-added copies that no dataset corpus
    # keeps are never featurized
    workloads = load_perfbench("workloads")
    config = override_config(
        parse_config(workloads.write(workloads.generate("merge-churn", 401), tmp_path)),
        out_dir=str(tmp_path / "out"))
    tracing = load_perfbench("tracing")
    tracer, indices = traced_run(tracing, config)
    assert_featurize_keys_are_whole_files(tracer, config)
    assert_indices_are_traced_builds_without_hashing(tracing, tracer, indices)


def test_every_training_batch_is_one_step_and_fisher_is_timed(traced_demo, tmp_path):
    # the Fisher pass runs inside the epoch; its batches must not read as steps
    _, _, metrics, tracer, _ = traced_demo
    write_bundled(tmp_path)
    batch_size = parse_config(tmp_path / "run.cfg").batch_size
    batches = sum(math.ceil(attrs["examples"] / batch_size)
                  for name, _, _, _, attrs in tracer.spans if name == "retriever.mine")
    assert batches > 0
    assert metrics["retriever.train_steps"] == batches
    assert metrics["retriever.fisher_s"] > 0


def test_the_importance_pass_runs_inside_the_train_stage_of_every_task_but_the_last(
        traced_demo, demo_config):
    # no task follows the last, so it computes no importance; the passes
    # that run stay inside a train: stage, where pipeline.fisher_s splits
    # them out
    _, _, _, tracer, _ = traced_demo
    spans = tracer.spans

    def stage_of(i):
        while i >= 0 and not spans[i][0].startswith("stage."):
            i = spans[i][3]
        return spans[i][0] if i >= 0 else None

    passes = [i for i, span in enumerate(spans) if span[0] == "retriever.fisher"]
    assert len(passes) == len(demo_config.fixture_dirs) - 1
    assert [stage_of(i) for i in passes] == ["stage.train"] * len(passes)
