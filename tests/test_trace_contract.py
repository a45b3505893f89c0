"""The benchmark tracer (perfbench/tracing.py) patches the package by name.

A rename or a changed signature in src/ would silently break
`perfbench/run.py --trace 1`; this runs the tracer over the bundled demo
and checks that it still finds, measures and restores what it wraps.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from proverloop import pipeline, retriever
from proverloop.fixtures import write_bundled
from proverloop.pipeline import ingest_fixtures, override_config, parse_config

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    """Every module attribute of the retriever and the class members the tracer wraps."""
    return {
        **{("module", k): v for k, v in vars(retriever).items()},
        **{("Checkpoint", k): v for k, v in vars(retriever.Checkpoint).items()},
        **{("EmbeddingModel", k): v for k, v in vars(retriever.EmbeddingModel).items()},
    }


@pytest.fixture(scope="module")
def traced_demo(tmp_path_factory):
    tracing = load_tracing()
    root = tmp_path_factory.mktemp("trace_demo")
    write_bundled(root)
    config = override_config(parse_config(root / "run.cfg"), out_dir=str(root / "out"))
    before = attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.run_pipeline(config)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, tracer.featurize_cache.cache_info())
    return tracing, before, metrics, tracer


def test_uninstall_restores_the_retriever(traced_demo):
    _, before, _, _ = traced_demo
    after = attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_every_per_layer_metric_is_reported(traced_demo):
    tracing, _, metrics, _ = traced_demo
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_frac"}


def test_wrapped_layers_were_called(traced_demo):
    _, _, metrics, _ = traced_demo
    for name in ("retriever.examples", "retriever.train_steps", "retriever.index_builds",
                 "retriever.recall_queries", "search.retrieval_calls"):
        assert metrics[name] > 0, name


def test_every_expansion_retrieves_through_the_wrapped_name(traced_demo):
    # retrieval that bypasses search.retrieve_premises would read 0 calls here
    # and quietly zero search.retrieve_ms_p50
    _, _, metrics, _ = traced_demo
    assert metrics["search.retrieval_calls"] == metrics["search.expansions"]


def test_featurizing_goes_through_the_cached_name(traced_demo):
    # a featurizer that bypasses retriever.ngram_features would read 0 here
    _, _, metrics, _ = traced_demo
    for name in ("retriever.featurize_misses", "retriever.featurize_cache_entries"):
        assert metrics[name] > 0, name


def test_tracer_cache_has_the_featurizer_cache_size(traced_demo):
    _, _, _, tracer = traced_demo
    assert tracer.featurize_cache.cache_info().maxsize == \
        retriever.ngram_features.cache_info().maxsize


def test_every_featurize_cache_key_is_one_demo_premise_file(traced_demo, tmp_path):
    # per-text keys, or premise files featurized off the cached name, fail here
    _, _, _, tracer = traced_demo
    write_bundled(tmp_path)
    config = parse_config(tmp_path / "run.cfg")
    db, _ = ingest_fixtures(config)
    keys = {(tuple(p.text for p in f.premises), config.feature_buckets)
            for record in db.repositories for f in record.premise_files if f.premises}
    cache = tracer.featurize_cache
    assert cache.cache_info().currsize == len(keys)
    misses = cache.cache_info().misses
    for texts, n_features in keys:
        cache(texts, n_features)
    assert cache.cache_info().misses == misses


def test_every_training_batch_is_one_step_and_fisher_is_timed(traced_demo, tmp_path):
    # the Fisher pass runs inside the epoch; its batches must not read as steps
    _, _, metrics, tracer = traced_demo
    write_bundled(tmp_path)
    batch_size = parse_config(tmp_path / "run.cfg").batch_size
    batches = sum(math.ceil(attrs["examples"] / batch_size)
                  for name, _, _, _, attrs in tracer.spans if name == "retriever.mine")
    assert batches > 0
    assert metrics["retriever.train_steps"] == batches
    assert metrics["retriever.fisher_s"] > 0
