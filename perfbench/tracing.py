"""Spans around the calls into each proverloop layer, recorded from outside.

`Tracer.install()` replaces module attributes (functions, methods and one
property) with timing wrappers, in the defining module and in every
proverloop module that imported the same object by name, and `uninstall()`
puts the originals back. The program's own files are not touched.

A span is (name, start, end, parent, attrs); spans live in memory until
`write_spans` dumps them. `layer_metrics` turns one run's spans into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Spans that partition run_pipeline into stages. Fisher and checkpoint
# writes happen inside other stages and are split out of them.
STAGE_OF_SPAN = {
    "stage.ingest": "ingest",
    "stage.curriculum": "curriculum",
    "stage.dataset": "dataset",
    "stage.train": "train",
    "stage.evaluate": "evaluate",
    "stage.prove": "prove",
    "stage.prove-after": "prove",
    "stage.metrics": "report",
    "stage.report": "report",
    "retriever.fisher": "fisher",
    "retriever.checkpoint_save": "checkpoint",
}
STAGES = ("ingest", "curriculum", "dataset", "train", "fisher", "checkpoint",
          "evaluate", "prove", "report")


def _tree_bytes(path) -> int:
    total = 0
    for dirpath, _, names in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
    return total


def _file_bytes(path) -> int:
    return os.path.getsize(path)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.featurize_cache = None

    # -- recording ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        """fn with a span around each call; attrs(args, kwargs, result) runs
        after the span closes and returns the span's attributes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result
        return wrapper

    def wrap_stage(self, stage_fn):
        @contextmanager
        def traced_stage(name: str):
            rec = self._open("stage." + name.split(":", 1)[0])
            try:
                with stage_fn(name):
                    yield
            finally:
                self._close(rec)
        return traced_stage

    # -- patching ---------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("proverloop"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_member(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        from proverloop import corpus, database, metrics, pipeline, retriever, search

        def arg(i, key):
            return lambda args, kwargs: kwargs[key] if key in kwargs else args[i]

        functions = [
            (corpus.parse_corpus, "corpus.parse", None),
            (corpus.load_theorems, "corpus.load_theorems", None),
            (corpus.corpus_from_files, "corpus.build", None),
            (pipeline.build_curriculum, "curriculum.build", None),
            (database.write_dataset, "database.write_dataset",
             lambda a, k, r: {"bytes": _tree_bytes(arg(1, "out_dir")(a, k))}),
            (retriever.mine_training_examples, "retriever.mine",
             lambda a, k, r: {"examples": len(r)}),
            (retriever.batch_loss_and_grad, "retriever.loss_grad",
             lambda a, k, r: {"batch": len(arg(1, "batch")(a, k))}),
            (retriever.train_one_epoch, "retriever.train_epoch", None),
            (retriever.compute_fisher, "retriever.fisher", None),
            (retriever.precompute_embeddings, "retriever.index_build",
             lambda a, k, r: {"premises": len(r.keys)}),
            (retriever.recall_at_k, "retriever.recall",
             lambda a, k, r: {"queries": len(arg(2, "eval_pairs")(a, k))}),
            (search.best_first_search, "search.goal", _goal_attrs),
            (search.retrieve_premises, "search.retrieve", None),
            (search.accessible_premises, "search.accessible", None),
            (search.build_dependency_graph, "search.graph", None),
            (pipeline.run_pipeline, "pipeline.run", None),
        ]
        for fn in (metrics.compute_report, metrics.normalize_metrics, metrics.composite_score,
                   metrics.average_test_curve, metrics.matrix_to_csv,
                   metrics.validation_to_csv):
            functions.append((fn, "metrics.report", None))
        for fn, name, attrs in functions:
            self._replace_everywhere(fn, self.wrap(name, fn, attrs))

        db_cls = database.DynamicDatabase
        self._replace_member(db_cls, "add_repository",
                             self.wrap("database.add_repository", db_cls.add_repository))
        self._replace_member(db_cls, "generate_dataset",
                             self.wrap("database.generate_dataset", db_cls.generate_dataset))
        self._replace_member(db_cls, "persist", self.wrap(
            "database.persist", db_cls.persist,
            lambda a, k, r: {"bytes": _file_bytes(arg(1, "path")(a, k))}))
        ckpt = retriever.Checkpoint
        self._replace_member(ckpt, "save", self.wrap(
            "retriever.checkpoint_save", ckpt.save,
            lambda a, k, r: {"bytes": _file_bytes(arg(1, "path")(a, k))}))
        model = retriever.EmbeddingModel
        self._replace_member(model, "version_hash", property(
            self.wrap("retriever.version_hash", model.__dict__["version_hash"].fget)))

        # A fresh cache of the same size around a timed body: only misses
        # open a span, and cache_info() reads this run's hits and misses.
        cached = retriever.ngram_features
        self.featurize_cache = functools.lru_cache(maxsize=cached.cache_info().maxsize)(
            self.wrap("retriever.featurize", cached.__wrapped__))
        self._replace_everywhere(cached, self.featurize_cache)

        self._replace_everywhere(pipeline._stage, self.wrap_stage(pipeline._stage))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def _goal_attrs(args, kwargs, result) -> dict:
    budget = kwargs.get("budget", args[4] if len(args) > 4 else None)
    cap = getattr(budget, "max_expansions", None)
    return {
        "status": result.status,
        "expansions": result.expansions,
        "env_failures": result.env_failures,
        "cap": cap,
    }


# -- output -------------------------------------------------------------------

def write_spans(spans: list[list], run_id: str, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            row = {"run": run_id, "id": i, "name": name, "start": start, "end": end,
                   "parent": parent if parent >= 0 else None}
            if attrs:
                row.update(attrs)
            out.write(json.dumps(row) + "\n")


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], cache_info) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    `*_ms` and `*_s` values are totals over the run unless the name says
    per call, per example, per query or a percentile.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name: str) -> float:
        return sum(dur[i] for i in by_name.get(name, ()))

    def ancestor(i: int, names) -> int:
        p = spans[i][3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        return p

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i][4][key] for i in by_name.get(name, ()))

    m: dict[str, float] = {}

    # stage self time: a stage's span minus the nearest stage spans inside it
    stage_self = dict.fromkeys(STAGES, 0.0)
    for i, s in enumerate(spans):
        stage = STAGE_OF_SPAN.get(s[0])
        if stage is None:
            continue
        stage_self[stage] += dur[i]
        outer = ancestor(i, STAGE_OF_SPAN)
        if outer >= 0:
            stage_self[STAGE_OF_SPAN[spans[outer][0]]] -= dur[i]
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = stage_self[stage]

    parse_ids = by_name.get("corpus.parse", []) + by_name.get("corpus.load_theorems", [])
    nested_build = sum(
        dur[i] for i in by_name.get("corpus.build", ())
        if ancestor(i, ("corpus.parse",)) >= 0
    )
    m["corpus.parse_ms"] = 1e3 * (sum(dur[i] for i in parse_ids) - nested_build)
    m["corpus.build_ms"] = 1e3 * total("corpus.build")
    m["corpus.build_calls"] = len(by_name.get("corpus.build", ()))
    m["curriculum.build_ms"] = 1e3 * total("curriculum.build")

    m["database.add_repository_ms"] = 1e3 * total("database.add_repository")
    m["database.generate_dataset_ms"] = 1e3 * total("database.generate_dataset")
    m["database.write_dataset_ms"] = 1e3 * total("database.write_dataset")
    m["database.write_dataset_bytes"] = attr_sum("database.write_dataset", "bytes")
    m["database.persist_ms"] = 1e3 * total("database.persist")
    m["database.persist_bytes"] = attr_sum("database.persist", "bytes")

    misses = len(by_name.get("retriever.featurize", ()))
    m["retriever.featurize_us"] = 1e6 * total("retriever.featurize") / max(1, misses)
    m["retriever.featurize_misses"] = misses
    lookups = cache_info.hits + cache_info.misses
    m["retriever.featurize_hit_ratio"] = cache_info.hits / lookups if lookups else 0.0
    m["retriever.featurize_cache_entries"] = cache_info.currsize

    examples = attr_sum("retriever.mine", "examples")
    m["retriever.mine_us_per_example"] = 1e6 * total("retriever.mine") / max(1, examples)
    m["retriever.examples"] = examples
    in_epoch = ("retriever.train_epoch", "retriever.fisher")
    steps = [i for i in by_name.get("retriever.loss_grad", ())
             if (a := ancestor(i, in_epoch)) >= 0 and spans[a][0] == "retriever.train_epoch"]
    step_ms = [1e3 * dur[i] for i in steps]
    step_examples = sum(spans[i][4]["batch"] for i in steps)
    m["retriever.loss_grad_us_per_example"] = 1e3 * sum(step_ms) / max(1, step_examples)
    m["retriever.loss_grad_ms_p50"] = _percentile(step_ms, 50)
    m["retriever.loss_grad_ms_p99"] = _percentile(step_ms, 99)
    m["retriever.train_steps"] = len(steps)
    m["retriever.fisher_s"] = total("retriever.fisher")

    indexed = attr_sum("retriever.index_build", "premises")
    m["retriever.index_build_ms_per_1k"] = 1e6 * total("retriever.index_build") / max(1, indexed)
    m["retriever.index_builds"] = len(by_name.get("retriever.index_build", ()))
    queries = attr_sum("retriever.recall", "queries")
    m["retriever.recall_ms_per_query"] = 1e3 * total("retriever.recall") / max(1, queries)
    m["retriever.recall_queries"] = queries
    m["retriever.version_hash_ms"] = 1e3 * total("retriever.version_hash")
    m["retriever.version_hash_calls"] = len(by_name.get("retriever.version_hash", ()))
    m["retriever.checkpoint_save_ms"] = 1e3 * total("retriever.checkpoint_save")
    m["retriever.checkpoint_bytes"] = attr_sum("retriever.checkpoint_save", "bytes")

    goals = [spans[i][4] for i in by_name.get("search.goal", ())]
    timeouts = [g for g in goals if g["status"] == "timeout"]
    expansions = sum(g["expansions"] for g in goals)
    proved = sum(g["status"] == "proved" for g in goals)
    search_s = total("search.goal")
    retrieve_ms = [1e3 * dur[i] for i in by_name.get("search.retrieve", ())]
    m["search.goals"] = len(goals)
    m["search.proved"] = proved
    m["search.exhausted"] = sum(g["status"] == "exhausted" for g in goals)
    m["search.stop_cap"] = sum(g["expansions"] == g["cap"] for g in timeouts)
    m["search.stop_time"] = sum(g["expansions"] != g["cap"] for g in timeouts)
    m["search.env_failures"] = sum(g["env_failures"] for g in goals)
    m["search.expansions"] = expansions
    m["search.expansions_per_s"] = expansions / search_s if search_s else 0.0
    m["search.retrieve_ms_p50"] = _percentile(retrieve_ms, 50)
    m["search.retrieve_ms_p99"] = _percentile(retrieve_ms, 99)
    m["search.retrieval_calls"] = len(retrieve_ms)
    m["search.retrieve_share"] = 1e-3 * sum(retrieve_ms) / search_s if search_s else 0.0
    m["search.accessible_ms"] = 1e3 * total("search.accessible")
    m["search.graph_ms"] = 1e3 * total("search.graph")
    m["search.proved_per_expansion"] = proved / expansions if expansions else 0.0
    m["metrics.report_ms"] = 1e3 * sum(  # metrics functions call each other
        dur[i] for i in by_name.get("metrics.report", ())
        if ancestor(i, ("metrics.report",)) < 0
    )
    return m


# Per-layer metrics that count work; they must repeat exactly under one seed.
COUNTS = (
    "corpus.build_calls", "database.write_dataset_bytes", "database.persist_bytes",
    "retriever.featurize_misses", "retriever.featurize_cache_entries",
    "retriever.examples", "retriever.train_steps", "retriever.index_builds",
    "retriever.recall_queries", "retriever.version_hash_calls",
    "retriever.checkpoint_bytes", "search.goals", "search.proved", "search.exhausted",
    "search.stop_cap", "search.stop_time", "search.env_failures", "search.expansions",
    "search.retrieval_calls",
)


# unit and direction of every per-layer metric, in report order
PER_LAYER = {
    **{f"pipeline.{stage}_s": ("s", "lower") for stage in STAGES},
    "corpus.parse_ms": ("ms", "lower"),
    "corpus.build_ms": ("ms", "lower"),
    "corpus.build_calls": ("count", "lower"),
    "curriculum.build_ms": ("ms", "lower"),
    "database.add_repository_ms": ("ms", "lower"),
    "database.generate_dataset_ms": ("ms", "lower"),
    "database.write_dataset_ms": ("ms", "lower"),
    "database.write_dataset_bytes": ("bytes", "lower"),
    "database.persist_ms": ("ms", "lower"),
    "database.persist_bytes": ("bytes", "lower"),
    "retriever.featurize_us": ("us", "lower"),
    "retriever.featurize_misses": ("count", "lower"),
    "retriever.featurize_hit_ratio": ("ratio", "higher"),
    "retriever.featurize_cache_entries": ("count", "lower"),
    "retriever.mine_us_per_example": ("us", "lower"),
    "retriever.examples": ("count", "higher"),
    "retriever.loss_grad_us_per_example": ("us", "lower"),
    "retriever.loss_grad_ms_p50": ("ms", "lower"),
    "retriever.loss_grad_ms_p99": ("ms", "lower"),
    "retriever.train_steps": ("count", "higher"),
    "retriever.fisher_s": ("s", "lower"),
    "retriever.index_build_ms_per_1k": ("ms", "lower"),
    "retriever.index_builds": ("count", "lower"),
    "retriever.recall_ms_per_query": ("ms", "lower"),
    "retriever.recall_queries": ("count", "higher"),
    "retriever.version_hash_ms": ("ms", "lower"),
    "retriever.version_hash_calls": ("count", "lower"),
    "retriever.checkpoint_save_ms": ("ms", "lower"),
    "retriever.checkpoint_bytes": ("bytes", "lower"),
    "search.goals": ("count", "higher"),
    "search.proved": ("count", "higher"),
    "search.exhausted": ("count", "lower"),
    "search.stop_cap": ("count", "lower"),
    "search.stop_time": ("count", "lower"),
    "search.env_failures": ("count", "lower"),
    "search.expansions": ("count", "lower"),
    "search.expansions_per_s": ("1/s", "higher"),
    "search.retrieve_ms_p50": ("ms", "lower"),
    "search.retrieve_ms_p99": ("ms", "lower"),
    "search.retrieval_calls": ("count", "lower"),
    "search.retrieve_share": ("ratio", "lower"),
    "search.accessible_ms": ("ms", "lower"),
    "search.graph_ms": ("ms", "lower"),
    "search.proved_per_expansion": ("ratio", "higher"),
    "metrics.report_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
