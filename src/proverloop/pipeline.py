"""End-to-end lifecycle: ingest repositories, order them into a curriculum,
train the retriever through it, attempt the open goals after each round, and
emit the scoreboard.

Every stage is deterministic for a fixed config. Search timing defaults to a
counting clock (one millisecond per reading) so reports are byte-stable
across reruns; flip wall_clock for real timing.
"""

from __future__ import annotations

import dataclasses
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable

from .corpus import (
    Corpus,
    Premise,
    PremiseFile,
    Theorem,
    corpus_from_files,
    dump_theorems,
    load_theorems,
    parse_corpus,
    serialize_corpus,
)
from .curriculum import (
    CategoryCounts,
    Thresholds,
    compute_thresholds,
    count_categories,
    order_repositories,
)
from .database import (
    SINGLE_REPO,
    STRATEGIES,
    DynamicDatabase,
    GeneratedDataset,
    RepositoryRecord,
    write_dataset,
)
from .errors import CorruptDocument, PipelineError, ProverloopError
from .metrics import (
    MetricReport,
    PerformanceMatrix,
    average_test_curve,
    compute_report,
    matrix_to_csv,
    validation_to_csv,
)
from .retriever import (
    Checkpoint,
    EmbeddingIndex,
    EmbeddingModel,
    EvalSet,
    RetrievalTask,
    TrainConfig,
    mine_training_examples,
    precompute_embeddings,
    recall_at_k,
    train_one_epoch,
)
from .search import (
    SearchBudget,
    SearchResult,
    TableEnvironment,
    TableFixture,
    TableGenerator,
    TickClock,
    accessible_premises,
    best_first_search,
    build_dependency_graph,
    retrieve_premises,
)
from .storage import dump_json, read_json, read_text, write_atomic

@dataclass(frozen=True)
class RunConfig:
    fixture_dirs: tuple[Path, ...]
    out_dir: Path
    seed: int = 0
    strategy: str = SINGLE_REPO
    ewc_lambda: float = 0.0
    window: int = 5
    embedding_dim: int = 48
    feature_buckets: int = 2048
    init_scale: float = 0.1
    lr: float = 1e-3
    warmup_steps: int = 1000
    batch_size: int = 16
    clip_norm: float = 1.0
    eval_every: int | None = None
    val_frac: float = 0.02
    test_frac: float = 0.02
    retrieval_fraction: float = 0.25
    retrieval_max: int = 100
    candidates: int = 64
    time_budget_ms: float = 600_000.0
    max_expansions: int | None = None
    prove_after: bool = False
    wall_clock: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise CorruptDocument(
                f"strategy must be one of {', '.join(STRATEGIES)}, got {self.strategy!r}")
        for key, interval in RANGES.items():
            check_within(key, getattr(self, key), interval)
        for key in _UNSET_OR_POSITIVE:
            if getattr(self, key) is not None:
                check_within(key, getattr(self, key), "[1, inf)")
        if 8 * self.embedding_dim * self.feature_buckets > sys.maxsize:
            raise CorruptDocument("embedding_dim * feature_buckets float64 weights take more "
                                  f"than the {sys.maxsize} bytes an array can address")


# Every interval is open at infinity, so NaN and the infinities never pass.
RANGES = {
    "seed": "[0, inf)",
    "feature_buckets": "[2, inf)",
    "embedding_dim": "[1, inf)",
    "batch_size": "[1, inf)",
    "window": "[2, inf)",
    "candidates": "[1, inf)",
    "retrieval_max": "[1, inf)",
    "warmup_steps": "[0, inf)",
    "lr": "(0, inf)",
    "init_scale": "(0, inf)",
    "time_budget_ms": "(0, inf)",
    "val_frac": "(0, 1)",
    "test_frac": "(0, 1)",
    "retrieval_fraction": "(0, 1]",
    "clip_norm": "[0, inf)",
    "ewc_lambda": "[0, inf)",
}
# Optional counts: None, which a config file writes as 0, leaves them unset.
_UNSET_OR_POSITIVE = ("eval_every", "max_expansions")


def check_within(key: str, value: float, interval: str) -> None:
    """Reject a value outside an interval written like "(0, 1]"."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = value >= low if interval[0] == "[" else value > low
    below = value <= high if interval[-1] == "]" else value < high
    if not (above and below):
        raise CorruptDocument(f"{key} must be in {interval}, got {value}")


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise CorruptDocument(f"expected true or false, got {raw!r}")
    return raw == "true"


def _opt_int(raw: str) -> int | None:
    """An optional count: 0 leaves it unset, and a negative one is an error."""
    value = int(raw)
    if value < 0:
        raise CorruptDocument(f"must be 0 (unset) or in [1, inf), got {value}")
    return value or None


# The parser for each RunConfig annotation a config value can take; the
# annotations are strings under `from __future__ import annotations`.
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool, "int | None": _opt_int}


def parse_config(path: str | Path) -> RunConfig:
    """Read a `key = value` config file; paths resolve against its directory.

    Lines starting with # and blank lines are ignored. fixtures takes a
    comma-separated list of repository fixture directories. Every other key
    is a RunConfig field, parsed by its annotation.
    """
    cfg_path = Path(path)
    text = read_text(cfg_path, "config")
    base = cfg_path.parent
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CorruptDocument(f"config line {line_no}: expected key = value")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in first_line:
            raise CorruptDocument(
                f"config key {key!r} is set twice, on lines {first_line[key]} and {line_no}")
        if "\0" in value:  # no path can hold one
            raise CorruptDocument(f"config value for {key!r} holds a NUL byte")
        first_line[key] = line_no
        raw[key] = value

    if "fixtures" not in raw:
        raise CorruptDocument("config is missing the fixtures key")
    fixture_dirs = tuple(
        (base / p.strip()).resolve() for p in raw.pop("fixtures").split(",") if p.strip()
    )
    if not fixture_dirs:
        raise CorruptDocument("config key 'fixtures' names no fixture directory")
    out = raw.pop("out", "out")
    if not out:  # `out = .` names the config's own directory
        raise CorruptDocument("config key 'out' names no output directory")
    out_dir = (base / out).resolve()

    annotations = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    kwargs: dict = {}
    for key, value in raw.items():
        parser = _PARSERS.get(annotations.get(key))
        if parser is None:
            raise CorruptDocument(f"unknown config key {key!r}")
        try:
            kwargs[key] = parser(value)
        except (ValueError, CorruptDocument) as e:
            raise CorruptDocument(f"bad config value for {key!r}: {e}") from e
    return RunConfig(fixture_dirs=fixture_dirs, out_dir=out_dir, **kwargs)


def override_config(config: RunConfig, **overrides) -> RunConfig:
    provided = {k: v for k, v in overrides.items() if v is not None}
    if "out_dir" in provided:
        provided["out_dir"] = Path(provided["out_dir"]).resolve()
    return dataclasses.replace(config, **provided)


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except ProverloopError as e:
        raise PipelineError(f"stage {name!r}: {e}") from e


# -- fixture directories -----------------------------------------------------

def write_fixture_dir(
    record: RepositoryRecord, environment: TableFixture, out_dir: str | Path
) -> None:
    """Inverse of load_repo_fixture; traced files are the corpus's paths."""
    out = Path(out_dir)
    write_atomic(out / "repo.json", dump_json(record.metadata_json()))
    write_atomic(out / "corpus.jsonl", serialize_corpus(corpus_from_files(record.premise_files)))
    write_atomic(out / "theorems.json", dump_theorems(record.theorems))
    environment.save(out / "environment.json")


def load_repo_fixture(fixture_dir: str | Path) -> tuple[RepositoryRecord, TableFixture]:
    root = Path(fixture_dir)
    meta = read_json(root / "repo.json", "repository metadata")
    corpus = _parse_file(root / "corpus.jsonl", "corpus", parse_corpus)
    record = RepositoryRecord.from_metadata(
        meta, f"repo.json in {root}", name=root.name,
        theorems=_parse_file(root / "theorems.json", "theorems", load_theorems),
        premise_files=list(corpus.files),
        traced_file_paths=corpus.paths,
    )
    environment = TableFixture.load(root / "environment.json")
    for theorem in record.sorries():
        if theorem.key_str not in environment.initial:
            raise CorruptDocument(
                f"environment.json in {root} has no initial state for {theorem.key_str!r}")
    return record, environment


def _parse_file(path: Path, what: str, parse: Callable[[str], Any]) -> Any:
    """parse of the file's text; its errors name the file, since a run
    reads one such file per repository."""
    text = read_text(path, what)
    try:
        return parse(text)
    except ProverloopError as e:
        raise CorruptDocument(f"{path}: {e}") from e


# -- report types ---------------------------------------------------------------

@dataclass
class ProofAttempt:
    theorem: str
    repo_id: str
    phase: str  # during | after
    result: SearchResult

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "repo": self.repo_id, "phase": self.phase,
                **dataclasses.asdict(self.result)}


@dataclass
class RunReport:
    config: RunConfig
    thresholds: Thresholds
    curriculum: list[tuple[str, CategoryCounts]]
    matrix_rows: list[list[float]]
    validation: list[float]
    metric_report: MetricReport
    attempts: list[ProofAttempt] = field(default_factory=list)

    def metrics_json(self) -> dict:
        return {
            "window": self.config.window,
            "strategy": self.config.strategy,
            "seed": self.config.seed,
            "raw": self.metric_report.to_json(),
            "average_test_curve": average_test_curve(self.matrix_rows),
            "validation": list(self.validation),
        }


def curriculum_json(thresholds: Thresholds, ordered: list[tuple[str, CategoryCounts]]) -> dict:
    return {
        "thresholds": {"p33": thresholds.p33, "p67": thresholds.p67},
        "repositories": [{"repo_id": rid, "counts": counts.to_json()} for rid, counts in ordered],
    }


def proofs_json(attempts: list[ProofAttempt]) -> dict:
    return {"attempts": [a.to_json() for a in attempts]}


def emit_reports(report: RunReport, out_dir: str | Path) -> None:
    """Write the matrix CSV, metrics JSON, proofs JSON, and curriculum JSON
    (plus the validation series CSV the metrics subcommand consumes)."""
    for name, text in (
        ("matrix.csv", matrix_to_csv(report.matrix_rows)),
        ("validation.csv", validation_to_csv(report.validation)),
        ("metrics.json", dump_json(report.metrics_json())),
        ("proofs.json", dump_json(proofs_json(report.attempts))),
        ("curriculum.json", dump_json(curriculum_json(report.thresholds, report.curriculum))),
    ):
        write_atomic(Path(out_dir) / name, text)


# -- the run ---------------------------------------------------------------------

def _build_task(
    name: str, dataset: GeneratedDataset, seed: int
) -> RetrievalTask:
    corpus = dataset.corpus
    task = RetrievalTask(
        name=name,
        corpus=corpus,
        train_examples=mine_training_examples(dataset.split.train, corpus, seed=seed),
        val_pairs=EvalSet.of_split(dataset.split.val, corpus),
        test_pairs=EvalSet.of_split(dataset.split.test, corpus),
    )
    # rejected here, before the task trains and writes its checkpoint
    if not task.test_pairs:
        raise CorruptDocument(f"task {name!r} has no test pairs")
    return task


def ingest_fixtures(config: RunConfig) -> tuple[DynamicDatabase, dict[str, TableFixture]]:
    """Load every fixture directory into a fresh database."""
    db = DynamicDatabase()
    environments: dict[str, TableFixture] = {}
    source: dict[str, Path] = {}
    with _stage("ingest"):
        for fixture_dir in config.fixture_dirs:
            record, env_fixture = load_repo_fixture(fixture_dir)
            if record.repo_id in source:
                raise CorruptDocument(f"fixture directories {source[record.repo_id]} and "
                                      f"{fixture_dir} hold the same repository {record.repo_id!r}")
            source[record.repo_id] = fixture_dir
            db.add_repository(record)
            environments[record.repo_id] = env_fixture
    return db, environments


def build_curriculum(
    db: DynamicDatabase,
) -> tuple[Thresholds, list[tuple[str, CategoryCounts]]]:
    """Pool finite difficulties into thresholds, then order the repositories."""
    with _stage("curriculum"):
        difficulties = [list(rec.difficulty_cache.values()) for rec in db.repositories]
        thresholds = compute_thresholds(
            [d.value for ds in difficulties for d in ds if d.kind == "finite"])
        return thresholds, order_repositories([
            (rec.repo_id, count_categories(ds, thresholds))
            for rec, ds in zip(db.repositories, difficulties)
        ])


def task_checkpoint(out_dir: str | Path, k: int) -> Path:
    return Path(out_dir) / "checkpoints" / f"task_{k:02d}.ckpt"


def prove_goals(
    db: DynamicDatabase,
    environments: dict[str, TableFixture],
    model: EmbeddingModel,
    config: RunConfig,
    repo_ids: list[str],
    phase: str,
) -> list[ProofAttempt]:
    """Search every open goal of the given repositories, in their order, and
    record each proof found in the database.

    Each repository with open goals is one `prove:<name>` stage. Its corpus,
    dependency graph and index are built when the first of its goals
    retrieves, so a stage whose goals never retrieve builds none of them.
    Each retrieval gathers its goal's accessible premises. Under wall_clock,
    the first goal that retrieves counts the stage's one-time setup in its
    elapsed_ms and time budget.
    """
    budget = SearchBudget(time_ms=config.time_budget_ms, max_expansions=config.max_expansions,
                          candidates=config.candidates)
    attempts: list[ProofAttempt] = []
    for repo_id in repo_ids:
        record = db.get_repository(repo_id)
        sorries = record.sorries()
        if not sorries:
            continue
        with _stage(f"prove:{record.name}"):
            stage = cache(partial(_stage_inputs, model, record.premise_files))
            env = TableEnvironment(environments[repo_id])
            generator = TableGenerator(environments[repo_id])
            for theorem in sorries:
                result = best_first_search(
                    env, generator, theorem,
                    retrieval_fn=partial(_retrieve, model, config, stage, theorem),
                    budget=budget, clock=None if config.wall_clock else TickClock(),
                )
                attempts.append(ProofAttempt(theorem.key_str, repo_id, phase, result))
                if result.status == "proved":
                    record.record_proof(theorem.key, result.proof)
    return attempts


def _stage_inputs(
    model: EmbeddingModel, files: list[PremiseFile]
) -> tuple[Corpus, dict[str, frozenset[str]], EmbeddingIndex]:
    corpus = corpus_from_files(files)
    return corpus, build_dependency_graph(corpus), precompute_embeddings(model, corpus)


def _retrieve(
    model: EmbeddingModel,
    config: RunConfig,
    stage: Callable[[], tuple[Corpus, dict[str, frozenset[str]], EmbeddingIndex]],
    theorem: Theorem,
    state: str,
) -> list[Premise]:
    """The retrieval_fn of the theorem's search, once model, config, stage
    and theorem are bound: the state's premises among the theorem's
    accessible ones."""
    corpus, graph, index = stage()
    return retrieve_premises(model, index, state, accessible_premises(graph, corpus, theorem),
                             fraction=config.retrieval_fraction, max_n=config.retrieval_max)


def run_pipeline(config: RunConfig, *, prove: bool = True) -> RunReport:
    """Train through the curriculum, proving after each task when prove is
    set, and write every report.

    The forgetting metrics compare tasks, so a run needs at least two
    fixture directories; fewer are rejected before anything is written.
    """
    if len(config.fixture_dirs) < 2:
        raise CorruptDocument(
            f"config key 'fixtures' names {len(config.fixture_dirs)} fixture directory; "
            "a run needs at least two, since its metrics compare tasks")
    out = Path(config.out_dir)
    db, environments = ingest_fixtures(config)
    thresholds, ordered = build_curriculum(db)

    attempts: list[ProofAttempt] = []
    columns: list[tuple[Corpus, EvalSet]] = []  # each task's corpus and test set
    matrix_rows: list[list[float]] = []
    validation: list[float] = []
    checkpoint = Checkpoint(model=EmbeddingModel.random_init(
        dim=config.embedding_dim,
        n_features=config.feature_buckets,
        seed=config.seed,
        scale=config.init_scale,
    ))

    ordered_ids = [rid for rid, _ in ordered]
    for k, repo_id in enumerate(ordered_ids, start=1):
        record = db.get_repository(repo_id)
        with _stage(f"dataset:{record.name}"):
            dataset = db.generate_dataset(
                ordered_ids[:k], strategy=config.strategy, seed=config.seed,
                val_frac=config.val_frac, test_frac=config.test_frac,
            )
            write_dataset(dataset, out / "datasets" / f"task_{k:02d}")
            task = _build_task(record.name, dataset, seed=config.seed + 100 + k)
            columns.append((task.corpus, task.test_pairs))

        with _stage(f"train:{record.name}"):
            train_config = TrainConfig(
                lr=config.lr,
                warmup_steps=config.warmup_steps,
                batch_size=config.batch_size,
                clip_norm=config.clip_norm,
                eval_every=config.eval_every,
                seed=config.seed + 10_000 + k,
                ewc_lambda=config.ewc_lambda,
            )
            # importance only where a later task of this run anchors to it
            checkpoint = train_one_epoch(
                checkpoint, task, train_config,
                with_fisher=config.ewc_lambda > 0 and k < len(ordered_ids))
            checkpoint.save(task_checkpoint(out, k))

        with _stage(f"evaluate:{record.name}"):
            assert checkpoint.best_val_r10 is not None
            validation.append(100.0 * checkpoint.best_val_r10)
            row = []
            for corpus, test_pairs in columns:
                index = precompute_embeddings(checkpoint.model, corpus)
                row.append(100.0 * recall_at_k(checkpoint.model, index, test_pairs, k=10))
            matrix_rows.append(row)

        if prove:
            attempts += prove_goals(db, environments, checkpoint.model, config,
                                    [repo_id], "during")

    if prove and config.prove_after:
        attempts += prove_goals(db, environments, checkpoint.model, config,
                                ordered_ids, "after")

    with _stage("metrics"):
        matrix = PerformanceMatrix(rows=matrix_rows, validation=validation)
        metric_report = compute_report(matrix, window=config.window)

    with _stage("report"):
        report = RunReport(
            config=config,
            thresholds=thresholds,
            curriculum=ordered,
            matrix_rows=matrix_rows,
            validation=validation,
            metric_report=metric_report,
            attempts=attempts,
        )
        db.persist(out / "database.json")
        emit_reports(report, out)
    return report


def prove_standalone(
    config: RunConfig, checkpoint_path: str | Path | None = None
) -> tuple[DynamicDatabase, list[ProofAttempt]]:
    """Attempt every open goal with a saved checkpoint, outside training.

    Defaults to the last task's checkpoint of a previous run in the output
    directory. Proofs land in the returned database; the caller persists.
    """
    db, environments = ingest_fixtures(config)
    _, ordered = build_curriculum(db)
    with _stage("checkpoint"):
        checkpoint = Checkpoint.load(
            checkpoint_path or task_checkpoint(config.out_dir, len(ordered)))
    return db, prove_goals(db, environments, checkpoint.model, config,
                           [rid for rid, _ in ordered], "after")
