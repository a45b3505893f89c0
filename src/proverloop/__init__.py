"""Lifelong premise retrieval and proof search over repository fixtures.

The package wires a curriculum of theorem repositories into repeated
retriever training rounds, guards old knowledge with a quadratic anchor
penalty, attempts open goals with best-first search after each round, and
scores the run with forgetting and plasticity metrics.
"""

from .corpus import (
    Corpus,
    DatasetSplit,
    Premise,
    PremiseFile,
    Theorem,
    TracedTactic,
    corpus_from_files,
    parse_corpus,
    random_split,
    serialize_corpus,
    topological_order,
)
from .curriculum import (
    CategoryCounts,
    Difficulty,
    Thresholds,
    categorize_theorems,
    compute_difficulty,
    compute_thresholds,
    count_categories,
    order_repositories,
)
from .database import (
    DynamicDatabase,
    GeneratedDataset,
    RepositoryRecord,
    write_dataset,
)
from .errors import PipelineError, ProverloopError
from .metrics import (
    MetricReport,
    PerformanceMatrix,
    composite_score,
    compute_report,
    normalize_metrics,
)
from .pipeline import (
    RunConfig,
    RunReport,
    emit_reports,
    parse_config,
    run_pipeline,
)
from .retriever import (
    Checkpoint,
    EmbeddingIndex,
    EmbeddingModel,
    EwcTerm,
    TrainConfig,
    TrainingExample,
    compute_fisher,
    ewc_penalty,
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
    accessible_premises,
    best_first_search,
    brute_force_prove,
    build_dependency_graph,
    replay_proof,
    retrieve_premises,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus", "DatasetSplit", "Premise", "PremiseFile", "Theorem", "TracedTactic",
    "corpus_from_files", "parse_corpus", "random_split", "serialize_corpus",
    "topological_order",
    "CategoryCounts", "Difficulty", "Thresholds", "categorize_theorems",
    "compute_difficulty", "compute_thresholds", "count_categories",
    "order_repositories",
    "DynamicDatabase", "GeneratedDataset", "RepositoryRecord", "write_dataset",
    "PipelineError", "ProverloopError",
    "MetricReport", "PerformanceMatrix", "composite_score", "compute_report",
    "normalize_metrics",
    "RunConfig", "RunReport", "emit_reports", "parse_config", "run_pipeline",
    "Checkpoint", "EmbeddingIndex", "EmbeddingModel", "EwcTerm", "TrainConfig",
    "TrainingExample", "compute_fisher", "ewc_penalty",
    "mine_training_examples", "precompute_embeddings", "recall_at_k",
    "train_one_epoch",
    "SearchBudget", "SearchResult", "TableEnvironment", "TableFixture",
    "TableGenerator", "accessible_premises", "best_first_search",
    "brute_force_prove", "build_dependency_graph", "replay_proof",
    "retrieve_premises",
    "__version__",
]
