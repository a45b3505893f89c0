"""Small builders and reference implementations shared across the test modules."""

import math
import zlib
from functools import partial

import numpy as np

from proverloop.corpus import (
    PREMISE_KINDS,
    PROVED_MARKER,
    STATUS_PROVEN,
    STATUS_SORRY,
    STATUS_SORRY_PROVEN,
    THEOREM_STATUSES,
    DatasetSplit,
    Premise,
    PremiseFile,
    Theorem,
    TracedTactic,
    corpus_from_files,
    premise_file_to_json,
    theorem_to_json,
)
from proverloop.curriculum import CategoryCounts, categorize_value
from proverloop.database import DATABASE_FORMAT, DatasetMetadata, GeneratedDataset
from proverloop.errors import CorruptDocument, EnvironmentFailure, ProverloopError
from proverloop.fixtures import _premise
from proverloop.retriever import (
    NEGATIVES_PER_EXAMPLE,
    RECALL_BLOCK,
    Checkpoint,
    EmbeddingIndex,
    EmbeddingModel,
    EvalSet,
    RetrievalTask,
    TrainConfig,
    TrainingExample,
    batch_loss_and_grad,
    lr_at,
    precompute_embeddings,
    recall_at_k,
)
from proverloop.search import (
    GOAL,
    Edge,
    ProofEnvironment,
    RetrievalFn,
    TableFixture,
    TacticGenerator,
)
from proverloop.storage import POSITION, STRINGS, json_field

URL = "fixture://repos/unit"
COMMIT = "deadbee"


def premise(name, path="lib/a.lean", statement=None, start=(1, 1), end=(1, 20),
            kind="definition"):
    return Premise(
        full_name=name, file_path=path,
        statement=statement if statement is not None else f"Holds {name}",
        start=start, end=end, kind=kind,
    )


def pfile(path, names=(), imports=(), premises=None):
    """File whose premises sit on consecutive non-overlapping line ranges."""
    if premises is None:
        premises = tuple(
            premise(n, path=path, start=(3 * i + 1, 1), end=(3 * i + 2, 1))
            for i, n in enumerate(names)
        )
    return PremiseFile(path=path, imports=tuple(imports), premises=tuple(premises))


def tactic(ref=None, state_before="⊢ goal", state_after=PROVED_MARKER):
    if ref is None:
        return TracedTactic(
            tactic="rfl", annotated_tactic="rfl", referenced_premises=(),
            state_before=state_before, state_after=state_after,
        )
    return TracedTactic(
        tactic=f"apply {ref}",
        annotated_tactic=f"apply <a>{ref}</a>",
        referenced_premises=(ref,),
        state_before=state_before,
        state_after=state_after,
    )


def theorem(name, path="lib/a.lean", statement=None, tactics=(), status="proven",
            start=(50, 1), end=(60, 1), url=URL, commit=COMMIT, proof=None):
    return Theorem(
        url=url, commit=commit, file_path=path, full_name=name,
        statement=statement if statement is not None else f"GoalOf {name}",
        start=start, end=end, traced_tactics=tuple(tactics),
        status=status, proof=proof,
    )


def premise_by_key(corpus, key):
    """The corpus premise whose key is key."""
    [found] = [p for p in corpus.all_premises() if p.key == key]
    return found


def corpus_of(*files):
    return corpus_from_files(list(files))


def texts_by_key(corpus):
    """Every premise's text in a stable sort by key, the row order of an index."""
    return [p.text for p in sorted(corpus.all_premises(), key=lambda p: p.key)]


def dataset_from_metadata(db, doc):
    """The GeneratedDataset that write_dataset recorded in the metadata.json
    document doc, rebuilt from the database it was generated from.

    Theorem keys resolve to the most recently added copy among the
    dataset's repositories, premise-file paths to the first copy in
    repo_ids order: the dedup rules of generate_dataset.
    """
    repo_ids = doc["repo_ids"]
    theorems = {t.key: t for rec in db.repositories if rec.repo_id in repo_ids
                for t in rec.theorems}
    files = {}
    for rid in repo_ids:
        for pf in db.get_repository(rid).premise_files:
            files.setdefault(pf.path, pf)
    split = DatasetSplit(**{part: [theorems[tuple(key)] for key in doc[part]]
                            for part in ("train", "val", "test")})
    counts = doc["counts"]
    metadata = DatasetMetadata(
        repo_ids=repo_ids, theorem_count=counts["theorems"],
        premise_file_count=counts["premise_files"], traced_file_count=counts["traced_files"],
        split_sizes=doc["splits"], created=doc["created"],
    )
    corpus = corpus_from_files([files[path] for path in doc["premise_files"]])
    return GeneratedDataset(split=split, corpus=corpus, metadata=metadata)


def record_to_json(record):
    """The repository record as database.json stores it: the document that
    RepositoryRecord.json_chunks streams."""
    return {
        **record.metadata_json(),
        "theorems": [theorem_to_json(t) for t in record.theorems],
        "premise_files": [premise_file_to_json(pf) for pf in record.premise_files],
        "traced_files": list(record.traced_file_paths),
    }


def database_to_json(db):
    """The whole database.json document; DynamicDatabase.json_chunks streams
    dump_json of it."""
    return {"format_version": DATABASE_FORMAT,
            "repositories": [record_to_json(rec) for rec in db.repositories]}


# -- field-by-field record readers ------------------------------------------------
# The corpus readers test each field inline and call json_field only for one
# that fails. These read every field through json_field, and are the oracle
# the readers must match, in the records they build and the field they name.

def premise_file_by_field(obj):
    def require(cond, reason):
        if not cond:
            raise CorruptDocument(reason)

    path = json_field(obj, "path", str, "premise file")
    require(bool(path), "path must be a non-empty string")
    imports = json_field(obj, "imports", STRINGS, "premise file")
    require(path not in imports, "file imports itself")
    premises = []
    seen_names = set()
    for raw in json_field(obj, "premises", list, "premise file"):
        name = json_field(raw, "full_name", str, "premise")
        require(bool(name), "full_name must be a non-empty string")
        require(name not in seen_names, f"duplicate premise name {name!r}")
        seen_names.add(name)
        code = json_field(raw, "code", str, "premise")
        start = json_field(raw, "start", POSITION, "premise")
        end = json_field(raw, "end", POSITION, "premise")
        require(start <= end, "premise start must not follow its end")
        kind = json_field(raw, "kind", str, "premise")
        require(kind in PREMISE_KINDS, f"kind must be one of {PREMISE_KINDS}")
        premises.append(Premise(full_name=name, file_path=path, statement=code,
                                start=start, end=end, kind=kind))
    return PremiseFile(path=path, imports=tuple(imports), premises=tuple(premises))


def tactic_by_field(obj):
    annotated = json_field(obj, "annotated_tactic", list, "traced tactic")
    if (len(annotated) != 2 or type(annotated[0]) is not str or type(annotated[1]) is not list
            or not all(type(name) is str for name in annotated[1])):
        raise CorruptDocument("annotated_tactic must be [text, [names...]]")
    text, names = annotated
    for name in names:
        if name not in text:
            raise CorruptDocument(
                f"referenced premise {name!r} does not appear in the annotated tactic")
    return TracedTactic(
        tactic=json_field(obj, "tactic", str, "traced tactic"),
        annotated_tactic=text,
        referenced_premises=tuple(names),
        state_before=json_field(obj, "state_before", str, "traced tactic"),
        state_after=json_field(obj, "state_after", str, "traced tactic"),
    )


def theorem_by_field(obj):
    status = json_field(obj, "status", str, "theorem", STATUS_PROVEN)
    if status not in THEOREM_STATUSES:
        raise CorruptDocument(f"unknown status {status!r}")
    tactics = tuple(tactic_by_field(t) for t in json_field(obj, "traced_tactics", list, "theorem"))
    if status == STATUS_SORRY and tactics:
        raise CorruptDocument("an unproven theorem cannot carry traced tactics")
    start = json_field(obj, "start", POSITION, "theorem")
    end = json_field(obj, "end", POSITION, "theorem")
    if start > end:
        raise CorruptDocument("theorem start must not follow its end")
    proof = json_field(obj, "proof", STRINGS, "theorem", None)
    if proof is None and status == STATUS_SORRY_PROVEN:
        raise CorruptDocument("a proved sorry must carry its proof")
    return Theorem(
        url=json_field(obj, "url", str, "theorem"),
        commit=json_field(obj, "commit", str, "theorem"),
        file_path=json_field(obj, "file_path", str, "theorem"),
        full_name=json_field(obj, "full_name", str, "theorem"),
        statement=json_field(obj, "statement", str, "theorem"),
        start=start,
        end=end,
        traced_tactics=tactics,
        status=status,
        proof=tuple(proof) if proof is not None else None,
    )


# -- loss oracles ----------------------------------------------------------------

def contrastive_loss(state_emb, pos_emb, neg_embs):
    """Negative log-likelihood of the positive under softmax of similarities.

    Temperature is 1; inputs are expected unit-norm so dot products are
    cosine similarities.
    """
    state_emb = np.asarray(state_emb, dtype=np.float64)
    pos_emb = np.asarray(pos_emb, dtype=np.float64)
    neg_embs = np.asarray(neg_embs, dtype=np.float64).reshape(-1, state_emb.shape[-1]) \
        if np.asarray(neg_embs).size else np.zeros((0, state_emb.shape[-1]))
    if pos_emb.shape != state_emb.shape:
        raise ProverloopError("state and positive embeddings differ in dimension")
    sims = np.concatenate(([float(state_emb @ pos_emb)], neg_embs @ state_emb))
    m = float(np.max(sims))
    return m + math.log(float(np.sum(np.exp(sims - m)))) - sims[0]


def ngram_oracle(text, n_features):
    """Independent re-implementation of the hashed byte n-gram features."""
    phi = np.zeros(n_features)
    phi[0] = 1.0
    raw = text.encode("utf-8")
    for n in (1, 2, 3):
        for i in range(len(raw) - n + 1):
            phi[1 + zlib.crc32(raw[i:i + n]) % (n_features - 1)] += 1.0
    return phi


def example_loss_and_grad_oracle(model, example):
    """One example's contrastive loss and its gradient, row by row.

    Rows whose pre-normalization vector vanishes embed as e_0 and contribute
    zero gradient.
    """
    texts = example.texts()
    phi = np.stack([ngram_oracle(t, model.n_features) for t in texts])
    u = phi @ model.weight.T
    norms = np.linalg.norm(u, axis=1)
    e = np.zeros_like(u)
    live = norms > 0.0
    e[live] = u[live] / norms[live, None]
    e[~live, 0] = 1.0

    loss = contrastive_loss(e[0], e[1], e[2:])
    sims = e[1:] @ e[0]
    dsims = np.exp(sims - np.max(sims))
    dsims /= np.sum(dsims)
    dsims[0] -= 1.0
    grad_e = np.zeros_like(e)
    grad_e[0] = dsims @ e[1:]
    grad_e[1:] = dsims[:, None] * e[0][None, :]

    grad_u = np.zeros_like(u)
    for i in range(len(texts)):
        if not live[i]:
            continue
        gi = grad_e[i]
        grad_u[i] = (gi - float(gi @ e[i]) * e[i]) / norms[i]
    return loss, grad_u.T @ phi


def example_loss_and_grad(
    model: EmbeddingModel, example: TrainingExample
) -> tuple[float, np.ndarray]:
    """Contrastive loss of one example and its exact gradient."""
    return batch_loss_and_grad(model, [example])


# -- mining and training oracles --------------------------------------------------

def mine_training_examples_oracle(theorems, corpus, seed=0):
    """mine_training_examples drawing from arrays of candidate rows: the
    positive's file without it, then the pool without the rows taken."""
    pool = corpus.all_premises()
    index_of = {p.key: i for i, p in enumerate(pool)}
    file_rows = {}
    for i, p in enumerate(pool):
        file_rows.setdefault(p.file_path, []).append(i)
    by_file = {path: np.array(same) for path, same in file_rows.items()}
    rows = np.arange(len(pool))
    rng = np.random.default_rng(seed)
    examples = []
    for thm in theorems:
        for tac in thm.traced_tactics:
            for name in tac.referenced_premises:
                pos = corpus.premise_by_name(name)
                if pos is None:
                    continue
                pos_i = index_of[pos.key]
                same = by_file[pos.file_path]
                in_file = same[same != pos_i]
                chosen = []
                if len(in_file):
                    chosen.append(int(rng.choice(in_file)))
                rest = np.delete(rows, [pos_i, *chosen])
                need = NEGATIVES_PER_EXAMPLE - len(chosen)
                if len(rest) < need:
                    continue
                picked = rng.choice(rest, size=need, replace=False)
                chosen.extend(int(i) for i in picked)
                examples.append(TrainingExample(
                    state=tac.state_before,
                    positive=pos,
                    negatives=tuple(pool[i] for i in chosen),
                ))
    return examples


def precompute_embeddings_oracle(model, corpus):
    """precompute_embeddings as a per-text gather: every premise text, in
    key order, embedded with one embed_many call."""
    return EmbeddingIndex(keys=tuple(sorted(p.key for p in corpus.all_premises())),
                          matrix=model.embed_many(texts_by_key(corpus)), weight=model.weight)


def train_one_epoch_oracle(checkpoint, task, config=TrainConfig()):
    """train_one_epoch hashing every loss batch and taking the penalty's
    value and gradient from batch_loss_and_grad."""
    rng = np.random.default_rng(config.seed)
    examples = [task.train_examples[i] for i in rng.permutation(len(task.train_examples))]
    batches = [examples[lo:lo + config.batch_size]
               for lo in range(0, len(examples), config.batch_size)]
    eval_every = config.eval_every or max(1, len(batches) // 4)
    weight = checkpoint.model.weight
    ewc = checkpoint.ewc_term(config.ewc_lambda)
    best_model, best_recall = None, -1.0
    for step, batch in enumerate(batches):
        _, grad = batch_loss_and_grad(EmbeddingModel(weight=weight), batch, ewc=ewc)
        norm = float(np.sqrt(np.sum(grad * grad)))
        if config.clip_norm > 0.0 and norm > config.clip_norm:
            grad = grad * (config.clip_norm / norm)
        weight = weight - lr_at(step, len(batches), config.warmup_steps, config.lr) * grad
        if (step + 1) % eval_every == 0 or step == len(batches) - 1:
            candidate = EmbeddingModel(weight=weight)
            recall = recall_at_k(candidate, precompute_embeddings(candidate, task.corpus),
                                 task.val_pairs, k=10)
            if recall > best_recall:
                best_model, best_recall = candidate, recall
    return Checkpoint(
        model=best_model, history=checkpoint.history + (task.name,), best_val_r10=best_recall)


def fisher_oracle(model, task, batch_size):
    """compute_fisher hashing every batch: the mean over the task's batches,
    in example order, of batch_loss_and_grad's squared gradient."""
    examples = task.train_examples
    starts = range(0, len(examples), batch_size)
    fisher = np.zeros(model.weight.size)
    for lo in starts:
        fisher += batch_loss_and_grad(model, examples[lo:lo + batch_size])[1].reshape(-1) ** 2
    return fisher / len(starts)


# -- separable toy retrieval task ------------------------------------------------

_TOY_STATEMENT = (
    "whenever the guard {tok} is armed the invariant {tok} holds on the carrier"
)

_TOY_STATE = (
    "⊢ show the marked block {tok} stays stable while the term {tok} persists"
)


def recall_at_k_oracle(model, index, eval_pairs, k):
    """recall_at_k one query at a time: a full sort of each query's
    similarities by descending similarity, ties by ascending row, and the
    top k's keys intersected with the ground truth.

    The similarities come from the same RECALL_BLOCK-row products as
    recall_at_k's. A matrix-vector product rounds differently, so texts that
    tie exactly in one need not tie in the other."""
    queries = model.embed_many([state for state, _ in eval_pairs])
    sims = np.concatenate([queries[lo:lo + RECALL_BLOCK] @ index.matrix.T
                           for lo in range(0, len(queries), RECALL_BLOCK)])
    rows = np.arange(len(index.keys))
    total = 0.0
    for (_, gt), query_sims in zip(eval_pairs, sims):
        top = np.lexsort((rows, -query_sims))[:k]
        total += len(gt.intersection(index.keys[i] for i in top)) / len(gt)
    return total / len(eval_pairs)


def categorize_theorems_oracle(items, thresholds):
    """The category of each (theorem, difficulty) item, in input order:
    finite values by the thresholds, infinite ones "unproven", and unstepped
    theorems easy, medium, hard in turn in ascending (file_path, full_name)
    order."""
    categories = [None] * len(items)
    unstepped = []
    for i, (thm, diff) in enumerate(items):
        if diff.kind == "infinite":
            categories[i] = "unproven"
        elif diff.kind == "finite":
            categories[i] = categorize_value(diff.value, thresholds)
        else:
            unstepped.append(((thm.file_path, thm.full_name), i))
    for slot, (_, i) in enumerate(sorted(unstepped)):
        categories[i] = ("easy", "medium", "hard")[slot % 3]
    return categories


def count_categories_oracle(categories):
    """count_categories as a tally of one category per theorem."""
    return CategoryCounts(**{c: categories.count(c)
                             for c in ("easy", "medium", "hard", "unproven")})


def toy_retrieval_task(
    n_premises: int = 50,
    per_premise: int = 16,
    seed: int = 0,
) -> RetrievalTask:
    """Fully separable associative retrieval task.

    Each proof state carries a marker token spelled with letters n..z and its
    premise carries a paired guard token spelled with letters a..m, so the two
    sides share no token n-grams at all. A randomly initialized encoder ranks
    premises at chance; one epoch of contrastive training aligns the paired
    tokens and makes the task trivially separable.
    """
    if n_premises > 169:
        raise ValueError("token scheme supports at most 169 premises")
    path = "toy/bank.lean"
    premises = []
    states = []
    for i in range(n_premises):
        guard = chr(97 + i // 13) + chr(97 + i % 13)
        marker = chr(110 + i // 13) + chr(110 + i % 13)
        premises.append(_premise(
            path, f"fact_{guard}", i + 1, _TOY_STATEMENT.format(tok=guard),
        ))
        states.append(_TOY_STATE.format(tok=marker))
    corpus = corpus_from_files([PremiseFile(path=path, imports=(), premises=tuple(premises))])
    rng = np.random.default_rng(seed)
    examples = []
    for i, pos in enumerate(premises):
        others = [j for j in range(n_premises) if j != i]
        for _ in range(per_premise):
            negs = rng.choice(np.asarray(others), size=3, replace=False)
            examples.append(TrainingExample(
                state=states[i],
                positive=pos,
                negatives=tuple(premises[int(j)] for j in negs),
            ))
    evals = EvalSet.resolve([(states[i], [p.key]) for i, p in enumerate(premises)],
                            corpus.keys)
    return RetrievalTask(
        name="toy-separable", corpus=corpus,
        train_examples=examples, val_pairs=evals, test_pairs=evals,
    )


def toy_model(seed: int = 7) -> EmbeddingModel:
    return EmbeddingModel.random_init(dim=48, n_features=4096, seed=seed, scale=0.1)


# -- randomized search tables ------------------------------------------------------

def fixture_theorem(tag: str) -> Theorem:
    return Theorem(
        url="fixture://search", commit="0" * 7, file_path="fix/goals.lean",
        full_name=f"goal_{tag}", statement="True", start=(1, 1), end=(1, 2),
        status=STATUS_SORRY,
    )


def random_search_fixture(seed: int) -> tuple[TableFixture, Theorem]:
    """Layered random proof graph: at most 8 tactic symbols, proofs of
    length at most 4, roughly a third unprovable."""
    rng = np.random.default_rng(seed)
    layers: list[list[str]] = [["s0_0"]]
    for level in range(1, 4):
        layers.append([f"s{level}_{j}" for j in range(int(rng.integers(1, 4)))])
    edges: list[Edge] = []
    for level in range(4):
        for state in layers[level]:
            deeper = [s for other in layers[level + 1:] for s in other]
            n_out = int(rng.integers(1, 4))
            tactics = rng.choice(8, size=n_out, replace=False)
            for t in sorted(int(x) for x in tactics):
                if not deeper or rng.random() < 0.25:
                    target = GOAL
                else:
                    target = deeper[int(rng.integers(len(deeper)))]
                edges.append(Edge(
                    state, f"t{t}", round(-float(rng.uniform(0.05, 3.0)), 4), target,
                ))
    if rng.random() < 0.3:
        # make it unprovable: goal transitions dead-end instead
        edges = [
            Edge(e.source, e.tactic, e.log_prob, "s_sink") if e.target == GOAL else e
            for e in edges
        ]
    theorem = fixture_theorem(str(seed))
    fixture = TableFixture(initial={theorem.key_str: "s0_0"}, edges=edges)
    return fixture, theorem


# -- eager retrieval oracle ------------------------------------------------------

class EagerGenerator:
    """Retrieves at every propose, whether the inner generator reads the
    premises or not, then delegates: the search protocol's behaviour before
    premises were pulled on demand. Its results are the reference."""

    def __init__(self, inner: TacticGenerator) -> None:
        self.inner = inner

    def propose(self, state, premises, n):
        if premises is not None:
            retrieved = premises()
            premises = lambda: retrieved
        return self.inner.propose(state, premises, n)


class RecordingGenerator:
    """Delegates to a generator and records the state of every propose,
    which is one per search expansion."""

    def __init__(self, inner: TacticGenerator) -> None:
        self.inner = inner
        self.states: list[str] = []

    def propose(self, state, premises, n):
        self.states.append(state)
        return self.inner.propose(state, premises, n)


# -- exhaustive search oracle -----------------------------------------------------

def brute_force_prove(
    env: ProofEnvironment,
    generator: TacticGenerator,
    theorem: Theorem,
    depth_limit: int,
    retrieval_fn: RetrievalFn | None = None,
    candidates: int = 64,
) -> list[tuple[tuple[str, ...], float]]:
    """All proofs of length <= depth_limit, by exhaustive depth-first walk."""
    results: list[tuple[tuple[str, ...], float]] = []

    def dfs(state: str, path: tuple[str, ...], score: float) -> None:
        if len(path) >= depth_limit:
            return
        premises = None if retrieval_fn is None else partial(retrieval_fn, state)
        for tactic, log_prob in generator.propose(state, premises, candidates):
            if log_prob > 0.0:
                raise ValueError(f"generator proposed log-probability {log_prob} > 0")
            try:
                target = env.apply(state, tactic)
            except EnvironmentFailure:
                continue
            if target == GOAL:
                results.append((path + (tactic,), score + log_prob))
            elif target is not None:
                dfs(target, path + (tactic,), score + log_prob)

    dfs(env.initial_state(theorem), (), 0.0)
    return results
