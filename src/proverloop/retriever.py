"""Premise retrieval: encoder, contrastive training, drift penalty, recall.

The encoder is deliberately small and fully reproducible: hashed byte
n-grams (n = 1, 2, 3) plus a bias column, one linear map, then L2
normalization. Training is plain SGD with linear warmup, cosine decay,
gradient clipping, and an optional quadratic penalty that anchors parameters
to an earlier task's weights, weighted by their estimated importance there
(squared-gradient estimate of curvature).

All gradients are computed analytically in closed form; tests cross-check
them against central finite differences.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Corpus, Premise, PremiseFile, Theorem
from .errors import CorruptDocument, ProverloopError
from .storage import (FLOAT_OR_NULL, STRINGS, dump_json, json_field, parse_json, read_bytes,
                      write_atomic)

NEGATIVES_PER_EXAMPLE = 3

# Texts per embedding product (see EmbeddingModel.embed_many) and queries
# per similarity product in recall_at_k. With 1024 or 2048 feature buckets
# an 8-row product costs no more per row than a 16-row one, and less than
# half as much for the lone text a search expansion embeds.
EMBED_TILE = 8
RECALL_BLOCK = 64
# Feature rows converted to float64 at once in an embedding; 64 rows were
# faster but raised the peak RSS of a run.
EMBED_CHUNK = 32

# Index 0 of every feature vector is a constant bias so empty text still
# embeds deterministically.
_BIAS_SLOT = 1


def _crc_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CRC-32 (zlib polynomial) byte table, and the CRC register after
    every 1-byte and every 2-byte input, before the final inversion."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    after_one = table[np.arange(256) ^ 0xFF] ^ np.uint32(0x00FFFFFF)
    after_two = (table[(after_one[:, None] ^ np.arange(256)) & 0xFF]
                 ^ (after_one[:, None] >> 8)).reshape(-1)
    return table, after_one, after_two


_CRC_TABLE, _CRC_AFTER_ONE, _CRC_AFTER_TWO = _crc_tables()


# Texts per bincount in hash_ngrams. A block's counts are one
# (HASH_BLOCK, n_features) int64 array; at 128 texts and 1024 buckets the
# allocator maps and faults in fresh pages for it on most calls.
HASH_BLOCK = 32


def hash_ngrams(texts: Sequence[str], n_features: int) -> np.ndarray:
    """Hashed byte 1-, 2- and 3-gram counts with a leading bias entry, one
    row per text, in the narrowest unsigned integer type that holds them.

    An n-gram lands in bucket 1 + crc32(n-gram) % (n_features - 1), so the
    features are the same across runs and platforms (crc32, not Python's
    randomized hash). The UTF-8 bytes of HASH_BLOCK texts are joined, every
    n-gram of the joined bytes is hashed at once and the block is counted
    with one bincount. An n-gram that straddles two texts is counted in the
    bias slot of the first, which is then overwritten, so it is dropped.

    The rows start as uint8, one byte per bucket; a block with a larger
    count widens the whole output, rows already written included, to the
    type its largest count needs. Callers multiply in float64, which holds
    every count exactly.
    """
    if n_features < 2:
        raise ProverloopError("need at least one hash bucket beyond the bias slot")
    phi = np.empty((len(texts), n_features), dtype=np.uint8)
    for lo in range(0, len(texts), HASH_BLOCK):
        encoded = [t.encode("utf-8") for t in texts[lo:lo + HASH_BLOCK]]
        raw = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        # the offset of each byte's row in the block's flat counts
        base = np.repeat(np.arange(0, len(encoded) * n_features, n_features),
                         [len(b) for b in encoded])
        # CRC registers after each 2-gram, then one more byte step for the 3-grams
        two = _CRC_AFTER_TWO[(raw[:-1].astype(np.intp) << 8) | raw[1:]]
        three = _CRC_TABLE[(two[:-1] ^ raw[2:]) & 0xFF] ^ (two[:-1] >> 8)
        crcs = ~np.concatenate([_CRC_AFTER_ONE[raw], two, three])
        buckets = _BIAS_SLOT + crcs % (n_features - _BIAS_SLOT)
        inside = base[1:] == base[:-1]  # the 2-gram at each byte stays in its text
        buckets[len(raw):2 * len(raw) - 1] *= inside
        buckets[2 * len(raw) - 1:] *= inside[1:] & inside[:-1]
        counts = np.bincount(np.concatenate([base, base[:-1], base[:-2]]) + buckets,
                             minlength=len(encoded) * n_features)
        if (top := counts.max()) > np.iinfo(phi.dtype).max:
            phi = phi.astype(np.min_scalar_type(top))
        phi[lo:lo + len(encoded)] = counts.reshape(len(encoded), n_features)
    phi[:, 0] = 1
    return phi


@lru_cache(maxsize=4096)
def ngram_features(texts: tuple[str, ...], n_features: int) -> np.ndarray:
    """hash_ngrams of one premise file's texts (PremiseFile.texts), cached
    as a read-only block.

    Only whole premise files are cached, one key per file, so a corpus that
    re-adds a file finds its features here. States are hashed on the fly, a
    task's training states once per epoch (example_features).
    """
    phi = hash_ngrams(texts, n_features)
    phi.flags.writeable = False
    return phi


def _unit_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of u scaled to unit L2 norm, and the norms they had.

    A row whose norm vanishes (degenerate weights) becomes the fixed unit
    vector e_0.
    """
    norms = np.linalg.norm(u, axis=1)
    live = norms > 0.0
    e = np.divide(u, norms[:, None], out=np.zeros_like(u), where=live[:, None])
    e[~live, 0] = 1.0
    return e, norms


@dataclass(frozen=True)
class EmbeddingModel:
    """Linear text encoder with unit-norm outputs.

    The model keeps a read-only copy of the weights it was built from, so
    the embeddings it remembers cannot go stale: one read-only block per
    premise file it has embedded, keyed by the file's texts, and one row
    per text embedded through embed_many. Its version hash is computed
    from the weights each time it is read.
    """

    weight: np.ndarray  # (dim, n_features) float64
    _blocks: dict[tuple[str, ...], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _rows: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        weight = np.array(self.weight)
        weight.flags.writeable = False
        object.__setattr__(self, "weight", weight)

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    @property
    def n_features(self) -> int:
        return self.weight.shape[1]

    @property
    def version_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.dim}x{self.n_features}:".encode())
        h.update(np.ascontiguousarray(self.weight).tobytes())
        return h.hexdigest()[:16]

    @classmethod
    def random_init(
        cls, dim: int, n_features: int = 1024, seed: int = 0, scale: float = 0.1
    ) -> EmbeddingModel:
        rng = np.random.default_rng(seed)
        return cls(weight=rng.normal(0.0, scale, size=(dim, n_features)))

    def flat(self) -> np.ndarray:
        return self.weight.reshape(-1).copy()

    def with_flat(self, theta: np.ndarray) -> EmbeddingModel:
        if theta.size != self.weight.size:
            raise ProverloopError(
                f"expected {self.weight.size} parameters, got {theta.size}"
            )
        return replace(self, weight=theta.reshape(self.weight.shape))

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Unit-norm embeddings, one row per text.

        Each text is embedded once per model; the texts this model has not
        embedded yet are featurized with one hash_ngrams call.
        """
        new = [t for t in dict.fromkeys(texts) if t not in self._rows]
        if new:
            self._rows.update(zip(new, self._embed(hash_ngrams(new, self.n_features))))
        return np.array([self._rows[t] for t in texts]).reshape(len(texts), self.dim)

    def embed_files(self, files: Iterable[PremiseFile]) -> list[np.ndarray]:
        """The unit embeddings of each file's premises, one read-only block
        per file. A file is embedded whole from its ngram_features block,
        once per model and texts tuple."""
        blocks = []
        for f in files:
            block = self._blocks.get(f.texts)
            if block is None:
                # an empty file has no features to look up
                phi = ngram_features(f.texts, self.n_features) if f.texts else np.empty((0, 0))
                block = self._blocks[f.texts] = self._embed(phi)
                block.flags.writeable = False
            blocks.append(block)
        return blocks

    def _embed(self, phi: np.ndarray) -> np.ndarray:
        """The unit embeddings of the feature rows phi, one row each.

        The rows are converted to float64 EMBED_CHUNK at a time, and each
        tile of EMBED_TILE of them, the last zero-padded, is one float64
        (EMBED_TILE, n_features) product with the weights, written straight
        into the output. Every product has that one shape because BLAS picks
        its kernel, and with it the rounding, by shape: a one-row product
        runs a matrix-vector kernel, and short and tall products use
        different ones. So a row's bits do not depend on the texts it was
        embedded with, nor on its place among them.
        """
        u = np.empty((-(-len(phi) // EMBED_TILE) * EMBED_TILE, self.dim))
        chunk = np.empty((min(EMBED_CHUNK, len(u)), self.n_features))
        for lo in range(0, len(phi), EMBED_CHUNK):
            rows = phi[lo:lo + EMBED_CHUNK]
            chunk[:len(rows)] = rows
            chunk[len(rows):len(u) - lo] = 0.0
            for t in range(0, len(rows), EMBED_TILE):
                np.matmul(chunk[t:t + EMBED_TILE], self.weight.T,
                          out=u[lo + t:lo + t + EMBED_TILE])
        return _unit_rows(u[:len(phi)])[0]


# -- losses -------------------------------------------------------------------

@dataclass(frozen=True)
class EwcTerm:
    """Quadratic anchor to a previous task's parameters."""

    lam: float
    fisher: np.ndarray
    anchor: np.ndarray

    def check(self, n_params: int) -> None:
        if self.fisher.size != n_params or self.anchor.size != n_params:
            raise ProverloopError(
                f"penalty terms sized {self.fisher.size}/{self.anchor.size}, "
                f"model has {n_params} parameters"
            )


# The penalty and its gradient each hold at most two parameter-sized
# temporaries. Their in-place products run in the order of the plain
# expressions in the comments, so they give the same bits.

def ewc_penalty(theta: np.ndarray, term: EwcTerm) -> float:
    term.check(theta.size)
    delta = theta - term.anchor
    weighted = term.fisher * delta
    weighted *= delta  # fisher * delta * delta
    return 0.5 * term.lam * float(np.sum(weighted))


def ewc_penalty_grad(theta: np.ndarray, term: EwcTerm) -> np.ndarray:
    term.check(theta.size)
    grad = term.lam * term.fisher
    grad *= theta - term.anchor  # lam * fisher * (theta - anchor)
    return grad


@dataclass(frozen=True)
class TrainingExample:
    state: str
    positive: Premise
    negatives: tuple[Premise, ...]

    def texts(self) -> list[str]:
        return [self.state, self.positive.text, *(n.text for n in self.negatives)]


def example_features(
    corpus: Corpus, examples: list[TrainingExample], n_features: int
) -> dict[str, np.ndarray]:
    """The feature row of every text of the examples, as hash_ngrams makes it.

    A premise's row is a read-only row of its file's ngram_features block,
    the block an index build of the corpus embeds the file from. The other
    texts, the states, are hashed with one hash_ngrams call.
    """
    rows: dict[str, np.ndarray] = {}
    for f in corpus.files:
        if f.texts:
            rows.update(zip(f.texts, ngram_features(f.texts, n_features)))
    rest = [t for t in dict.fromkeys(t for ex in examples for t in ex.texts()) if t not in rows]
    rows.update(zip(rest, hash_ngrams(rest, n_features)))
    return rows


def batch_loss_and_grad(
    model: EmbeddingModel | np.ndarray,
    batch: list[TrainingExample],
    ewc: EwcTerm | None = None,
    features: dict[str, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Mean contrastive loss (plus optional anchor penalty) and its exact
    gradient with respect to the weights.

    An example's loss is the negative log-likelihood of its positive under
    the softmax (temperature 1) of the cosine similarities between its state
    and its candidates, the positive and then the negatives. All examples'
    rows are stacked, state first, and each example's softmax is one segment
    of the candidate similarities. The gradient goes through the L2
    normalization; rows whose pre-normalization vector vanishes use the
    fixed fallback embedding and contribute zero gradient.

    The texts' feature rows come from features (example_features) when it
    is given, and are hashed otherwise. model is the encoder or its weights,
    which are only read.
    """
    if not batch:
        raise ProverloopError("empty batch")
    weight = model.weight if isinstance(model, EmbeddingModel) else model
    texts = [t for ex in batch for t in ex.texts()]
    # as float64, so both products below run in float64
    if features is None:
        phi = hash_ngrams(texts, weight.shape[1]).astype(np.float64)
    else:
        phi = np.array([features[t] for t in texts], dtype=np.float64)
    e, norms = _unit_rows(phi @ weight.T)

    n_cand = np.array([1 + len(ex.negatives) for ex in batch])
    first = np.cumsum(n_cand) - n_cand  # each positive's position among the candidates
    state_rows = first + np.arange(len(batch))
    state_of = np.repeat(state_rows, n_cand + 1)
    cand = np.arange(len(phi)) != state_of
    states = e[state_of[cand]]
    sims = np.einsum("ij,ij->i", e[cand], states)
    m = np.maximum.reduceat(sims, first)
    exp = np.exp(sims - np.repeat(m, n_cand))
    z = np.add.reduceat(exp, first)
    total = float(np.mean(m + np.log(z) - sims[first]))

    dsims = exp / np.repeat(z, n_cand)
    dsims[first] -= 1.0
    grad_e = np.empty_like(e)
    grad_e[cand] = dsims[:, None] * states
    grad_e[state_rows] = np.add.reduceat(dsims[:, None] * e[cand], first)
    grad_e -= np.einsum("ij,ij->i", grad_e, e)[:, None] * e
    grad_u = np.divide(grad_e, norms[:, None], out=np.zeros_like(e), where=norms[:, None] > 0.0)
    grad = grad_u.T @ phi
    grad /= len(batch)
    if ewc is not None:
        del phi, grad_u  # so the penalty's temporaries do not raise the peak
        theta = weight.reshape(-1)
        total += ewc_penalty(theta, ewc)
        grad += ewc_penalty_grad(theta, ewc).reshape(weight.shape)
    return total, grad


def compute_fisher(
    model: EmbeddingModel,
    examples: list[TrainingExample],
    batch_size: int = 16,
    features: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Parameter importance: mean over batches of the squared batch gradient.

    features is batch_loss_and_grad's."""
    if not examples:
        raise ProverloopError("no examples to estimate parameter importance from")
    if batch_size < 1:
        raise ProverloopError(f"batch_size must be positive, got {batch_size}")
    fisher = np.zeros(model.weight.size)
    n_batches = 0
    for lo in range(0, len(examples), batch_size):
        _, grad = batch_loss_and_grad(model, examples[lo:lo + batch_size], features=features)
        fisher += grad.reshape(-1) ** 2
        n_batches += 1
    return fisher / n_batches


# -- example mining ------------------------------------------------------------

def cited_premises(
    theorems: list[Theorem], corpus: Corpus
) -> Iterator[tuple[str, list[Premise]]]:
    """Each traced tactic's state and the premises it cites that resolve in
    the corpus, in citation order: the walk that both training examples
    and evaluation sets are made from."""
    for thm in theorems:
        for tac in thm.traced_tactics:
            yield tac.state_before, [p for name in tac.referenced_premises
                                     if (p := corpus.premise_by_name(name)) is not None]


def mine_training_examples(
    theorems: list[Theorem],
    corpus: Corpus,
    seed: int = 0,
) -> list[TrainingExample]:
    """One example per (traced tactic, referenced premise) pair.

    Three pairwise-distinct negatives per example, one from the positive's
    own file whenever that file has another premise. Tactic references that
    do not resolve in the corpus are skipped, as are examples for which three
    distinct negatives cannot be found.

    Negatives are drawn as positions among the candidate rows, the pool
    without the rows already taken, and shifted past the taken rows; that
    is the draw rng.choice makes from the array of candidate rows.
    """
    pool = corpus.all_premises()
    index_of = {p.key: i for i, p in enumerate(pool)}
    file_rows: dict[str, list[int]] = {}
    slot: list[int] = []  # each row's position among its file's rows
    for i, p in enumerate(pool):
        same = file_rows.setdefault(p.file_path, [])
        slot.append(len(same))
        same.append(i)
    rng = np.random.default_rng(seed)
    examples: list[TrainingExample] = []
    for state, premises in cited_premises(theorems, corpus):
        for pos in premises:
            pos_i = index_of[pos.key]
            same = file_rows[pos.file_path]
            chosen: list[int] = []
            if len(same) > 1:
                j = int(rng.integers(len(same) - 1))
                chosen.append(same[j + (j >= slot[pos_i])])
            taken = sorted([pos_i, *chosen])
            need = NEGATIVES_PER_EXAMPLE - len(chosen)
            if len(pool) - len(taken) < need:
                continue
            for i in rng.choice(len(pool) - len(taken), size=need, replace=False).tolist():
                for row in taken:
                    i += i >= row
                chosen.append(i)
            examples.append(TrainingExample(
                state=state, positive=pos, negatives=tuple(pool[i] for i in chosen)))
    return examples


# -- embedding index ------------------------------------------------------------

@dataclass
class EmbeddingIndex:
    """Premise embeddings frozen at one model version.

    Rows are in ascending premise-key order, so ranking ties broken by
    ascending row are broken by ascending key.
    """

    keys: tuple[str, ...]
    matrix: np.ndarray  # (len(keys), dim)
    weight: np.ndarray  # the read-only weights of the model it was built with

    @property
    def version_hash(self) -> str:
        """The version hash of the weights the index was built with."""
        return EmbeddingModel(weight=self.weight).version_hash

    def check_model(self, model: EmbeddingModel) -> None:
        """Raise ProverloopError unless the index was built at the model's
        version: with its own weight array, or with weights of the same
        version hash."""
        if model.weight is not self.weight and model.version_hash != self.version_hash:
            raise ProverloopError(
                f"index built at {self.version_hash}, model is {model.version_hash}")

    @cached_property
    def _row_of(self) -> dict[str, int]:
        return {k: i for i, k in enumerate(self.keys)}

    def rows_of(self, premises: list[Premise]) -> np.ndarray:
        """The row of each premise, in the order given. The key to row map
        is built on the first call and kept."""
        try:
            return np.array([self._row_of[p.key] for p in premises], dtype=np.intp)
        except KeyError as e:
            raise ProverloopError(f"premise {e.args[0]!r} missing from index") from e


def precompute_embeddings(model: EmbeddingModel, corpus: Corpus) -> EmbeddingIndex:
    """The index of the corpus at the model: each file's embed_files block
    written to the file's rows in key order (Corpus.file_rows)."""
    matrix = np.empty((len(corpus.keys), model.dim))
    for rows, block in zip(corpus.file_rows, model.embed_files(corpus.files)):
        matrix[rows] = block
    return EmbeddingIndex(keys=corpus.keys, matrix=matrix, weight=model.weight)


# -- evaluation -------------------------------------------------------------------

def rank_by_similarity(sims: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """The first k positions of sims by descending similarity, ties by
    ascending row: np.lexsort((rows, -sims))[:k], sorting only what is kept.

    Every position at or above the k-th largest similarity is kept, so a tie
    at the cut is still broken by row.
    """
    neg = -sims
    if 0 < k < len(neg):
        cut = np.partition(neg, k - 1)[k - 1]
        if not np.isnan(cut):  # NaNs sort last; a NaN cut leaves fewer than k numbers
            kept = np.flatnonzero(neg <= cut)
            return kept[np.lexsort((rows[kept], neg[kept]))][:k]
    return np.lexsort((rows, neg))[:k]


def _top_k_mask(sims: np.ndarray, k: int) -> np.ndarray:
    """kept[i, j]: whether rank_by_similarity(sims[i], columns, k) keeps
    column j.

    One partition of the negated similarities, in place so that no second
    copy of the block is made, finds every row's k-th largest similarity.
    Where exactly k columns reach it, they are the top k whatever the
    tie-break; a row with a tie at the cut, or a NaN cut, is ranked on its
    own.
    """
    n_cols = sims.shape[1]
    if k >= n_cols:
        return np.ones(sims.shape, dtype=bool)
    neg = -sims
    neg.partition(k - 1, axis=1)
    kept = sims >= -neg[:, k - 1:k]
    columns = np.arange(n_cols)
    for i in np.flatnonzero(np.count_nonzero(kept, axis=1) != k):
        kept[i] = False
        kept[i, rank_by_similarity(sims[i], columns, k)] = True
    return kept


@dataclass(frozen=True)
class EvalSet:
    """The queries of one split, their ground truth resolved to rows of
    keys, an index's key order.

    query and row hold one (query, row) pair per ground-truth key that keys
    holds, in query order and by ascending row within a query. size is each
    query's number of ground-truth keys, counting those that keys lacks.
    """

    keys: tuple[str, ...]
    states: tuple[str, ...]
    query: np.ndarray
    row: np.ndarray
    size: np.ndarray

    def __len__(self) -> int:
        return len(self.states)

    @classmethod
    def resolve(cls, pairs: Iterable[tuple[str, Iterable[str]]],
                keys: tuple[str, ...]) -> EvalSet:
        """The (state, ground-truth keys) pairs, the keys resolved by
        bisection of keys, which must be ascending as an index's are."""
        states: list[str] = []
        query: list[int] = []
        row: list[int] = []
        size: list[int] = []
        for state, gt in pairs:
            gt = set(gt)
            if not gt:
                raise ProverloopError(f"empty ground truth for state {state!r}")
            rows = sorted(i for key in gt
                          if (i := bisect_left(keys, key)) < len(keys) and keys[i] == key)
            query += [len(states)] * len(rows)
            row += rows
            size.append(len(gt))
            states.append(state)
        # int32, not intp: a run keeps every task's test set
        return cls(keys, tuple(states),
                   *(np.array(a, dtype=np.int32) for a in (query, row, size)))

    @classmethod
    def of_split(cls, theorems: list[Theorem], corpus: Corpus) -> EvalSet:
        """One query per traced tactic that cites a premise of the corpus:
        its state, with the cited premises as ground truth."""
        return cls.resolve(((state, [p.key for p in premises])
                            for state, premises in cited_premises(theorems, corpus) if premises),
                           corpus.keys)


def recall_at_k(
    model: EmbeddingModel,
    index: EmbeddingIndex,
    eval_pairs: EvalSet,
    k: int = 10,
) -> float:
    """Mean fraction of ground-truth premises found in the top k.

    Similarity ties break by ascending premise key. eval_pairs must be
    resolved against the index's keys. Queries are scored RECALL_BLOCK at a
    time, one product each, so the similarities held at once stay small. A
    block's hits are its _top_k_mask at the queries' ground-truth rows,
    counted with one bincount, and the fractions are added in query order.
    """
    if k < 1:
        raise ProverloopError("k must be positive")
    index.check_model(model)
    if not eval_pairs:
        raise ProverloopError("no evaluation pairs")
    if eval_pairs.keys is not index.keys and eval_pairs.keys != index.keys:
        raise ProverloopError("evaluation set resolved against another index's keys")
    queries = model.embed_many(eval_pairs.states)
    total = 0.0
    for lo in range(0, len(eval_pairs), RECALL_BLOCK):
        sims = queries[lo:lo + RECALL_BLOCK] @ index.matrix.T
        kept = _top_k_mask(sims, k)
        a, b = np.searchsorted(eval_pairs.query, (lo, lo + len(sims)))
        query = eval_pairs.query[a:b] - lo
        hits = np.bincount(query[kept[query, eval_pairs.row[a:b]]], minlength=len(sims))
        for fraction in (hits / eval_pairs.size[lo:lo + len(sims)]).tolist():
            total += fraction
    return total / len(eval_pairs)


# -- training -----------------------------------------------------------------------

@dataclass
class RetrievalTask:
    """Everything one training round needs from a generated dataset; its
    validation and test sets are resolved against the corpus's keys."""

    name: str
    corpus: Corpus
    train_examples: list[TrainingExample]
    val_pairs: EvalSet
    test_pairs: EvalSet


@dataclass(frozen=True)
class TrainConfig:
    """One task's training settings. A run keeps importance only in a
    checkpoint that a later task anchors to; has_fisher is false on the
    last task's checkpoint and on every checkpoint at ewc_lambda = 0."""

    lr: float = 1e-3
    warmup_steps: int = 1000
    batch_size: int = 16
    clip_norm: float = 1.0
    eval_every: int | None = None  # None: four evaluations per epoch
    seed: int = 0
    ewc_lambda: float = 0.0  # strength of the anchor to the start checkpoint


CHECKPOINT_FORMAT = 3


@dataclass
class Checkpoint:
    """Retriever state after a task, with its parameter importance only
    when a later task of the run anchors to it: has_fisher is false on the
    last task's checkpoint and on every checkpoint at ewc_lambda = 0.

    On disk a checkpoint is a single file: the header line, dump_json of
    ``format_version``, ``dim``, ``n_features``, ``history``,
    ``best_val_r10``, ``has_fisher`` and the sha256 of every byte after the
    line; then the ``dim * n_features`` weights in row-major order and, when
    ``has_fisher`` is set, as many importance values, all little-endian
    float64.
    """

    model: EmbeddingModel
    history: tuple[str, ...] = ()
    best_val_r10: float | None = None
    fisher: np.ndarray | None = None

    def ewc_term(self, lam: float) -> EwcTerm | None:
        """Penalty anchoring the next task to this checkpoint, if armed; the
        anchor is a view of the model's read-only weights."""
        if lam <= 0.0 or self.fisher is None:
            return None
        return EwcTerm(lam=lam, fisher=self.fisher, anchor=self.model.weight.reshape(-1))

    def _encode(self) -> tuple[dict, list[memoryview]]:
        """The header document and the payload after its line, as a view of
        each array's own bytes, so the payload is never copied."""
        arrays = [self.model.weight.reshape(-1)]
        if self.fisher is not None:
            arrays.append(self.fisher)
        pieces = [memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")
                  for arr in arrays]
        digest = hashlib.sha256()
        for piece in pieces:
            digest.update(piece)
        header = {
            "format_version": CHECKPOINT_FORMAT,
            "dim": self.model.dim,
            "n_features": self.model.n_features,
            "history": list(self.history),
            "best_val_r10": self.best_val_r10,
            "has_fisher": self.fisher is not None,
            "sha256": digest.hexdigest(),
        }
        return header, pieces

    def to_json(self) -> dict:
        """The header document; its sha256 pins the weights and importance."""
        return self._encode()[0]

    def save(self, path: str | Path) -> None:
        """Write the header line, then a view of each array straight to the
        temporary file: the payload is never copied whole."""
        header, pieces = self._encode()
        write_atomic(path, [dump_json(header), *pieces])

    @classmethod
    def load(cls, path: str | Path) -> Checkpoint:
        head, _, payload = read_bytes(path, "checkpoint").partition(b"\n")
        header = parse_json(head, f"checkpoint {path} header line")
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != CHECKPOINT_FORMAT or type(version) is not int:
            raise CorruptDocument(
                f"checkpoint {path} is format {version!r}, not the format "
                f"{CHECKPOINT_FORMAT} this version reads; rerun `proverloop run` "
                "to rewrite its checkpoints"
            )
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            raise CorruptDocument(f"checkpoint {path} fails its sha256 check")
        what = f"checkpoint {path} header"
        dim = json_field(header, "dim", int, what)
        n_features = json_field(header, "n_features", int, what)
        # the least embedding_dim and feature_buckets a RunConfig takes
        for key, value, least in (("dim", dim, 1), ("n_features", n_features, 2)):
            if value < least:
                raise CorruptDocument(f"{what}: {key} must be in [{least}, inf), got {value}")
        history = json_field(header, "history", STRINGS, what)
        best_val_r10 = json_field(header, "best_val_r10", FLOAT_OR_NULL, what)
        has_fisher = json_field(header, "has_fisher", bool, what)
        # checked before any array exists, so a forged header cannot make
        # the load allocate what the file does not hold
        size = dim * n_features
        expected = 8 * size * (1 + has_fisher)
        if len(payload) != expected:
            raise CorruptDocument(f"checkpoint {path} has {len(payload)} bytes after its header "
                                  f"line, not the {expected} it declares")
        values = np.frombuffer(payload, dtype="<f8")
        return cls(
            model=EmbeddingModel(weight=values[:size].reshape(dim, n_features)),
            history=tuple(history),
            best_val_r10=best_val_r10,
            fisher=values[size:] if has_fisher else None,
        )


def lr_at(step: int, total_steps: int, warmup_steps: int, lr_max: float) -> float:
    """Linear warmup to lr_max, then cosine decay toward zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return lr_max * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    x = (step - warmup_steps) / span
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * x))


def train_one_epoch(
    checkpoint: Checkpoint,
    task: RetrievalTask,
    config: TrainConfig = TrainConfig(),
    *,
    with_fisher: bool = True,
) -> Checkpoint:
    """One seeded pass over the task's examples, anchored to the
    checkpoint by checkpoint.ewc_term(config.ewc_lambda).

    Returns the evaluated model with the highest validation recall@10, with
    the embeddings its evaluation made and, when with_fisher is set, its
    parameter importance on the task's examples; evaluations happen every
    eval_every steps and at epoch end. A run sets with_fisher only when a
    later task anchors to the checkpoint, so has_fisher is false on the
    last task's checkpoint and on every checkpoint at ewc_lambda = 0. The
    examples are featurized once (example_features), for every step and
    the importance.
    """
    if not task.train_examples:
        raise CorruptDocument(f"task {task.name!r} has no training examples")
    if not task.val_pairs:
        raise CorruptDocument(f"task {task.name!r} has no validation pairs")
    if config.batch_size < 1:
        raise ProverloopError(f"batch_size must be positive, got {config.batch_size}")

    features = example_features(task.corpus, task.train_examples,
                                checkpoint.model.n_features)
    # the steps run in their own frame, so their models and index are freed
    # before the Fisher pass, which would otherwise raise the stage's peak heap
    best_model, best_recall = _best_of_epoch(
        checkpoint.model.weight, task, config, features, checkpoint.ewc_term(config.ewc_lambda))
    return Checkpoint(
        model=best_model,
        history=checkpoint.history + (task.name,),
        best_val_r10=best_recall,
        fisher=compute_fisher(best_model, task.train_examples, config.batch_size, features)
        if with_fisher else None,
    )


def _best_of_epoch(
    weight: np.ndarray, task: RetrievalTask, config: TrainConfig,
    features: dict[str, np.ndarray], ewc: EwcTerm | None,
) -> tuple[EmbeddingModel, float]:
    """The steps and evaluations of train_one_epoch from weight: the
    evaluated model with the highest validation recall@10, and that recall.

    The steps update one copy of weight in place, the same operations in
    the same order as weight = weight - lr * grad; each evaluated model
    copies it, so no model shares it.
    """
    weight = np.array(weight)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(task.train_examples))
    examples = [task.train_examples[i] for i in order]
    batches = [
        examples[lo:lo + config.batch_size]
        for lo in range(0, len(examples), config.batch_size)
    ]
    total = len(batches)
    eval_every = config.eval_every or max(1, total // 4)

    best_model = None
    best_recall = -1.0
    for step, batch in enumerate(batches):
        # the step reads only the gradient, so the penalty's value is not taken;
        # its gradient is added as batch_loss_and_grad(..., ewc=) adds it
        _, grad = batch_loss_and_grad(weight, batch, features=features)
        if ewc is not None:
            grad += ewc_penalty_grad(weight.reshape(-1), ewc).reshape(grad.shape)
        # numpy's own pairwise sum: a BLAS dot would split it by thread count
        norm = float(np.sqrt(np.sum(grad * grad)))
        if config.clip_norm > 0.0 and norm > config.clip_norm:
            grad *= config.clip_norm / norm
        grad *= lr_at(step, total, config.warmup_steps, config.lr)
        weight -= grad
        if (step + 1) % eval_every == 0 or step == total - 1:
            candidate = EmbeddingModel(weight=weight)
            # the index dies with the recall: it holds the candidate's weights
            recall = recall_at_k(candidate, precompute_embeddings(candidate, task.corpus),
                                 task.val_pairs, k=10)
            if recall > best_recall:
                best_recall = recall
                best_model = candidate
    assert best_model is not None
    return best_model, best_recall
