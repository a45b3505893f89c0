"""Embeddings, contrastive training, parameter anchoring, and recall."""

import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    contrastive_loss,
    corpus_of,
    example_loss_and_grad,
    example_loss_and_grad_oracle,
    fisher_oracle,
    mine_training_examples_oracle,
    ngram_oracle,
    pfile,
    precompute_embeddings_oracle,
    premise,
    premise_by_key,
    recall_at_k_oracle,
    tactic,
    texts_by_key,
    theorem,
    train_one_epoch_oracle,
)
from proverloop import retriever
from proverloop.corpus import TracedTactic, parse_corpus, serialize_corpus
from proverloop.errors import CorruptDocument, IoFailure, ProverloopError
from proverloop.fixtures import write_bundled
from proverloop.pipeline import _build_task, ingest_fixtures, parse_config
from proverloop.retriever import (
    Checkpoint,
    EmbeddingModel,
    EvalSet,
    EwcTerm,
    RetrievalTask,
    TrainConfig,
    TrainingExample,
    batch_loss_and_grad,
    compute_fisher,
    example_features,
    ewc_penalty,
    ewc_penalty_grad,
    hash_ngrams,
    lr_at,
    mine_training_examples,
    ngram_features,
    precompute_embeddings,
    rank_by_similarity,
    recall_at_k,
    train_one_epoch,
)
from proverloop.storage import dump_json


def random_texts(count, seed=0):
    """Seeded texts of 0-120 characters, with multi-byte symbols."""
    rng = np.random.default_rng(seed)
    alphabet = list("abcxyz_.:,()[]=+01 ") + ["∀", "⊢", "→", "≤"]
    return ["".join(rng.choice(alphabet, size=rng.integers(0, 121))) for _ in range(count)]


BUCKET_COUNTS = (2, 3, 1024, 2048, 65536)


def assert_rows_match_oracle(texts, phi, n_features):
    assert phi.shape == (len(texts), n_features)
    for text, row in zip(texts, phi):
        assert np.array_equal(row, ngram_oracle(text, n_features)), text


class TestFeaturesAndEmbedding:
    def test_features_match_independent_oracle(self):
        texts = ("", "ab", "lift the chain", "∀ x, x = x")
        assert_rows_match_oracle(texts, ngram_features(texts, 256), 256)

    def test_kernel_matches_oracle_on_random_texts(self):
        # the uncached kernel, so the sweep leaves no blocks in the cache; the
        # widest bucket count goes 20 texts at a time to keep each call small
        texts = random_texts(500)
        for n_features in BUCKET_COUNTS:
            step = 20 if n_features > 4096 else len(texts)
            for lo in range(0, len(texts), step):
                group = texts[lo:lo + step]
                assert_rows_match_oracle(group, hash_ngrams(group, n_features), n_features)

    def test_groups_keep_each_texts_grams_apart(self):
        # empty, 1-byte and multi-byte texts side by side, so an n-gram that
        # straddled two texts would add counts to a row; the longest list
        # spans several bincount blocks
        pieces = ["", "a", "é", "∀", "ab", "a∀", "⊢ x"]
        for seed, size in enumerate((1, 2, 5, retriever.HASH_BLOCK, 3 * retriever.HASH_BLOCK + 7)):
            rng = np.random.default_rng(seed)
            texts = [pieces[i] for i in rng.integers(0, len(pieces), size)]
            texts[::3] = random_texts(len(texts[::3]), seed=seed)
            for n_features in (2, 3, 1024):
                assert_rows_match_oracle(texts, hash_ngrams(texts, n_features), n_features)

    @pytest.mark.parametrize("text", ["", "a", "ab", "abc", "é", "∀", "a∀"])
    @pytest.mark.parametrize("n_features", BUCKET_COUNTS)
    def test_short_texts_match_oracle(self, text, n_features):
        # the text between neighbours whose bytes would join its n-grams
        group = ["b", text, "∀", text]
        assert_rows_match_oracle(group, hash_ngrams(group, n_features), n_features)

    def test_features_are_read_only_narrowest_unsigned_counts(self):
        phi = ngram_features(("⊢ a ≤ b", "x"), 1024)
        assert phi.dtype == np.uint8 and phi.shape == (2, 1024)
        with pytest.raises(ValueError):
            phi[0, 1] = 2
        # 300 spaces count 300 in the 1-gram bucket of a space
        wide = ngram_features(("x", " " * 300), 1024)
        assert wide.dtype == np.uint16
        with pytest.raises(ValueError):
            wide[0, 1] = 2

    @pytest.mark.parametrize("long_text", [" " * 300, "ab" * 300, "x" * 70_000],
                             ids=["300 spaces", "300 ab", "70000 x"])
    def test_counts_past_a_byte_widen_exactly(self, long_text):
        # the long text alone, last in a block of short texts, and in a later
        # block, so the rows written before it are widened with the output
        short = random_texts(2 * retriever.HASH_BLOCK, seed=9)
        want = ngram_oracle(long_text, 1024)
        for before, after in ((0, 0), (retriever.HASH_BLOCK - 1, 0),
                              (retriever.HASH_BLOCK + 3, 5)):
            texts = short[:before] + [long_text] + short[before:before + after]
            phi = hash_ngrams(texts, 1024)
            assert phi.dtype == np.min_scalar_type(int(want.max()))
            assert np.array_equal(phi[before], want)
            others = texts[:before] + texts[before + 1:]
            assert_rows_match_oracle(others, np.delete(phi, before, axis=0), 1024)

    def test_demo_premise_blocks_hold_one_byte_per_bucket(self, tmp_path):
        write_bundled(tmp_path)
        config = parse_config(tmp_path / "run.cfg")
        db, _ = ingest_fixtures(config)
        for record in db.repositories:
            for f in record.premise_files:
                block = ngram_features(f.texts, config.feature_buckets)
                assert block.itemsize == 1 and block.nbytes == len(f.texts) * block.shape[1]

    def test_too_few_buckets_rejected(self):
        too_few = "^need at least one hash bucket beyond the bias slot$"
        with pytest.raises(ProverloopError, match=too_few):
            hash_ngrams(["x"], 1)
        with pytest.raises(ProverloopError, match=too_few):
            ngram_features(("x",), 1)

    def test_disjoint_grams_are_orthogonal_past_the_bias(self):
        a, b = hash_ngrams(["ab", "cd"], 65536)
        assert float(a[1:] @ b[1:]) == 0.0
        assert a[0] == b[0] == 1.0

    def test_no_texts_no_rows(self):
        assert hash_ngrams([], 64).shape == (0, 64)

    def test_same_text_same_vector(self):
        m = EmbeddingModel.random_init(dim=8, n_features=128, seed=1)
        assert np.array_equal(m.embed("state"), m.embed("state"))

    def test_embeddings_are_unit_norm(self):
        m = EmbeddingModel.random_init(dim=8, n_features=128, seed=2)
        for text in ("", "x", "a longer proof state with symbols ⊢ ∀"):
            assert np.linalg.norm(m.embed(text)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_weights_fall_back_to_fixed_unit_vector(self):
        m = EmbeddingModel(weight=np.zeros((4, 16)))
        e = m.embed("anything")
        assert np.array_equal(e, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_version_hash_tracks_weights(self):
        a = EmbeddingModel.random_init(dim=4, n_features=16, seed=0)
        b = EmbeddingModel.random_init(dim=4, n_features=16, seed=1)
        assert a.version_hash != b.version_hash
        assert a.version_hash == EmbeddingModel(weight=a.weight.copy()).version_hash

    def test_version_hash_formula(self):
        w = np.random.default_rng(3).normal(size=(5, 24))
        oracle = hashlib.sha256(b"5x24:" + np.ascontiguousarray(w).tobytes()).hexdigest()[:16]
        assert EmbeddingModel(weight=w).version_hash == oracle

    def test_weights_are_a_read_only_copy(self):
        w = np.zeros((2, 8))
        m = EmbeddingModel(weight=w)
        before = m.version_hash
        w[0, 0] = 1.0  # the caller's array is not the model's
        with pytest.raises(ValueError):
            m.weight[0, 0] = 1.0
        assert m.weight[0, 0] == 0.0 and m.version_hash == before

    # the run's embedding shapes: perfbench's 1024 buckets and the default 2048
    @pytest.mark.parametrize("n_features", [1024, 2048])
    def test_batch_rows_equal_texts_embedded_alone(self, n_features):
        # three full tiles and a partial one, then repeats
        texts = random_texts(3 * retriever.EMBED_TILE + 2, seed=1)
        m = EmbeddingModel.random_init(dim=48, n_features=n_features, seed=5)
        rows = m.embed_many(texts + texts[:5])
        assert rows.shape == (len(texts) + 5, 48)
        for text, row in zip(texts + texts[:5], rows):
            assert np.array_equal(row, EmbeddingModel(weight=m.weight).embed(text))

    @pytest.mark.parametrize("n_features", [1024, 2048])
    def test_index_rows_equal_texts_embedded_alone(self, n_features):
        # files that end inside a tile, at its end and one past it, and a
        # file spanning two tiles and one more row
        sizes = (1, 7, retriever.EMBED_TILE, 9, 17)
        corpus = corpus_of(*(pfile(f"lib/f{n}.lean", names=tuple(f"f{n}.p{i}" for i in range(n)))
                             for n in sizes))
        m = EmbeddingModel.random_init(dim=48, n_features=n_features, seed=4)
        index = precompute_embeddings(m, corpus)
        assert index.matrix.shape == (sum(sizes), 48)
        for text, row in zip(texts_by_key(corpus), index.matrix):
            assert np.array_equal(row, EmbeddingModel(weight=m.weight).embed(text)), text

    def test_files_are_featurized_whole_under_one_key_each(self, monkeypatch):
        a = pfile("lib/a.lean", names=("x.p0", "x.p1", "x.p2"))
        b = pfile("lib/b.lean", names=("x.p2", "x.p3", "x.p4"))
        assert a.texts[2] == b.texts[0]
        cache = functools.lru_cache(maxsize=None)(retriever.ngram_features.__wrapped__)
        monkeypatch.setattr(retriever, "ngram_features", cache)
        m = EmbeddingModel.random_init(dim=6, n_features=64, seed=1)
        precompute_embeddings(m, corpus_of(a))
        cache(b.texts, 64)  # b's block is cached, as training caches it
        misses = cache.cache_info().misses
        # m has embedded b's first text with a; b is still embedded whole
        index = precompute_embeddings(m, corpus_of(b))
        assert cache.cache_info().misses == misses
        assert cache.cache_info().currsize == 2
        for text, row in zip(texts_by_key(corpus_of(b)), index.matrix):
            assert np.array_equal(row, EmbeddingModel(weight=m.weight).embed(text)), text

        def refuse(texts, n_features):
            raise AssertionError(f"featurized {texts!r} again")

        # every text of both files is embedded, so neither is featurized
        monkeypatch.setattr(retriever, "ngram_features", refuse)
        monkeypatch.setattr(retriever, "hash_ngrams", refuse)
        precompute_embeddings(m, corpus_of(a, b))

    def test_an_index_over_re_added_files_featurizes_nothing(self, monkeypatch):
        # merge-all: the next corpus holds copies of the files the model
        # embedded, equal but not the same objects, in another order
        first = corpus_of(pfile("lib/a.lean", names=("a.p0", "a.p1", "a.p2")),
                          pfile("lib/b.lean", names=tuple(f"b.p{i}" for i in range(9))),
                          pfile("lib/empty.lean"))
        m = EmbeddingModel.random_init(dim=6, n_features=64, seed=2)
        index = precompute_embeddings(m, first)

        def refuse(texts, n_features):
            raise AssertionError(f"featurized {texts!r} again")

        monkeypatch.setattr(retriever, "ngram_features", refuse)
        monkeypatch.setattr(retriever, "hash_ngrams", refuse)
        again = corpus_of(*parse_corpus(serialize_corpus(first)).files[::-1])
        assert [f.path for f in again.files] != [f.path for f in first.files]
        rebuilt = precompute_embeddings(m, again)
        assert rebuilt.keys == index.keys
        assert rebuilt.matrix.tobytes() == index.matrix.tobytes()

    def test_a_model_featurizes_each_text_once(self, monkeypatch):
        texts = random_texts(20, seed=2)
        m = EmbeddingModel.random_init(dim=8, n_features=1024, seed=6)
        first = m.embed_many(texts)

        def refuse(texts, n_features):
            raise AssertionError(f"featurized {texts!r} again")

        monkeypatch.setattr(retriever, "ngram_features", refuse)
        monkeypatch.setattr(retriever, "hash_ngrams", refuse)
        assert np.array_equal(m.embed_many(texts[::-1]), first[::-1])
        assert np.array_equal(m.embed(texts[3]), first[3])

    def test_returned_rows_are_copies(self):
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=7)
        rows = m.embed_many(["a", "b"])
        before = rows.copy()
        rows += 1.0
        m.embed("a")[:] = 0.0
        assert np.array_equal(m.embed_many(["a", "b"]), before)

    def test_with_flat_starts_without_embeddings(self, monkeypatch):
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=8)
        m.embed("state")
        moved = m.with_flat(np.roll(m.flat(), 1))
        assert np.array_equal(moved.embed("state"),
                              EmbeddingModel(weight=moved.weight).embed("state"))
        assert not np.array_equal(moved.embed("state"), m.embed("state"))

    def test_with_flat_round_trip_and_shape_guard(self):
        m = EmbeddingModel.random_init(dim=3, n_features=8, seed=0)
        assert np.array_equal(m.with_flat(m.flat()).weight, m.weight)
        with pytest.raises(ProverloopError, match="^expected 24 parameters, got 7$"):
            m.with_flat(np.zeros(7))


class TestContrastiveLoss:
    def test_equal_similarities_one_negative(self):
        e = np.array([1.0, 0.0])
        assert contrastive_loss(e, e, np.array([e])) == pytest.approx(math.log(2), abs=1e-12)

    def test_equal_similarities_two_negatives(self):
        e = np.array([1.0, 0.0])
        assert contrastive_loss(e, e, np.array([e, e])) == pytest.approx(math.log(3), abs=1e-12)

    def test_separated_positive(self):
        state = np.array([1.0, 0.0])
        neg = np.array([0.0, 1.0])
        loss = contrastive_loss(state, state, np.array([neg, neg, neg]))
        assert loss == pytest.approx(math.log(1 + 3 * math.exp(-1.0)), abs=1e-12)

    def test_no_negatives_is_zero(self):
        e = np.array([1.0, 0.0])
        assert contrastive_loss(e, e, np.zeros((0, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ProverloopError, match="^state and positive embeddings differ "):
            contrastive_loss(np.zeros(2), np.zeros(3), np.zeros((0, 2)))


class TestAnchorPenalty:
    def test_arithmetic(self):
        term = EwcTerm(lam=0.1, fisher=np.array([2.0]), anchor=np.array([1.0]))
        assert ewc_penalty(np.array([1.5]), term) == pytest.approx(0.025, abs=1e-15)

    def test_zero_at_anchor(self):
        term = EwcTerm(lam=0.7, fisher=np.array([2.0, 3.0]), anchor=np.array([1.0, -1.0]))
        assert ewc_penalty(np.array([1.0, -1.0]), term) == 0.0

    def test_zero_strength(self):
        term = EwcTerm(lam=0.0, fisher=np.array([2.0]), anchor=np.array([0.0]))
        assert ewc_penalty(np.array([5.0]), term) == 0.0

    def test_gradient_is_lam_fisher_delta(self):
        term = EwcTerm(lam=0.5, fisher=np.array([2.0, 4.0]), anchor=np.array([1.0, 1.0]))
        got = ewc_penalty_grad(np.array([2.0, 0.0]), term)
        assert np.allclose(got, [1.0, -2.0], atol=1e-15)

    def test_shape_guard(self):
        term = EwcTerm(lam=0.5, fisher=np.zeros(3), anchor=np.zeros(3))
        with pytest.raises(ProverloopError, match="^penalty terms sized 3/3, model has 4 "):
            ewc_penalty(np.zeros(4), term)


def tiny_corpus(n=6, path="lib/pool.lean"):
    names = [f"pool.p{i}" for i in range(n)]
    return corpus_of(pfile(path, names=tuple(names)))


def example_from(corpus, pos_name, neg_names, state="⊢ a goal"):
    pos = corpus.premise_by_name(pos_name)
    negs = tuple(corpus.premise_by_name(n) for n in neg_names)
    return TrainingExample(state=state, positive=pos, negatives=negs)


class TestFisher:
    def test_mean_of_squared_batch_gradients(self):
        corpus = tiny_corpus()
        examples = [
            example_from(corpus, f"pool.p{i}", [f"pool.p{(i + 1) % 6}",
                                                f"pool.p{(i + 2) % 6}",
                                                f"pool.p{(i + 3) % 6}"],
                         state=f"state number {i}")
            for i in range(4)
        ]
        m = EmbeddingModel.random_init(dim=6, n_features=64, seed=3)
        fisher = compute_fisher(m, make_task(corpus, examples, []), batch_size=2)
        _, g1 = batch_loss_and_grad(m, examples[:2])
        _, g2 = batch_loss_and_grad(m, examples[2:])
        oracle = (g1.reshape(-1) ** 2 + g2.reshape(-1) ** 2) / 2.0
        assert np.allclose(fisher, oracle, atol=1e-15)

    def test_single_batch_is_squared_gradient(self):
        corpus = tiny_corpus()
        examples = [example_from(corpus, "pool.p0", ["pool.p1", "pool.p2", "pool.p3"])]
        m = EmbeddingModel.random_init(dim=4, n_features=32, seed=5)
        fisher = compute_fisher(m, make_task(corpus, examples, []), batch_size=16)
        _, g = batch_loss_and_grad(m, examples)
        assert np.allclose(fisher, g.reshape(-1) ** 2, atol=1e-15)

    def test_zero_gradients_give_zero_importance(self):
        corpus = tiny_corpus()
        # identical positive and negatives: softmax is flat and gradients cancel
        m = EmbeddingModel(weight=np.zeros((4, 32)))
        examples = [example_from(corpus, "pool.p0", ["pool.p0", "pool.p0", "pool.p0"])]
        fisher = compute_fisher(m, make_task(corpus, examples, []), batch_size=1)
        assert np.allclose(fisher, 0.0, atol=1e-15)

    def test_no_examples_rejected(self):
        m = EmbeddingModel.random_init(dim=4, n_features=32, seed=0)
        with pytest.raises(ProverloopError,
                           match="^no examples to estimate parameter importance from$"):
            compute_fisher(m, make_task(tiny_corpus(), [], []), batch_size=4)


def ragged_batch(rng, corpus, size):
    """size examples over the corpus, each with 1-3 distinct negatives."""
    pool = corpus.all_premises()
    batch = []
    for _ in range(size):
        picks = rng.choice(len(pool), size=1 + int(rng.integers(1, 4)), replace=False)
        batch.append(TrainingExample(
            state=f"⊢ goal {int(rng.integers(1000))} ∧ x",
            positive=pool[picks[0]],
            negatives=tuple(pool[i] for i in picks[1:]),
        ))
    return batch


def relative_error(got, want):
    return float(np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want))


class TestBatchKernel:
    def oracle(self, model, batch, ewc=None):
        """Mean of the per-example oracle losses and gradients."""
        parts = [example_loss_and_grad_oracle(model, ex) for ex in batch]
        loss = sum(p[0] for p in parts) / len(batch)
        grad = sum(p[1] for p in parts) / len(batch)
        if ewc is not None:
            theta = model.flat()
            loss += ewc_penalty(theta, ewc)
            grad = grad + ewc_penalty_grad(theta, ewc).reshape(model.weight.shape)
        return loss, grad

    @pytest.mark.parametrize("with_ewc", [False, True])
    def test_ragged_batches_match_the_per_example_oracle(self, with_ewc):
        corpus = tiny_corpus(n=12)
        rng = np.random.default_rng(21)
        for size in (1, 2, 3, 5, 8, 13, 16):
            model = EmbeddingModel.random_init(dim=6, n_features=128, seed=size)
            ewc = None
            if with_ewc:
                ewc = EwcTerm(lam=0.3, fisher=rng.uniform(size=model.weight.size),
                              anchor=model.flat() + rng.normal(0.0, 0.05, model.weight.size))
            batch = ragged_batch(rng, corpus, size)
            loss, grad = batch_loss_and_grad(model, batch, ewc)
            want_loss, want_grad = self.oracle(model, batch, ewc)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            assert relative_error(grad, want_grad) <= 1e-12

    def test_degenerate_rows_add_no_gradient(self):
        corpus = tiny_corpus(n=8)
        pool = corpus.all_premises()
        n_features = 4096
        # zero the bias column and every bucket of pool[0]'s text: the empty
        # state and pool[0] embed to zero, every other row stays live
        w = np.random.default_rng(4).normal(0.0, 0.1, size=(6, n_features))
        w[:, hash_ngrams([pool[0].text], n_features)[0] > 0] = 0.0
        model = EmbeddingModel(weight=w)
        batch = [
            TrainingExample(state="", positive=pool[1], negatives=(pool[2], pool[3])),
            TrainingExample(state="⊢ live", positive=pool[0], negatives=(pool[4],)),
            TrainingExample(state="⊢ other", positive=pool[5],
                            negatives=(pool[0], pool[6], pool[7])),
        ]
        phi = hash_ngrams([t for ex in batch for t in ex.texts()], n_features)
        norms = np.linalg.norm(phi @ w.T, axis=1)
        assert (norms == 0.0).sum() == 3 and (norms > 0.0).sum() == 9
        loss, grad = batch_loss_and_grad(model, batch)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        want_loss, want_grad = self.oracle(model, batch)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert relative_error(grad, want_grad) <= 1e-12


class TestMining:
    def corpus(self):
        return corpus_of(
            pfile("lib/one.lean", names=("one.a", "one.b")),
            pfile("lib/two.lean", names=("two.c", "two.d", "two.e")),
        )

    def test_two_references_give_two_examples(self):
        corpus = self.corpus()
        t = tactic("one.a")
        two_refs = t.__class__(
            tactic="apply one.a two.c", annotated_tactic="apply <a>one.a</a> <a>two.c</a>",
            referenced_premises=("one.a", "two.c"),
            state_before="⊢ g", state_after="<proved>",
        )
        thms = [theorem("t", path="lib/one.lean", tactics=(two_refs,))]
        examples = mine_training_examples(thms, corpus, seed=0)
        assert [e.positive.full_name for e in examples] == ["one.a", "two.c"]

    def test_negatives_distinct_and_exclude_positive(self):
        corpus = self.corpus()
        thms = [theorem("t", path="lib/one.lean", tactics=(tactic("one.a"),))]
        for seed in range(10):
            for ex in mine_training_examples(thms, corpus, seed=seed):
                keys = [n.key for n in ex.negatives]
                assert len(keys) == 3 and len(set(keys)) == 3
                assert ex.positive.key not in keys

    def test_in_file_negative_present_when_available(self):
        corpus = self.corpus()
        thms = [theorem("t", path="lib/one.lean", tactics=(tactic("one.a"),))]
        for seed in range(10):
            (ex,) = mine_training_examples(thms, corpus, seed=seed)
            assert any(n.file_path == "lib/one.lean" for n in ex.negatives)

    def test_lonely_file_falls_back_to_global_negatives(self):
        corpus = corpus_of(
            pfile("lib/solo.lean", names=("solo.a",)),
            pfile("lib/rest.lean", names=("rest.b", "rest.c", "rest.d")),
        )
        thms = [theorem("t", path="lib/solo.lean", tactics=(tactic("solo.a"),))]
        (ex,) = mine_training_examples(thms, corpus, seed=1)
        assert all(n.file_path == "lib/rest.lean" for n in ex.negatives)

    def test_unresolvable_reference_skipped(self):
        thms = [theorem("t", path="lib/one.lean", tactics=(tactic("ghost.q"),))]
        assert mine_training_examples(thms, self.corpus(), seed=0) == []

    def test_too_few_negative_candidates_skips_example(self):
        corpus = corpus_of(pfile("lib/small.lean", names=("s.a", "s.b", "s.c")))
        thms = [theorem("t", path="lib/small.lean", tactics=(tactic("s.a"),))]
        assert mine_training_examples(thms, corpus, seed=0) == []

    def test_same_seed_identical(self):
        corpus = self.corpus()
        thms = [
            theorem("t1", path="lib/one.lean", tactics=(tactic("one.a"), tactic("two.d"))),
            theorem("t2", path="lib/two.lean", tactics=(tactic("two.c"),)),
        ]
        a = mine_training_examples(thms, corpus, seed=7)
        b = mine_training_examples(thms, corpus, seed=7)
        assert a == b

    @pytest.mark.parametrize("seed", range(12))
    def test_draws_equal_the_candidate_array_oracle(self, seed):
        # files of 1-12 premises, so some positives have no in-file negative
        # and the smallest corpora skip examples for want of candidates
        rng = np.random.default_rng(seed)
        files = [pfile(f"lib/f{i}.lean",
                       names=tuple(f"f{i}.p{j}" for j in range(int(rng.integers(1, 13)))))
                 for i in range(int(rng.integers(1, 7)))]
        corpus = corpus_of(*files)
        names = [p.full_name for p in corpus.all_premises()] + ["ghost.q"]
        thms = [theorem(f"t{k}", path="lib/f0.lean",
                        tactics=tuple(tactic(names[int(i)], state_before=f"⊢ s{k}")
                                      for i in rng.integers(len(names), size=4)))
                for k in range(6)]
        got = mine_training_examples(thms, corpus, seed=seed)
        assert got == mine_training_examples_oracle(thms, corpus, seed=seed)


class TestIndexAndRecall:
    def test_index_covers_every_premise(self):
        corpus = tiny_corpus(n=3)
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
        index = precompute_embeddings(m, corpus)
        assert len(index.keys) == 3

    def test_empty_corpus_empty_index(self):
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
        index = precompute_embeddings(m, parse_corpus(""))
        assert index.keys == () and index.matrix.shape == (0, 4)

    def test_stored_vectors_match_fresh_embeddings_exactly(self):
        corpus = tiny_corpus(n=5)
        m = EmbeddingModel.random_init(dim=6, n_features=64, seed=4)
        index = precompute_embeddings(m, corpus)
        for row, key in enumerate(index.keys):
            assert np.array_equal(index.matrix[row], m.embed(premise_by_key(corpus, key).text))

    def test_rows_of_follows_the_given_order(self):
        corpus = tiny_corpus(n=5)
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
        index = precompute_embeddings(m, corpus)
        premises = corpus.all_premises()[::-1]
        rows = index.rows_of(premises)
        assert [index.keys[r] for r in rows] == [p.key for p in premises]
        assert index.rows_of([]).shape == (0,)

    def test_rows_of_an_unindexed_premise_raises_stale_index(self):
        corpus = tiny_corpus(n=3)
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
        index = precompute_embeddings(m, corpus)
        stranger = corpus_of(pfile("lib/ghost.lean", names=("ghost.p",))).all_premises()
        with pytest.raises(ProverloopError, match="^premise 'lib/ghost.lean::ghost.p' missing "):
            index.rows_of(corpus.all_premises() + stranger)

    def test_recall_after_retraining_raises_stale_index(self):
        corpus = tiny_corpus(n=4)
        old = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
        new = EmbeddingModel.random_init(dim=4, n_features=64, seed=1)
        index = precompute_embeddings(old, corpus)
        pairs = [("s", frozenset({"lib/pool.lean::pool.p0"}))]
        with pytest.raises(ProverloopError, match="^index built at .*, model is "):
            recall_at_k(new, index, EvalSet.resolve(pairs, index.keys), k=10)

    def test_an_index_checks_its_own_model_without_hashing(self, monkeypatch):
        corpus = tiny_corpus(n=4)
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
        monkeypatch.setattr(hashlib, "sha256", None)  # any hash would fail
        index = precompute_embeddings(m, corpus)
        index.check_model(m)
        pairs = [("s", frozenset({"lib/pool.lean::pool.p0"}))]
        assert recall_at_k(m, index, EvalSet.resolve(pairs, index.keys), k=10) == 1.0

    def test_an_index_accepts_other_weights_of_its_version_through_the_hash(self):
        corpus = tiny_corpus(n=4)
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
        index = precompute_embeddings(m, corpus)
        same = EmbeddingModel(weight=m.weight)
        assert same.weight is not m.weight
        index.check_model(same)
        assert index.version_hash == same.version_hash == m.version_hash

    def test_an_index_rejects_a_retrained_model_naming_both_versions(self):
        corpus = tiny_corpus(n=4)
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
        index = precompute_embeddings(m, corpus)
        retrained = m.with_flat(m.flat() + 1e-3)
        with pytest.raises(ProverloopError) as e:
            index.check_model(retrained)
        assert str(e.value) == \
            f"index built at {m.version_hash}, model is {retrained.version_hash}"

    def ranked_corpus(self):
        return corpus_of(pfile(
            "lib/deck.lean",
            names=tuple(f"deck.t{i:02d}" for i in range(11)) + ("deck.zz",),
        ))

    def bias_only_model(self, dim=4, n_features=64):
        # only the constant bias feature carries weight, so every text embeds
        # to the same vector and ranking falls to the key tie-break
        w = np.zeros((dim, n_features))
        w[0, 0] = 2.0
        w[1, 0] = 1.0
        return EmbeddingModel(weight=w)

    def recall_of(self, m, index, gt):
        """recall@10 of one query whose ground truth is gt."""
        return recall_at_k(m, index, EvalSet.resolve([("⊢ q", gt)], index.keys), k=10)

    def test_half_of_ground_truth_found(self):
        m = self.bias_only_model()
        index = precompute_embeddings(m, self.ranked_corpus())
        gt = frozenset({"lib/deck.lean::deck.t00", "lib/deck.lean::deck.zz"})
        assert self.recall_of(m, index, gt) == 0.5

    def test_top_ranked_single_truth(self):
        m = self.bias_only_model()
        index = precompute_embeddings(m, self.ranked_corpus())
        gt = frozenset({"lib/deck.lean::deck.t00"})
        assert self.recall_of(m, index, gt) == 1.0

    def test_truth_outside_top_k(self):
        m = self.bias_only_model()
        index = precompute_embeddings(m, self.ranked_corpus())
        gt = frozenset({"lib/deck.lean::deck.zz"})
        assert self.recall_of(m, index, gt) == 0.0

    def test_similarity_ties_break_by_ascending_key(self):
        m = self.bias_only_model()
        index = precompute_embeddings(m, self.ranked_corpus())
        # twelve exact ties; t10 and zz must lose the last top-10 slots
        gt_last = frozenset({"lib/deck.lean::deck.t10"})
        assert self.recall_of(m, index, gt_last) == 0.0
        gt_first = frozenset({"lib/deck.lean::deck.t09"})
        assert self.recall_of(m, index, gt_first) == 1.0

    def test_recall_matches_independent_ranking(self):
        corpus = corpus_of(pfile(
            "lib/mix.lean", names=tuple(f"mix.m{i:02d}" for i in range(15)),
        ))
        m = EmbeddingModel.random_init(dim=8, n_features=256, seed=6)
        index = precompute_embeddings(m, corpus)
        pool = sorted(p.key for p in corpus.all_premises())
        rng = np.random.default_rng(0)
        pairs = []
        expected = []
        for j in range(5):
            state = f"⊢ query {j}"
            gt = frozenset(rng.choice(pool, size=3, replace=False).tolist())
            pairs.append((state, gt))
            q = m.embed(state)
            sims = {key: float(index.matrix[index.keys.index(key)] @ q) for key in pool}
            top3 = sorted(pool, key=lambda key: (-sims[key], key))[:3]
            expected.append(len(gt.intersection(top3)) / 3.0)
        got = recall_at_k(m, index, EvalSet.resolve(pairs, index.keys), k=3)
        assert got == pytest.approx(sum(expected) / 5.0, abs=1e-12)

    def test_empty_pairs_rejected(self):
        corpus = tiny_corpus(n=4)
        m = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
        index = precompute_embeddings(m, corpus)
        with pytest.raises(ProverloopError, match="^no evaluation pairs$"):
            recall_at_k(m, index, EvalSet.resolve([], index.keys), k=10)
        with pytest.raises(ProverloopError, match="^empty ground truth for state 's'$"):
            EvalSet.resolve([("s", frozenset())], index.keys)


# few distinct values, so most rankings have ties, some of them at the cut
TIED_SIMS = (-1.0, -0.25, -0.0, 0.0, 0.5, 1.0, math.nan)


@st.composite
def tied_rankings(draw):
    sims = draw(st.lists(st.sampled_from(TIED_SIMS), min_size=1, max_size=40))
    rows = draw(st.permutations(range(len(sims))))
    return np.array(sims), np.array(rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tied_rankings())
def test_top_k_ranking_is_the_prefix_of_the_full_sort(ranking):
    sims, rows = ranking
    full = np.lexsort((rows, -sims))
    for k in range(1, len(sims) + 2):
        assert rank_by_similarity(sims, rows, k).tolist() == full[:k].tolist()


# few names and statements, so premises in different files share texts and
# rank in exact ties, some of them at the cut
RECALL_NAMES = ("alpha", "beta", "gamma", "delta", "eps")
RECALL_STATEMENTS = ("x = x", "x + 0 = x", "0 < 1")
# a ground-truth key that no index holds
GHOST_KEY = "lib/ghost.lean::ghost"


# file sizes around the embedding tile and chunk edges, and empty files
INDEX_FILE_SIZES = (0, 1, 7, retriever.EMBED_TILE, 9, retriever.EMBED_CHUNK - 1,
                    retriever.EMBED_CHUNK, retriever.EMBED_CHUNK + 1, 2 * retriever.EMBED_CHUNK + 1)


@st.composite
def index_cases(draw):
    """A corpus, possibly with a file of another's texts and a file sharing
    one text with another, and the premise texts a model embeds through
    embed_many before the build."""
    files = [pfile(f"lib/f{j}.lean", names=tuple(f"f{j}.p{i}" for i in range(n)))
             for j, n in enumerate(draw(st.lists(st.sampled_from(INDEX_FILE_SIZES),
                                                 min_size=1, max_size=4)))]
    if draw(st.booleans()):
        twin = draw(st.sampled_from(files))
        files.append(pfile("lib/twin.lean", names=tuple(p.full_name for p in twin.premises)))
    if draw(st.booleans()):
        shared = draw(st.sampled_from([p.full_name for f in files for p in f.premises] or ["x"]))
        files.append(pfile("lib/shared.lean", names=("shared.p0", shared, "shared.p1")))
    corpus = corpus_of(*files)
    texts = [p.text for p in corpus.all_premises()]
    early = draw(st.lists(st.sampled_from(texts), max_size=12)) if texts else []
    return corpus, early, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(index_cases())
def test_index_equals_the_per_text_oracle(case):
    """The scattered file blocks are the per-text gather bit for bit, and
    each row is its text embedded alone."""
    corpus, early, seed = case
    m = EmbeddingModel.random_init(dim=48, n_features=1024, seed=seed)
    m.embed_many(early)
    index = precompute_embeddings(m, corpus)
    oracle = precompute_embeddings_oracle(EmbeddingModel(weight=m.weight), corpus)
    assert index.keys == oracle.keys == corpus.keys
    assert index.matrix.shape == (len(corpus.keys), 48)
    assert index.matrix.tobytes() == oracle.matrix.tobytes()
    alone = EmbeddingModel(weight=m.weight)
    for text, row in zip(texts_by_key(corpus), index.matrix):
        assert row.tobytes() == alone.embed(text).tobytes(), text


@st.composite
def recall_cases(draw):
    files = []
    for j in range(draw(st.integers(1, 4))):
        path = f"lib/f{j}.lean"
        names = draw(st.lists(st.sampled_from(RECALL_NAMES), min_size=1, unique=True))
        files.append(pfile(path, premises=tuple(
            premise(name, path=path, statement=draw(st.sampled_from(RECALL_STATEMENTS)),
                    start=(3 * i + 1, 1), end=(3 * i + 2, 1))
            for i, name in enumerate(names))))
    corpus = corpus_of(*files)
    keys = sorted(p.key for p in corpus.all_premises())
    states = [f"⊢ goal {i}" for i in range(4)] + [p.text for p in corpus.all_premises()]
    n_queries = draw(st.sampled_from([1, 5, retriever.RECALL_BLOCK, retriever.RECALL_BLOCK + 1,
                                      2 * retriever.RECALL_BLOCK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ghosts = draw(st.sampled_from([0.0, 0.3]))
    pairs = [(states[rng.integers(len(states))],
              frozenset(rng.choice(keys, size=rng.integers(1, min(3, len(keys)) + 1),
                                   replace=False).tolist())
              | ({GHOST_KEY} if rng.random() < ghosts else set()))
             for _ in range(n_queries)]
    k = draw(st.integers(1, len(keys) + 2))
    nan_rows = draw(st.lists(st.integers(0, len(keys) - 1), max_size=3))
    return corpus, pairs, k, draw(st.integers(0, 3)), nan_rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(recall_cases())
def test_blocked_recall_equals_the_per_query_oracle(case):
    """Tied texts, keys missing from the index, NaN similarities, k >= the
    index size and one to three blocks."""
    corpus, pairs, k, seed, nan_rows = case
    m = EmbeddingModel.random_init(dim=8, n_features=64, seed=seed)
    index = precompute_embeddings(m, corpus)
    index.matrix[nan_rows] = np.nan
    want = recall_at_k_oracle(m, index, pairs, k)
    assert recall_at_k(m, index, EvalSet.resolve(pairs, corpus.keys), k=k) == want


def test_ground_truth_rows_are_index_rows():
    corpus = corpus_of(pfile("lib/a.lean", names=("a0", "a1", "a2")),
                       pfile("lib/b.lean", names=("b0",)))
    keys = corpus.keys
    pairs = [("s0", frozenset({keys[2], GHOST_KEY})), ("s1", frozenset({GHOST_KEY})),
             ("s2", [keys[3], keys[0], keys[3]])]
    evals = EvalSet.resolve(pairs, keys)
    assert evals.keys is keys
    assert evals.states == ("s0", "s1", "s2") and len(evals) == 3
    assert list(zip(evals.query.tolist(), evals.row.tolist())) == [(0, 2), (2, 0), (2, 3)]
    assert evals.size.tolist() == [2, 1, 2]


def test_recall_rejects_a_set_resolved_against_another_index():
    corpus = tiny_corpus(n=4)
    m = EmbeddingModel.random_init(dim=4, n_features=64, seed=0)
    index = precompute_embeddings(m, corpus)
    pairs = [("s", frozenset({"lib/pool.lean::pool.p0"}))]
    with pytest.raises(ProverloopError,
                       match="^evaluation set resolved against another index's keys$"):
        recall_at_k(m, index, EvalSet.resolve(pairs, corpus.keys[1:]))
    # equal keys held in another tuple are the same index order
    assert recall_at_k(m, index, EvalSet.resolve(pairs, tuple(list(corpus.keys)))) == 1.0


def test_a_task_resolves_its_own_ground_truth_rows(tmp_path):
    """A run's task resolves each split against its own corpus's keys, so
    every recall_at_k of the task finds the index's keys by identity."""
    write_bundled(tmp_path)
    db, _ = ingest_fixtures(parse_config(tmp_path / "run.cfg"))
    dataset = db.generate_dataset([db.repositories[0].repo_id], strategy="single", seed=3,
                                  val_frac=0.2, test_frac=0.2)
    task = _build_task("unit", dataset, seed=0)
    for evals, theorems in ((task.val_pairs, dataset.split.val),
                            (task.test_pairs, dataset.split.test)):
        assert evals.keys is task.corpus.keys
        want = EvalSet.of_split(theorems, task.corpus)
        assert evals.states == want.states
        for name in ("query", "row", "size"):
            assert np.array_equal(getattr(evals, name), getattr(want, name))


def make_task(corpus, examples, pairs, name="unit"):
    """A task whose validation and test sets are the pairs, resolved
    against the corpus's keys."""
    evals = EvalSet.resolve(pairs, corpus.keys)
    return RetrievalTask(name=name, corpus=corpus, train_examples=examples,
                         val_pairs=evals, test_pairs=evals)


class TestTraining:
    def training_task(self, n=8):
        corpus = tiny_corpus(n=max(n, 6))
        examples = [
            example_from(corpus, f"pool.p{i % 6}",
                         [f"pool.p{(i + 1) % 6}", f"pool.p{(i + 2) % 6}", f"pool.p{(i + 3) % 6}"],
                         state=f"goal state {i}")
            for i in range(n)
        ]
        pairs = [(f"goal state {i}", frozenset({f"lib/pool.lean::pool.p{i % 6}"}))
                 for i in range(n)]
        return make_task(corpus, examples, pairs)

    def test_zero_learning_rate_is_a_no_op(self):
        task = self.training_task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=0))
        out = train_one_epoch(start, task, TrainConfig(lr=0.0, warmup_steps=0, seed=1))
        assert np.array_equal(out.model.weight, start.model.weight)

    def test_same_seed_bit_identical(self):
        task = self.training_task()
        config = TrainConfig(lr=0.05, warmup_steps=2, batch_size=3, seed=11)
        outs = []
        for _ in range(2):
            start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=0))
            outs.append(train_one_epoch(start, task, config))
        assert np.array_equal(outs[0].model.weight, outs[1].model.weight)
        assert outs[0].best_val_r10 == outs[1].best_val_r10
        assert json.dumps(outs[0].to_json(), sort_keys=True) == \
            json.dumps(outs[1].to_json(), sort_keys=True)

    def test_single_step_matches_hand_applied_gradient(self):
        corpus = tiny_corpus()
        ex = example_from(corpus, "pool.p0", ["pool.p1", "pool.p2", "pool.p3"])
        task = make_task(corpus, [ex],
                         [("⊢ a goal", frozenset({"lib/pool.lean::pool.p0"}))])
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=9))
        lr = 0.05
        config = TrainConfig(lr=lr, warmup_steps=0, batch_size=1, clip_norm=1e9, seed=0)
        out = train_one_epoch(start, task, config)

        loss_before, grad = example_loss_and_grad(start.model, ex)
        # one batch: full cosine-start learning rate, no clipping
        assert lr_at(0, 1, 0, lr) == lr
        expected = start.model.weight - lr * grad
        assert np.array_equal(out.model.weight, expected)
        loss_after, _ = example_loss_and_grad(out.model, ex)
        assert loss_after < loss_before

    def test_returned_recall_matches_returned_model(self):
        task = self.training_task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=3))
        out = train_one_epoch(start, task, TrainConfig(lr=0.1, warmup_steps=0,
                                                       batch_size=2, seed=5))
        index = precompute_embeddings(out.model, task.corpus)
        assert recall_at_k(out.model, index, task.val_pairs, k=10) == out.best_val_r10
        assert out.history == ("unit",)

    def test_returned_model_keeps_its_validation_embeddings(self, monkeypatch):
        task = self.training_task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=3))
        out = train_one_epoch(start, task, TrainConfig(lr=0.1, warmup_steps=0,
                                                       batch_size=2, seed=5))

        def refuse(texts, n_features):
            raise AssertionError(f"featurized {texts!r} again")

        monkeypatch.setattr(retriever, "ngram_features", refuse)
        monkeypatch.setattr(retriever, "hash_ngrams", refuse)
        index = precompute_embeddings(out.model, task.corpus)
        assert recall_at_k(out.model, index, task.val_pairs, k=10) == out.best_val_r10

    def test_empty_examples_or_pairs_rejected(self):
        task = self.training_task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=0))
        empty_examples = dataclasses.replace(task, train_examples=[])
        with pytest.raises(CorruptDocument, match="^task '.*' has no training examples$"):
            train_one_epoch(start, empty_examples, TrainConfig())
        empty_pairs = make_task(task.corpus, task.train_examples, [])
        with pytest.raises(CorruptDocument, match="^task '.*' has no validation pairs$"):
            train_one_epoch(start, empty_pairs, TrainConfig())

    def test_anchored_training_stays_closer_to_the_anchor(self):
        task = self.training_task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=0),
                           fisher=np.ones(6 * 64))
        anchor = start.model.flat()
        # several small batches: the pull toward the anchor is zero at the
        # first step and only bites once parameters have moved; evaluate only
        # at epoch end so the returned model is the final iterate of each run
        free = train_one_epoch(start, task, TrainConfig(
            lr=0.1, warmup_steps=0, batch_size=2, clip_norm=0.0,
            eval_every=999, seed=2))
        held = train_one_epoch(start, task, TrainConfig(
            lr=0.1, warmup_steps=0, batch_size=2, clip_norm=0.0,
            eval_every=999, seed=2, ewc_lambda=5.0))
        d_free = np.linalg.norm(free.model.flat() - anchor)
        d_held = np.linalg.norm(held.model.flat() - anchor)
        assert d_held < d_free

    def test_the_anchor_is_a_view_of_the_start_weights(self, monkeypatch):
        task = self.training_task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=0),
                           fisher=np.ones(6 * 64))
        start_weight = start.model.weight.copy()
        anchors = []
        penalty_grad = retriever.ewc_penalty_grad

        def recording(theta, term):
            anchors.append(term.anchor)
            return penalty_grad(theta, term)

        monkeypatch.setattr(retriever, "ewc_penalty_grad", recording)
        train_one_epoch(start, task, TrainConfig(lr=0.1, warmup_steps=0, batch_size=2,
                                                 seed=2, ewc_lambda=5.0))
        assert anchors
        for anchor in anchors:
            assert np.shares_memory(anchor, start.model.weight)
            assert not anchor.flags.writeable
        assert not start.model.weight.flags.writeable
        assert np.array_equal(start.model.weight, start_weight)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_a_batch_size_below_one_is_rejected(self, batch_size):
        task = self.training_task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=0))
        message = f"^batch_size must be positive, got {batch_size}$"
        with pytest.raises(ProverloopError, match=message):
            train_one_epoch(start, task, TrainConfig(batch_size=batch_size))
        with pytest.raises(ProverloopError, match=message):
            compute_fisher(start.model, task, batch_size=batch_size)


class TestExampleFeatures:
    def task(self):
        """Two files sharing one premise text, states repeated, one state
        spelled like a premise text, and validation states of their own."""
        corpus = corpus_of(pfile("lib/a.lean", names=("x.p0", "x.p1", "x.p2")),
                           pfile("lib/b.lean", names=("x.p2", "x.p3", "x.p4", "x.p5")))
        by_key = {p.key: p for p in corpus.all_premises()}
        shared = by_key["lib/b.lean::x.p2"]
        assert shared.text == by_key["lib/a.lean::x.p2"].text
        states = ["⊢ one", "⊢ two", by_key["lib/a.lean::x.p1"].text, "⊢ one"]
        premises = list(by_key.values())
        examples = [TrainingExample(state=states[i % 4], positive=premises[i % 7],
                                    negatives=tuple(premises[(i + d) % 7] for d in (1, 2, 3)))
                    for i in range(9)] + [
            TrainingExample(state="⊢ two", positive=shared, negatives=tuple(premises[:3]))]
        pairs = [(f"⊢ check {i}", frozenset({premises[i].key})) for i in range(3)]
        return make_task(corpus, examples, pairs)

    def test_rows_are_the_hashed_rows(self):
        task = self.task()
        features = example_features(task.corpus, task.train_examples, 64)
        texts = list(dict.fromkeys(t for ex in task.train_examples for t in ex.texts()))
        assert sorted(features) == sorted(texts)
        for text, row in zip(texts, hash_ngrams(texts, 64)):
            assert features[text].dtype == row.dtype
            assert np.array_equal(features[text], row), text

    def test_a_shared_text_has_its_hashed_row(self):
        # the shared text sits in a uint16 block beside a long premise and in
        # a uint8 block, and reads the counts hash_ngrams gives it alone
        shared = premise("w.s", path="lib/a.lean", start=(4, 1), end=(5, 1))
        corpus = corpus_of(
            pfile("lib/a.lean", premises=(premise("w.a0", statement=" " * 300), shared)),
            pfile("lib/b.lean", premises=(premise("w.s", path="lib/b.lean"),
                                          premise("w.b1", path="lib/b.lean",
                                                  start=(4, 1), end=(5, 1)))))
        assert [f.texts.count(shared.text) for f in corpus.files] == [1, 1]
        assert {ngram_features(f.texts, 64).dtype for f in corpus.files} == {
            np.dtype(np.uint8), np.dtype(np.uint16)}
        premises = corpus.all_premises()
        examples = [TrainingExample(state="⊢ s", positive=p,
                                    negatives=tuple(q for q in premises if q is not p)[:3])
                    for p in premises]
        features = example_features(corpus, examples, 64)
        assert np.array_equal(features[shared.text], hash_ngrams([shared.text], 64)[0])

    def test_rows_of_mixed_widths_equal_the_float64_path(self, monkeypatch):
        """One premise file and one state count a bucket past 255, so their
        rows are uint16 beside uint8 ones; the loss batches, the Fisher pass,
        which featurizes the examples itself, the index build and the state
        embeddings equal those made from the same counts as float64 rows,
        bit for bit."""
        long_premise = premise("w.b0", path="lib/b.lean", statement=" " * 300)
        corpus = corpus_of(
            pfile("lib/a.lean", names=("w.a0", "w.a1", "w.a2")),
            pfile("lib/b.lean", premises=(long_premise, premise(
                "w.b1", path="lib/b.lean", start=(4, 1), end=(5, 1)))))
        premises = corpus.all_premises()
        states = ["⊢ one", "⊢ " + "=" * 400, "⊢ two"]
        examples = [TrainingExample(state=states[i % 3], positive=premises[i % 5],
                                    negatives=tuple(premises[(i + d) % 5] for d in (1, 2, 3)))
                    for i in range(10)]
        model = EmbeddingModel.random_init(dim=6, n_features=64, seed=2)
        ewc = EwcTerm(lam=0.3, fisher=np.ones(model.weight.size), anchor=model.flat() + 0.01)

        def products(features):
            fresh = EmbeddingModel(weight=model.weight)
            return ([batch_loss_and_grad(fresh, examples[lo:lo + 4], ewc, features=features)
                     for lo in range(0, len(examples), 4)],
                    compute_fisher(fresh, make_task(corpus, examples, []), 4),
                    precompute_embeddings(fresh, corpus).matrix,
                    fresh.embed_many(states))

        features = example_features(corpus, examples, 64)
        for lo in range(0, len(examples), 4):
            widths = {features[t].dtype for ex in examples[lo:lo + 4] for t in ex.texts()}
            assert widths == {np.dtype(np.uint8), np.dtype(np.uint16)}
        got = products(features)
        kernel = retriever.hash_ngrams

        def as_float64(texts, n_features):
            return kernel(texts, n_features).astype(np.float64)

        monkeypatch.setattr(retriever, "hash_ngrams", as_float64)
        monkeypatch.setattr(retriever, "ngram_features", as_float64)
        features64 = example_features(corpus, examples, 64)
        assert {row.dtype for row in features64.values()} == {np.dtype(np.float64)}
        want = products(features64)
        for (loss, grad), (want_loss, want_grad) in zip(got[0], want[0]):
            assert loss == want_loss and np.array_equal(grad, want_grad)
        for array, want_array in zip(got[1:], want[1:]):
            assert np.array_equal(array, want_array)

    @pytest.mark.parametrize("with_ewc", [False, True])
    def test_loss_and_grad_are_the_hashing_paths(self, with_ewc):
        task = self.task()
        model = EmbeddingModel.random_init(dim=6, n_features=64, seed=2)
        ewc = EwcTerm(lam=0.3, fisher=np.ones(model.weight.size),
                      anchor=model.flat() + 0.01) if with_ewc else None
        features = example_features(task.corpus, task.train_examples, 64)
        for lo in range(0, len(task.train_examples), 3):
            batch = task.train_examples[lo:lo + 3]
            loss, grad = batch_loss_and_grad(model, batch, ewc, features=features)
            want_loss, want_grad = batch_loss_and_grad(model, batch, ewc)
            assert loss == want_loss and np.array_equal(grad, want_grad)
        assert np.array_equal(compute_fisher(model, task, 4), fisher_oracle(model, task, 4))

    @pytest.mark.parametrize("with_ewc", [False, True])
    def test_epoch_equals_the_hashing_loop_and_fisher(self, with_ewc):
        task = self.task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=4),
                           history=("earlier",), fisher=np.linspace(0.0, 2.0, 6 * 64))
        config = TrainConfig(lr=0.2, warmup_steps=1, batch_size=3, seed=6,
                             ewc_lambda=0.5 if with_ewc else 0.0)
        got = train_one_epoch(start, task, config)
        want = train_one_epoch_oracle(start, task, config)
        assert np.array_equal(got.model.weight, want.model.weight)
        assert got.best_val_r10 == want.best_val_r10
        assert got.history == want.history == ("earlier", "unit")
        assert got.fisher is None
        assert np.array_equal(compute_fisher(got.model, task, config.batch_size),
                              fisher_oracle(want.model, task, config.batch_size))

    def test_an_epoch_never_runs_the_importance_pass(self, monkeypatch):
        task = self.task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=4),
                           fisher=np.linspace(0.0, 2.0, 6 * 64))
        config = TrainConfig(lr=0.2, warmup_steps=1, batch_size=3, seed=6, ewc_lambda=0.5)
        want = train_one_epoch_oracle(start, task, config)

        def refuse(model, task, batch_size):
            raise AssertionError("compute_fisher called")

        monkeypatch.setattr(retriever, "compute_fisher", refuse)
        got = train_one_epoch(start, task, config)
        assert got.fisher is None
        assert np.array_equal(got.model.weight, want.model.weight)
        assert (got.history, got.best_val_r10) == (want.history, want.best_val_r10)

    def test_an_epoch_never_takes_the_penalty_value(self, monkeypatch):
        # the steps read only the gradient; a small clip norm clips every step
        task = self.task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=4),
                           fisher=np.linspace(0.0, 2.0, 6 * 64))
        config = TrainConfig(lr=0.2, warmup_steps=1, batch_size=3, clip_norm=1e-3, seed=6,
                             ewc_lambda=0.5)
        want = train_one_epoch_oracle(start, task, config)

        def refuse(theta, term):
            raise AssertionError("ewc_penalty called")

        monkeypatch.setattr(retriever, "ewc_penalty", refuse)
        got = train_one_epoch(start, task, config)
        assert np.array_equal(got.model.weight, want.model.weight)
        assert got.best_val_r10 == want.best_val_r10

    def test_in_place_steps_change_no_model_and_no_anchor(self, monkeypatch):
        """The steps update their own buffer in place: the caller's weights,
        the anchor and every model evaluated before a later step keep theirs."""
        task = self.task()
        start = Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64, seed=4),
                           fisher=np.linspace(0.0, 2.0, 6 * 64))
        ewc = start.ewc_term(0.5)
        start_weight, anchor = start.model.weight.copy(), ewc.anchor.copy()
        evaluated = []
        recall = retriever.recall_at_k

        def recording(model, index, pairs, k):
            evaluated.append((model, model.weight.copy()))
            return recall(model, index, pairs, k)

        monkeypatch.setattr(retriever, "recall_at_k", recording)
        config = TrainConfig(lr=0.2, warmup_steps=1, batch_size=2, eval_every=1, seed=6,
                             ewc_lambda=0.5)
        got = train_one_epoch(start, task, config)
        assert len(evaluated) == math.ceil(len(task.train_examples) / 2) > 2
        assert np.array_equal(start.model.weight, start_weight)
        assert np.array_equal(ewc.anchor, anchor)
        for model, weight in evaluated:
            assert np.array_equal(model.weight, weight)
            assert not model.weight.flags.writeable
        assert not np.array_equal(evaluated[0][1], evaluated[-1][1])
        assert any(model is got.model for model, _ in evaluated)

    def test_an_epoch_hashes_each_state_once_and_no_premise(self, monkeypatch):
        task = self.task()
        cache = functools.lru_cache(maxsize=None)(retriever.ngram_features.__wrapped__)
        monkeypatch.setattr(retriever, "ngram_features", cache)
        # fill the file cache first, so that hashed holds only what the epoch hashes
        precompute_embeddings(EmbeddingModel.random_init(dim=6, n_features=64), task.corpus)
        assert cache.cache_info().currsize == len(task.corpus.files)
        hashed = []
        kernel = retriever.hash_ngrams
        monkeypatch.setattr(retriever, "hash_ngrams", lambda texts, n_features: (
            hashed.extend(texts) or kernel(texts, n_features)))
        train_one_epoch(Checkpoint(model=EmbeddingModel.random_init(dim=6, n_features=64)),
                        task, TrainConfig(lr=0.1, warmup_steps=0, batch_size=3))
        premise_texts = {p.text for p in task.corpus.all_premises()}
        assert premise_texts.isdisjoint(hashed)
        states = {ex.state for ex in task.train_examples} - premise_texts
        assert len(states) == 2
        for state in states:
            assert hashed.count(state) == 1, state
        assert cache.cache_info().currsize == len(task.corpus.files)


class TestLrSchedule:
    def test_linear_warmup(self):
        assert lr_at(0, 10, 4, 1.0) == 0.25
        assert lr_at(3, 10, 4, 1.0) == 1.0

    def test_cosine_decay_reaches_toward_zero(self):
        values = [lr_at(s, 10, 0, 1.0) for s in range(10)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.1


class TestCheckpoint:
    def test_round_trip_with_fisher(self, tmp_path):
        m = EmbeddingModel.random_init(dim=4, n_features=32, seed=0)
        ck = Checkpoint(model=m, history=("a", "b"), best_val_r10=0.75,
                        fisher=np.arange(m.weight.size, dtype=float))
        ck.save(tmp_path / "ck.json")
        again = Checkpoint.load(tmp_path / "ck.json")
        assert np.array_equal(again.model.weight, m.weight)
        assert again.history == ("a", "b")
        assert again.best_val_r10 == 0.75
        assert np.array_equal(again.fisher, ck.fisher)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        for fisher in (None, np.linspace(0.0, 1.0, 128)):
            m = EmbeddingModel.random_init(dim=4, n_features=32, seed=5)
            Checkpoint(model=m, history=("a",), best_val_r10=0.5, fisher=fisher).save(
                tmp_path / "one.ckpt")
            again = Checkpoint.load(tmp_path / "one.ckpt")
            again.save(tmp_path / "two.ckpt")
            assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "two.ckpt").read_bytes()
            assert (again.fisher is None) == (fisher is None)

    def _forge(self, path, payload, **fields):
        """A checkpoint file whose digest matches the given payload."""
        header = {"format_version": 3, "dim": 4, "n_features": 32, "history": [],
                  "best_val_r10": None, "has_fisher": True,
                  "sha256": hashlib.sha256(payload).hexdigest(), **fields}
        path.write_bytes(dump_json(header).encode("utf-8") + payload)

    @staticmethod
    def _raw(*arrays):
        return b"".join(np.asarray(arr, dtype="<f8").tobytes() for arr in arrays)

    @pytest.mark.parametrize("dim, n_features", [(1, 2), (48, 1024)])
    @pytest.mark.parametrize("with_fisher", [False, True])
    def test_streamed_bytes_are_the_whole_payload_encoding(self, tmp_path, dim, n_features,
                                                          with_fisher):
        """The file is dump_json of the header, then the weights' and the
        importance's little-endian float64 bytes, with nothing between."""
        m = EmbeddingModel.random_init(dim=dim, n_features=n_features, seed=2)
        fisher = np.linspace(0.0, 1.0, m.weight.size) if with_fisher else None
        Checkpoint(model=m, history=("a", "β"), best_val_r10=12.5, fisher=fisher).save(
            tmp_path / "ck.ckpt")
        payload = self._raw(m.weight, *([fisher] if with_fisher else []))
        header = {"format_version": 3, "dim": dim, "n_features": n_features,
                  "history": ["a", "β"], "best_val_r10": 12.5, "has_fisher": with_fisher,
                  "sha256": hashlib.sha256(payload).hexdigest()}
        assert (tmp_path / "ck.ckpt").read_bytes() == dump_json(header).encode("utf-8") + payload
        again = Checkpoint.load(tmp_path / "ck.ckpt")
        assert np.array_equal(again.model.weight, m.weight)
        assert (again.fisher is None) == (fisher is None)
        if with_fisher:
            assert np.array_equal(again.fisher, fisher)

    def test_save_does_not_copy_the_payload(self, tmp_path):
        m = EmbeddingModel.random_init(dim=64, n_features=4096, seed=0)
        ck = Checkpoint(model=m, fisher=np.ones(m.weight.size))  # 4 MiB of payload
        tracemalloc.start()
        try:
            ck.save(tmp_path / "ck.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_damaged_files_are_corrupt_documents(self, tmp_path):
        m = EmbeddingModel.random_init(dim=4, n_features=32, seed=0)
        good = tmp_path / "good.ckpt"
        Checkpoint(model=m, history=("a",), fisher=np.ones(m.weight.size)).save(good)
        data = good.read_bytes()
        theta = m.flat()
        both = self._raw(theta, np.ones(theta.size))
        flipped = bytearray(data)
        flipped[-3] ^= 0x01
        npy = io.BytesIO()
        np.save(npy, theta)
        sized = "bytes after its header line, not the"
        cases = [
            ("truncated", lambda p: p.write_bytes(data[:len(data) // 2]), "sha256"),
            ("truncated header", lambda p: p.write_bytes(data[:20]),
             "header line is not valid JSON"),
            ("flipped payload byte", lambda p: p.write_bytes(bytes(flipped)), "sha256"),
            ("non-JSON header",
             lambda p: p.write_bytes(b"\x93NUMPY not a header\n" + data),
             "header line is not valid JSON"),
            ("format 1 JSON", lambda p: p.write_text(json.dumps({
                "format_version": 1, "dim": 4, "n_features": 32,
                "theta": theta.tolist(), "history": [], "best_val_r10": None,
                "fisher": None, "anchor": None}, sort_keys=True) + "\n", encoding="utf-8"),
             "format 1.*rerun `proverloop run`"),
            ("format 2 npy records", lambda p: self._forge(
                p, npy.getvalue(), format_version=2, has_fisher=False),
             "format 2.*rerun `proverloop run`"),
            ("short by one value", lambda p: self._forge(p, both[:-8]), f"2040 {sized} 2048"),
            ("long by one value", lambda p: self._forge(p, both + bytes(8)), f"2056 {sized} 2048"),
            ("fisher flag without fisher", lambda p: self._forge(p, self._raw(theta)),
             f"1024 {sized} 2048"),
            ("fisher without its flag", lambda p: self._forge(p, both, has_fisher=False),
             f"2048 {sized} 1024"),
            ("float32 theta", lambda p: self._forge(
                p, theta.astype(np.float32).tobytes(), has_fisher=False), sized),
            ("npy record", lambda p: self._forge(p, npy.getvalue(), has_fisher=False), sized),
            ("bad history", lambda p: self._forge(p, both, history="ab"), "history"),
            ("one feature bucket", lambda p: self._forge(
                p, self._raw(np.ones(4), np.ones(4)), n_features=1), r"n_features.*\[2, inf\)"),
            ("no embedding rows", lambda p: self._forge(p, b"", dim=0), r"dim.*\[1, inf\)"),
            ("text best recall", lambda p: self._forge(p, both, best_val_r10="abc"),
             "best_val_r10"),
            ("text dim", lambda p: self._forge(p, self._raw(np.ones(128)), dim="2"), "'dim'"),
            ("boolean dim", lambda p: self._forge(p, self._raw(np.ones(64)), dim=True), "'dim'"),
            ("float format", lambda p: self._forge(p, both, format_version=3.0), "format 3.0"),
        ]
        for name, write, reason in cases:
            path = tmp_path / f"{name}.ckpt"
            write(path)
            with pytest.raises(CorruptDocument, match=reason):
                Checkpoint.load(path)
        assert Checkpoint.load(good).best_val_r10 is None  # null is its one other value

    def test_a_header_claiming_more_than_the_file_holds_allocates_nothing(self, tmp_path):
        """2**40 declared values over a 16-byte payload fail on the size check,
        before any array of the declared size is made."""
        path = tmp_path / "huge.ckpt"
        self._forge(path, bytes(16), dim=2 ** 20, n_features=2 ** 20, has_fisher=False)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptDocument, match=f"16 bytes .* not the {2 ** 43}"):
                Checkpoint.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_missing_file_is_an_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            Checkpoint.load(tmp_path / "absent.ckpt")

    def test_ewc_term_requires_fisher_and_positive_strength(self):
        m = EmbeddingModel.random_init(dim=4, n_features=32, seed=0)
        bare = Checkpoint(model=m)
        assert bare.ewc_term(0.5) is None
        armed = Checkpoint(model=m, fisher=np.ones(m.weight.size))
        assert armed.ewc_term(0.0) is None
        term = armed.ewc_term(0.5)
        assert term is not None and term.lam == 0.5
        assert np.array_equal(term.anchor, m.flat())


class TestEvalSetOfSplit:
    def test_queries_follow_citations(self):
        corpus = corpus_of(pfile("lib/one.lean", names=("one.a", "one.b")))
        thms = [
            theorem("t1", path="lib/one.lean",
                    tactics=(tactic("one.a", state_before="s1"),
                             tactic(state_before="s2"))),  # no references: dropped
            theorem("t2", path="lib/one.lean",
                    tactics=(tactic("ghost.q", state_before="s3"),)),  # unresolvable
        ]
        evals = EvalSet.of_split(thms, corpus)
        assert evals.keys is corpus.keys
        assert evals.states == ("s1",)
        assert (evals.query.tolist(), evals.row.tolist(), evals.size.tolist()) == ([0], [0], [1])

    def test_a_premise_cited_twice_is_one_key_and_unresolved_names_are_not_counted(self):
        corpus = corpus_of(pfile("lib/one.lean", names=("one.a", "one.b")))
        cites = TracedTactic(tactic="t", annotated_tactic="t", state_before="s",
                             state_after="done",
                             referenced_premises=("one.b", "ghost.q", "one.a", "one.b"))
        evals = EvalSet.of_split([theorem("t1", path="lib/one.lean", tactics=(cites,))], corpus)
        assert (evals.query.tolist(), evals.row.tolist(), evals.size.tolist()) == \
            ([0, 0], [0, 1], [2])

    def test_rows_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Each query's rows ascend, whatever order the set of its keys
        iterates in under PYTHONHASHSEED."""
        code = (
            "import sys, json; sys.path.insert(0, sys.argv[1]); "
            "from proverloop.retriever import EvalSet; "
            "keys = tuple(f'lib/k.lean::k{i:02d}' for i in range(24)); "
            "pairs = [(f's{q}', [keys[i] for i in range(q % 4, 24, 4)]) for q in range(8)]; "
            "e = EvalSet.resolve(pairs, keys); "
            "print(json.dumps([e.query.tolist(), e.row.tolist(), e.size.tolist()]))"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = [json.loads(subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed}).stdout) for seed in ("1", "2", "3")]
        assert outs[0] == outs[1] == outs[2]
        query, row, _ = outs[0]
        assert all(a < b for a, b, qa, qb in zip(row, row[1:], query, query[1:]) if qa == qb)
