"""Small builders and reference implementations shared across the test modules."""

import math

import numpy as np

from proverloop.corpus import (
    PROVED_MARKER,
    Premise,
    PremiseFile,
    Theorem,
    TracedTactic,
    corpus_from_files,
)
from proverloop.errors import ShapeMismatch
from proverloop.retriever import ngram_features

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


def corpus_of(*files):
    return corpus_from_files(list(files))


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
        raise ShapeMismatch("state and positive embeddings differ in dimension")
    sims = np.concatenate(([float(state_emb @ pos_emb)], neg_embs @ state_emb))
    m = float(np.max(sims))
    return m + math.log(float(np.sum(np.exp(sims - m)))) - sims[0]


def example_loss_and_grad_oracle(model, example):
    """One example's contrastive loss and its gradient, row by row.

    Rows whose pre-normalization vector vanishes embed as e_0 and contribute
    zero gradient.
    """
    texts = example.texts()
    phi = np.stack([ngram_features(t, model.n_features) for t in texts])
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
