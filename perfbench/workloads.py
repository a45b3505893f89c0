"""Seeded synthetic curricula for the benchmark.

Each workload is a set of repository fixture directories in the on-disk
format `proverloop.pipeline.load_repo_fixture` reads (`repo.json`,
`corpus.jsonl`, `theorems.json`, `environment.json`) plus a `run.cfg`.
The same (workload, seed) always gives the same bytes.

Every repository draws its own vocabulary and shares a core of premise
files whose wording drifts from repository to repository, so recall stays
below 100 and later tasks pull the encoder away from earlier ones.

Sorry goals come in four kinds with fixed counts and fixed table sizes per
repository, so the mix of search outcomes and the amount of search work do
not depend on the seed:

* ``proved``  a short branching table with a reachable goal,
* ``gated``   the same, but one edge on the only path to the goal requires a
              premise that retrieval must return,
* ``exhaust`` a finite dead-end table that search expands completely,
* ``cap``     a table with more states than ``max_expansions``.

Run as a script to check determinism and that every workload ingests:

    python3 perfbench/workloads.py --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

DRIFT = 0.08  # share of core words reworded in a repository's copy, per repository index
_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYMBOLS = ("=", "≤", "→", "↔", "⊆")
PROVED_MARKER = "<proved>"
GOAL = "PROVED"


@dataclass(frozen=True)
class Shape:
    """Size and form of one workload; every count is per repository."""

    repos: int
    core_files: int
    core_premises: int  # per core file
    own_files: int
    own_premises: int  # per own file
    chain_imports: bool  # own file i imports own file i-1 (deep import chains)
    theorems: int  # proven theorems with traced tactics
    steps: int  # tactics per proven theorem
    goals: dict[str, int]  # sorry goals by kind
    shared_files: int = 0  # own files of the previous repo re-added verbatim
    recopied_theorems: int = 0  # proven theorems of the previous repo re-added
    config: dict[str, str] = field(default_factory=dict)


_COMMON_CONFIG = {
    "embedding_dim": "48",
    "feature_buckets": "1024",
    "init_scale": "0.03",
    "lr": "0.15",
    "warmup_steps": "10",
    "batch_size": "16",
    "clip_norm": "1.0",
    "retrieval_fraction": "0.25",
    "retrieval_max": "100",
    "candidates": "64",
    "time_budget_ms": "600000",
    "wall_clock": "false",
}

WORKLOADS: dict[str, Shape] = {
    # The retriever does nearly all the work: a 700-premise corpus and ~575
    # traced steps per task, most of them in the test split so recall is
    # measured on ~500 pairs, the default evaluation cadence, EWC on, and
    # only a few tiny search tables.
    "train-heavy": Shape(
        repos=2, core_files=2, core_premises=100, own_files=4, own_premises=125,
        chain_imports=False, theorems=230, steps=2,
        goals={"proved": 2, "gated": 1, "exhaust": 1, "cap": 0},
        config={
            "strategy": "single", "ewc_lambda": "0.5", "eval_every": "0",
            "val_frac": "0.08", "test_frac": "0.6", "max_expansions": "40",
            "prove_after": "false",
        },
    ),
    # Per-expansion retrieval dominates: under two hundred examples per task,
    # deep import chains so goals see ~1.2k accessible premises, and many
    # branching sorry goals, some gated on a premise, some exhausting, some
    # hitting the cap. Most theorems are test theorems, so recall is steady.
    "search-heavy": Shape(
        repos=2, core_files=2, core_premises=100, own_files=5, own_premises=200,
        chain_imports=True, theorems=200, steps=2,
        goals={"proved": 3, "gated": 3, "exhaust": 1, "cap": 1},
        config={
            "strategy": "single", "ewc_lambda": "0.5", "eval_every": "999",
            "val_frac": "0.07", "test_frac": "0.65", "max_expansions": "50",
            "prove_after": "true",
        },
    ),
    # Writes dominate: many small repositories merged task by task, each
    # re-adding premise files and theorem copies of its predecessor so the
    # dedup rules fire; every task writes a dataset and a checkpoint.
    "merge-churn": Shape(
        repos=6, core_files=1, core_premises=30, own_files=3, own_premises=20,
        chain_imports=False, theorems=24, steps=2,
        goals={"proved": 1, "gated": 0, "exhaust": 1, "cap": 0},
        shared_files=1, recopied_theorems=4,
        config={
            "strategy": "merge-all", "ewc_lambda": "0.5", "eval_every": "999",
            "val_frac": "0.15", "test_frac": "0.6", "max_expansions": "30",
            "prove_after": "false",
        },
    ),
}


# -- text ----------------------------------------------------------------------

def _word(rng: random.Random) -> str:
    return "".join(
        rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3))
    )


def _vocab(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < n:
        w = _word(rng)
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _statement(rng: random.Random, words: list[str]) -> str:
    a, b, c, d = words[0], words[1], words[2], words[3]
    tail = " ".join(words[4:])
    sym = rng.choice(_SYMBOLS)
    return f"{a} ({b} x) {sym} {c} {d} {tail}".rstrip()


@dataclass
class _Premise:
    name: str
    path: str
    code: str
    words: list[str]
    line: int


@dataclass
class _File:
    path: str
    imports: list[str]
    premises: list[_Premise]

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "imports": list(self.imports),
            "premises": [
                {
                    "full_name": p.name,
                    "code": p.code,
                    "start": [p.line, 1],
                    "end": [p.line, 1 + len(p.code)],
                    "kind": "theorem-like" if i % 5 else "definition",
                }
                for i, p in enumerate(self.premises)
            ],
        }


def _make_file(
    rng: random.Random, path: str, ns: str, imports: list[str], n: int,
    own_words: list[str], mix_words: list[str], mix: float,
) -> _File:
    premises = []
    for j in range(n):
        k = rng.randint(5, 7)
        words = [
            rng.choice(mix_words) if rng.random() < mix else rng.choice(own_words)
            for _ in range(k)
        ]
        premises.append(_Premise(
            name=f"{ns}.{words[0]}_{j}", path=path, code=_statement(rng, words),
            words=words, line=2 * j + 1,
        ))
    return _File(path=path, imports=imports, premises=premises)


def _reword(rng: random.Random, f: _File, variants: dict[str, str], share: float) -> _File:
    """The repository's copy of a core file: same names, drifted wording."""
    premises = []
    for p in f.premises:
        words = [variants[w] if rng.random() < share else w for w in p.words]
        premises.append(_Premise(
            name=p.name, path=p.path, code=_statement(rng, words), words=words, line=p.line,
        ))
    return _File(path=f.path, imports=f.imports, premises=premises)


def _state(rng: random.Random, refs: list[_Premise], noise: list[str]) -> str:
    """A proof state that mentions most words of the premises it needs."""
    words = [w for p in refs for w in rng.sample(p.words, 4)]
    words += [rng.choice(noise) for _ in range(rng.randint(1, 3))]
    rng.shuffle(words)
    return "⊢ " + " ".join(words)


# -- search tables -------------------------------------------------------------------

class _Table:
    def __init__(self) -> None:
        self.initial: dict[str, str] = {}
        self.edges: list[dict] = []

    def edge(self, src: str, tactic: str, log_prob: float, dst: str, **extra) -> None:
        e = {"from": src, "tactic": tactic, "log_prob": round(log_prob, 4), "to": dst}
        e.update(extra)
        self.edges.append(e)

    def to_json(self) -> dict:
        states = sorted(
            {e["from"] for e in self.edges}
            | {e["to"] for e in self.edges if e["to"] != GOAL}
            | set(self.initial.values())
        )
        return {"states": states, "initial": dict(sorted(self.initial.items())), "edges": self.edges}


def _goal_table(
    rng: random.Random, table: _Table, tag: str, kind: str, noise: list[str],
    gate: _Premise | None, max_expansions: int,
) -> str:
    """Add one goal's transitions; return its initial state."""
    lp = lambda lo, hi: -rng.uniform(lo, hi)
    st = lambda i: f"⊢ {tag} {' '.join(rng.sample(noise, 3))} #{i}"
    if kind in ("proved", "gated"):
        depth = 3
        path = [st(i) for i in range(depth)]
        gate_at = rng.randrange(depth) if kind == "gated" else -1
        if gate is not None and gate_at >= 0:
            # every word of the gate premise, so a working retriever finds it
            path[gate_at] = f"⊢ {' '.join(gate.words)} #{tag}"
        for i, s in enumerate(path):
            dst = path[i + 1] if i + 1 < depth else GOAL
            extra = {"requires_premise": gate.name} if i == gate_at and gate else {}
            table.edge(s, f"step {i}", lp(0.05, 0.5), dst, **extra)
            for b in range(1 + i % 2):
                dead = f"{s} dead{b}"
                table.edge(s, f"try {b}", lp(0.6, 2.0), dead)
                table.edge(dead, "wander", lp(0.1, 1.0), f"{dead} more")
            if i % 3 == 1:
                table.edge(s, "crash", lp(0.05, 0.3), f"{s} crashed", fails=True)
        return path[0]
    if kind == "exhaust":
        n = 9
        nodes = [st(i) for i in range(n)]
        for i in range(n - 1):
            # a chain, so every node is reached, plus one random shortcut
            targets = sorted({i + 1, rng.randrange(i + 1, n)})
            for b, j in enumerate(targets):
                table.edge(nodes[i], f"move {b}", lp(0.1, 1.5), nodes[j])
        return nodes[0]
    if kind == "cap":
        width, layers = 3, max_expansions // 3 + 3
        grid = [[st(L * width + w) for w in range(width)] for L in range(layers)]
        for L in range(layers - 1):
            for w in range(width):
                for b in range(2):
                    table.edge(grid[L][w], f"go {b}", lp(0.1, 1.5), grid[L + 1][(w + b) % width])
        return grid[0][0]
    raise ValueError(f"unknown goal kind {kind!r}")


# -- repositories ------------------------------------------------------------------

def _theorem_json(url: str, commit: str, path: str, name: str, statement: str,
                  line: int, tactics: list[dict], status: str) -> dict:
    return {
        "url": url, "commit": commit, "file_path": path, "full_name": name,
        "statement": statement, "start": [line, 1], "end": [line + 1, 1],
        "traced_tactics": tactics, "status": status,
    }


def _tactics(rng: random.Random, steps: list[list[_Premise]], noise: list[str]) -> list[dict]:
    states = [_state(rng, refs, noise) for refs in steps]
    out = []
    for i, refs in enumerate(steps):
        names = [p.name for p in refs]
        text = rng.choice(("rw [{}]", "simp only [{}]", "exact {} h")).format(", ".join(names))
        out.append({
            "tactic": text,
            "annotated_tactic": [text, names],
            "state_before": states[i],
            "state_after": states[i + 1] if i + 1 < len(steps) else PROVED_MARKER,
        })
    return out


def fixture_names(workload: str) -> list[str]:
    return [f"repo_{r:02d}" for r in range(WORKLOADS[workload].repos)]


def generate(workload: str, seed: int) -> dict[str, bytes]:
    """All files of one workload, keyed by relative path."""
    shape = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    taken: set[str] = set()
    core_words = _vocab(rng, 160, taken)
    core = [
        _make_file(rng, f"lib/core_{c}.lean", f"core.c{c}", [], shape.core_premises,
                   core_words, core_words, 0.0)
        for c in range(shape.core_files)
    ]
    core_paths = [f.path for f in core]
    max_exp = int(shape.config["max_expansions"])
    files: dict[str, bytes] = {}
    dirs = []
    prev: tuple[list[_File], list[dict]] | None = None
    for r in range(shape.repos):
        name = fixture_names(workload)[r]
        url, commit = f"synthetic://{workload}/{name}", f"{seed:04d}{r:03d}"
        own_words = _vocab(rng, 220, taken)
        variants = {w: w + rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for w in core_words}
        repo_core = [_reword(rng, f, variants, min(0.6, DRIFT * r)) for f in core]
        own: list[_File] = []
        for i in range(shape.own_files):
            if shape.chain_imports:
                imports = [own[-1].path] if own else list(core_paths)
            else:
                imports = list(core_paths)
            own.append(_make_file(
                rng, f"{name}/f{i}.lean", f"r{r}.f{i}", imports, shape.own_premises,
                own_words, core_words, 0.3,
            ))
        shared = prev[0][:shape.shared_files] if prev else []
        repo_files = repo_core + shared + own
        pool = [p for f in repo_files for p in f.premises]
        # goals sit at the end of the last own file and see what it imports
        reach = own if shape.chain_imports else own[-1:]
        goal_pool = [p for f in repo_core + reach for p in f.premises]
        # a few premises are popular, as lemmas in real libraries are
        weights = [1.0 / (1 + (i % 97)) for i in range(len(pool))]
        theorems = []
        last = own[-1]
        line = 2 * shape.own_premises + 11
        for t in range(shape.theorems):
            host = own[t % len(own)]
            # fixed step and premise counts, so the amount of training work
            # does not depend on the seed or on which theorems land in train
            steps = []
            for i in range(shape.steps):
                picked = rng.choices(pool, weights=weights, k=1 + i % 2)
                steps.append([p for i, p in enumerate(picked) if p not in picked[:i]])
            theorems.append(_theorem_json(
                url, commit, host.path, f"r{r}.thm_{t}",
                f"{rng.choice(own_words)} holds for case {t}", line + 2 * t,
                _tactics(rng, steps, own_words), "proven",
            ))
        if prev:
            theorems.extend(prev[1][:shape.recopied_theorems])
        table = _Table()
        g = 0
        for kind in ("proved", "gated", "exhaust", "cap"):
            for _ in range(shape.goals.get(kind, 0)):
                gname = f"r{r}.open_{g}"
                gate = rng.choice(goal_pool) if kind == "gated" else None
                tag = f"g{r}_{g}"
                gline = line + 2 * (shape.theorems + g)
                start = _goal_table(rng, table, tag, kind, own_words, gate, max_exp)
                table.initial[f"{last.path}::{gname}"] = start
                theorems.append(_theorem_json(
                    url, commit, last.path, gname, f"open goal {tag}", gline, [],
                    "sorry_unproven",
                ))
                g += 1
        repo_json = {
            "url": url, "commit": commit, "name": name,
            "date_added": f"2025-{1 + r // 28:02d}-{1 + r % 28:02d}T00:00:00Z",
            "toolchain_version": "v4.9.0",
        }
        files[f"{name}/repo.json"] = _dump(repo_json)
        files[f"{name}/corpus.jsonl"] = "".join(
            json.dumps(f.to_json(), ensure_ascii=False) + "\n" for f in repo_files
        ).encode("utf-8")
        files[f"{name}/theorems.json"] = _dump(theorems)
        files[f"{name}/environment.json"] = _dump(table.to_json())
        dirs.append(name)
        prev = (own, [t for t in theorems if t["status"] == "proven"])
    cfg = [f"fixtures = {', '.join(dirs)}", "out = out", f"seed = {seed}"]
    cfg += [f"{k} = {v}" for k, v in sorted({**_COMMON_CONFIG, **shape.config}.items())]
    files["run.cfg"] = ("\n".join(cfg) + "\n").encode("utf-8")
    return files


def _dump(doc: object) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.encode() + b"\0" + hashlib.sha256(files[path]).digest())
    return h.hexdigest()


def write(files: dict[str, bytes], root: Path) -> Path:
    """Write the workload under root; return the run.cfg path."""
    for rel, data in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    return root / "run.cfg"


def _check(seed: int, scratch: Path) -> int:
    """Regenerate each workload, compare bytes, and ingest it."""
    from proverloop.pipeline import build_curriculum, ingest_fixtures, parse_config

    for name in WORKLOADS:
        files = generate(name, seed)
        if digest(files) != digest(generate(name, seed)):
            print(f"{name}: two generations of seed {seed} differ", file=sys.stderr)
            return 1
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            config = parse_config(write(files, Path(tmp)))
            db, envs = ingest_fixtures(config)
            build_curriculum(db)
            n_premises = max(
                sum(len(pf.premises) for pf in rec.premise_files) for rec in db.repositories
            )
            n_steps = max(
                sum(len(t.traced_tactics) for t in rec.theorems) for rec in db.repositories
            )
            n_goals = sum(len(rec.sorries()) for rec in db.repositories)
            print(f"{name}: {len(db.repositories)} repos, up to {n_premises} premises and "
                  f"{n_steps} traced steps per repo, {n_goals} sorry goals, "
                  f"digest {digest(files)[:16]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    return _check(args.seed, scratch)


if __name__ == "__main__":
    sys.exit(main())
