"""Output checks on one repetition's out dir, and the figures read from it.

A repetition passes when every `proved` attempt in proofs.json replays on
the workload's own environment.json, matrix.csv is a complete lower
triangle with values in [0, 100], and (checked by the caller) the out dir
is byte-identical to the first repetition of the same seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path


class CheckFailed(Exception):
    pass


def tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over (relative path, content) of every file, and total bytes."""
    h = hashlib.sha256()
    total = 0
    for dirpath, dirnames, names in os.walk(root):
        dirnames.sort()
        for name in sorted(names):
            path = Path(dirpath) / name
            data = path.read_bytes()
            total += len(data)
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def _matrix_rows(path: Path, tasks: int) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != ["after_task", "eval_task", "r10"]:
        raise CheckFailed("matrix.csv has the wrong header")
    cells = {}
    for row in rows[1:]:
        k, i, value = int(row[0]), int(row[1]), float(row[2])
        if not 0.0 <= value <= 100.0:
            raise CheckFailed(f"matrix cell ({k}, {i}) = {value} is outside [0, 100]")
        cells[(k, i)] = value
    expected = {(k, i) for k in range(1, tasks + 1) for i in range(1, k + 1)}
    if set(cells) != expected or len(rows) - 1 != len(expected):
        raise CheckFailed(f"matrix.csv is not the complete {tasks}-task lower triangle")
    return [[cells[(k, i)] for i in range(1, k + 1)] for k in range(1, tasks + 1)]


class Checker:
    """Checks out dirs against one generated workload."""

    def __init__(self, workload_dir: Path, fixture_dirs: list[str]) -> None:
        from proverloop.corpus import load_theorems
        from proverloop.search import TableEnvironment, TableFixture

        self.tasks = len(fixture_dirs)
        self.envs = {}
        self.theorems = {}
        for name in fixture_dirs:
            root = workload_dir / name
            meta = json.loads((root / "repo.json").read_text(encoding="utf-8"))
            repo_id = f"{meta['url']}@{meta['commit']}"
            self.envs[repo_id] = TableEnvironment(TableFixture.load(root / "environment.json"))
            for thm in load_theorems((root / "theorems.json").read_text(encoding="utf-8")):
                self.theorems[(repo_id, thm.key_str)] = thm

    def check(self, out: Path) -> dict[str, float]:
        """Raise CheckFailed on a bad output; return the figures read from it."""
        from proverloop.search import replay_proof

        attempts = json.loads((out / "proofs.json").read_text(encoding="utf-8"))["attempts"]
        proved = 0
        for a in attempts:
            if a["status"] not in ("proved", "exhausted", "timeout"):
                raise CheckFailed(f"unknown search status {a['status']!r}")
            if a["status"] != "proved":
                continue
            key = (a["repo"], a["theorem"])
            if key not in self.theorems:
                raise CheckFailed(f"proof for unknown goal {a['theorem']!r}")
            if not replay_proof(self.envs[a["repo"]], self.theorems[key], a["proof"]):
                raise CheckFailed(f"proof of {a['theorem']!r} does not replay")
            proved += 1
        if not attempts:
            raise CheckFailed("proofs.json has no attempts")
        rows = _matrix_rows(out / "matrix.csv", self.tasks)
        return {
            "final_recall10": sum(rows[-1]) / len(rows[-1]),
            "proved_frac": proved / len(attempts),
        }
