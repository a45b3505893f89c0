"""Difficulty scoring and curriculum construction.

Difficulty is e raised to the number of proof steps. Admitted-but-unproven
theorems are infinitely hard; proofs traced without steps are "unstepped" and
get spread evenly over the three graded buckets. Thresholds are the 33rd and
67th percentiles (linear interpolation) of the pooled finite difficulties.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .corpus import STATUS_SORRY, Theorem
from .errors import CorruptDocument


@dataclass(frozen=True)
class Difficulty:
    kind: str  # "finite" | "infinite" | "unstepped"
    value: float | None = None


def compute_difficulty(theorem: Theorem) -> Difficulty:
    if theorem.status == STATUS_SORRY:
        return Difficulty("infinite", math.inf)
    steps = len(theorem.traced_tactics)
    if steps == 0 and theorem.proof is not None:
        steps = len(theorem.proof)
    if steps == 0:
        return Difficulty("unstepped")
    # e**710 overflows a float: longer proofs share the largest finite value
    return Difficulty("finite", math.exp(steps) if steps < 710 else sys.float_info.max)


@dataclass(frozen=True)
class Thresholds:
    p33: float
    p67: float


def _quantile(ordered: list[float], q: float) -> float:
    """The q-quantile of ascending values by linear interpolation, with
    numpy's arithmetic for its default method, so it equals np.quantile bit
    for bit (numpy's version imports numpy.ma on first use)."""
    v = (len(ordered) - 1) * q
    if v >= len(ordered) - 1:
        return ordered[-1]
    lo = math.floor(v)
    t = v - lo
    a, b = ordered[lo], ordered[lo + 1]
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1.0 - t)


def compute_thresholds(values: list[float]) -> Thresholds:
    """Percentile cut points over the pooled finite difficulties."""
    if not values:
        raise CorruptDocument("no finite difficulties to take percentiles of")
    ordered = sorted(map(float, values))
    return Thresholds(p33=_quantile(ordered, 0.33), p67=_quantile(ordered, 0.67))


def categorize_value(value: float, thresholds: Thresholds) -> str:
    # boundary values fall into the easier bucket
    if value <= thresholds.p33:
        return "easy"
    if value <= thresholds.p67:
        return "medium"
    return "hard"


@dataclass(frozen=True)
class CategoryCounts:
    easy: int = 0
    medium: int = 0
    hard: int = 0
    unproven: int = 0

    @property
    def total(self) -> int:
        return self.easy + self.medium + self.hard + self.unproven

    def to_json(self) -> dict:
        return {
            "easy": self.easy,
            "medium": self.medium,
            "hard": self.hard,
            "unproven": self.unproven,
        }


def count_categories(
    difficulties: Iterable[Difficulty], thresholds: Thresholds,
) -> CategoryCounts:
    """Bucket sizes of the difficulties. Finite values fall by the
    thresholds; unstepped theorems are dealt easy, medium, hard in turn, so
    no graded bucket starves."""
    tally = Counter(categorize_value(d.value, thresholds) if d.kind == "finite" else d.kind
                    for d in difficulties)
    n = tally["unstepped"]
    return CategoryCounts(
        easy=tally["easy"] + (n + 2) // 3,
        medium=tally["medium"] + (n + 1) // 3,
        hard=tally["hard"] + n // 3,
        unproven=tally["infinite"],
    )


def order_repositories(
    entries: list[tuple[str, CategoryCounts]],
) -> list[tuple[str, CategoryCounts]]:
    """Most easy theorems first; ties settle by ascending repo id."""
    return sorted(entries, key=lambda e: (-e[1].easy, e[0]))
