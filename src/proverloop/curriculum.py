"""Difficulty scoring and curriculum construction.

Difficulty is e raised to the number of proof steps. Admitted-but-unproven
theorems are infinitely hard; proofs traced without steps are "unstepped" and
get spread evenly over the three graded buckets. Thresholds are the 33rd and
67th percentiles (linear interpolation) of the pooled finite difficulties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import STATUS_SORRY, Theorem
from .errors import EmptyInput

EASY = "easy"
MEDIUM = "medium"
HARD = "hard"
UNPROVEN = "unproven"

_GRADED = (EASY, MEDIUM, HARD)


@dataclass(frozen=True)
class Difficulty:
    kind: str  # "finite" | "infinite" | "unstepped"
    steps: int | None = None
    value: float | None = None

    @classmethod
    def finite(cls, steps: int) -> Difficulty:
        if steps < 1:
            raise ValueError("finite difficulty needs at least one step")
        return cls(kind="finite", steps=steps, value=math.exp(steps))

    @classmethod
    def infinite(cls) -> Difficulty:
        return cls(kind="infinite", value=math.inf)

    @classmethod
    def unstepped(cls) -> Difficulty:
        return cls(kind="unstepped")


def compute_difficulty(theorem: Theorem) -> Difficulty:
    if theorem.status == STATUS_SORRY:
        return Difficulty.infinite()
    steps = len(theorem.traced_tactics)
    if steps == 0 and theorem.proof is not None:
        steps = len(theorem.proof)
    if steps == 0:
        return Difficulty.unstepped()
    return Difficulty.finite(steps)


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
        raise EmptyInput("no finite difficulties to take percentiles of")
    ordered = sorted(map(float, values))
    return Thresholds(p33=_quantile(ordered, 0.33), p67=_quantile(ordered, 0.67))


def categorize_value(value: float, thresholds: Thresholds) -> str:
    # boundary values fall into the easier bucket
    if value <= thresholds.p33:
        return EASY
    if value <= thresholds.p67:
        return MEDIUM
    return HARD


def categorize_theorems(
    items: list[tuple[Theorem, Difficulty]],
    thresholds: Thresholds,
) -> list[str]:
    """Category per input item, in input order.

    Unstepped theorems cycle easy, medium, hard in ascending
    (file_path, full_name) order so no bucket starves.
    """
    categories: list[str | None] = [None] * len(items)
    unstepped: list[tuple[tuple[str, str], int]] = []
    for i, (thm, diff) in enumerate(items):
        if diff.kind == "infinite":
            categories[i] = UNPROVEN
        elif diff.kind == "finite":
            assert diff.value is not None
            categories[i] = categorize_value(diff.value, thresholds)
        else:
            unstepped.append(((thm.file_path, thm.full_name), i))
    unstepped.sort()
    for slot, (_, i) in enumerate(unstepped):
        categories[i] = _GRADED[slot % 3]
    return [c for c in categories if c is not None]


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


def count_categories(categories: list[str]) -> CategoryCounts:
    return CategoryCounts(
        easy=categories.count(EASY),
        medium=categories.count(MEDIUM),
        hard=categories.count(HARD),
        unproven=categories.count(UNPROVEN),
    )


def order_repositories(
    entries: list[tuple[str, CategoryCounts]],
) -> list[tuple[str, CategoryCounts]]:
    """Most easy theorems first; ties settle by ascending repo id."""
    return sorted(entries, key=lambda e: (-e[1].easy, e[0]))
