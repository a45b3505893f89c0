"""Continual-learning scoreboards over a lower-triangular recall matrix.

R[k][i] is the test recall@10 (percent) on task i's split after training
through task k, for i <= k. v[k] is the best validation recall (percent)
reached while training task k. Six summary numbers fall out:

    wf5   windowed forgetting, averaged over tasks (lower is better)
    wp5   windowed plasticity, best over tasks (higher is better)
    fm    end-of-run forgetting relative to each task's peak (lower)
    cfr   min/max quotient of the average-recall curve (higher)
    ebwt  mean backward transfer accumulated after each task (higher)
    ip    mean per-task slope of the validation series (higher)

Setups are compared by min-max normalizing each number across setups and
taking a fixed-weight blend; a metric constant across setups contributes its
neutral midpoint.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import CorruptDocument, ProverloopError
from .storage import read_text

METRIC_NAMES = ("wf5", "fm", "cfr", "ebwt", "wp5", "ip")

# weight, and whether bigger raw values are better
_COMPOSITE_TERMS = {
    "wf5": (0.2, False),
    "fm": (0.2, False),
    "wp5": (0.1, True),
    "ip": (0.1, True),
    "ebwt": (0.2, True),
    "cfr": (0.2, True),
}


@dataclass
class PerformanceMatrix:
    """Lower-triangular recall matrix plus the validation series."""

    rows: list[list[float]]
    validation: list[float]

    def __post_init__(self) -> None:
        for k, row in enumerate(self.rows):
            if len(row) != k + 1:
                raise CorruptDocument(f"row {k + 1} must have {k + 1} entries, has {len(row)}")
            for x in row:
                if not 0.0 <= x <= 100.0:
                    raise CorruptDocument(f"recall {x} outside [0, 100]")
        if len(self.validation) != len(self.rows):
            raise CorruptDocument(
                f"validation series has {len(self.validation)} entries "
                f"for {len(self.rows)} tasks"
            )
        for v in self.validation:
            if not 0.0 <= v <= 100.0:
                raise CorruptDocument(f"validation recall {v} outside [0, 100]")


def average_test_curve(rows: list[list[float]]) -> list[float]:
    """a_k: mean recall over tasks 1..k after training task k."""
    if not rows:
        raise CorruptDocument("empty matrix")
    return [sum(row) / len(row) for row in rows]


def windowed_forgetting(curve: list[float], window: int = 5) -> float:
    """Average drop of a_k below its recent peak (window includes k)."""
    if window < 2:
        raise ProverloopError("window must span at least two tasks")
    drops = []
    for k, a_k in enumerate(curve):
        lo = max(0, k - window + 1)
        drops.append(max(0.0, max(curve[lo:k + 1]) - a_k))
    return sum(drops) / len(drops)


def windowed_plasticity(curve: list[float], window: int = 5) -> float:
    """Largest rise of a_k above its recent minimum (window includes k)."""
    if window < 2:
        raise ProverloopError("window must span at least two tasks")
    rises = []
    for k, a_k in enumerate(curve):
        lo = max(0, k - window + 1)
        rises.append(max(0.0, a_k - min(curve[lo:k + 1])))
    return max(rises)


def forgetting_measure(rows: list[list[float]]) -> float:
    """Mean gap between each task's best earlier recall and its final recall."""
    t = len(rows)
    if t < 2:
        raise CorruptDocument("forgetting needs at least two tasks")
    total = 0.0
    for i in range(t - 1):
        peak = max(rows[j][i] for j in range(i, t - 1))
        total += peak - rows[t - 1][i]
    return total / (t - 1)


def cfr(curve: list[float]) -> float:
    """min/max quotient of the average-recall curve."""
    if not curve:
        raise CorruptDocument("empty curve")
    peak = max(curve)
    if peak <= 0.0:
        raise CorruptDocument("curve never leaves zero")
    return min(curve) / peak


def expanded_bwt(rows: list[list[float]]) -> float:
    """Mean of the backward-transfer averages taken after each task."""
    t = len(rows)
    if t < 2:
        raise CorruptDocument("backward transfer needs at least two tasks")
    bwts = []
    for k in range(1, t):
        bwts.append(sum(rows[k][i] - rows[i][i] for i in range(k)) / k)
    return sum(bwts) / len(bwts)


def incremental_plasticity(validation: list[float]) -> float:
    """Mean per-task slope of validation recall relative to the first task."""
    t = len(validation)
    if t < 2:
        raise CorruptDocument("plasticity needs at least two tasks")
    return sum((validation[k] - validation[0]) / k for k in range(1, t)) / (t - 1)


@dataclass(frozen=True)
class MetricReport:
    wf5: float
    fm: float
    cfr: float
    ebwt: float
    wp5: float
    ip: float

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def compute_report(matrix: PerformanceMatrix, window: int = 5) -> MetricReport:
    curve = average_test_curve(matrix.rows)
    return MetricReport(
        wf5=windowed_forgetting(curve, window),
        fm=forgetting_measure(matrix.rows),
        cfr=cfr(curve),
        ebwt=expanded_bwt(matrix.rows),
        wp5=windowed_plasticity(curve, window),
        ip=incremental_plasticity(matrix.validation),
    )


# -- cross-setup comparison ----------------------------------------------------

def _metric_values(report: Mapping[str, float]) -> dict[str, float]:
    missing = [n for n in METRIC_NAMES if n not in report]
    if missing:
        raise ProverloopError(f"setup is missing metrics {missing}")
    return {n: float(report[n]) for n in METRIC_NAMES}


def normalize_metrics(
    setups: Mapping[str, Mapping[str, float]],
) -> dict[str, dict[str, float]]:
    """Min-max normalize each metric across setups; constants map to 0.5."""
    if not setups:
        raise CorruptDocument("no setups to normalize")
    values = {name: _metric_values(rep) for name, rep in setups.items()}
    out: dict[str, dict[str, float]] = {name: {} for name in values}
    for metric in METRIC_NAMES:
        column = [values[name][metric] for name in values]
        lo, hi = min(column), max(column)
        for name in values:
            if hi == lo:
                out[name][metric] = 0.5
            else:
                out[name][metric] = (values[name][metric] - lo) / (hi - lo)
    return out


def composite_score(
    setups: Mapping[str, Mapping[str, float]],
) -> dict[str, float]:
    """Fixed-weight blend of normalized metrics, higher is better.

    Forgetting-flavored metrics enter inverted so every term rewards the
    desirable direction.
    """
    normalized = normalize_metrics(setups)
    scores: dict[str, float] = {}
    for name, norms in normalized.items():
        total = 0.0
        for metric, (weight, bigger_is_better) in _COMPOSITE_TERMS.items():
            n = norms[metric]
            total += weight * (n if bigger_is_better else 1.0 - n)
        scores[name] = total
    return scores


# -- CSV interchange -------------------------------------------------------------

def matrix_to_csv(rows: list[list[float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["after_task", "eval_task", "r10"])
    for k, row in enumerate(rows, start=1):
        for i, value in enumerate(row, start=1):
            writer.writerow([k, i, value])
    return buf.getvalue()


def _read_cells(text: str, what: str, header: list[str]) -> dict[tuple[int, ...], float]:
    """The data rows of a CSV under the given header, each a key of integer
    columns and a final float value; every key appears once."""
    reader = csv.reader(io.StringIO(text))
    try:
        found = next(reader)
    except StopIteration:
        raise CorruptDocument(f"empty {what} CSV") from None
    if [h.strip() for h in found] != header:
        raise CorruptDocument(f"unexpected {what} header {found!r}")
    width = len(header) - 1
    cells: dict[tuple[int, ...], float] = {}
    for line in reader:
        if not line:
            continue
        try:
            key, value = tuple(int(x) for x in line[:width]), float(line[width])
        except (IndexError, ValueError) as e:
            raise CorruptDocument(f"bad {what} row {line!r}") from e
        if key in cells:
            raise CorruptDocument(f"duplicate {what} row {','.join(map(str, key))}")
        cells[key] = value
    if not cells:
        raise CorruptDocument(f"{what} CSV has no data rows")
    return cells


def matrix_from_csv(text: str) -> list[list[float]]:
    cells = _read_cells(text, "matrix", ["after_task", "eval_task", "r10"])
    t = max(k for k, _ in cells)
    rows = []
    for k in range(1, t + 1):
        row = []
        for i in range(1, k + 1):
            if (k, i) not in cells:
                raise CorruptDocument(f"matrix cell ({k}, {i}) missing")
            row.append(cells[(k, i)])
        rows.append(row)
    if len(cells) != t * (t + 1) // 2:
        raise CorruptDocument("matrix CSV has cells outside the lower triangle")
    return rows


def validation_to_csv(validation: list[float]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["task", "val_r10"])
    for k, value in enumerate(validation, start=1):
        writer.writerow([k, value])
    return buf.getvalue()


def validation_from_csv(text: str) -> list[float]:
    cells = _read_cells(text, "validation", ["task", "val_r10"])
    by_task = {k: value for (k,), value in cells.items()}
    tasks = range(1, len(by_task) + 1)  # not up to the largest task: it may be huge
    if sorted(by_task) != list(tasks):
        raise CorruptDocument("validation tasks must be 1..T without gaps")
    return [by_task[k] for k in tasks]


def read_matrix(matrix_path: str | Path, validation_path: str | Path) -> PerformanceMatrix:
    return PerformanceMatrix(
        rows=matrix_from_csv(read_text(matrix_path, "matrix CSV")),
        validation=validation_from_csv(read_text(validation_path, "validation CSV")),
    )
