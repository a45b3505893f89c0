"""Difficulty scoring, percentile thresholds, categories, and repo ordering."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import categorize_theorems_oracle, count_categories_oracle, tactic, theorem
from proverloop.curriculum import (
    CategoryCounts,
    Difficulty,
    Thresholds,
    categorize_value,
    compute_difficulty,
    compute_thresholds,
    count_categories,
    order_repositories,
)
from proverloop.errors import CorruptDocument


def interpolated_percentile(values, q):
    """Independent oracle: linear interpolation at h = (n-1) * q."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    hi = math.ceil(h)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def stepped(name, steps):
    tactics = tuple(tactic() for _ in range(steps))
    return theorem(name, tactics=tactics)


class TestDifficulty:
    def test_two_steps_is_e_squared(self):
        d = compute_difficulty(stepped("t", 2))
        assert d.kind == "finite"
        assert d.value == pytest.approx(7.38905609893065, abs=1e-9)

    def test_sorry_is_infinite(self):
        d = compute_difficulty(theorem("t", status="sorry_unproven"))
        assert d.kind == "infinite"
        assert d.value == math.inf

    def test_proven_without_trace_is_unstepped(self):
        d = compute_difficulty(theorem("t"))
        assert d.kind == "unstepped"
        assert d.value is None

    def test_searched_proof_counts_its_steps(self):
        thm = theorem("t", status="sorry_proven", proof=("a", "b", "c"))
        d = compute_difficulty(thm)
        assert d.kind == "finite" and d.value == math.exp(3)

    def test_strictly_monotone_in_steps(self):
        values = [compute_difficulty(stepped("t", s)).value for s in range(1, 12)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_proofs_past_709_steps_take_the_largest_float(self):
        """e**710 overflows, so longer proofs all score the largest finite
        value and the thresholds over them stay finite."""
        values = [compute_difficulty(stepped("t", s)).value for s in (708, 709, 710, 2000)]
        assert values == [math.exp(708), math.exp(709)] + [sys.float_info.max] * 2
        th = compute_thresholds(values)
        assert math.isfinite(th.p33) and math.isfinite(th.p67)


class TestThresholds:
    def test_exponential_ladder_matches_hand_oracle(self):
        values = [math.exp(s) for s in range(1, 11)]
        th = compute_thresholds(values)
        assert th.p33 == pytest.approx(interpolated_percentile(values, 0.33), rel=1e-12)
        assert th.p67 == pytest.approx(interpolated_percentile(values, 0.67), rel=1e-12)
        assert th.p33 == pytest.approx(53.56277163984554, abs=1e-9)
        assert th.p67 == pytest.approx(1153.162903286857, abs=1e-6)

    def test_matches_hand_oracle_on_random_values(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            values = list(rng.uniform(0.0, 100.0, size=int(rng.integers(1, 40))))
            th = compute_thresholds(values)
            assert th.p33 == pytest.approx(interpolated_percentile(values, 0.33), rel=1e-12)
            assert th.p67 == pytest.approx(interpolated_percentile(values, 0.67), rel=1e-12)
            assert th.p33 <= th.p67

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(min_value=1.0, max_value=1e300), min_size=1, max_size=60))
    def test_equals_numpy_quantile_bit_for_bit(self, values):
        th = compute_thresholds(values)
        want = np.quantile(np.asarray(values), [0.33, 0.67])
        assert [th.p33.hex(), th.p67.hex()] == [float(w).hex() for w in want]

    def test_single_value_collapses(self):
        th = compute_thresholds([4.25])
        assert th.p33 == th.p67 == 4.25

    def test_empty_rejected(self):
        with pytest.raises(CorruptDocument,
                           match="^no finite difficulties to take percentiles of$"):
            compute_thresholds([])


class TestCategorize:
    TH = Thresholds(p33=5.0, p67=10.0)

    def test_interior_point_is_easy(self):
        assert categorize_value(2.0, self.TH) == "easy"

    def test_boundaries_fall_to_the_easier_side(self):
        assert categorize_value(5.0, self.TH) == "easy"
        assert categorize_value(10.0, self.TH) == "medium"
        assert categorize_value(10.0001, self.TH) == "hard"

    def test_infinite_is_unproven(self):
        counts = count_categories([Difficulty("infinite", math.inf)], self.TH)
        assert counts == CategoryCounts(unproven=1)

    def test_unstepped_round_robin_in_key_order(self):
        names = ["d.t", "a.t", "c.t", "b.t"]
        items = [(theorem(n), Difficulty("unstepped")) for n in names]
        # ascending (file, name) order is a.t, b.t, c.t, d.t
        by_name = dict(zip(names, categorize_theorems_oracle(items, self.TH)))
        assert by_name == {"a.t": "easy", "b.t": "medium", "c.t": "hard", "d.t": "easy"}
        counts = count_categories([d for _, d in items], self.TH)
        assert counts == CategoryCounts(easy=2, medium=1, hard=1)

    def test_partition_is_total(self):
        rng = np.random.default_rng(3)
        diffs = []
        for i in range(40):
            roll = rng.random()
            if roll < 0.2:
                diffs.append(Difficulty("infinite", math.inf))
            elif roll < 0.4:
                diffs.append(Difficulty("unstepped"))
            else:
                diffs.append(Difficulty("finite", math.exp(int(rng.integers(1, 9)))))
        counts = count_categories(diffs, self.TH)
        assert counts.total == len(diffs)
        items = [(theorem(f"t{i}"), d) for i, d in enumerate(diffs)]
        assert counts == count_categories_oracle(categorize_theorems_oracle(items, self.TH))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(
        st.just(Difficulty("unstepped")),
        st.just(Difficulty("infinite", math.inf)),
        st.builds(lambda s: Difficulty("finite", math.exp(s)), st.integers(1, 8)),
        st.builds(lambda v: Difficulty("finite", v), st.floats(0.0, 20.0)),
    ), max_size=40))
    def test_counts_equal_the_per_theorem_oracle(self, diffs):
        """Finite values on and between the cut points (the thresholds of
        the drawn pool, so ties land on them), infinite and unstepped
        difficulties are tallied as the oracle categorizes them one by one."""
        finite = [d.value for d in diffs if d.kind == "finite"]
        th = compute_thresholds(finite) if finite else self.TH
        items = [(theorem(f"t{i}"), d) for i, d in enumerate(diffs)]
        want = count_categories_oracle(categorize_theorems_oracle(items, th))
        assert count_categories(diffs, th) == want

    def test_quantile_balance_on_tie_free_pools(self):
        rng = np.random.default_rng(5)
        for n in (3, 6, 30, 99, 198):
            values = list(rng.permutation(np.linspace(1.0, 2.0, n)))
            th = compute_thresholds(values)
            counts = count_categories([Difficulty("finite", v) for v in values], th)
            sizes = [counts.easy, counts.medium, counts.hard]
            assert max(sizes) - min(sizes) <= 1, (n, sizes)


class TestOrderRepositories:
    def test_more_easy_first(self):
        order = order_repositories([
            ("repo_a", CategoryCounts(easy=5)),
            ("repo_b", CategoryCounts(easy=9)),
        ])
        assert [rid for rid, _ in order] == ["repo_b", "repo_a"]

    def test_ties_break_by_ascending_id(self):
        order = order_repositories([
            ("repo_c", CategoryCounts(easy=9)),
            ("repo_a", CategoryCounts(easy=5)),
            ("repo_b", CategoryCounts(easy=9)),
        ])
        assert [rid for rid, _ in order] == ["repo_b", "repo_c", "repo_a"]

    def test_empty_input_gives_empty_order(self):
        assert order_repositories([]) == []

    def test_output_is_a_permutation(self):
        rng = np.random.default_rng(9)
        entries = [
            (f"repo_{i}", CategoryCounts(easy=int(rng.integers(0, 5))))
            for i in range(12)
        ]
        order = order_repositories(entries)
        assert sorted(order, key=lambda e: e[0]) == sorted(entries, key=lambda e: e[0])
        easies = [c.easy for _, c in order]
        assert easies == sorted(easies, reverse=True)
