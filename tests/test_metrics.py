"""Forgetting and plasticity summaries over recall matrices."""

import pytest

from proverloop.errors import CorruptDocument, IoFailure, ProverloopError
from proverloop.metrics import (
    METRIC_NAMES,
    PerformanceMatrix,
    average_test_curve,
    cfr,
    composite_score,
    compute_report,
    expanded_bwt,
    forgetting_measure,
    incremental_plasticity,
    matrix_from_csv,
    matrix_to_csv,
    normalize_metrics,
    read_matrix,
    validation_from_csv,
    validation_to_csv,
    windowed_forgetting,
    windowed_plasticity,
)

ROWS = [[80.0], [70.0, 90.0], [60.0, 85.0, 95.0]]
VALIDATION = [60.0, 70.0, 65.0]


class TestMatrixShape:
    def test_accepts_lower_triangular(self):
        m = PerformanceMatrix(rows=ROWS, validation=VALIDATION)
        assert len(m.rows) == 3

    def test_rejects_ragged_rows(self):
        with pytest.raises(CorruptDocument, match="^row 2 must have 2 entries, has 1$"):
            PerformanceMatrix(rows=[[80.0], [70.0]], validation=[60.0, 70.0])

    def test_rejects_out_of_range_recall(self):
        with pytest.raises(CorruptDocument, match=r"^recall 101\.0 outside \[0, 100\]$"):
            PerformanceMatrix(rows=[[101.0]], validation=[60.0])
        with pytest.raises(CorruptDocument, match=r"^recall -1\.0 outside \[0, 100\]$"):
            PerformanceMatrix(rows=[[-1.0]], validation=[60.0])

    def test_rejects_validation_length_mismatch(self):
        with pytest.raises(CorruptDocument, match="^validation series has 2 entries for 1 tasks$"):
            PerformanceMatrix(rows=[[80.0]], validation=[60.0, 70.0])


class TestAverageCurve:
    def test_row_means(self):
        assert average_test_curve([[80.0], [60.0, 90.0], [70.0, 80.0, 90.0]]) == \
            [80.0, 75.0, 80.0]

    def test_empty_rejected(self):
        with pytest.raises(CorruptDocument, match="^empty matrix$"):
            average_test_curve([])


class TestWindowedForgetting:
    def test_short_window_hand_check(self):
        # drops: 0, 70-60, nothing (65 is the window peak once 70 leaves)
        assert windowed_forgetting([70.0, 60.0, 65.0], window=2) == \
            pytest.approx(10.0 / 3.0, abs=1e-12)

    def test_cliff_inside_the_window(self):
        assert windowed_forgetting([100.0, 0.0], window=5) == 50.0

    def test_rise_never_counts(self):
        assert windowed_forgetting([0.0, 100.0], window=5) == 0.0

    def test_non_decreasing_curve_never_forgets(self):
        assert windowed_forgetting([10.0, 10.0, 40.0, 80.0, 80.0], window=5) == 0.0

    def test_window_must_cover_two_tasks(self):
        with pytest.raises(ProverloopError, match="^window must span at least two tasks$"):
            windowed_forgetting([50.0, 60.0], window=1)


class TestWindowedPlasticity:
    def test_short_window_hand_check(self):
        # rises: 0, 0, 65 over the windowed minimum 60
        assert windowed_plasticity([70.0, 60.0, 65.0], window=2) == 5.0

    def test_takes_the_largest_rise(self):
        assert windowed_plasticity([0.0, 100.0, 90.0], window=5) == 100.0

    def test_non_increasing_curve_has_none(self):
        assert windowed_plasticity([90.0, 80.0, 70.0], window=5) == 0.0

    def test_window_must_cover_two_tasks(self):
        with pytest.raises(ProverloopError, match="^window must span at least two tasks$"):
            windowed_plasticity([50.0, 60.0], window=1)


class TestForgettingMeasure:
    def test_hand_check(self):
        # task 1 peaked at 80 and ends at 60, task 2 peaked at 90 and ends at 85
        assert forgetting_measure(ROWS) == pytest.approx(12.5, abs=1e-12)

    def test_backward_improvement_goes_negative(self):
        rows = [[50.0], [60.0, 70.0], [70.0, 80.0, 90.0]]
        assert forgetting_measure(rows) == pytest.approx(-10.0, abs=1e-12)

    def test_single_task_rejected(self):
        with pytest.raises(CorruptDocument, match="^forgetting needs at least two tasks$"):
            forgetting_measure([[80.0]])


class TestCfr:
    def test_quotient(self):
        assert cfr([90.0, 81.0]) == pytest.approx(0.9, abs=1e-12)

    def test_flat_curve_is_one(self):
        assert cfr([75.0, 75.0, 75.0]) == 1.0

    def test_all_zero_curve_rejected(self):
        with pytest.raises(CorruptDocument, match="^curve never leaves zero$"):
            cfr([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(CorruptDocument, match="^empty curve$"):
            cfr([])


class TestExpandedBwt:
    def test_hand_check(self):
        rows = [[50.0], [40.0, 60.0], [45.0, 55.0, 70.0]]
        assert expanded_bwt(rows) == pytest.approx(-7.5, abs=1e-12)

    def test_zero_when_earlier_tasks_hold_steady(self):
        rows = [[50.0], [50.0, 60.0], [50.0, 60.0, 70.0]]
        assert expanded_bwt(rows) == 0.0

    def test_uniform_backward_gain(self):
        rows = [[50.0], [55.0, 60.0], [55.0, 65.0, 70.0]]
        assert expanded_bwt(rows) == pytest.approx(5.0, abs=1e-12)

    def test_single_task_rejected(self):
        with pytest.raises(CorruptDocument, match="^backward transfer needs at least two tasks$"):
            expanded_bwt([[80.0]])


class TestIncrementalPlasticity:
    def test_mean_of_per_task_slopes(self):
        assert incremental_plasticity([60.0, 70.0, 65.0, 72.0]) == \
            pytest.approx(5.5, abs=1e-12)

    def test_flat_series_is_zero(self):
        assert incremental_plasticity([70.0, 70.0, 70.0]) == 0.0

    def test_decline_goes_negative(self):
        assert incremental_plasticity([80.0, 70.0, 60.0]) == pytest.approx(-10.0)

    def test_single_task_rejected(self):
        with pytest.raises(CorruptDocument, match="^plasticity needs at least two tasks$"):
            incremental_plasticity([60.0])


class TestComputeReport:
    def test_all_six_numbers_at_once(self):
        report = compute_report(PerformanceMatrix(rows=ROWS, validation=VALIDATION))
        # the average curve is flat at 80, so the windowed pair and cfr collapse
        assert report.wf5 == 0.0
        assert report.wp5 == 0.0
        assert report.cfr == 1.0
        assert report.fm == pytest.approx(12.5, abs=1e-12)
        assert report.ebwt == pytest.approx(-11.25, abs=1e-12)
        assert report.ip == pytest.approx(6.25, abs=1e-12)

    def test_json_view_is_complete(self):
        report = compute_report(PerformanceMatrix(rows=ROWS, validation=VALIDATION))
        assert tuple(report.to_json()) == METRIC_NAMES


class TestScaleBehavior:
    def test_linear_metrics_scale_with_the_data(self):
        rows = [[80.0], [70.0, 90.0], [60.0, 85.0, 95.0]]
        val = [60.0, 70.0, 65.0]
        c = 0.5
        scaled_rows = [[x * c for x in row] for row in rows]
        scaled_val = [x * c for x in val]
        curve, scaled_curve = average_test_curve(rows), average_test_curve(scaled_rows)
        assert windowed_forgetting(scaled_curve, 2) == \
            pytest.approx(c * windowed_forgetting(curve, 2), abs=1e-12)
        assert windowed_plasticity(scaled_curve, 2) == \
            pytest.approx(c * windowed_plasticity(curve, 2), abs=1e-12)
        assert forgetting_measure(scaled_rows) == \
            pytest.approx(c * forgetting_measure(rows), abs=1e-12)
        assert expanded_bwt(scaled_rows) == \
            pytest.approx(c * expanded_bwt(rows), abs=1e-12)
        assert incremental_plasticity(scaled_val) == \
            pytest.approx(c * incremental_plasticity(val), abs=1e-12)
        assert cfr(scaled_curve) == pytest.approx(cfr(curve), abs=1e-12)


def report_like(**kwargs):
    base = dict(wf5=1.0, fm=1.0, cfr=0.5, ebwt=0.0, wp5=1.0, ip=0.0)
    base.update(kwargs)
    return base


class TestNormalizationAndComposite:
    def test_min_max_with_a_tied_column(self):
        setups = {
            "a": report_like(wf5=2.0, cfr=0.8, ebwt=-1.0, wp5=3.0, ip=0.5),
            "b": report_like(wf5=4.0, cfr=0.9, ebwt=1.0, wp5=3.0, ip=1.5),
        }
        norms = normalize_metrics(setups)
        assert norms["a"] == {"wf5": 0.0, "fm": 0.5, "cfr": 0.0,
                              "ebwt": 0.0, "wp5": 0.5, "ip": 0.0}
        assert norms["b"] == {"wf5": 1.0, "fm": 0.5, "cfr": 1.0,
                              "ebwt": 1.0, "wp5": 0.5, "ip": 1.0}

    def test_two_setup_composites_sum_to_one(self):
        setups = {
            "a": report_like(wf5=2.0, cfr=0.8, ebwt=-1.0, wp5=3.0, ip=0.5),
            "b": report_like(wf5=4.0, cfr=0.9, ebwt=1.0, wp5=3.0, ip=1.5),
        }
        scores = composite_score(setups)
        assert scores["a"] == pytest.approx(0.35, abs=1e-12)
        assert scores["b"] == pytest.approx(0.65, abs=1e-12)
        assert scores["a"] + scores["b"] == pytest.approx(1.0, abs=1e-12)

    def test_single_setup_lands_on_the_midpoint(self):
        scores = composite_score({"only": report_like()})
        assert scores["only"] == pytest.approx(0.5, abs=1e-12)

    def test_per_metric_affine_rescaling_changes_nothing(self):
        setups = {
            "a": report_like(wf5=7.6, fm=6.53, cfr=0.87, ebwt=0.89, wp5=0.51, ip=0.36),
            "b": report_like(wf5=0.18, fm=0.85, cfr=0.88, ebwt=2.47, wp5=1.21, ip=1.02),
            "c": report_like(wf5=7.17, fm=4.04, cfr=0.88, ebwt=1.47, wp5=1.04, ip=0.26),
        }
        affine = {"wf5": (3.0, 5.0), "fm": (0.5, -2.0), "cfr": (10.0, 0.0),
                  "ebwt": (2.0, 1.0), "wp5": (7.0, -3.0), "ip": (0.25, 0.125)}
        warped = {
            name: {m: affine[m][0] * v + affine[m][1] for m, v in rep.items()}
            for name, rep in setups.items()
        }
        original = composite_score(setups)
        transformed = composite_score(warped)
        for name in setups:
            assert transformed[name] == pytest.approx(original[name], abs=1e-12)

    def test_dict_input_must_cover_every_metric(self):
        with pytest.raises(ProverloopError, match="^setup is missing metrics "):
            composite_score({"a": {"wf5": 1.0}})

    def test_no_setups_rejected(self):
        with pytest.raises(CorruptDocument, match="^no setups to normalize$"):
            composite_score({})


class TestCsv:
    def test_matrix_round_trip(self):
        text = matrix_to_csv(ROWS)
        assert text.splitlines()[0] == "after_task,eval_task,r10"
        assert matrix_from_csv(text) == ROWS

    def test_validation_round_trip(self):
        text = validation_to_csv(VALIDATION)
        assert text.splitlines()[0] == "task,val_r10"
        assert validation_from_csv(text) == VALIDATION

    def test_matrix_corruption_is_loud(self):
        good = matrix_to_csv(ROWS)
        with pytest.raises(CorruptDocument):
            matrix_from_csv("")
        with pytest.raises(CorruptDocument):
            matrix_from_csv("a,b,c\n1,1,80\n")
        with pytest.raises(CorruptDocument):
            matrix_from_csv("after_task,eval_task,r10\n")
        with pytest.raises(CorruptDocument):
            matrix_from_csv("after_task,eval_task,r10\n1,1,abc\n")
        with pytest.raises(CorruptDocument):  # duplicate cell
            matrix_from_csv("after_task,eval_task,r10\n1,1,80\n1,1,90\n")
        with pytest.raises(CorruptDocument):  # row 2 lacks eval task 1
            matrix_from_csv("after_task,eval_task,r10\n1,1,80\n2,2,90\n")
        with pytest.raises(CorruptDocument):  # cell above the diagonal
            matrix_from_csv("after_task,eval_task,r10\n1,1,80\n1,2,90\n")

    def test_validation_corruption_is_loud(self):
        with pytest.raises(CorruptDocument):
            validation_from_csv("")
        with pytest.raises(CorruptDocument):
            validation_from_csv("nope\n1,60\n")
        with pytest.raises(CorruptDocument):
            validation_from_csv("task,val_r10\n")
        with pytest.raises(CorruptDocument):  # duplicate task
            validation_from_csv("task,val_r10\n1,60\n1,70\n")
        with pytest.raises(CorruptDocument):  # gap in task numbering
            validation_from_csv("task,val_r10\n1,60\n3,70\n")

    def test_read_matrix_from_files(self, tmp_path):
        (tmp_path / "m.csv").write_text(matrix_to_csv(ROWS), encoding="utf-8")
        (tmp_path / "v.csv").write_text(validation_to_csv(VALIDATION), encoding="utf-8")
        m = read_matrix(tmp_path / "m.csv", tmp_path / "v.csv")
        assert m.rows == ROWS and m.validation == VALIDATION

    def test_read_matrix_missing_file(self, tmp_path):
        (tmp_path / "m.csv").write_text(matrix_to_csv(ROWS), encoding="utf-8")
        with pytest.raises(IoFailure):
            read_matrix(tmp_path / "m.csv", tmp_path / "absent.csv")
