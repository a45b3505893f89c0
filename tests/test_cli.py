"""The proverloop command line, driven through main()."""

import hashlib
import io
import json
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tactic, theorem
from proverloop.cli import main
from proverloop.corpus import tactic_from_json, tactic_to_json, theorem_from_json, theorem_to_json
from proverloop.database import DynamicDatabase
from proverloop.errors import CorruptDocument
from proverloop.metrics import matrix_to_csv, validation_to_csv
from proverloop.retriever import Checkpoint, EmbeddingModel
from proverloop.search import TableFixture


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_demo")
    assert main(["fixture", "--out", str(root)]) == 0
    return root


def cfg_args(demo, out):
    return ["--config", str(demo / "run.cfg"), "--out", str(out)]


class TestFixtureCommand:
    def test_writes_three_repos_and_a_config(self, demo):
        names = sorted(p.name for p in demo.iterdir())
        assert names == ["repo_algebra", "repo_number", "repo_topology", "run.cfg"]
        for repo in names[:3]:
            files = sorted(p.name for p in (demo / repo).iterdir())
            assert files == ["corpus.jsonl", "environment.json",
                             "repo.json", "theorems.json"]


class TestIngestCommand:
    def test_persists_the_database(self, demo, tmp_path, capsys):
        assert main(["ingest", *cfg_args(demo, tmp_path)]) == 0
        assert (tmp_path / "database.json").is_file()
        out = capsys.readouterr().out
        assert "theorems" in out


class TestCurriculumCommand:
    def test_prints_and_writes_the_order(self, demo, tmp_path, capsys):
        assert main(["curriculum", *cfg_args(demo, tmp_path)]) == 0
        doc = json.loads((tmp_path / "curriculum.json").read_text(encoding="utf-8"))
        assert set(doc) == {"thresholds", "repositories"}
        assert len(doc["repositories"]) == 3
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_a_710_step_proof_keeps_curriculum_and_run_finite(self, demo, tmp_path, capsys):
        """e**710 overflows a float; such a proof takes the largest finite
        difficulty instead of ending the command."""
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        path = root / "repo_algebra" / "theorems.json"
        theorems = json.loads(path.read_text(encoding="utf-8"))
        [long] = [t for t in theorems if t["full_name"] == "alg.zero_use"]
        long["traced_tactics"] *= 710
        path.write_text(json.dumps(theorems), encoding="utf-8")
        assert main(["curriculum", *cfg_args(root, tmp_path / "cur")]) == 0
        doc = json.loads((tmp_path / "cur" / "curriculum.json").read_text(encoding="utf-8"))
        assert all(math.isfinite(v) for v in doc["thresholds"].values())
        assert main(["run", *cfg_args(root, tmp_path / "run")]) == 0
        assert "Traceback" not in capsys.readouterr().err


class TestRunAndMetrics:
    def test_run_produces_the_full_report_set(self, demo, tmp_path, capsys):
        out = tmp_path / "run_out"
        assert main(["run", *cfg_args(demo, out)]) == 0
        for name in ("matrix.csv", "validation.csv", "metrics.json",
                     "proofs.json", "curriculum.json", "database.json"):
            assert (out / name).is_file(), name
        stdout = capsys.readouterr().out
        assert "proved" in stdout and "composite" not in stdout
        assert "composite" not in json.loads((out / "metrics.json").read_text(encoding="utf-8"))

    def test_a_proof_score_that_overflows_exits_two(self, demo, tmp_path, capsys):
        """Two finite log-probabilities of -1e308 on one proof sum to -inf,
        which no JSON report can hold: the search names the theorem and the
        command exits 2 instead of failing in the report writer."""
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        path = root / "repo_algebra" / "environment.json"
        table = json.loads(path.read_text(encoding="utf-8"))
        for e in table["edges"]:
            if (e["from"], e["tactic"]) in {("a_goal0", "unfold step"), ("a_goal1", "finish")}:
                e["log_prob"] = -1e308
        path.write_text(json.dumps(table), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", *cfg_args(root, out)]) == 2
        assert capsys.readouterr().err == (
            "error: stage 'prove:algebra-warmup': search on "
            "'alg/basic.lean::alg.open_task': cumulative log-probability "
            "-1e+308 + -1e+308 is not finite\n")
        assert not (out / "proofs.json").exists()

    def test_metrics_on_a_single_setup(self, tmp_path, capsys):
        rows = [[80.0], [70.0, 90.0], [60.0, 85.0, 95.0]]
        (tmp_path / "m.csv").write_text(matrix_to_csv(rows), encoding="utf-8")
        (tmp_path / "v.csv").write_text(validation_to_csv([60.0, 70.0, 65.0]),
                                        encoding="utf-8")
        assert main(["metrics", "--setup", "run", str(tmp_path / "m.csv"),
                     str(tmp_path / "v.csv"), "--out", str(tmp_path / "scored")]) == 0
        doc = json.loads((tmp_path / "scored" / "metrics.json").read_text(encoding="utf-8"))
        assert doc["run"]["composite"] == pytest.approx(0.5)
        assert doc["run"]["raw"]["fm"] == pytest.approx(12.5)
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

    def test_metrics_across_two_setups(self, tmp_path, capsys):
        flat = [[80.0], [80.0, 80.0]]
        dipping = [[80.0], [40.0, 80.0]]
        for name, rows, val in (("a", flat, [60.0, 60.0]), ("b", dipping, [60.0, 80.0])):
            (tmp_path / f"{name}_m.csv").write_text(matrix_to_csv(rows), encoding="utf-8")
            (tmp_path / f"{name}_v.csv").write_text(validation_to_csv(val), encoding="utf-8")
        assert main([
            "metrics",
            "--setup", "steady", str(tmp_path / "a_m.csv"), str(tmp_path / "a_v.csv"),
            "--setup", "dipper", str(tmp_path / "b_m.csv"), str(tmp_path / "b_v.csv"),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"steady", "dipper"}
        # two setups: min-max scores are complementary and sum to one
        total = doc["steady"]["composite"] + doc["dipper"]["composite"]
        assert total == pytest.approx(1.0)
        assert doc["steady"]["raw"]["fm"] == 0.0
        assert doc["dipper"]["raw"]["fm"] == pytest.approx(40.0)

    def test_metrics_needs_some_input(self, capsys):
        assert main(["metrics"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix, validation, reason", [
        ("after_task,eval_task,r10\n1,1,80\n2,1,70\n2,2,150\n", [60.0, 70.0], "150"),
        ("after_task,eval_task,r10\n1,1,80\n2,1,70\n2,2,nan\n", [60.0, 70.0], "nan"),
        (matrix_to_csv([[80.0], [70.0, 90.0]]), [60.0], "1 entries for 2 tasks"),
    ], ids=["recall-above-100", "recall-nan", "validation-short"])
    def test_metrics_on_an_invalid_matrix_exits_two(self, tmp_path, capsys, matrix,
                                                    validation, reason):
        (tmp_path / "m.csv").write_text(matrix, encoding="utf-8")
        (tmp_path / "v.csv").write_text(validation_to_csv(validation), encoding="utf-8")
        assert main(["metrics", "--setup", "run", str(tmp_path / "m.csv"),
                     str(tmp_path / "v.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spelling", [
        ["--setup", "a", "{m}", "{v}", "--setup", "a", "{m}", "{v}"],
    ], ids=["setup-twice"])
    def test_metrics_with_a_setup_name_given_twice_exits_two(self, tmp_path, capsys,
                                                             spelling):
        (tmp_path / "m.csv").write_text(matrix_to_csv([[80.0], [70.0, 90.0]]),
                                        encoding="utf-8")
        (tmp_path / "v.csv").write_text(validation_to_csv([60.0, 70.0]), encoding="utf-8")
        args = [a.format(m=tmp_path / "m.csv", v=tmp_path / "v.csv") for a in spelling]
        assert main(["metrics", *args, "--out", str(tmp_path / "scored")]) == 2
        name = args[1]
        assert capsys.readouterr().err == f"error: setup name {name!r} given twice\n"
        assert not (tmp_path / "scored").exists()

    @pytest.mark.parametrize("args, message", [
        ([], "give at least one --setup"),
        (["--setup", "a", "m.csv", "v.csv", "--setup", "a", "m.csv", "v.csv"],
         "setup name 'a' given twice"),
    ], ids=["no-input", "setup-twice"])
    def test_metrics_argument_errors_are_one_error_line(self, tmp_path, capsys, args, message):
        # each is rejected before any matrix is read, so the files need not exist
        assert main(["metrics", *args, "--out", str(tmp_path / "scored")]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "scored").exists()


class TestTrainProveSplit:
    def test_train_then_prove(self, demo, tmp_path, capsys):
        out = tmp_path / "split"
        assert main(["train", *cfg_args(demo, out)]) == 0
        assert (out / "checkpoints" / "task_03.ckpt").is_file()
        assert main(["prove", *cfg_args(demo, out)]) == 0
        stdout = capsys.readouterr().out
        assert "proved" in stdout
        doc = json.loads((out / "proofs.json").read_text(encoding="utf-8"))
        assert doc["attempts"]
        assert any(a["status"] == "proved" for a in doc["attempts"])

    def test_prove_after_a_run_reads_the_final_checkpoint_without_importance(
            self, demo, tmp_path):
        """No task follows the last, so its checkpoint holds weights only.
        Proving with it by default repeats each attempt of the run's after
        phase, and proves every goal the run proved."""
        out = tmp_path / "run_then_prove"
        assert main(["run", *cfg_args(demo, out)]) == 0
        assert Checkpoint.load(out / "checkpoints" / "task_03.ckpt").fisher is None

        def attempts():
            doc = json.loads((out / "proofs.json").read_text(encoding="utf-8"))
            return doc["attempts"]

        run = attempts()
        assert main(["prove", *cfg_args(demo, out)]) == 0
        standalone = {a["theorem"]: a for a in attempts()}
        after = [a for a in run if a["phase"] == "after"]
        assert after and [standalone[a["theorem"]] for a in after] == after
        assert {a["theorem"] for a in run if a["status"] == "proved"} == \
            {name for name, a in standalone.items() if a["status"] == "proved"} != set()

    def test_prove_with_an_explicit_checkpoint(self, demo, tmp_path):
        out = tmp_path / "explicit"
        assert main(["train", *cfg_args(demo, out)]) == 0
        ckpt = out / "checkpoints" / "task_01.ckpt"
        assert main(["prove", *cfg_args(demo, out),
                     "--checkpoint", str(ckpt)]) == 0

    @pytest.mark.parametrize("content", [
        b"\x00\x01 not a checkpoint",
        b'{"format_version": 1, "theta": [0.5], "anchor": null}\n',
    ])
    def test_prove_with_a_corrupt_checkpoint_exits_two(self, demo, tmp_path, capsys,
                                                       content):
        ckpt = tmp_path / "broken.ckpt"
        ckpt.write_bytes(content)
        assert main(["prove", *cfg_args(demo, tmp_path / "out"),
                     "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "checkpoint" in err
        assert "Traceback" not in err

    def test_prove_with_a_one_bucket_checkpoint_exits_two(self, demo, tmp_path, capsys):
        ckpt = tmp_path / "narrow.ckpt"
        Checkpoint(model=EmbeddingModel(weight=np.zeros((4, 1)))).save(ckpt)
        assert main(["prove", *cfg_args(demo, tmp_path / "out"),
                     "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_features must be in [2, inf)" in err
        assert "Traceback" not in err


class TestOverridesAndFailures:
    def test_flag_overrides_reach_the_run(self, demo, tmp_path):
        out = tmp_path / "merged"
        assert main(["train", *cfg_args(demo, out),
                     "--strategy", "merge-all", "--seed", "24",
                     "--ewc-lambda", "0.0", "--time-budget-ms", "1000"]) == 0
        doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert doc["strategy"] == "merge-all"
        assert doc["seed"] == 24

    def test_a_config_that_sets_the_metric_window_exits_two(self, demo, tmp_path, capsys):
        """wf5 and wp5 span 5 tasks; a run.cfg of an older demo, which set
        `window = 5`, names a key that no longer exists."""
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        with (root / "run.cfg").open("a", encoding="utf-8") as cfg:
            cfg.write("window = 5\n")
        assert main(["run", *cfg_args(root, tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: unknown config key 'window'\n"
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fixtures = a\nturbo = on\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, line, flags", [
        ("feature_buckets", "feature_buckets = 1", []),
        ("embedding_dim", "embedding_dim = 0", []),
        # a weight matrix of more bytes than an array can address
        ("embedding_dim", f"embedding_dim = {10**20}", []),
        ("feature_buckets", f"feature_buckets = {10**20}", []),
        ("batch_size", "batch_size = 0", []),
        ("batch_size", "batch_size = -3", []),
        ("init_scale", "init_scale = -1", []),
        ("retrieval_max", "retrieval_max = -1", []),
        ("candidates", "candidates = -3", []),
        ("candidates", "candidates = 0", []),
        ("val_frac", "val_frac = -1", []),
        ("val_frac", "val_frac = 1", []),
        ("test_frac", "test_frac = -1", []),
        ("lr", "lr = -1", []),
        ("lr", "lr = nan", []),
        ("retrieval_fraction", "retrieval_fraction = -1", []),
        ("retrieval_fraction", "retrieval_fraction = 1.5", []),
        ("warmup_steps", "warmup_steps = -5", []),
        ("time_budget_ms", "time_budget_ms = -1", []),
        ("time_budget_ms", "", ["--time-budget-ms", "inf"]),
        ("clip_norm", "clip_norm = -1", []),
        ("ewc_lambda", "", ["--ewc-lambda", "nan"]),
        ("seed", "", ["--seed", "-1"]),
        ("strategy", "strategy = single_repo", []),
        ("strategy", "strategy = Single", []),
        ("prove_after", "prove_after = yes", []),
    ], ids=["buckets-1", "dim-0", "dim-unaddressable", "buckets-unaddressable",
            "batch-0", "batch-negative", "init-scale-negative", "retrieval-max-negative",
            "candidates-negative", "candidates-0", "val-frac-negative", "val-frac-1",
            "test-frac-negative", "lr-negative", "lr-nan", "retrieval-fraction-negative",
            "retrieval-fraction-above-1", "warmup-negative", "time-budget-negative",
            "time-budget-flag-inf", "clip-norm-negative", "ewc-lambda-flag-nan",
            "seed-flag-negative", "strategy-underscore", "strategy-capitalized",
            "prove-after-yes"])
    def test_bad_run_settings_exit_two_before_any_work(self, demo, tmp_path, capsys,
                                                       key, line, flags):
        out = tmp_path / "out"
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        cfg = root / "run.cfg"
        # the demo sets most keys already; a second line would fail as a duplicate
        lines = [ln for ln in cfg.read_text(encoding="utf-8").splitlines()
                 if ln.partition("=")[0].strip() != key]
        cfg.write_text("\n".join([*lines, line]) + "\n", encoding="utf-8")
        assert main(["run", *cfg_args(root, out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("max_expansions", -2), ("eval_every", -3)])
    def test_a_negative_optional_count_exits_two(self, demo, tmp_path, capsys, key, value):
        # 0 leaves the count unset; a negative one used to read as unset too
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        cfg = root / "run.cfg"
        lines = cfg.read_text(encoding="utf-8").splitlines()
        [i] = [i for i, text in enumerate(lines) if text.startswith(f"{key} =")]
        lines[i] = f"{key} = {value}"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", *cfg_args(root, out)]) == 2
        assert capsys.readouterr().err == (f"error: bad config value for {key!r}: "
                                           f"must be 0 (unset) or in [1, inf), got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "run"])
    @pytest.mark.parametrize("key, line", [
        ("out", "out = a\x00b"),
        ("fixtures", "fixtures = repo_al\x00gebra"),
    ], ids=["out", "fixtures"])
    def test_a_nul_in_a_config_path_exits_two(self, demo, tmp_path, capsys, command, key,
                                             line):
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        cfg = root / "run.cfg"
        lines = cfg.read_text(encoding="utf-8").splitlines()
        [i] = [i for i, text in enumerate(lines) if text.startswith(f"{key} =")]
        lines[i] = line
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config value for {key!r} holds a NUL byte\n"
        assert sorted(p.name for p in root.iterdir()) == [
            "repo_algebra", "repo_number", "repo_topology", "run.cfg"]

    @pytest.mark.parametrize("command", ["curriculum", "run"])
    @pytest.mark.parametrize("second", ["repo_algebra", "algebra_copy"])
    def test_a_repository_given_twice_exits_two(self, demo, tmp_path, capsys, command,
                                                second):
        """A repository is its url@commit, so a copy under another directory
        name is the same repository given twice, not one more task."""
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        if second != "repo_algebra":
            shutil.copytree(root / "repo_algebra", root / second)
        cfg = root / "run.cfg"
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("fixtures = repo_algebra, repo_number, repo_topology",
                                    f"fixtures = repo_algebra, {second}, repo_number"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, *cfg_args(root, out)]) == 2
        first, again = (root / "repo_algebra").resolve(), (root / second).resolve()
        assert capsys.readouterr().err == (
            f"error: stage 'ingest': fixture directories {first} and {again} hold the same "
            "repository 'fixture://repos/algebra@aaa1111'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "curriculum", "run"])
    @pytest.mark.parametrize("value", ["", ",", " , ,"], ids=["empty", "comma", "commas"])
    def test_a_config_with_no_fixture_directory_exits_two(self, demo, tmp_path, capsys,
                                                          command, value):
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        cfg = root / "run.cfg"
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("fixtures = repo_algebra, repo_number, repo_topology",
                                    f"fixtures = {value}"), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, *cfg_args(root, out)]) == 2
        assert capsys.readouterr().err == \
            "error: config key 'fixtures' names no fixture directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "curriculum", "train", "prove", "run"])
    def test_an_empty_out_exits_two_before_writing(self, demo, tmp_path, capsys, command):
        """An empty out would resolve to the config's own directory; `out = .`
        says so explicitly. No --out is given, so the config's out is read."""
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        cfg = root / "run.cfg"
        text = cfg.read_text(encoding="utf-8")
        assert "\nout = out\n" in text
        cfg.write_text(text.replace("\nout = out\n", "\nout =\n"), encoding="utf-8")
        before = sorted(p.name for p in root.iterdir())
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            "error: config key 'out' names no output directory\n"
        assert sorted(p.name for p in root.iterdir()) == before

    @pytest.mark.parametrize("command", ["fixture", "ingest", "curriculum", "train", "prove",
                                         "metrics", "run"])
    def test_an_empty_out_flag_exits_two_before_writing(self, demo, tmp_path, monkeypatch,
                                                        capsys, command):
        """`--out ''` would name the current directory; `--out .` says so
        explicitly."""
        args = {"fixture": [],
                "metrics": ["--setup", "run", "m.csv", "v.csv"]}.get(
            command, ["--config", str(demo / "run.cfg")])
        monkeypatch.chdir(tmp_path)
        assert main([command, *args, "--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out names no output directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_checkpoint_flag_exits_two_before_ingest(self, demo, tmp_path, capsys):
        """`--checkpoint ''` names no file; it does not fall back to the
        default checkpoint a previous run left in the output directory."""
        out = tmp_path / "out"
        assert main(["train", *cfg_args(demo, out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["prove", *cfg_args(demo, out), "--checkpoint", ""]) == 2
        assert capsys.readouterr() == ("", "error: --checkpoint names no checkpoint file\n")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_a_run_of_one_repository_exits_two_before_writing(self, demo, tmp_path, capsys,
                                                             command):
        """The forgetting metrics compare tasks, so a one-repository run is
        refused before training writes a checkpoint; ingest and curriculum
        still take one repository."""
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        cfg = root / "run.cfg"
        text = cfg.read_text(encoding="utf-8")
        cfg.write_text(text.replace("fixtures = repo_algebra, repo_number, repo_topology",
                                    "fixtures = repo_algebra"), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, *cfg_args(root, out)]) == 2
        assert capsys.readouterr().err == (
            "error: config key 'fixtures' names 1 fixture directory; a run needs at least "
            "two, since its metrics compare tasks\n")
        assert not (out / "checkpoints").exists()
        assert not out.exists()
        for works in ("ingest", "curriculum"):
            assert main([works, *cfg_args(root, out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["curriculum.json", "database.json"]

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "error:" in capsys.readouterr().err


def theorem_with(**fields):
    return theorem_from_json({**theorem_to_json(theorem("t")), **fields})


def tactic_with(**fields):
    return tactic_from_json({**tactic_to_json(tactic()), **fields})


RECORD = {"url": "fixture://r", "commit": "c", "name": "r", "theorems": [],
          "premise_files": [], "traced_files": []}


def database_with(**fields):
    return DynamicDatabase.from_json(
        {"format_version": 2, "repositories": [{**RECORD, **fields}]})


def table_with_edge(**fields):
    edge = {"from": "s", "tactic": "t", "log_prob": -0.5, "to": "PROVED"}
    return TableFixture.from_json({"initial": {}, "edges": [{**edge, **fields}]})


class TestErrorContract:
    @pytest.mark.parametrize("parse, message", [
        (lambda: theorem_with(start=[1]), "theorem field 'start' must be a [line, col] pair"),
        (lambda: theorem_with(start=["a", 1]), "theorem field 'start' must be a [line, col] pair"),
        (lambda: theorem_with(traced_tactics=5), "theorem field 'traced_tactics' must be a list"),
        (lambda: theorem_with(proof=5), "theorem field 'proof' must be a list of strings"),
        (lambda: theorem_with(status="sorry_proven", proof="rfl"),
         "theorem field 'proof' must be a list of strings"),
        (lambda: theorem_with(status="sorry_proven", proof=["rfl", 5]),
         "theorem field 'proof' must be a list of strings"),
        (lambda: theorem_with(status="sorry_proven"), "a proved sorry must carry its proof"),
        (lambda: DynamicDatabase.from_json({"repositories": [{"theorems": []}]}),
         "database is format None,"),
        (lambda: TableFixture.from_json({"initial": [], "edges": []}),
         "search table field 'initial' must be an object"),
        (lambda: table_with_edge(fails="false"),
         "search table edge field 'fails' must be a boolean"),
        (lambda: table_with_edge(requires_premise=5),
         "search table edge field 'requires_premise' must be a string"),
        (lambda: DynamicDatabase.from_json({"format_version": 1, "repositories": []}),
         "database is format 1,"),
        (lambda: database_with(theorems={}),
         "bad repository record 1 (r): database record field 'theorems' must be a list"),
        (lambda: database_with(theorems=5),
         "bad repository record 1 (r): database record field 'theorems' must be a list"),
        (lambda: database_with(theorems=[5]),
         "bad repository record 1 (r): theorem must be an object"),
        (lambda: theorem_with(start=["1", "1"]),
         "theorem field 'start' must be a [line, col] pair"),
        (lambda: theorem_with(start=[1.9, 1]), "theorem field 'start' must be a [line, col] pair"),
        (lambda: theorem_with(start=[0, 0]), "theorem field 'start' must be a [line, col] pair"),
        (lambda: theorem_with(start=[True, 1]),
         "theorem field 'start' must be a [line, col] pair"),
        (lambda: theorem_with(start=[1, 1, 5]),
         "theorem field 'start' must be a [line, col] pair"),
        (lambda: theorem_with(full_name=["x"]), "theorem field 'full_name' must be a string"),
        (lambda: tactic_with(state_before=2),
         "traced tactic field 'state_before' must be a string"),
        (lambda: tactic_with(state_after=None),
         "traced tactic field 'state_after' must be a string"),
        (lambda: table_with_edge(log_prob="-0.5"),
         "search table edge field 'log_prob' must be a finite number"),
        (lambda: table_with_edge(log_prob=False),
         "search table edge field 'log_prob' must be a finite number"),
        (lambda: table_with_edge(log_prob=float("nan")),
         "search table edge field 'log_prob' must be a finite number"),
        (lambda: TableFixture.from_json({"initial": {"a::b": 5}, "edges": []}),
         "search table initial field 'a::b' must be a string"),
        (lambda: database_with(url=1),
         "bad repository record 1 (r): database record field 'url' must be a string"),
        (lambda: database_with(traced_files=[1]),
         "bad repository record 1 (r):"
         " database record field 'traced_files' must be a list of strings"),
        (lambda: DynamicDatabase.from_json(
            {"format_version": 2, "repositories": [RECORD, {**RECORD, "name": "r2"}]}),
         "bad repository record 2 (r2): repository 'fixture://r@c' is listed twice"),
    ], ids=["start-short", "start-text", "tactics-int", "proof-int", "proof-string",
            "proof-entry-int", "sorry-proven-without-proof", "db-theorems-list",
            "table-initial-list", "edge-fails-string", "edge-premise-int", "db-format-1",
            "db-theorems-dict", "db-theorems-int", "db-theorems-non-object",
            "start-digit-strings", "start-float", "start-zero", "start-bool", "start-triple",
            "full-name-list", "tactic-state-before-int", "tactic-state-after-null",
            "edge-log-prob-string", "edge-log-prob-bool", "edge-log-prob-nan",
            "table-initial-int", "db-url-int", "db-traced-file-int", "db-repository-twice"])
    def test_malformed_documents_raise_package_errors(self, parse, message):
        with pytest.raises(CorruptDocument, match="^" + re.escape(message)):
            parse()

    @pytest.mark.parametrize("validation, reason", [
        ("1,nan\n2,inf\n", "nan"),
        ("1,60\n2,inf\n", "inf"),
        ("1,60\n2,-0.5\n", "-0.5"),
        ("1,100.5\n2,60\n", "100.5"),
    ], ids=["nan-and-inf", "inf", "negative", "above-100"])
    def test_metrics_with_a_validation_value_outside_0_100_exits_two(self, tmp_path, capsys,
                                                                     validation, reason):
        (tmp_path / "m.csv").write_text(matrix_to_csv([[80.0], [70.0, 90.0]]), encoding="utf-8")
        (tmp_path / "v.csv").write_text("task,val_r10\n" + validation, encoding="utf-8")
        assert main(["metrics", "--setup", "run", str(tmp_path / "m.csv"),
                     str(tmp_path / "v.csv"), "--out", str(tmp_path / "scored")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err and "Traceback" not in err
        assert not (tmp_path / "scored").exists()

    def test_metrics_with_a_huge_validation_task_number_exits_two(self, tmp_path, capsys):
        (tmp_path / "m.csv").write_text(matrix_to_csv([[80.0]]), encoding="utf-8")
        (tmp_path / "v.csv").write_text(f"task,val_r10\n{10**18},50\n", encoding="utf-8")
        assert main(["metrics", "--setup", "run", str(tmp_path / "m.csv"),
                     str(tmp_path / "v.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: validation tasks must be 1..T without gaps\n"

    def test_run_with_a_sorry_missing_its_initial_state_exits_two(self, demo, tmp_path,
                                                                   capsys):
        def drop_initial_state(theorems, initial, key):
            del initial[key]

        def move_goal_out_of_the_corpus(theorems, initial, key):
            [goal] = [t for t in theorems if t["full_name"] == "topo.open_task2"]
            goal["file_path"] = "nowhere.lean"
            initial["nowhere.lean::topo.open_task2"] = initial.pop(key)

        for damage in (drop_initial_state, move_goal_out_of_the_corpus):
            root = tmp_path / damage.__name__
            shutil.copytree(demo, root)
            theorems_path = root / "repo_topology" / "theorems.json"
            env_path = root / "repo_topology" / "environment.json"
            theorems = json.loads(theorems_path.read_text(encoding="utf-8"))
            doc = json.loads(env_path.read_text(encoding="utf-8"))
            [key] = [k for k in doc["initial"] if k.endswith("topo.open_task2")]
            damage(theorems, doc["initial"], key)
            theorems_path.write_text(json.dumps(theorems), encoding="utf-8")
            env_path.write_text(json.dumps(doc), encoding="utf-8")
            out = root / "out"
            assert main(["run", *cfg_args(root, out)]) == 2, damage.__name__
            err = capsys.readouterr().err
            assert err.startswith("error:") and "topo.open_task2" in err
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ingest"])
    @pytest.mark.parametrize("name, damage, names", [
        ("corpus.jsonl", lambda text: text.replace('"code":"', '"code":"x \\ud800 y', 1),
         "line 1: premise file field premises[0].code"),
        ("theorems.json", lambda text: text.replace('"statement":"', '"statement":"\\udfff', 1),
         "theorem file field [0].statement"),
        ("repo.json", lambda text: text.replace('"name":"', '"name":"\\uD834', 1),
         "repo.json field name"),
        ("environment.json",
         lambda text: text.replace('"initial":{', '"initial":{"\\ud800":"s",', 1),
         "field initial.\\ud800 holds"),
    ], ids=["corpus-code", "theorem-statement", "repo-name", "table-key"])
    def test_a_lone_surrogate_in_an_input_document_exits_two(self, demo, tmp_path, capsys,
                                                             command, name, damage, names):
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        path = root / "repo_algebra" / name
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, *cfg_args(root, out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert names in err and "holds a lone surrogate" in err
        assert not out.exists()

    def test_prove_with_a_lone_surrogate_in_the_checkpoint_exits_two(self, demo, tmp_path,
                                                                      capsys):
        ckpt = tmp_path / "surrogate.ckpt"
        Checkpoint(model=EmbeddingModel.random_init(dim=4, n_features=64),
                   history=("repo", "x")).save(ckpt)
        head, _, payload = ckpt.read_bytes().partition(b"\n")
        header = {**json.loads(head), "history": ["repo", "x\ud800"]}
        ckpt.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        assert main(["prove", *cfg_args(demo, tmp_path / "out"),
                     "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"checkpoint {ckpt} header line field history[1] holds a lone surrogate" in err

    def test_prove_with_a_forged_format_2_checkpoint_exits_two(self, demo, tmp_path, capsys):
        """A format-2 file whose .npy record claims 2**40 values: 325 bytes
        that a reader trusting the record would try to allocate 8 TiB for."""
        record = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            record, {"descr": "<f8", "fortran_order": False, "shape": (2 ** 40,)})
        payload = record.getvalue() + bytes(8)
        header = {"format_version": 2, "dim": 48, "n_features": 1024, "history": [],
                  "best_val_r10": None, "has_fisher": False,
                  "sha256": hashlib.sha256(payload).hexdigest()}
        ckpt = tmp_path / "forged.ckpt"
        ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        assert ckpt.stat().st_size == 325
        assert main(["prove", *cfg_args(demo, tmp_path / "out"),
                     "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"checkpoint {ckpt} is format 2" in err and "rerun `proverloop run`" in err

    @pytest.mark.parametrize("repo, name, damage, reason", [
        ("repo_number", "corpus.jsonl",
         lambda text: text.replace('"kind":"theorem-like"', '"kind":"lemma"', 1),
         "line 1: "),
        ("repo_topology", "theorems.json",
         lambda text: text.replace('"start":[21,1]', '"start":[0,1]', 1),
         "theorem field 'start' must be"),
        ("repo_number", "corpus.jsonl", lambda text: text + text.splitlines(keepends=True)[0],
         "line 3: duplicate file path 'lib/core.lean'\n"),
    ], ids=["corpus-kind", "theorem-start", "corpus-path-twice"])
    def test_ingest_names_the_fixture_file_that_fails_to_parse(self, demo, tmp_path, capsys,
                                                              repo, name, damage, reason):
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        path = root / repo / name
        text = path.read_text(encoding="utf-8")
        assert damage(text) != text
        path.write_text(damage(text), encoding="utf-8")
        assert main(["ingest", *cfg_args(root, tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{path}: {reason}" in err

    def test_ingest_of_a_malformed_theorem_exits_two(self, demo, tmp_path, capsys):
        root = tmp_path / "demo"
        shutil.copytree(demo, root)
        path = root / "repo_algebra" / "theorems.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[0]["start"] = [1]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["ingest", *cfg_args(root, tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


FIXTURE_FILES = ("repo.json", "corpus.jsonl", "theorems.json", "environment.json")

# what replaces one value of a fixture document: every JSON type, values
# out of range, and strings that may repeat a name or a path
_FIXTURE_VALUES = (st.none() | st.booleans() | st.integers(-2, 3)
                   | st.sampled_from([2 ** 63, 1e300, -0.5, [], {}, [1], [0, 0], [1, 1, 1]])
                   | st.text(max_size=3) | st.sampled_from(["lib/core.lean", "core.add_comm"]))


def _value_paths(doc, path=()):
    """The path of every value inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _value_paths(value, path + (key,))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_change_to_a_fixture_directory_ingests_or_exits_two(demo, tmp_path_factory, data):
    """One value of a demo fixture's repo.json, corpus.jsonl, theorems.json
    or environment.json replaced or deleted, or one of those files cut
    short: `proverloop ingest` exits 0 or 2, never with a traceback."""
    root = tmp_path_factory.getbasetemp() / "fuzzed-fixtures"
    if root.exists():
        shutil.rmtree(root)
    shutil.copytree(demo, root)
    repo = data.draw(st.sampled_from(sorted(p.name for p in root.iterdir() if p.is_dir())))
    path = root / repo / data.draw(st.sampled_from(FIXTURE_FILES))
    raw = path.read_bytes()
    change = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
    if change == "truncate":
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    else:
        lines = raw.decode("utf-8").splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        doc = json.loads(lines[i])
        where = data.draw(st.sampled_from(list(_value_paths(doc))))
        parent = doc
        for step in where[:-1]:
            parent = parent[step]
        if change == "delete":
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(_FIXTURE_VALUES)
        lines[i] = json.dumps(doc, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["ingest", *cfg_args(root, root / "out")]) in (0, 2)
