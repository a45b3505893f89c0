"""Config parsing, fixture loading, and the end-to-end run."""

import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    EagerGenerator,
    dataset_from_metadata,
    fisher_oracle,
    pfile,
    theorem,
    train_one_epoch_oracle,
)
from proverloop import pipeline, retriever
from proverloop.cli import main
from proverloop.corpus import STATUS_SORRY, STATUS_SORRY_PROVEN, serialize_corpus
from proverloop.database import MERGE_ALL, SINGLE_REPO, DynamicDatabase, RepositoryRecord
from proverloop.errors import CorruptDocument, IoFailure, PipelineError, ProverloopError
from proverloop.fixtures import (
    BUNDLED_CONFIG,
    repo_algebra,
    repo_number,
    repo_topology,
    write_bundled,
)
from proverloop.metrics import composite_score
from proverloop.pipeline import (
    RunConfig,
    build_curriculum,
    emit_reports,
    ingest_fixtures,
    load_repo_fixture,
    override_config,
    parse_config,
    prove_goals,
    prove_standalone,
    run_pipeline,
    run_task,
    start_run,
    task_checkpoint,
    write_fixture_dir,
)
from proverloop.retriever import Checkpoint, EmbeddingIndex, EmbeddingModel
from proverloop.search import (
    GOAL,
    SearchResult,
    TableEnvironment,
    TableFixture,
    TableGenerator,
    replay_proof,
)

REPORT_FILES = ("matrix.csv", "validation.csv", "metrics.json",
                "proofs.json", "curriculum.json")


class OracleGenerator(TableGenerator):
    """Proposes every edge, gated or not, and so never reads premises."""

    def propose(self, state, premises, n):
        return super().propose(state, None, n)


# Any character, surrogates included, mixed with the ones config syntax and
# paths give a meaning to.
_CONFIG_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from("\0\n\r=#,./"))


class TestParseConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_full_file(self, tmp_path):
        (tmp_path / "repos" / "a").mkdir(parents=True)
        cfg = parse_config(self.write(tmp_path, "\n".join([
            "# a comment",
            "",
            "fixtures = repos/a",
            "out = results",
            "seed = 9",
            "strategy = merge-all",
            "ewc_lambda = 0.25",
            "lr = 0.5",
            "eval_every = 0",
            "max_expansions = 200",
            "prove_after = true",
        ])))
        assert cfg.fixture_dirs == ((tmp_path / "repos" / "a").resolve(),)
        assert cfg.out_dir == (tmp_path / "results").resolve()
        assert cfg.seed == 9
        assert cfg.strategy == MERGE_ALL
        assert cfg.ewc_lambda == 0.25
        assert cfg.lr == 0.5
        assert cfg.eval_every is None  # 0 means unset
        assert cfg.max_expansions == 200
        assert cfg.prove_after is True
        assert cfg.wall_clock is False

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
    def test_a_line_ends_only_at_a_newline(self, tmp_path, sep):
        """A comment holding a Unicode line separator stays one comment line."""
        cfg = parse_config(self.write(tmp_path, f"# note{sep}not a setting\nfixtures = a\n"))
        assert [d.name for d in cfg.fixture_dirs] == ["a"]

    def test_out_defaults_next_to_the_config(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, "fixtures = a, b\n"))
        assert cfg.out_dir == (tmp_path / "out").resolve()
        assert [d.name for d in cfg.fixture_dirs] == ["a", "b"]

    def test_missing_fixtures_key(self, tmp_path):
        with pytest.raises(CorruptDocument):
            parse_config(self.write(tmp_path, "seed = 3\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(CorruptDocument):
            parse_config(self.write(tmp_path, "fixtures = a\nturbo = on\n"))

    def test_bad_value(self, tmp_path):
        with pytest.raises(CorruptDocument):
            parse_config(self.write(tmp_path, "fixtures = a\nseed = soon\n"))

    def test_repeated_key_names_both_lines(self, tmp_path):
        for text, key, lines in (
            ("fixtures = a\nseed = 3\n# again\nseed = 4\n", "seed", (2, 4)),
            ("fixtures = a, b\nfixtures = a\n", "fixtures", (1, 2)),
        ):
            with pytest.raises(CorruptDocument) as err:
                parse_config(self.write(tmp_path, text))
            assert f"{key!r} is set twice, on lines {lines[0]} and {lines[1]}" in str(err.value)

    def test_line_without_assignment(self, tmp_path):
        with pytest.raises(CorruptDocument):
            parse_config(self.write(tmp_path, "fixtures = a\njust words\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            parse_config(tmp_path / "absent.cfg")

    def test_every_setting_parses_by_its_annotation(self, tmp_path):
        values = {
            "seed": 3, "strategy": MERGE_ALL, "ewc_lambda": 0.5,
            "embedding_dim": 8, "feature_buckets": 64, "init_scale": 0.25, "lr": 0.5,
            "warmup_steps": 7, "batch_size": 2, "clip_norm": 2.5, "eval_every": 9,
            "val_frac": 0.125, "test_frac": 0.375, "retrieval_fraction": 0.75,
            "retrieval_max": 11, "candidates": 5, "time_budget_ms": 250.0,
            "max_expansions": 40, "prove_after": True, "wall_clock": True,
        }
        settings = {f.name for f in dataclasses.fields(RunConfig)} - {"fixture_dirs", "out_dir"}
        assert set(values) == settings
        defaults = RunConfig(fixture_dirs=(), out_dir=Path("out"))
        assert all(getattr(defaults, key) != value for key, value in values.items())
        # a config spells a boolean in lower case
        lines = ["fixtures = a"] + [f"{key} = {str(value).lower() if value is True else value}"
                                    for key, value in values.items()]
        cfg = parse_config(self.write(tmp_path, "\n".join(lines)))
        assert {key: getattr(cfg, key) for key in values} == values

    def test_field_names_that_are_not_settings_are_unknown_keys(self, tmp_path):
        for line in ("fixture_dirs = a", "out_dir = b"):
            with pytest.raises(CorruptDocument, match="unknown config key"):
                parse_config(self.write(tmp_path, f"fixtures = a\n{line}\n"))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_one_changed_line_of_the_demo_config_parses_or_raises_a_package_error(
            self, tmp_path_factory, data):
        """Any text (NUL and lone surrogates included) in place of one value
        of the demo run.cfg, or that line deleted, either parses or raises
        a ProverloopError, never another exception."""
        lines = BUNDLED_CONFIG.splitlines()
        settings_lines = [i for i, line in enumerate(lines) if "=" in line and line[0] != "#"]
        i = data.draw(st.sampled_from(settings_lines))
        if data.draw(st.booleans()):
            del lines[i]
        else:
            lines[i] = lines[i].partition("=")[0] + "= " + data.draw(_CONFIG_TEXT)
        path = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
        try:
            assert isinstance(parse_config(path), RunConfig)
        except ProverloopError:
            pass

    def test_strategy_spellings(self, tmp_path):
        """A strategy has one spelling, the one STRATEGIES lists."""
        for spelling, strategy in (("single", SINGLE_REPO), ("merge-all", MERGE_ALL)):
            path = self.write(tmp_path, f"fixtures = a\nstrategy = {spelling}\n")
            assert parse_config(path).strategy == strategy
        for spelling in ("single_repo", "merge_all", "MERGE_ALL", "Single", "everything"):
            path = self.write(tmp_path, f"fixtures = a\nstrategy = {spelling}\n")
            with pytest.raises(CorruptDocument, match=(
                    f"^strategy must be one of single, merge-all, got '{spelling}'$")):
                parse_config(path)

    def test_a_boolean_is_true_or_false(self, tmp_path):
        for spelling, value in (("true", True), ("false", False)):
            path = self.write(tmp_path, f"fixtures = a\nwall_clock = {spelling}\n")
            assert parse_config(path).wall_clock is value
        for spelling in ("yes", "no", "on", "off", "1", "0", "True", "FALSE"):
            path = self.write(tmp_path, f"fixtures = a\nwall_clock = {spelling}\n")
            with pytest.raises(CorruptDocument, match=(
                    f"^bad config value for 'wall_clock': expected true or false, "
                    f"got '{spelling}'$")):
                parse_config(path)


class TestOverrideConfig:
    def base(self):
        return RunConfig(fixture_dirs=(Path("/x"),), out_dir=Path("/x/out"))

    def test_none_values_change_nothing(self):
        cfg = override_config(self.base(), seed=None, strategy=None, out_dir=None)
        assert cfg == self.base()

    def test_values_replace_fields(self):
        cfg = override_config(self.base(), seed=4, strategy="merge-all",
                              ewc_lambda=0.5, out_dir="elsewhere")
        assert cfg.seed == 4
        assert cfg.strategy == MERGE_ALL
        assert cfg.ewc_lambda == 0.5
        assert cfg.out_dir == Path("elsewhere").resolve()

    def test_closed_ends_of_the_ranges_are_accepted(self):
        cfg = override_config(self.base(), clip_norm=0.0, ewc_lambda=0.0,
                              retrieval_fraction=1.0, warmup_steps=0,
                              candidates=1, retrieval_max=1, eval_every=1, max_expansions=1)
        assert (cfg.clip_norm, cfg.ewc_lambda, cfg.retrieval_fraction) == (0.0, 0.0, 1.0)
        assert (cfg.eval_every, cfg.max_expansions) == (1, 1)

    @pytest.mark.parametrize("key, value", [
        ("lr", 0.0), ("lr", float("inf")), ("init_scale", 0.0), ("time_budget_ms", 0.0),
        ("val_frac", 0.0), ("test_frac", 1.0), ("retrieval_fraction", 0.0),
        ("clip_norm", float("nan")), ("ewc_lambda", float("inf")), ("warmup_steps", -1),
        ("strategy", "everything"), ("eval_every", 0), ("eval_every", -3),
        ("max_expansions", 0), ("max_expansions", -2),
    ])
    def test_open_ends_and_non_finite_values_are_rejected(self, key, value):
        with pytest.raises(CorruptDocument, match=key):
            override_config(self.base(), **{key: value})


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    write_bundled(root)
    return root


@pytest.fixture(scope="module")
def finished_run(bundle):
    config = parse_config(bundle / "run.cfg")
    report = run_pipeline(config)
    return config, report


class TestLoadRepoFixture:
    def test_loads_record_and_environment(self, bundle):
        record, env = load_repo_fixture(bundle / "repo_algebra")
        assert record.url.startswith("fixture://")
        assert record.repo_id == f"{record.url}@{record.commit}"
        assert record.theorems and record.premise_files
        assert env.initial  # the proof table knows some starting states

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IoFailure):
            load_repo_fixture(tmp_path / "nowhere")

    @pytest.mark.parametrize("build", [repo_algebra, repo_number, repo_topology])
    def test_write_then_load_gives_back_the_record(self, tmp_path, build):
        record, environment = build()
        write_fixture_dir(record, environment, tmp_path / "repo")
        loaded, loaded_environment = load_repo_fixture(tmp_path / "repo")
        assert loaded == record
        assert loaded_environment.to_json() == environment.to_json()

    def test_repo_json_must_name_url_and_commit(self, tmp_path, bundle):
        import shutil
        broken = tmp_path / "broken"
        shutil.copytree(bundle / "repo_algebra", broken)
        (broken / "repo.json").write_text('{"url": "fixture://x"}', encoding="utf-8")
        with pytest.raises(CorruptDocument):
            load_repo_fixture(broken)

    def test_repo_json_must_be_json(self, tmp_path, bundle):
        import shutil
        broken = tmp_path / "broken2"
        shutil.copytree(bundle / "repo_algebra", broken)
        (broken / "repo.json").write_text("{oops", encoding="utf-8")
        with pytest.raises(CorruptDocument):
            load_repo_fixture(broken)


def out_files(out):
    """The bytes of every file under out, by relative path."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def demo_run_in_a_child(cwd, **env):
    """The files, by relative path, of a demo run in a fresh interpreter
    started in cwd with env added to its environment."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from proverloop.fixtures import write_bundled; "
            "from proverloop.pipeline import override_config, parse_config, run_pipeline; "
            "write_bundled('demo'); "
            "run_pipeline(override_config(parse_config('demo/run.cfg'), out_dir='out'))")
    src = Path(__file__).resolve().parent.parent / "src"
    cwd.mkdir()
    subprocess.run([sys.executable, "-c", code, str(src)], cwd=cwd, check=True,
                   env={**os.environ, **env})
    return out_files(cwd / "out")


def haswell_kernel_selectable():
    """Whether OPENBLAS_CORETYPE can switch numpy's BLAS to its Haswell
    kernels: a DYNAMIC_ARCH OpenBLAS, on a CPU with AVX2."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    cpu = {*simd.get("baseline", ()), *simd.get("found", ())}
    return ("DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and bool(cpu & {"AVX2", "X86_V3"}))


class TestRunPipeline:
    def test_matrix_is_lower_triangular_over_the_curriculum(self, finished_run):
        _, report = finished_run
        t = len(report.curriculum)
        assert t == 3
        assert [len(row) for row in report.matrix_rows] == list(range(1, t + 1))
        assert len(report.validation) == t

    def test_six_metrics_and_the_neutral_composite(self, finished_run):
        _, report = finished_run
        raw = report.metric_report.to_json()
        assert set(raw) == {"wf5", "fm", "cfr", "ebwt", "wp5", "ip"}
        assert all(isinstance(v, float) for v in raw.values())
        # a single setup min-max normalizes to the midpoint everywhere, so
        # the run reports no composite of its own
        assert composite_score({"run": raw}) == {"run": pytest.approx(0.5)}
        assert not hasattr(report, "composite") and not hasattr(report, "normalized")

    def test_report_files_and_artifacts_exist(self, finished_run):
        config, report = finished_run
        out = config.out_dir
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert written == sorted([
            *REPORT_FILES,
            "database.json",
            *(f"checkpoints/task_{k:02d}.ckpt" for k in (1, 2, 3)),
            *(f"datasets/task_{k:02d}/metadata.json" for k in (1, 2, 3)),
        ])

    def test_no_temporary_files_remain(self, finished_run):
        config, _ = finished_run
        names = [p.name for p in config.out_dir.rglob("*")]
        assert names and not [n for n in names if n.endswith(".tmp")]

    def test_metrics_json_contents(self, finished_run):
        config, report = finished_run
        doc = json.loads((config.out_dir / "metrics.json").read_text(encoding="utf-8"))
        assert doc["strategy"] == SINGLE_REPO
        assert doc["seed"] == config.seed
        assert len(doc["average_test_curve"]) == 3
        assert doc["validation"] == report.validation
        assert set(doc["raw"]) == {"wf5", "fm", "cfr", "ebwt", "wp5", "ip"}
        assert set(doc) == {"strategy", "seed", "raw", "average_test_curve", "validation"}

    def test_proofs_json_attempts_are_the_search_result_and_three_labels(self, finished_run):
        config, report = finished_run
        doc = json.loads((config.out_dir / "proofs.json").read_text(encoding="utf-8"))
        fields = {f.name for f in dataclasses.fields(SearchResult)}
        assert len(doc["attempts"]) == len(report.attempts)
        assert {a["phase"] for a in doc["attempts"]} == {"during", "after"}
        for attempt in doc["attempts"]:
            assert set(attempt) == {"theorem", "repo", "phase"} | fields

    def test_training_proves_open_goals_and_records_them(self, finished_run):
        config, report = finished_run
        proved = [a for a in report.attempts
                  if a.phase == "during" and a.result.status == "proved"]
        assert proved, "the bundled fixture is tuned so training unlocks proofs"
        db = DynamicDatabase.load(config.out_dir / "database.json")
        _, environments = ingest_fixtures(config)
        for attempt in proved:
            record = db.get_repository(attempt.repo_id)
            thm = next(t for t in record.theorems if t.key_str == attempt.theorem)
            assert thm.status == STATUS_SORRY_PROVEN
            assert list(thm.proof) == attempt.result.proof
            env = TableEnvironment(environments[attempt.repo_id])
            assert replay_proof(env, thm, list(thm.proof))

    def test_the_gated_goal_needs_the_trained_retriever(self, finished_run):
        _, report = finished_run
        gated = [a for a in report.attempts
                 if a.theorem.endswith("num.gated_goal") and a.phase == "during"]
        assert gated and gated[0].result.status == "proved"

    def test_unprovable_goal_is_reported_not_hidden(self, finished_run):
        _, report = finished_run
        hopeless = [a for a in report.attempts if a.theorem.endswith("num.never_goal")]
        assert hopeless
        assert all(a.result.status in ("exhausted", "timeout") for a in hopeless)

    def test_rerun_is_byte_identical(self, bundle, finished_run, tmp_path):
        config, _ = finished_run
        again = override_config(config, out_dir=tmp_path / "out2")
        run_pipeline(again)
        for name in REPORT_FILES + ("database.json",):
            first = (config.out_dir / name).read_bytes()
            second = (again.out_dir / name).read_bytes()
            assert first == second, name
        for k in (1, 2, 3):
            name = f"checkpoints/task_{k:02d}.ckpt"
            assert (config.out_dir / name).read_bytes() == \
                (again.out_dir / name).read_bytes(), name

    def test_retrieving_at_every_expansion_writes_the_same_bytes(self, finished_run, tmp_path,
                                                                  monkeypatch):
        # the eager reference retrieves at every expansion; pulling premises
        # only where the generator reads them must not change a byte
        config, _ = finished_run
        retrieved = []
        retrieve = pipeline.retrieve_premises
        monkeypatch.setattr(pipeline, "retrieve_premises", lambda *a, **k: (
            retrieved.append(1) or retrieve(*a, **k)))
        monkeypatch.setattr(pipeline, "TableGenerator",
                            lambda fixture: EagerGenerator(TableGenerator(fixture)))
        eager = override_config(config, out_dir=tmp_path / "eager")
        report = run_pipeline(eager)
        assert len(retrieved) == sum(a.result.expansions for a in report.attempts) > 0
        want = out_files(config.out_dir)
        assert any(name.startswith("checkpoints/") for name in want)
        assert out_files(eager.out_dir) == want

    def test_out_dir_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """The demo run, in fresh interpreters at one and at two OpenBLAS
        threads and at string hash seeds 0 and 1, writes the same files with
        the same bytes."""
        outs = [demo_run_in_a_child(tmp_path / f"threads_{threads}",
                                    OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed)
                for threads, hash_seed in (("1", "0"), ("2", "1"))]
        assert sorted(outs[0]) == sorted(outs[1])
        assert [name for name in sorted(outs[0]) if outs[0][name] != outs[1][name]] == []

    @pytest.mark.skipif(not haswell_kernel_selectable(),
                        reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on an AVX2 CPU")
    def test_only_checkpoints_depend_on_the_blas_kernel(self, tmp_path):
        """The demo run under the CPU's own OpenBLAS kernel and under the
        Haswell one: every file outside checkpoints/ has the same bytes, and
        each checkpoint's weights agree to 1e-12, as does its importance
        where both carry one: on every task but the last."""
        own = demo_run_in_a_child(tmp_path / "own")
        haswell = demo_run_in_a_child(tmp_path / "haswell", OPENBLAS_CORETYPE="Haswell")
        assert sorted(own) == sorted(haswell)
        checkpoints = [name for name in sorted(own) if name.startswith("checkpoints/")]
        assert len(checkpoints) == 3
        assert [name for name in sorted(own)
                if own[name] != haswell[name] and name not in checkpoints] == []
        has_fisher = []
        for name in checkpoints:
            a, b = (Checkpoint.load(tmp_path / run / "out" / name) for run in ("own", "haswell"))
            assert (a.history, a.best_val_r10) == (b.history, b.best_val_r10)
            assert np.max(np.abs(a.model.weight - b.model.weight)) <= 1e-12
            assert (a.fisher is None) == (b.fisher is None)
            if a.fisher is not None:
                assert np.max(np.abs(a.fisher - b.fisher)) <= 1e-12
            has_fisher.append(a.fisher is not None)
        assert has_fisher == [True, True, False]

    @pytest.mark.parametrize("ewc_lambda, passes, has_fisher", [
        (0.1, 2, [True, True, False]),
        (0.0, 0, [False, False, False]),
    ])
    def test_importance_is_computed_only_for_a_task_a_later_task_anchors_to(
            self, bundle, tmp_path, monkeypatch, ewc_lambda, passes, has_fisher):
        """The importance pass runs after every task but the last, and only
        with the anchor armed, on the task's best model; every file has the
        bytes of a run that trains and takes importance through the hashing
        oracles."""
        config = override_config(parse_config(bundle / "run.cfg"), ewc_lambda=ewc_lambda)
        with monkeypatch.context() as mp:
            mp.setattr(pipeline, "train_one_epoch", train_one_epoch_oracle)
            mp.setattr(pipeline, "compute_fisher", fisher_oracle)
            oracle = override_config(config, out_dir=tmp_path / "oracle")
            run_pipeline(oracle)
        calls = []
        compute_fisher = pipeline.compute_fisher
        monkeypatch.setattr(pipeline, "compute_fisher", lambda *a, **k: (
            calls.append(1) or compute_fisher(*a, **k)))
        got = override_config(config, out_dir=tmp_path / "got")
        run_pipeline(got)
        assert len(calls) == passes

        want_files, got_files = out_files(oracle.out_dir), out_files(got.out_dir)
        assert sorted(got_files) == sorted(want_files)
        header = [json.loads(got_files[f"checkpoints/task_{k:02d}.ckpt"].split(b"\n", 1)[0])
                  for k in (1, 2, 3)]
        assert [h["has_fisher"] for h in header] == has_fisher
        assert [name for name in sorted(got_files) if got_files[name] != want_files[name]] == []

    def test_stage_failures_carry_the_stage_name(self, bundle, tmp_path):
        import shutil
        broken_root = tmp_path / "fixtures"
        for name in ("repo_algebra", "repo_number", "repo_topology"):
            shutil.copytree(bundle / name, broken_root / name)
        (broken_root / "repo_number" / "environment.json").unlink()
        config = RunConfig(
            fixture_dirs=tuple(sorted(broken_root.iterdir())),
            out_dir=tmp_path / "out",
        )
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert "ingest" in str(err.value)

    def test_a_task_without_test_pairs_fails_before_it_trains(self, tmp_path, capsys):
        """topo.mid is topology-tail's only test theorem at the demo seed.
        With its citations renamed to premises no corpus holds, that task
        has no test pairs: the run stops in the task's dataset stage,
        before training writes its checkpoint."""
        assert main(["fixture", "--out", str(tmp_path / "demo")]) == 0
        path = tmp_path / "demo" / "repo_topology" / "theorems.json"
        theorems = json.loads(path.read_text(encoding="utf-8"))
        [mid] = [t for t in theorems if t["full_name"] == "topo.mid"]
        for tac in mid["traced_tactics"]:
            text, [name] = tac["annotated_tactic"]
            tac["annotated_tactic"] = [text.replace(name, f"ghost_{name}"), [f"ghost_{name}"]]
        path.write_text(json.dumps(theorems), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "demo" / "run.cfg"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: stage 'dataset:topology-tail': "
                                           "task 'topology-tail' has no test pairs\n")
        assert task_checkpoint(out, 2).is_file()
        assert not task_checkpoint(out, 3).exists()

    def test_a_run_persists_its_database_once(self, bundle, tmp_path, monkeypatch):
        calls = []
        persist = DynamicDatabase.persist
        monkeypatch.setattr(DynamicDatabase, "persist",
                            lambda db, path: calls.append(path) or persist(db, path))
        config = override_config(parse_config(bundle / "run.cfg"), out_dir=tmp_path / "out")
        run_pipeline(config, prove=False)
        assert calls == [config.out_dir / "database.json"]

    def test_a_run_is_its_start_then_one_step_per_task(self, finished_run, tmp_path):
        """start_run and run_task for the first two tasks give run_pipeline's
        first two matrix rows, validation values and during attempts, and
        write the same bytes to each task's metadata.json and checkpoint."""
        config, report = finished_run
        state = start_run(override_config(config, out_dir=tmp_path / "steps"))
        for k in (1, 2):
            run_task(state, k, prove=True)
        assert state.matrix_rows == report.matrix_rows[:2]
        assert state.validation == report.validation[:2]
        first_two = {rid for rid, _ in report.curriculum[:2]}
        assert [a.to_json() for a in state.attempts] == [
            a.to_json() for a in report.attempts
            if a.phase == "during" and a.repo_id in first_two]
        for k in (1, 2):
            for name in (f"datasets/task_{k:02d}/metadata.json", f"checkpoints/task_{k:02d}.ckpt"):
                assert (state.config.out_dir / name).read_bytes() == \
                    (config.out_dir / name).read_bytes(), name
        assert not (state.config.out_dir / "datasets" / "task_03").exists()

    def test_emit_reports_failure_is_an_io_error(self, finished_run, tmp_path):
        _, report = finished_run
        blocker = tmp_path / "occupied"
        blocker.write_text("a file where a directory must go", encoding="utf-8")
        with pytest.raises(IoFailure):
            emit_reports(report, blocker)

    def test_empty_attempts_serialize_as_an_empty_list(self, finished_run, tmp_path):
        _, report = finished_run
        emit_reports(dataclasses.replace(report, attempts=[]), tmp_path / "bare")
        doc = json.loads((tmp_path / "bare" / "proofs.json").read_text(encoding="utf-8"))
        assert doc == {"attempts": []}


class TestProveGoals:
    def test_a_proof_is_recorded_on_the_copy_that_was_searched(self):
        """Two commits of one repository share an open goal that only the
        first commit's table proves: the proof lands on that commit's copy,
        and the second commit's copy stays open for its own search."""
        goal = theorem("r.open", path="lib/base.lean", status=STATUS_SORRY)
        db = DynamicDatabase([
            RepositoryRecord(url="fixture://r", commit=commit, name="r", theorems=[goal],
                             premise_files=[pfile("lib/base.lean", names=("base.x",))],
                             traced_file_paths=["lib/base.lean"])
            for commit in ("a", "b")])
        first, second = db.repositories
        closes = [{"from": "s0", "tactic": "close", "log_prob": -0.1, "to": GOAL}]
        environments = {
            first.repo_id: TableFixture.from_json({"initial": {goal.key_str: "s0"},
                                                   "edges": closes}),
            second.repo_id: TableFixture.from_json({"initial": {goal.key_str: "s0"},
                                                    "edges": []}),
        }
        model = EmbeddingModel.random_init(dim=4, n_features=16, seed=0, scale=0.1)
        config = RunConfig(fixture_dirs=(), out_dir=Path("out"))
        [proved] = prove_goals(db, environments, model, config, [first.repo_id], "during")
        assert proved.result.status == "proved"
        assert [t.status for t in first.theorems] == [STATUS_SORRY_PROVEN]
        assert [t.status for t in second.theorems] == [STATUS_SORRY]
        [searched] = prove_goals(db, environments, model, config, [second.repo_id], "during")
        assert (searched.repo_id, searched.result.status) == (second.repo_id, "exhausted")


class TestTrainThenProve:
    def test_standalone_proving_uses_the_saved_checkpoint(self, bundle, tmp_path):
        config = override_config(parse_config(bundle / "run.cfg"),
                                 out_dir=tmp_path / "split_run")
        trained = run_pipeline(config, prove=False)
        assert trained.attempts == []
        doc = json.loads((config.out_dir / "proofs.json").read_text(encoding="utf-8"))
        assert doc == {"attempts": []}

        db, attempts = prove_standalone(config)
        assert attempts and all(a.phase == "after" for a in attempts)
        proved = [a for a in attempts if a.result.status == "proved"]
        assert proved
        for attempt in proved:
            record = db.get_repository(attempt.repo_id)
            thm = next(t for t in record.theorems if t.key_str == attempt.theorem)
            assert thm.status == STATUS_SORRY_PROVEN

    def untrained(self, bundle, tmp_path, name):
        config = override_config(parse_config(bundle / "run.cfg"), out_dir=tmp_path / name)
        Checkpoint(model=EmbeddingModel.random_init(
            dim=config.embedding_dim, n_features=config.feature_buckets,
            seed=config.seed, scale=config.init_scale,
        )).save(tmp_path / "untrained.ckpt")
        return config, tmp_path / "untrained.ckpt"

    def test_premise_rows_are_resolved_once_per_retrieval(self, bundle, tmp_path,
                                                          monkeypatch):
        # and never for a goal that does not retrieve
        config, ckpt = self.untrained(bundle, tmp_path, "rows_once")
        resolved, retrieved = [], []
        rows_of = EmbeddingIndex.rows_of
        monkeypatch.setattr(EmbeddingIndex, "rows_of", lambda index, premises: (
            resolved.append(premises) or rows_of(index, premises)))
        retrieve = pipeline.retrieve_premises
        monkeypatch.setattr(pipeline, "retrieve_premises", lambda model, index, state, accessible,
                            **k: retrieved.append(accessible) or retrieve(
                                model, index, state, accessible, **k))
        _, attempts = prove_standalone(config, ckpt)
        assert list(map(id, resolved)) == list(map(id, retrieved))
        # fewer retrievals than goals: some goal never retrieved
        assert 0 < len(retrieved) < len(attempts)

    def test_a_stage_whose_goals_never_retrieve_builds_nothing(self, bundle, tmp_path,
                                                                monkeypatch):
        config, ckpt = self.untrained(bundle, tmp_path, "no_retrieval")
        names = ("corpus_from_files", "build_dependency_graph", "precompute_embeddings",
                 "accessible_premises")
        built = []

        def recording(name, fn):
            return lambda *a, **k: built.append(name) or fn(*a, **k)

        for name in names:
            monkeypatch.setattr(pipeline, name, recording(name, getattr(pipeline, name)))
        prove_standalone(config, ckpt)
        assert set(built) == set(names)
        built.clear()
        monkeypatch.setattr(pipeline, "TableGenerator", OracleGenerator)
        _, attempts = prove_standalone(config, ckpt)
        assert attempts and built == []

    def test_default_checkpoint_is_the_last_tasks(self, bundle, tmp_path):
        config = override_config(parse_config(bundle / "run.cfg"),
                                 out_dir=tmp_path / "last_task")
        path = task_checkpoint(config.out_dir, 3)
        assert path == config.out_dir / "checkpoints" / "task_03.ckpt"
        Checkpoint(model=EmbeddingModel.random_init(
            dim=config.embedding_dim, n_features=config.feature_buckets,
            seed=config.seed, scale=config.init_scale,
        )).save(path)
        _, attempts = prove_standalone(config)
        assert attempts

    def test_missing_checkpoint_is_a_stage_failure(self, bundle, tmp_path):
        config = override_config(parse_config(bundle / "run.cfg"),
                                 out_dir=tmp_path / "never_ran")
        with pytest.raises(PipelineError) as err:
            prove_standalone(config)
        assert "checkpoint" in str(err.value)


class TestMergeAllStrategy:
    def test_merge_all_trains_on_growing_pools(self, bundle, tmp_path):
        config = override_config(parse_config(bundle / "run.cfg"),
                                 strategy="merge-all", out_dir=tmp_path / "merged")
        report = run_pipeline(config, prove=False)
        assert len(report.matrix_rows) == 3
        meta = json.loads(
            (config.out_dir / "datasets" / "task_03" / "metadata.json")
            .read_text(encoding="utf-8")
        )
        assert len(meta["repo_ids"]) == 3

    def test_a_premise_file_shared_by_two_corpora_is_featurized_once(self, bundle, tmp_path,
                                                                    monkeypatch):
        config = override_config(parse_config(bundle / "run.cfg"),
                                 strategy="merge-all", out_dir=tmp_path / "shared")
        hashed = []
        kernel = retriever.hash_ngrams
        monkeypatch.setattr(retriever, "hash_ngrams", lambda texts, n_features: (
            hashed.append(tuple(texts)) or kernel(texts, n_features)))
        # an empty cache, so the run featurizes every premise file it embeds
        monkeypatch.setattr(retriever, "ngram_features", functools.lru_cache(maxsize=None)(
            retriever.ngram_features.__wrapped__))
        run_pipeline(config)
        db, _ = ingest_fixtures(config)
        files = [tuple(p.text for p in f.premises)
                 for record in db.repositories for f in record.premise_files]
        shared = [texts for texts in set(files) if files.count(texts) > 1]
        assert shared
        for texts in set(files):
            assert hashed.count(texts) == 1


class TestDatasetMetadata:
    @pytest.mark.parametrize("strategy", ["single", "merge-all"])
    def test_database_and_metadata_give_back_every_task_dataset(self, finished_run, tmp_path,
                                                                strategy):
        config = finished_run[0]
        if strategy != "single":
            config = override_config(config, strategy=strategy, out_dir=tmp_path / "merged")
            run_pipeline(config)
        ordered = [rid for rid, _ in build_curriculum(ingest_fixtures(config)[0])[1]]
        db = DynamicDatabase.load(config.out_dir / "database.json")
        assert any(t.status == STATUS_SORRY_PROVEN for r in db.repositories for t in r.theorems)
        tasks = sorted((config.out_dir / "datasets").iterdir())
        assert [d.name for d in tasks] == ["task_01", "task_02", "task_03"]
        for k, task in enumerate(tasks, start=1):
            doc = json.loads((task / "metadata.json").read_text(encoding="utf-8"))
            expected = db.generate_dataset(ordered[:k], strategy=config.strategy,
                                           seed=config.seed,
                                           val_frac=config.val_frac, test_frac=config.test_frac)
            rebuilt = dataset_from_metadata(db, doc)
            assert rebuilt.split == expected.split, k
            assert serialize_corpus(rebuilt.corpus) == serialize_corpus(expected.corpus)
            assert rebuilt.metadata.to_json() == expected.metadata.to_json()

    @pytest.mark.parametrize("persist_fails", [False, True])
    def test_a_run_that_fails_mid_curriculum_leaves_the_database_its_datasets_name(
            self, tmp_path, capsys, monkeypatch, persist_fails):
        """With topology-tail cut to its first two proven theorems and its
        open goal, its task has no training examples. The run exits 2 with
        that stage's message after writing three metadata.json files, and
        the database.json it leaves resolves each one. A database that
        cannot be written does not change the message."""
        assert main(["fixture", "--out", str(tmp_path / "demo")]) == 0
        path = tmp_path / "demo" / "repo_topology" / "theorems.json"
        theorems = json.loads(path.read_text(encoding="utf-8"))
        proven = [t for t in theorems if t["status"] == "proven"][:2]
        path.write_text(json.dumps([t for t in theorems if t["status"] != "proven" or t in proven]),
                        encoding="utf-8")
        if persist_fails:
            def refuse(db, target):
                raise IoFailure(f"cannot write {target}")

            monkeypatch.setattr(DynamicDatabase, "persist", refuse)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path / "demo" / "run.cfg"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: stage 'train:topology-tail': "
                                           "task 'topology-tail' has no training examples\n")
        metadata = sorted(out.glob("datasets/*/metadata.json"))
        assert len(metadata) == 3
        assert (out / "database.json").exists() != persist_fails
        if not persist_fails:
            db = DynamicDatabase.load(out / "database.json")
            for meta in metadata:
                # a key that the database lacks raises KeyError here
                dataset_from_metadata(db, json.loads(meta.read_text(encoding="utf-8")))

    @pytest.mark.parametrize("name, call, stage, tasks", [
        ("_build_task", 2, "dataset:number-midway", 2),
        ("train_one_epoch", 2, "train:number-midway", 2),
        ("recall_at_k", 2, "evaluate:number-midway", 2),
        ("best_first_search", 1, "prove:algebra-warmup", 1),
        # the four during searches come first, number-midway's during task 2
        ("best_first_search", 5, "prove:number-midway", 3),
        ("compute_report", 1, "metrics", 3),
        ("emit_reports", 1, "report", 3),
    ])
    def test_a_failed_stage_exits_two_and_leaves_the_database_its_datasets_name(
            self, bundle, tmp_path, capsys, monkeypatch, name, call, stage, tasks):
        """A package error raised by the given call in task 2's dataset,
        train or evaluate stage, in the first prove stage during or after
        the tasks, or in the metrics or report stage: the run exits 2 naming
        the stage, after writing the datasets of the given number of tasks,
        and database.json resolves each of their metadata.json files."""
        calls = []
        real = getattr(pipeline, name)

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == call:
                raise ProverloopError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, failing)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["run", "--config", str(bundle / "run.cfg"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: stage {stage!r}: injected\n"
        metadata = sorted(out.glob("datasets/*/metadata.json"))
        assert len(metadata) == tasks
        db = DynamicDatabase.load(out / "database.json")
        for meta in metadata:
            # a key that the database lacks raises KeyError here
            dataset_from_metadata(db, json.loads(meta.read_text(encoding="utf-8")))
