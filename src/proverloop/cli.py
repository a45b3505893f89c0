"""Command line front end for the lifelong proving pipeline."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .database import STRATEGIES
from .errors import ProverloopError
from .fixtures import BUNDLED_SEED, write_bundled
from .metrics import composite_score, compute_report, normalize_metrics, read_matrix
from .pipeline import (
    RANGES,
    build_curriculum,
    check_within,
    curriculum_json,
    ingest_fixtures,
    override_config,
    parse_config,
    proofs_json,
    prove_standalone,
    run_pipeline,
)
from .storage import dump_json, write_atomic


def _out_dir(value: str) -> str:
    """The type of every --out. An empty one would name the current
    directory (`--out .` says so explicitly), so it ends parsing."""
    if not value:
        raise ProverloopError("--out names no output directory")
    return value


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="key = value run config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--strategy", choices=STRATEGIES,
                   help="dataset strategy override")
    p.add_argument("--ewc-lambda", type=float, dest="ewc_lambda",
                   help="quadratic anchor strength override")
    p.add_argument("--window", type=int, help="metric window override")
    p.add_argument("--time-budget-ms", type=float, dest="time_budget_ms",
                   help="per-theorem search budget override")
    p.add_argument("--out", type=_out_dir, help="output directory override")


def _load_config(args: argparse.Namespace):
    config = parse_config(args.config)
    return override_config(
        config,
        seed=args.seed,
        strategy=args.strategy,
        ewc_lambda=args.ewc_lambda,
        window=args.window,
        time_budget_ms=args.time_budget_ms,
        out_dir=args.out,
    )


def _cmd_fixture(args: argparse.Namespace) -> int:
    check_within("seed", args.seed, RANGES["seed"])
    dirs = write_bundled(args.out, seed=args.seed)
    for d in dirs:
        print(f"wrote {d}")
    print(f"wrote {Path(args.out) / 'run.cfg'}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = _load_config(args)
    db, _ = ingest_fixtures(config)
    target = Path(config.out_dir) / "database.json"
    db.persist(target)
    for rec in db.repositories:
        print(f"{rec.repo_id}: {len(rec.theorems)} theorems, "
              f"{len(rec.premise_files)} files")
    print(f"database persisted to {target}")
    return 0


def _cmd_curriculum(args: argparse.Namespace) -> int:
    config = _load_config(args)
    db, _ = ingest_fixtures(config)
    text = dump_json(curriculum_json(*build_curriculum(db)))
    write_atomic(Path(config.out_dir) / "curriculum.json", text)
    print(text, end="")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_pipeline(config, prove=False)
    print("trained through:", ", ".join(rid for rid, _ in report.curriculum))
    print("validation R@10 (%):", ", ".join(f"{v:.1f}" for v in report.validation))
    print(f"reports in {config.out_dir}")
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    config = _load_config(args)
    db, attempts = prove_standalone(config, checkpoint_path=args.checkpoint)
    out = Path(config.out_dir)
    write_atomic(out / "proofs.json", dump_json(proofs_json(attempts)))
    db.persist(out / "database.json")
    proved = sum(1 for a in attempts if a.result.status == "proved")
    print(f"proved {proved} of {len(attempts)} open goals")
    print(f"proofs in {out / 'proofs.json'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    check_within("window", args.window, RANGES["window"])
    setups = list(args.setup or [])
    if args.matrix or args.validation:
        if not (args.matrix and args.validation):
            print("error: --matrix and --validation go together", file=sys.stderr)
            return 2
        setups.append(["run", args.matrix, args.validation])
    if not setups:
        print("error: give --matrix/--validation or at least one --setup",
              file=sys.stderr)
        return 2
    names = [name for name, _, _ in setups]
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        print(f"error: setup name {repeated!r} given twice", file=sys.stderr)
        return 2
    raw = {
        name: compute_report(read_matrix(matrix, validation), window=args.window).to_json()
        for name, matrix, validation in setups
    }
    normalized = normalize_metrics(raw)
    composites = composite_score(raw)
    doc = {
        name: {
            "raw": raw[name],
            "normalized": normalized[name],
            "composite": composites[name],
        }
        for name in raw
    }
    text = dump_json(doc)
    if args.out:
        write_atomic(Path(args.out) / "metrics.json", text)
    print(text, end="")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_pipeline(config)
    print("curriculum:", ", ".join(rid for rid, _ in report.curriculum))
    print("validation R@10 (%):", ", ".join(f"{v:.1f}" for v in report.validation))
    print("final test row (%):", ", ".join(f"{v:.1f}" for v in report.matrix_rows[-1]))
    proved = sum(1 for a in report.attempts if a.result.status == "proved")
    print(f"proved {proved} of {len(report.attempts)} attempts")
    print(f"reports in {config.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proverloop",
        description="Curriculum-driven retriever training and proof search "
                    "over repository fixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixture", help="write the bundled three-repo demo")
    p.add_argument("--out", type=_out_dir, required=True, help="directory to create")
    p.add_argument("--seed", type=int, default=BUNDLED_SEED)
    p.set_defaults(fn=_cmd_fixture)

    p = sub.add_parser("ingest", help="load fixtures and persist the database")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("curriculum", help="difficulty thresholds and repo order")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_curriculum)

    p = sub.add_parser("train", help="run the pipeline without proof search")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("prove", help="attempt open goals with a saved checkpoint")
    _add_config_flags(p)
    p.add_argument("--checkpoint", help="binary .ckpt checkpoint file; default is the "
                                        "last task's checkpoints/task_XX.ckpt under "
                                        "the output dir")
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("metrics", help="score performance matrices")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--matrix", help="matrix CSV for a single setup")
    p.add_argument("--validation", help="validation CSV for a single setup")
    p.add_argument("--setup", nargs=3, action="append",
                   metavar=("NAME", "MATRIX", "VALIDATION"),
                   help="named setup; repeat to normalize across setups")
    p.add_argument("--out", type=_out_dir, help="also write metrics.json here")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("run", help="full pipeline: ingest, curriculum, train, prove")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ProverloopError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
