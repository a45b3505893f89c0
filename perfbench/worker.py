"""One timed repetition in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py setup --config RUN_CFG
    python3 perfbench/worker.py run   --config RUN_CFG --out DIR
    python3 perfbench/worker.py trace --config RUN_CFG --out DIR --spans FILE --run-id ID

`setup` times import + parse_config + ingest_fixtures + build_curriculum,
what every `proverloop run` pays before its first task. `run` times
run_pipeline with tracing off. `trace` does the same with spans around
every layer call and also reports the per-layer metrics.

Every mode also reports `reference_s`, the time of `reference_s()`, a
fixed piece of work timed next to the measured one (after setup, before
and after run_pipeline), so the caller can scale out the speed the shared
host gave the process at that moment.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def reference_s() -> float:
    """Seconds taken by a fixed piece of work that uses none of proverloop:
    JSON encoding, dict and string work in Python, fresh memory and small
    numpy products and sorts, the mix the pipeline spends its time in."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((128, 1024))
    w = rng.standard_normal((1024, 48))
    floats = rng.standard_normal(20000).tolist()
    t = time.perf_counter()
    json.dumps({"theta": floats}, sort_keys=True)
    counts: dict[str, int] = {}
    for i in range(30000):
        key = f"w{i % 4099}"
        counts[key] = counts.get(key, 0) + 1
    np.ones(500_000).sum()
    for _ in range(10):
        np.argsort(-(x @ w) @ w.T, axis=1)
    return time.perf_counter() - t


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    from proverloop import pipeline
    from proverloop.pipeline import build_curriculum, ingest_fixtures, override_config, parse_config

    config = parse_config(args.config)
    if args.mode == "setup":
        db, _ = ingest_fixtures(config)
        build_curriculum(db)
        setup_s = time.perf_counter() - _T0
        print(json.dumps({"setup_s": setup_s, "reference_s": reference_s()}))
        return

    config = override_config(config, out_dir=args.out)
    tracer = None
    if args.mode == "trace":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ref_before = reference_s()
    t = time.perf_counter()
    pipeline.run_pipeline(config)  # looked up late so a traced run sees the wrapper
    run_s = time.perf_counter() - t
    result = {
        "run_s": run_s,
        "peak_rss_mb": _peak_rss_mb(),
        "reference_s": (ref_before + reference_s()) / 2,
    }
    if tracer is not None:
        from tracing import layer_metrics, write_spans

        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, tracer.featurize_cache.cache_info())
        write_spans(tracer.spans, args.run_id, Path(args.spans))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
