"""One workload in one process; run.py starts it with one BLAS thread.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

numpy is imported before the set-up clock starts, so `setup_s` covers the
temperlab import, the corpus and vocabulary, and building or loading the
model. The result is printed as one JSON line.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer as tracer_mod

ROOT = Path(__file__).resolve().parent.parent


MIN_OPS = 100  # so that at least ten operations lie beyond the 90th percentile


def measure(wl, seconds: float, ops: list[int]) -> list[int]:
    """Whole rounds until `seconds` have passed and MIN_OPS operations are
    timed; returns the round times (ns)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(wl.round(ops))
        if time.perf_counter() - start >= seconds and len(ops) >= MIN_OPS:
            return rounds


def env_stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def untraced(wl, args, setup_s: float) -> dict:
    wl.warm_up()
    ops: list[int] = []
    rounds = measure(wl, args.seconds, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = checks.capped(wl.check())
    op_ms = [t / 1e6 for t in ops]
    p50, p90 = np.percentile(op_ms, [50, 90])
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(rounds) / 1e9,
        "op_ms_p50": float(p50),
        "op_ms_p90": float(p90),
        "peak_rss_mb": peak_rss_mb,
        "ops_timed": len(op_ms),
        "rounds": len(rounds),
        "problems": problems,
    }


def traced(wl, args, tracer) -> dict:
    """Set-up and rounds under the tracer, after one untraced round that
    gives the tracing overhead."""
    tracer.install()
    wl.setup()
    tracer.uninstall()
    setup_spans = tracer.spans(0, tracer.mark())
    wl.warm_up()
    plain = [wl.round([])]
    lo = tracer.mark()
    attempted = wl.attempted
    tracer.install()
    rounds = measure(wl, args.seconds / 2, [])
    hi = tracer.mark()
    probe = wl.probe() if hasattr(wl, "probe") else {}
    tracer.uninstall()
    # an operation is a training step or a sentence; on sweep, a whole sweep
    ops = len(rounds) if args.workload == "sweep" else wl.attempted - attempted
    overhead = 100.0 * (statistics.median(rounds) / statistics.median(plain) - 1.0)
    step_ms = {n: statistics.mean(v) for n, v in probe.items()}
    metrics = tracer_mod.layer_metrics(tracer.spans(lo, hi), setup_spans, ops, step_ms, overhead)
    problems = checks.capped(wl.check())
    tracer.save(ROOT / "perfbench" / "out" / f"trace-{args.workload}.npz")
    return {"per_layer": metrics, "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import temperlab

    src = (ROOT / "src").resolve()
    if src not in Path(temperlab.__file__).resolve().parents:
        print(f"temperlab was imported from {temperlab.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed)
    if args.trace:
        (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
        result = traced(wl, args, tracer_mod.Tracer())
    else:
        wl.setup()
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = untraced(wl, args, setup_s)
    if hasattr(wl, "clean"):
        wl.clean()
    result.update(attempted=wl.attempted, failed=wl.failed, env=env_stamp())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
