"""Benchmark command for temperlab.

    python3 perfbench/run.py --workload {train,greedy,beam,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. Each workload runs in a child process with
one BLAS thread and a fixed PYTHONHASHSEED, set before numpy loads. With
--trace 0 it prints every end-to-end metric; set-up is repeated in
SETUP_REPEATS extra children and its median reported. With --trace 1 it
prints every per-layer metric from a traced run. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The full
result, with the environment stamp, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "greedy", "beam", "sweep")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB"}
SETUP_REPEATS = 4
DEADLINE_S = 170  # every run must end within 180 s


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().strip()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def line_count(directory: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in directory.rglob("*.py"))


def child(args, deadline: float, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "temperlab" / "__init__.py").is_file():
        print(f"no temperlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    load_start = loadavg()
    try:
        setups = [] if args.trace else [
            child(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_REPEATS)
        ]
        result = child(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        import tracer  # numpy-only module; loaded after the children ran

        metrics = {k: {"value": v, "unit": tracer.PER_LAYER_UNITS[k]} for k, v in result["per_layer"].items()}
    else:
        result["setup_repeats_s"] = setups + [result["setup_s"]]
        result["setup_s"] = statistics.median(result["setup_repeats_s"])
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result["env"].update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        loadavg_start=load_start,
        loadavg_end=loadavg(),
        git_revision=git_revision(),
        lines={d: line_count(ROOT / d) for d in ("src", "tests")},
    )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), **result}, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6f} {m['unit']}")
    for problem in result["problems"]:
        print(f"  INCORRECT: {problem}")
    print("env " + json.dumps(result["env"]))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
