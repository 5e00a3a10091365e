"""Shared training campaign backing the trend-level acceptance criteria.

Twelve desk-scale runs (temperatures {1, 2, 3, 5} x three seeds) on the
noisy copy task, each one `run_experiment` of `CONFIG`, built in parallel
worker processes (`experiments.worker_pool`). Each job builds the task
once, trains, and then measures the run from the `average.npz` and
`record.jsonl` it saved, through the same `_measure` that `--check` uses.
Runs are deterministic, so finished results are cached on disk keyed by
the campaign fingerprint; delete the cache directory to force retraining.
The key covers the configuration and the numeric environment (numpy
version, BLAS library and its thread count), not the code, so after a
code change run

    PYTHONPATH=src python3 tests/campaign.py --check

to recompute every cached run's decoding, entropy and gradient-norm fields
from its cached model, retrain `run_T2_s0` whole and the first 60 steps of
the other temperatures' seed-0 runs, compare the retrained records (and,
for the whole run, the bytes of `average.npz`) with the cached ones, and
report any value that is not bit-equal.
"""

# temperlab before numpy: importing it pins the BLAS threads, which only
# works before numpy loads (README, Reproducibility)
import temperlab  # noqa: F401

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from temperlab import blas
from temperlab.decoding import BeamConfig
from temperlab.experiments import (
    BeamGridConfig,
    ExperimentConfig,
    SeedConfig,
    build_task_data,
    entropy_probe,
    run_experiment,
    worker_pool,
)
from temperlab.metrics import corpus_bleu, output_similarity_bleu
from temperlab.model import load_checkpoint
from temperlab.training import ExperimentRecord, TrainerConfig, beam_outputs, greedy_outputs, tail_grad_norm

CAMPAIGN_VERSION = 3
TEMPERATURES = (1.0, 2.0, 3.0, 5.0)
SEEDS = (0, 1, 2)

# desk defaults (noisy copy task, 2-layer dim-64 model, label smoothing 0.1)
# with 1000 training steps and decode length 25; run s uses model seed
# 100 + s and training seed 200 + s
CONFIG = ExperimentConfig(
    trainer=TrainerConfig(max_steps=1000),
    beam_grid=BeamGridConfig(max_length=25),
)
BEAM4 = BeamConfig(beam_size=4, length_penalty_alpha=1.0, max_length=CONFIG.beam_grid.max_length)
# `--check` retrains this run whole, and this many steps of each other
# temperature's seed-0 run; the Tier-1 guard retrains the steps only
WHOLE_RETRAIN = (2.0, 0)
RETRAIN_STEPS = 60


def cache_dir() -> Path:
    root = os.environ.get("TEMPERLAB_CAMPAIGN_CACHE", "/tmp/temperlab_campaign")
    return Path(root) / campaign_fingerprint()


def campaign_fingerprint() -> str:
    payload = json.dumps(
        {
            "version": CAMPAIGN_VERSION,
            "task": dataclasses.asdict(CONFIG.task),
            "model": dataclasses.asdict(CONFIG.model),
            "trainer": dataclasses.asdict(CONFIG.trainer),
            "temperatures": TEMPERATURES,
            "seeds": SEEDS,
            "max_len": CONFIG.beam_grid.max_length,
            "numpy": np.__version__,
            "blas": blas.describe(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass
class CampaignRun:
    temperature: float
    seed: int
    steps: int
    train_wall_s: float  # run_experiment: training, dev evaluation, artifacts
    dev_bleu: float
    test_greedy_bleu: float
    test_beam4_bleu: float
    similarity_bleu: float
    tempered_entropy: float
    raw_entropy: float
    tail_grad_norm: float  # mean over the final quarter of training steps
    grad_norms: list
    model_path: str


def greedy_test_outputs(model, data) -> tuple[list, float]:
    """Greedy test outputs of a run's decode model and their corpus BLEU."""
    greedy = greedy_outputs(model, data, "test")
    return greedy, corpus_bleu(greedy, [t for _, t in data.test])


def beam4_test_bleu(model, data) -> tuple[list, float]:
    """Beam-4 test outputs of a run's decode model and their corpus BLEU."""
    beam = beam_outputs(model, data, "test", BEAM4)
    return beam, corpus_bleu(beam, [t for _, t in data.test])


def _measure(model_path, data, temperature: float, grad_norms: list) -> dict:
    """The cached fields that follow from a run's saved decode model and its
    recorded gradient norms."""
    model, _step = load_checkpoint(model_path)
    greedy, greedy_bleu = greedy_test_outputs(model, data)
    beam, beam_bleu = beam4_test_bleu(model, data)
    tempered_h, raw_h = entropy_probe(model, data, temperature)
    return dict(
        test_greedy_bleu=greedy_bleu,
        test_beam4_bleu=beam_bleu,
        similarity_bleu=output_similarity_bleu(greedy, beam),
        tempered_entropy=tempered_h,
        raw_entropy=raw_h,
        tail_grad_norm=tail_grad_norm(grad_norms),
    )


def _name(temperature: float, seed: int) -> str:
    """A run's directory and, with `.json`, its cache file."""
    return f"run_T{temperature:g}_s{seed}"


def _seeded(seed: int) -> ExperimentConfig:
    return dataclasses.replace(CONFIG, seeds=SeedConfig(model=100 + seed, train=200 + seed))


def _run_one(temperature: float, seed: int, out: Path) -> CampaignRun:
    """Train one run, then measure it from the `average.npz` and
    `record.jsonl` it saved, as `--check` does."""
    cfg = _seeded(seed)
    data = build_task_data(cfg)
    t0 = time.perf_counter()
    run = run_experiment(cfg, data, temperature, out / _name(temperature, seed))
    train_wall_s = time.perf_counter() - t0
    run_dir = Path(run.run_dir)
    shutil.rmtree(run_dir / "checkpoints")  # the cache keeps only the average

    grad_norms = [s.grad_norm for s in ExperimentRecord.load_jsonl(run_dir / "record.jsonl").steps]
    model_path = str(run_dir / "average.npz")
    return CampaignRun(
        temperature=temperature,
        seed=seed,
        steps=run.steps_trained,
        train_wall_s=train_wall_s,
        dev_bleu=run.dev_bleu,
        grad_norms=grad_norms,
        model_path=model_path,
        **_measure(model_path, data, temperature, grad_norms),
    )


def _build_one(job: tuple[float, int, Path, bool]) -> None:
    """Train and measure one run and write its cache file."""
    temperature, seed, out, verbose = job
    run = _run_one(temperature, seed, out)
    with open(out / f"{_name(temperature, seed)}.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(run), fh)
    if verbose:
        print(
            f"T={temperature:g} seed={seed}: dev {run.dev_bleu:.2f} "
            f"test {run.test_greedy_bleu:.2f} beam4 {run.test_beam4_bleu:.2f} "
            f"sim {run.similarity_bleu:.2f} rawH {run.raw_entropy:.3f} "
            f"gnorm {run.tail_grad_norm:.3f}",
            flush=True,
        )


def run_campaign(verbose: bool = False) -> dict[tuple[float, int], CampaignRun]:
    out = cache_dir()
    out.mkdir(parents=True, exist_ok=True)
    keys = {(t, s): out / f"{_name(t, s)}.json" for s in SEEDS for t in TEMPERATURES}
    jobs = [(t, s, out, verbose) for (t, s), key in keys.items() if not key.exists()]
    with worker_pool(len(jobs)) as map_jobs:
        map_jobs(_build_one, jobs)
    runs: dict[tuple[float, int], CampaignRun] = {}
    for run_key, key in keys.items():
        with open(key, encoding="utf-8") as fh:
            runs[run_key] = CampaignRun(**json.load(fh))
    return runs


def load_campaign_model(run: CampaignRun):
    model, _ = load_checkpoint(run.model_path)
    return model


def _retrain_diffs(run: CampaignRun, data, steps: int | None = RETRAIN_STEPS) -> list[str]:
    """Retrain a cached run on `data` (`build_task_data(CONFIG)`): its first
    `steps` steps or, with None, the whole run. Compare each retrained step
    record (whole, also each eval record, their counts and the bytes of
    `average.npz`) with the cache, all fields but `wall_s`; the differences
    of the first record that differs, as `kind step field cached -> fresh`."""
    cfg = _seeded(run.seed)
    if steps is not None:
        cfg = dataclasses.replace(cfg, trainer=dataclasses.replace(cfg.trainer, max_steps=steps))
    cached_dir = Path(run.model_path).parent
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(cfg, data, run.temperature, tmp)
        fresh = ExperimentRecord.load_jsonl(Path(tmp) / "record.jsonl")
        fresh_average = (Path(tmp) / "average.npz").read_bytes() if steps is None else None
    cached = ExperimentRecord.load_jsonl(cached_dir / "record.jsonl")
    pairs = [("step", old, new) for old, new in zip(cached.steps, fresh.steps)]
    if steps is None:
        pairs += [("eval", old, new) for old, new in zip(cached.evals, fresh.evals)]
    for kind, old, new in pairs:
        old, new = dataclasses.asdict(old), dataclasses.asdict(new)
        changed = [f for f in old if f != "wall_s" and old[f] != new[f]]
        diffs = [f"{kind} {old['step']} {f} {old[f]!r} -> {new[f]!r}" for f in changed]
        if diffs:
            return diffs
    if steps is None:
        counts = [(len(r.steps), len(r.evals)) for r in (cached, fresh)]
        if counts[0] != counts[1]:
            return [f"step and eval counts {counts[0]} -> {counts[1]}"]
        if fresh_average != (cached_dir / "average.npz").read_bytes():
            return ["average.npz bytes differ"]
    return []


def _check_one(path: Path) -> list[str]:
    """The measured fields of one cached run that its cached model no longer
    reproduces bit for bit, as `field cached -> fresh`, and for a seed-0 run
    the retrained records that differ from its own."""
    with open(path, encoding="utf-8") as fh:
        run = CampaignRun(**json.load(fh))
    data = build_task_data(CONFIG)
    fresh = _measure(run.model_path, data, run.temperature, run.grad_norms)
    diffs = [f"{k} {getattr(run, k)!r} -> {v!r}" for k, v in fresh.items() if getattr(run, k) != v]
    if run.seed == 0:
        diffs += _retrain_diffs(run, data, None if (run.temperature, run.seed) == WHOLE_RETRAIN else RETRAIN_STEPS)
    return diffs


def check_campaign() -> int:
    """Recompute the measured fields of every cached run; 0 when all are
    bit-equal to the cache."""
    paths = sorted(cache_dir().glob("run_T*_s*.json"))
    with worker_pool(len(paths)) as map_jobs:
        results = map_jobs(_check_one, paths)
    for path, diffs in zip(paths, results):
        print(f"{path.name}: {'; '.join(diffs) if diffs else 'bit-identical'}", flush=True)
    if not paths:
        print(f"no cached runs under {cache_dir()}")
    return 0 if paths and not any(results) else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="build (or check) the acceptance campaign cache")
    parser.add_argument("--check", action="store_true", help="recompute and retrain cached runs and compare")
    if parser.parse_args().check:
        sys.exit(check_campaign())
    run_campaign(verbose=True)
