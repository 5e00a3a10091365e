"""Experiment orchestration: single runs, temperature sweeps, analysis.

A single declarative config fully determines a run; re-running any command
with the same config and seeds reproduces all numeric outputs exactly
(wall-clock fields excepted). Every emitted CSV row and JSON report
carries the hash of the config that produced it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (SyntheticTaskSpec, build_vocabulary, check_seed, encode_pairs, generate_multilingual_corpus,
                   generate_synthetic_corpus, make_batches)
from .decoding import BeamConfig, decode_corpus
from .errors import ConfigError, DataError, TemperlabError
from .metrics import corpus_bleu, output_similarity_bleu, paired_bootstrap
from .model import ModelConfig, init_parameters, load_checkpoint, save_checkpoint
from .tempering import TemperingConfig, entropy_views
from .training import (
    ExperimentRecord,
    TaskData,
    TrainerConfig,
    average_checkpoints,
    beam_outputs,
    evaluate_checkpoint,
    greedy_outputs,
    model_from_checkpoint,
    tail_grad_norm,
    train,
)

Array = np.ndarray

DEFAULT_TEMPERATURES = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 3.0, 4.0, 5.0, 10.0)


@dataclass(frozen=True)
class SeedConfig:
    model: int = 0
    train: int = 0

    def __post_init__(self):
        check_seed("seeds.model", self.model)
        check_seed("seeds.train", self.train)


@dataclass(frozen=True)
class BeamGridConfig:
    beam_sizes: tuple[int, ...] = (2, 4, 6, 8, 10, 12)
    length_penalties: tuple[float, ...] = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4)
    max_length: int = 32

    def __post_init__(self):
        if not self.beam_sizes or not self.length_penalties:
            raise ConfigError("beam grid must contain at least one beam size and penalty")


@dataclass(frozen=True)
class ExperimentConfig:
    """A run or sweep; the defaults are the desk scale: noisy copy task,
    2-layer dim-64 model."""

    task: SyntheticTaskSpec = field(default_factory=SyntheticTaskSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    tempering: TemperingConfig = field(default_factory=TemperingConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    beam_grid: BeamGridConfig = field(default_factory=BeamGridConfig)
    temperatures: tuple[float, ...] = DEFAULT_TEMPERATURES
    multilingual: bool = False
    output_dir: str = "runs/exp"
    seeds: SeedConfig = field(default_factory=SeedConfig)


_SECTIONS = {
    "task": SyntheticTaskSpec,
    "model": ModelConfig,
    "tempering": TemperingConfig,
    "trainer": TrainerConfig,
    "beam_grid": BeamGridConfig,
    "seeds": SeedConfig,
}


def _build_section(cls, raw: dict, section: str):
    names = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(names)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in config section {section!r}")
    kwargs = {}
    for key, value in raw.items():
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(raw: dict) -> ExperimentConfig:
    top = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - top
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            kwargs[key] = _build_section(_SECTIONS[key], value, key)
        elif key == "temperatures":
            kwargs[key] = tuple(float(t) for t in value)
        else:
            kwargs[key] = value
    return ExperimentConfig(**kwargs)


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """The JSON config file at `path` (desk defaults when None) with the
    `dotted.key=value` overrides applied."""
    if path is None:
        raw = dataclasses.asdict(ExperimentConfig())
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object, not {type(raw).__name__}")
    try:
        cfg = config_from_dict(apply_overrides(raw, overrides))
    except (TypeError, ValueError, AttributeError) as exc:  # a value of the wrong type or shape
        source = "the default config" if path is None else f"config file {path}"
        raise ConfigError(f"{source} has a malformed value: {exc}") from exc
    if cfg.trainer.seed != 0:
        # run_experiment trains with seeds.train; a trainer.seed would change
        # config_hash and nothing else
        raise ConfigError(
            f"trainer.seed is {cfg.trainer.seed}, but a run's training seed is seeds.train: "
            "set seeds.train instead"
        )
    return cfg


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `dotted.key=value` overrides; values parse as JSON literals,
    falling back to strings."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted!r} traverses a non-object key")
        node[parts[-1]] = value
    return raw


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short hash over everything that affects the numbers (the
    output directory is excluded)."""
    payload = dataclasses.asdict(cfg)
    payload.pop("output_dir", None)
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# building the task


def build_task_data(cfg: ExperimentConfig) -> TaskData:
    if cfg.multilingual:
        corpus, tags = generate_multilingual_corpus(cfg.task)
    else:
        corpus, tags = generate_synthetic_corpus(cfg.task), ()
    src_vocab = build_vocabulary(corpus.train, "source", tags=tags)
    tgt_vocab = build_vocabulary(corpus.train, "target")
    data = TaskData(
        train=corpus.train,
        dev=corpus.dev,
        test=corpus.test,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        decode_max_length=cfg.beam_grid.max_length,
    )
    longest_src = max(len(s) for s, _ in corpus.train + corpus.dev + corpus.test)
    longest_tgt = max(len(t) for _, t in corpus.train + corpus.dev + corpus.test)
    needed = max(longest_src, longest_tgt + 1, cfg.beam_grid.max_length + 1)
    if needed > cfg.model.max_positions:
        raise ConfigError(
            f"max_positions {cfg.model.max_positions} is too small for sequences "
            f"of length {needed}; raise model.max_positions"
        )
    return data


# ---------------------------------------------------------------------------
# single run


@dataclass
class RunResult:
    temperature: float
    dev_bleu: float
    steps_trained: int
    run_dir: str


def run_experiment(cfg: ExperimentConfig, data: TaskData, temperature: float, run_dir) -> RunResult:
    """Train one model at `temperature` on `data`, the caller's
    `build_task_data(cfg)`, average the retained checkpoints, and persist
    the run artifacts. Test data is not touched here."""
    run_dir = Path(run_dir)
    (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    mcfg = cfg.model.with_vocabs(len(data.src_vocab), len(data.tgt_vocab))
    model = init_parameters(mcfg, cfg.seeds.model)
    trainer = dataclasses.replace(cfg.trainer, seed=cfg.seeds.train)
    tempering = dataclasses.replace(cfg.tempering, temperature=temperature)

    result = train(model, data, tempering, trainer, checkpoint_dir=run_dir / "checkpoints")
    averaged = average_checkpoints(result.checkpoints) if result.checkpoints else None
    decode_model = model_from_checkpoint(averaged) if averaged else result.model
    dev_bleu = evaluate_checkpoint(decode_model, data, "dev")
    steps_trained = result.record.steps[-1].step

    result.record.save_jsonl(run_dir / "record.jsonl")
    save_checkpoint(run_dir / "average.npz", decode_model, steps_trained)
    data.src_vocab.save(run_dir / "src_vocab.txt")
    data.tgt_vocab.save(run_dir / "tgt_vocab.txt")
    _write_json(run_dir / "config.json", cfg, {"config": dataclasses.asdict(cfg), "temperature": temperature})
    _write_json(
        run_dir / "result.json",
        cfg,
        {
            "metric": "dev_greedy_bleu",
            "value": dev_bleu,
            "n_sentences": len(data.dev),
            "temperature": temperature,
            "steps_trained": steps_trained,
        },
    )
    return RunResult(temperature, dev_bleu, steps_trained, str(run_dir))


def _format_t(t: float) -> str:
    return f"T{t:g}"


def write_hypotheses(path, token_lines: list[tuple[str, ...]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tokens in token_lines:
            fh.write(" ".join(tokens) + "\n")


def write_sidecar(path, hyps, wall_ns: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for hyp, ns in zip(hyps, wall_ns):
            fh.write(
                json.dumps(
                    {
                        "score": hyp.score,
                        "log_prob": hyp.log_prob,
                        "length": len(hyp.surface()),
                        "wall_ns": ns,
                    }
                )
                + "\n"
            )


def _write_json(path, cfg: ExperimentConfig, payload: dict) -> None:
    """`payload` with the config's hash as its last key, indented."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**payload, "config_hash": config_hash(cfg)}, fh, indent=2)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# sweep


@dataclass
class SweepRow:
    temperature: float
    status: str
    dev_greedy_bleu: float | None = None
    test_greedy_bleu: float | None = None
    oracle_beam_bleu: float | None = None
    oracle_beam_size: int | None = None
    oracle_alpha: float | None = None


@dataclass
class SweepReport:
    rows: list[SweepRow]
    t_opt: float | None
    out_dir: str


def test_greedy_outputs(model, data: TaskData) -> list[tuple[str, ...]]:
    return greedy_outputs(model, data, "test")


def oracle_beam_search(model, data: TaskData, grid: BeamGridConfig) -> tuple[float, int, float]:
    """Best test BLEU over the whole beam-size x penalty grid.

    This reproduces a test-set-selected ("oracle") number: it is a harness
    for studying curves, not a deployable selection procedure.
    """
    refs = [t for _, t in data.test]
    best = (-1.0, 0, 0.0)
    for beam in grid.beam_sizes:
        for alpha in grid.length_penalties:
            cfg = BeamConfig(beam_size=beam, length_penalty_alpha=alpha, max_length=grid.max_length)
            score = corpus_bleu(beam_outputs(model, data, "test", cfg), refs)
            if score > best[0]:
                best = (score, beam, alpha)
    return best


@contextlib.contextmanager
def worker_pool(size: int):
    """Yield `map_jobs(fn, jobs)`, which returns `[fn(job) for job in jobs]`.

    The maps of one block share one pool of `min(size, usable CPUs)` worker
    processes, where `size` is the most jobs one map will get; when that is
    1 they run in this process, which starts none. `fn` must be a
    module-level function, and jobs and results must pickle. Workers start
    with the `spawn` method, so each imports temperlab afresh and inherits
    the BLAS thread variables that importing temperlab set here; each also
    re-runs the caller's main script, so a script without an `if __name__ ==
    "__main__":` guard around its work hangs, starting workers without end."""
    workers = min(size, len(os.sched_getaffinity(0)))
    if workers <= 1:
        yield lambda fn, jobs: [fn(job) for job in jobs]
        return
    import multiprocessing  # imported here: in-process maps skip its import time

    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        yield lambda fn, jobs: pool.map(fn, jobs, chunksize=1)


def _train_temperature(job: tuple[ExperimentConfig, TaskData, float, Path]) -> tuple[float | None, str | None]:
    """One sweep temperature's `run_experiment`: (dev BLEU, None) or, for a
    failed row, (None, the error text)."""
    cfg, data, temperature, run_dir = job
    try:
        return run_experiment(cfg, data, temperature, run_dir).dev_bleu, None
    except TemperlabError as exc:
        return None, str(exc)


def _decode_test(job: tuple[ExperimentConfig, TaskData, Path]) -> tuple[list, float, tuple[float, int, float]]:
    """Test greedy outputs, their BLEU and the oracle beam grid of the model
    that a run saved in its `average.npz` (bit-equal to the one it
    evaluated on dev), on the sweep's task `data`."""
    cfg, data, run_dir = job
    model, _step = load_checkpoint(run_dir / "average.npz")
    outputs = test_greedy_outputs(model, data)
    bleu = corpus_bleu(outputs, [t for _, t in data.test])
    return outputs, bleu, oracle_beam_search(model, data, cfg.beam_grid)


def _similarity(job: tuple[Path, TaskData | str]) -> tuple[float | None, str | None]:
    """Greedy-vs-beam-4 (alpha 1) similarity BLEU of a run's `average.npz` on
    its task's test split: (similarity, None), or (None, the error text) when
    the checkpoint cannot be loaded or `data` is the error text of its build."""
    run_dir, data = job
    try:
        model, _step = load_checkpoint(run_dir / "average.npz")
    except (OSError, TypeError, ValueError, TemperlabError) as exc:
        return None, str(exc)
    if isinstance(data, str):
        return None, data
    bc = BeamConfig(beam_size=4, length_penalty_alpha=1.0, max_length=data.decode_max_length)
    return output_similarity_bleu(greedy_outputs(model, data, "test"), beam_outputs(model, data, "test", bc)), None


def run_sweep(cfg: ExperimentConfig, out_dir) -> SweepReport:
    """Train one model per temperature, pick the best on dev greedy BLEU,
    then evaluate test greedy and the oracle beam grid for every
    temperature. Selection happens strictly before any test decoding. The
    task is built once, here, before `out_dir` or any worker exists, so a
    task error raises `ConfigError` first; every job carries it. The
    temperatures train, and then decode, in parallel on one `worker_pool`;
    no decoding job is submitted before the selection."""
    if not cfg.temperatures:
        raise ConfigError("sweep needs at least one temperature")
    out = Path(out_dir)
    run_dirs = {t: out / "runs" / _format_t(t) for t in cfg.temperatures}
    if len(set(run_dirs.values())) < len(cfg.temperatures):
        # two workers would write one run directory at once
        raise ConfigError(
            f"sweep temperatures {list(cfg.temperatures)} must differ in their first 6 significant digits"
        )
    data = build_task_data(cfg)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", cfg, {"config": dataclasses.asdict(cfg)})

    with worker_pool(len(cfg.temperatures)) as map_jobs:
        trained = map_jobs(_train_temperature, [(cfg, data, t, run_dirs[t]) for t in cfg.temperatures])
        rows = [
            SweepRow(temperature=t, status="ok", dev_greedy_bleu=bleu) if error is None
            else SweepRow(temperature=t, status=f"failed: {error}")
            for t, (bleu, error) in zip(cfg.temperatures, trained)
        ]

        ok_rows = [r for r in rows if r.status == "ok"]
        t_opt = max(ok_rows, key=lambda r: r.dev_greedy_bleu).temperature if ok_rows else None

        # test decoding strictly after dev-based selection
        decoded = map_jobs(_decode_test, [(cfg, data, run_dirs[r.temperature]) for r in ok_rows])
    test_outputs: dict[float, list] = {}
    for row, (outputs, bleu, oracle) in zip(ok_rows, decoded):
        test_outputs[row.temperature] = outputs
        row.test_greedy_bleu = bleu
        write_hypotheses(out / f"test_greedy_{_format_t(row.temperature)}.txt", outputs)
        row.oracle_beam_bleu, row.oracle_beam_size, row.oracle_alpha = oracle

    if t_opt is not None and t_opt != 1.0 and 1.0 in test_outputs:
        refs = [t for _, t in data.test]
        boot = paired_bootstrap(
            test_outputs[t_opt], test_outputs[1.0], refs, resamples=1000, seed=0
        )
        _write_json(
            out / "significance.json",
            cfg,
            {
                "metric": "paired_bootstrap_greedy_t_opt_vs_baseline",
                "value": boot.p_value,
                "bleu_t_opt": boot.bleu_a,
                "bleu_baseline": boot.bleu_b,
                "p_value": boot.p_value,
                "tie_fraction": boot.tie_fraction,
                "resamples": boot.resamples,
                "seed": boot.seed,
                "n_sentences": len(refs),
            },
        )

    h = config_hash(cfg)
    _write_csv(
        out / "sweep.csv",
        [f.name for f in dataclasses.fields(SweepRow)] + ["is_t_opt", "config_hash"],
        [[*dataclasses.astuple(r), int(r.temperature == t_opt), h] for r in rows],
    )
    _write_csv(
        out / "curve.csv",
        ["temperature", "greedy_bleu", "oracle_beam_bleu", "config_hash"],
        [
            [r.temperature, r.test_greedy_bleu, r.oracle_beam_bleu, h]
            for r in rows
            if r.status == "ok"
        ],
    )
    return SweepReport(rows=rows, t_opt=t_opt, out_dir=str(out))


# ---------------------------------------------------------------------------
# analysis


def entropy_probe(model, data: TaskData, temperature: float) -> tuple[float, float]:
    """Evaluation-mode teacher-forced entropies on the dev split, in batches
    of 64: (tempered view, raw view), token-weighted means."""
    encoded = encode_pairs(data.dev, data.src_vocab, data.tgt_vocab)
    batches = make_batches(encoded, 64, seed=0)
    tempered_sum = raw_sum = total = 0.0
    for b in batches:
        logits = model.forward_teacher_forced(b.source, b.target_in, train=False)
        t_h, r_h = entropy_views(logits.array, b.target_mask, temperature)
        n = b.token_count
        tempered_sum += t_h * n
        raw_sum += r_h * n
        total += n
    return tempered_sum / total, raw_sum / total


def time_decoding(model, sources: list[Array], max_length: int) -> list[dict]:
    """Wall-clock comparison of greedy vs beam-4 and beam-10 decoding (alpha
    1), one sentence at a time, median over 3 passes after decoding the first
    5 sentences greedily as a warmup. A pass decodes each sentence with the
    three in turn, so a change in the machine's load reaches all three alike."""
    configs = [BeamConfig(b, alpha, max_length) for b, alpha in ((1, 0.0), (4, 1.0), (10, 1.0))]
    for src in sources[:5]:  # warm caches and code paths
        decode_corpus(model, [src], configs[0])

    totals = [[0.0] * 3 for _ in configs]
    for p in range(3):
        for src in sources:
            for bc, times in zip(configs, totals):
                t0 = time.perf_counter()
                decode_corpus(model, [src], bc)
                times[p] += time.perf_counter() - t0
    greedy_median = statistics.median(totals[0])
    return [
        {
            "mode": "greedy" if bc.greedy else f"beam{bc.beam_size}",
            "beam_size": bc.beam_size,
            "alpha": bc.length_penalty_alpha,
            "median_wall_s": statistics.median(times),
            "slowdown_vs_greedy": statistics.median(times) / greedy_median if greedy_median else None,
        }
        for bc, times in zip(configs, totals)
    ]


@dataclass
class AnalysisReport:
    out_dir: str
    gaps: list[str]


def _read_run(rd: Path) -> tuple[dict, ExperimentRecord]:
    """A run directory's stored `config.json` and its `record.jsonl`."""
    with open(rd / "config.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict) or not {"temperature", "config_hash", "config"} <= meta.keys():
        raise DataError(f"{rd / 'config.json'} lacks temperature, config_hash or config")
    return meta, ExperimentRecord.load_jsonl(rd / "record.jsonl")


def run_analysis(run_dirs: list, out_dir, with_timing: bool = True) -> AnalysisReport:
    """Cross-run report: entropy and gradient-norm curves per temperature,
    greedy-vs-beam similarity, and decoding speed ratios. One task build per
    config; the runs decode on one `worker_pool`, then one is timed here alone."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gaps: list[str] = []
    entropy_rows: list[list] = []
    grad_rows: list[list] = []
    sim_rows: list[list] = []
    summary: list[str] = []

    loaded = []
    for rd in map(Path, run_dirs):
        try:
            loaded.append((rd, *_read_run(rd)))
        except (OSError, json.JSONDecodeError, DataError) as exc:
            gaps.append(f"run {rd}: unreadable ({exc})")
    if not loaded:
        raise ConfigError("analysis needs at least one readable run directory")

    for rd, meta, record in loaded:
        t, h = meta["temperature"], meta["config_hash"]
        if not record.steps:
            gaps.append(f"run {rd}: record has no step entries")
            continue
        for s in record.steps:
            entropy_rows.append([t, s.step, s.tempered_entropy, s.raw_entropy, h])
            grad_rows.append([t, s.step, s.grad_norm, h])
        tail = tail_grad_norm([s.grad_norm for s in record.steps])
        summary.append(
            f"run {rd}, T={t:g}: final-quarter mean grad norm {tail:.4f}, "
            f"final raw-view entropy {record.steps[-1].raw_entropy:.4f} nats"
        )

    _write_csv(
        out / "entropy_curves.csv",
        ["temperature", "step", "tempered_entropy", "raw_entropy", "config_hash"],
        entropy_rows,
    )
    _write_csv(
        out / "gradnorm_curves.csv",
        ["temperature", "step", "grad_norm", "config_hash"],
        grad_rows,
    )

    tasks: dict[str, TaskData] = {}  # keyed on the recomputed hash: the stored one may be stale
    jobs = []
    for rd, meta, _ in loaded:
        try:
            cfg = config_from_dict(meta["config"])
            key = config_hash(cfg)
            tasks[key] = tasks.get(key) or build_task_data(cfg)
            jobs.append((rd, tasks[key]))
        except (TypeError, ValueError, TemperlabError) as exc:  # a malformed stored config included
            jobs.append((rd, str(exc)))
    with worker_pool(len(jobs)) as map_jobs:
        decoded = map_jobs(_similarity, jobs)
    first = None  # the first decoded run, timed below
    for (rd, data), (_, meta, _), (sim, error) in zip(jobs, loaded, decoded):
        if error is not None:
            gaps.append(f"run {rd}: cannot rebuild decode model ({error})")
            continue
        first = first or (rd, meta, data)
        sim_rows.append([meta["temperature"], sim, meta["config_hash"]])
        summary.append(f"run {rd}, T={meta['temperature']:g}: greedy-beam4 similarity BLEU {sim:.2f}")
    _write_csv(
        out / "similarity.csv",
        ["temperature", "similarity_bleu", "config_hash"],
        sorted(sim_rows),
    )

    if with_timing and first:
        rd, meta, data = first
        mdl, _step = load_checkpoint(rd / "average.npz")
        rows = time_decoding(mdl, [data.src_vocab.encode(s) for s, _ in data.test], data.decode_max_length)
        columns = ["mode", "beam_size", "alpha", "median_wall_s", "slowdown_vs_greedy"]
        _write_csv(
            out / "timing.csv",
            columns + ["config_hash"],
            [[row[c] for c in columns] + [meta["config_hash"]] for row in rows],
        )
        summary += [f"greedy is {r['slowdown_vs_greedy']:.2f}x faster than {r['mode']}" for r in rows[1:]]

    text = "\n".join(["analysis summary", "================", *summary])
    if gaps:
        text += "\n\ngaps\n----\n" + "\n".join(gaps)
    (out / "summary.txt").write_text(text + "\n", encoding="utf-8")
    return AnalysisReport(out_dir=str(out), gaps=gaps)
