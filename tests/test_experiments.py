import csv
import dataclasses
import json
import multiprocessing.process
import os
import shutil

import numpy as np
import pytest

from temperlab import cli
from temperlab.cli import main
from temperlab.data import build_vocabulary, generate_synthetic_corpus
from temperlab import experiments
from temperlab.errors import ConfigError, DataError, NumericError
from temperlab.experiments import (
    ExperimentConfig,
    apply_overrides,
    build_task_data,
    config_from_dict,
    config_hash,
    load_config,
    run_analysis,
    run_experiment,
    run_sweep,
    time_decoding,
    worker_pool,
)
from temperlab.model import init_parameters, load_checkpoint, save_checkpoint
from temperlab.training import ExperimentRecord
from tests.conftest import edit_stored_config, refusals, shrink_parameter

MICRO = {
    "task": {
        "kind": "copy",
        "alphabet_size": 8,
        "length_range": [2, 4],
        "corpus_sizes": [48, 12, 12],
        "noise_rate": 0.0,
        "seed": 5,
    },
    "model": {
        "num_layers": 1,
        "model_dim": 16,
        "num_heads": 2,
        "ff_dim": 24,
        "max_positions": 10,
    },
    "trainer": {
        "lr_scale": 0.1,
        "warmup_steps": 10,
        "batch_size": 8,
        "eval_interval": 10,
        "max_steps": 30,
    },
    "beam_grid": {
        "beam_sizes": [1, 2],
        "length_penalties": [0.6, 1.0],
        "max_length": 8,
    },
    "temperatures": [1.0],
}


def micro_config(**extra):
    raw = json.loads(json.dumps(MICRO))
    raw.update(extra)
    return config_from_dict(raw)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config plumbing


def test_default_config_roundtrips():
    cfg = ExperimentConfig()
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg
    assert config_hash(cfg) == "5de06813c280"  # run directories and caches carry it


def test_default_config_carries_paper_scale_grids():
    cfg = ExperimentConfig()
    assert cfg.temperatures == (1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 3.0, 4.0, 5.0, 10.0)
    assert cfg.beam_grid.beam_sizes == (2, 4, 6, 8, 10, 12)
    assert cfg.beam_grid.length_penalties == (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4)
    assert cfg.tempering.label_smoothing == 0.1
    assert cfg.trainer.patience == 10
    assert cfg.trainer.min_delta == 0.1
    assert cfg.trainer.checkpoint_keep == 10


test_unknown_keys_rejected = refusals(
    (lambda: config_from_dict({"tempreature": 2.0}), ConfigError, ""),
    (lambda: config_from_dict({"trainer": {"lr": 0.1}}), ConfigError, ""),
)
test_load_config_refuses_a_trainer_seed = refusals(
    (lambda: load_config(overrides=["trainer.seed=5"]), ConfigError, "seeds.train"),
)


def test_overrides_apply_and_validate():
    raw = dataclasses.asdict(ExperimentConfig())
    raw = apply_overrides(raw, ["tempering.temperature=3.0", "trainer.max_steps=7"])
    cfg = config_from_dict(raw)
    assert cfg.tempering.temperature == 3.0
    assert cfg.trainer.max_steps == 7
    with pytest.raises(ConfigError):
        apply_overrides({}, ["missing-equals-sign"])


def test_config_hash_ignores_output_dir():
    a = micro_config(output_dir="runs/a")
    b = micro_config(output_dir="runs/b")
    assert config_hash(a) == config_hash(b)
    c = micro_config(temperatures=[2.0])
    assert config_hash(a) != config_hash(c)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_defaults_and_overrides(tmp_path):
    assert load_config() == ExperimentConfig()
    cfg = load_config(None, ["tempering.temperature=3.0"])
    assert cfg.tempering.temperature == 3.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(MICRO))
    assert load_config(path, ["trainer.max_steps=7"]) == micro_config(
        trainer={**MICRO["trainer"], "max_steps": 7}
    )


# ---------------------------------------------------------------------------
# single run


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = micro_config()
    run = run_experiment(cfg, build_task_data(cfg), temperature=1.0, run_dir=out)
    return cfg, run, out


def test_run_artifacts_exist(micro_run):
    _cfg, run, out = micro_run
    for name in ("record.jsonl", "average.npz", "src_vocab.txt", "tgt_vocab.txt", "config.json", "result.json"):
        assert (out / name).exists(), name
    assert (out / "checkpoints").is_dir()
    record = ExperimentRecord.load_jsonl(out / "record.jsonl")
    assert len(record.steps) == 30
    assert run.steps_trained == 30


def test_run_result_report_schema(micro_run):
    cfg, _run, out = micro_run
    with open(out / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    assert result["metric"] == "dev_greedy_bleu"
    assert result["n_sentences"] == 12
    assert result["config_hash"] == config_hash(cfg)


def test_rerun_reproduces_numbers(tmp_path, micro_run):
    cfg, run, out = micro_run
    run2 = run_experiment(cfg, build_task_data(cfg), temperature=1.0, run_dir=tmp_path / "again")
    assert run2.dev_bleu == run.dev_bleu
    r1 = ExperimentRecord.load_jsonl(out / "record.jsonl")
    r2 = ExperimentRecord.load_jsonl(tmp_path / "again" / "record.jsonl")
    assert [s.loss for s in r1.steps] == [s.loss for s in r2.steps]
    m1, _ = load_checkpoint(out / "average.npz")
    m2, _ = load_checkpoint(tmp_path / "again" / "average.npz")
    for name in m1.params:
        assert np.array_equal(m1.params[name].array, m2.params[name].array)


# ---------------------------------------------------------------------------
# sweep


def use_cpus(monkeypatch, n):
    """Make `worker_pool` see `n` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture()
def started(monkeypatch):
    """The names of the processes that the test starts."""
    names = []
    start = multiprocessing.process.BaseProcess.start

    def count_start(self):
        names.append(self.name)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", count_start)
    return names


@pytest.fixture()
def builds(monkeypatch):
    """The configs that the test passes to `experiments.build_task_data`."""
    calls = []
    build = experiments.build_task_data

    def count_build(cfg):
        calls.append(cfg)
        return build(cfg)

    monkeypatch.setattr(experiments, "build_task_data", count_build)
    return calls


def test_sweep_singleton_and_failure_rows(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 2)  # so the T=-3 row fails inside a worker process
    cfg = micro_config(temperatures=[1.0, -3.0])
    report = run_sweep(cfg, tmp_path)
    by_t = {r.temperature: r for r in report.rows}
    assert by_t[1.0].status == "ok"
    assert by_t[-3.0].status.startswith("failed")
    assert report.t_opt == 1.0

    rows = read_csv(tmp_path / "sweep.csv")
    assert [r["temperature"] for r in rows] == ["1.0", "-3.0"]
    assert rows[0]["is_t_opt"] == "1"
    assert all(r["config_hash"] == config_hash(cfg) for r in rows)

    curve = read_csv(tmp_path / "curve.csv")
    assert len(curve) == 1
    assert float(curve[0]["greedy_bleu"]) >= 0.0
    assert float(curve[0]["oracle_beam_bleu"]) >= float(curve[0]["greedy_bleu"]) - 1e-9
    assert (tmp_path / "test_greedy_T1.txt").exists()


def tree(root):
    """Every file under `root` by relative path, with `wall_s` dropped from
    the training records."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        body = path.read_bytes()
        if path.name == "record.jsonl":
            body = [{k: v for k, v in json.loads(line).items() if k != "wall_s"} for line in body.splitlines()]
        files[str(path.relative_to(root))] = body
    return files


def test_sweep_in_workers_equals_sweep_in_process(tmp_path, monkeypatch, started):
    cfg = micro_config(temperatures=[1.0, 2.0])
    use_cpus(monkeypatch, 2)
    run_sweep(cfg, tmp_path / "pool")
    assert len(started) == 2  # one pool trains and then decodes
    use_cpus(monkeypatch, 1)
    run_sweep(cfg, tmp_path / "serial")
    assert len(started) == 2
    pool, serial = tree(tmp_path / "pool"), tree(tmp_path / "serial")
    assert "runs/T2/average.npz" in pool and "test_greedy_T2.txt" in pool
    assert pool.keys() == serial.keys()
    assert [name for name in pool if pool[name] != serial[name]] == []


def _square(x):
    return x * x


def test_worker_pool_on_one_cpu_starts_no_process(monkeypatch):
    def refuse(self):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    use_cpus(monkeypatch, 1)
    with worker_pool(3) as map_jobs:
        assert map_jobs(_square, [1, 2, 3]) == [1, 4, 9]
    use_cpus(monkeypatch, 4)
    with worker_pool(1) as map_jobs:  # one job needs no worker either
        assert map_jobs(_square, [5]) == [25]


def test_sweep_requires_temperatures(tmp_path):
    cfg = micro_config(temperatures=[])
    with pytest.raises(ConfigError):
        run_sweep(cfg, tmp_path)
    cfg = micro_config(temperatures=[1.0, 2.0, 1.0000001])  # two runs in runs/T1
    with pytest.raises(ConfigError, match="6 significant digits"):
        run_sweep(cfg, tmp_path)
    assert not (tmp_path / "runs").exists()


def test_sweep_task_error_starts_no_worker(tmp_path, monkeypatch, capsys, started):
    use_cpus(monkeypatch, 2)
    # MICRO decodes up to 8 tokens, so BOS needs a ninth position
    cfg = micro_config(model={**MICRO["model"], "max_positions": 8}, temperatures=[1.0, 2.0])
    with pytest.raises(ConfigError, match="max_positions 8"):
        run_sweep(cfg, tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()
    args = ["sweep", "--config", str(write_micro_config(tmp_path, temperatures=[1.0, 2.0]))]
    assert main(args + ["--set", "model.max_positions=8", "--out", str(tmp_path / "cli")]) == 2
    assert "configuration error: max_positions 8" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()
    assert started == []


def test_sweep_builds_the_task_once(tmp_path, monkeypatch, builds):
    use_cpus(monkeypatch, 1)
    report = run_sweep(micro_config(temperatures=[1.0, 5.0]), tmp_path)
    assert report.t_opt == 5.0  # so the bootstrap against T=1 reads the test references too
    assert (tmp_path / "significance.json").exists()
    assert len(builds) == 1


def test_sweep_emits_significance_report(tmp_path):
    cfg = micro_config(temperatures=[1.0, 2.0])
    report = run_sweep(cfg, tmp_path)
    sig = tmp_path / "significance.json"
    if report.t_opt == 1.0:
        assert not sig.exists()  # nothing to compare against itself
    else:
        with open(sig, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["metric"] == "paired_bootstrap_greedy_t_opt_vs_baseline"
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["resamples"] == 1000
        assert payload["n_sentences"] == 12
        assert payload["config_hash"] == config_hash(cfg)


def test_multilingual_experiment_trains(tmp_path):
    cfg = micro_config(multilingual=True)
    data = build_task_data(cfg)
    run = run_experiment(cfg, data, temperature=1.0, run_dir=tmp_path)
    tags = {"<2copy>", "<2gram>", "<2rev>", "<2shift>"}
    assert tags <= {t for t in open(tmp_path / "src_vocab.txt").read().split()}
    assert run.steps_trained == 30
    # tagged pairs: every source line starts with a registered tag
    assert all(src[0] in tags for src, _ in data.train)


# ---------------------------------------------------------------------------
# analysis


def test_analysis_outputs(tmp_path, micro_run):
    _cfg, _run, out = micro_run
    report = run_analysis([out], tmp_path, with_timing=True)
    assert (tmp_path / "entropy_curves.csv").exists()
    assert (tmp_path / "gradnorm_curves.csv").exists()
    assert (tmp_path / "similarity.csv").exists()
    assert (tmp_path / "timing.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    assert report.gaps == []

    ent = read_csv(tmp_path / "entropy_curves.csv")
    assert len(ent) == 30
    assert set(ent[0]) == {"temperature", "step", "tempered_entropy", "raw_entropy", "config_hash"}
    timing = read_csv(tmp_path / "timing.csv")
    assert [r["mode"] for r in timing] == ["greedy", "beam4", "beam10"]


def test_analysis_reports_gaps_for_unreadable_runs(tmp_path, micro_run):
    _cfg, _run, out = micro_run
    missing = tmp_path / "not-a-run"
    missing.mkdir()
    short_step = shutil.copytree(out, tmp_path / "short-step")
    rows = len((out / "record.jsonl").read_text(encoding="utf-8").splitlines())
    with open(short_step / "record.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"kind": "step", "step": 4}\n')
    with pytest.raises(DataError, match=f"record.jsonl line {rows + 1} "):
        ExperimentRecord.load_jsonl(short_step / "record.jsonl")
    no_temperature = shutil.copytree(out, tmp_path / "no-temperature")
    meta = json.loads((out / "config.json").read_text(encoding="utf-8"))
    del meta["temperature"]
    (no_temperature / "config.json").write_text(json.dumps(meta), encoding="utf-8")

    string_layers = shutil.copytree(out, tmp_path / "string-layers")
    meta["temperature"] = 1.0
    meta["config"]["model"]["num_layers"] = "2"
    (string_layers / "config.json").write_text(json.dumps(meta), encoding="utf-8")

    bad_kind = shutil.copytree(out, tmp_path / "bad-kind")
    record = (out / "record.jsonl").read_text(encoding="utf-8")
    assert record.startswith('{"kind": "step", ')
    (bad_kind / "record.jsonl").write_text(record.replace('"step"', '"stp"', 1), encoding="utf-8")

    runs = [out, missing, short_step, no_temperature, string_layers, bad_kind]
    report = run_analysis(runs, tmp_path / "out", with_timing=False)
    for name in ("not-a-run", "short-step", "no-temperature", "bad-kind"):
        assert [g for g in report.gaps if name in g and "unreadable" in g], name
    assert [g for g in report.gaps if "string-layers" in g and "cannot rebuild" in g]
    assert len(read_csv(tmp_path / "out" / "similarity.csv")) == 1  # the intact run alone
    with pytest.raises(ConfigError):
        run_analysis([missing], tmp_path / "out2")


@pytest.fixture(scope="module")
def analysis_runs(micro_run, tmp_path_factory):
    """The MICRO run at T=1, one at T=2 and one of a second config (another
    task seed)."""
    _cfg, _run, t1 = micro_run
    root = tmp_path_factory.mktemp("analysis-runs")
    cfg = micro_config()
    run_experiment(cfg, build_task_data(cfg), temperature=2.0, run_dir=root / "T2")
    other = micro_config(task={**MICRO["task"], "seed": 6})
    run_experiment(other, build_task_data(other), temperature=1.0, run_dir=root / "other")
    return [t1, root / "T2", root / "other"]


def test_analysis_builds_each_config_once(tmp_path, monkeypatch, builds, analysis_runs):
    use_cpus(monkeypatch, 1)
    report = run_analysis(analysis_runs, tmp_path, with_timing=False)
    assert report.gaps == []
    assert len(read_csv(tmp_path / "similarity.csv")) == 3
    assert len(builds) == 2
    # two runs share T=1, so each summary line names its run
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8")
    for rd in analysis_runs:
        assert sum(line.startswith(f"run {rd}, T=") for line in summary.splitlines()) == 2, rd


def test_analysis_in_workers_equals_analysis_in_process(tmp_path, monkeypatch, started, analysis_runs):
    corrupt = shutil.copytree(analysis_runs[0], tmp_path / "corrupt-npz")
    (corrupt / "average.npz").write_text("not a checkpoint\n", encoding="utf-8")
    runs = [*analysis_runs, corrupt]
    use_cpus(monkeypatch, 2)
    pool = run_analysis(runs, tmp_path / "pool")
    assert len(started) == 2
    use_cpus(monkeypatch, 1)
    serial = run_analysis(runs, tmp_path / "serial")
    assert len(started) == 2
    # a checkpoint that a worker cannot load is a gap, as it is in process
    assert pool.gaps == serial.gaps
    assert len(pool.gaps) == 1
    assert pool.gaps[0].startswith(f"run {corrupt}: cannot rebuild decode model (")
    assert "not an .npz archive" in pool.gaps[0]

    def files(root):  # the wall times aside
        body = {p.name: p.read_text(encoding="utf-8") for p in root.iterdir() if p.name != "timing.csv"}
        body["summary.txt"] = [line for line in body["summary.txt"].splitlines() if "x faster than" not in line]
        return body

    assert (tmp_path / "pool" / "timing.csv").exists()
    assert files(tmp_path / "pool") == files(tmp_path / "serial")
    assert len(read_csv(tmp_path / "pool" / "similarity.csv")) == 3


def test_time_decoding_shape(trained_copy):
    result, data = trained_copy
    sources = [data.src_vocab.encode(s) for s, _ in data.test[:6]]
    rows = time_decoding(result.model, sources, data.decode_max_length)
    assert [(r["mode"], r["beam_size"], r["alpha"]) for r in rows] == [
        ("greedy", 1, 0.0),
        ("beam4", 4, 1.0),
        ("beam10", 10, 1.0),
    ]
    assert rows[0]["slowdown_vs_greedy"] == 1.0
    assert all(r["median_wall_s"] > 0 for r in rows)


# ---------------------------------------------------------------------------
# CLI


def write_micro_config(tmp_path, **extra):
    raw = json.loads(json.dumps(MICRO))
    raw.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_train_and_report(tmp_path, capsys):
    cfg_path = write_micro_config(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "record.jsonl").exists()
    assert "dev greedy BLEU" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "null",
        "[{}]",
        '{"task": {"length_range": 5}}',
        '{"temperatures": 2}',
        '{"model": {"num_layers": "2"}}',
        '{"seeds": {"model": -1}}',
        '{"seeds": {"train": "x"}}',
        '{"seeds": {"model": true}}',
        '{"task": {"seed": -1}}',
        '{"task": {"seed": 1.0}}',
    ],
)
def test_cli_malformed_config_file_is_config_error(tmp_path, monkeypatch, capsys, started, text):
    use_cpus(monkeypatch, 2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8")
    for command in ("train", "sweep"):
        out = tmp_path / command
        code = main([command, "--config", str(cfg_path), "--set", "trainer.max_steps=1", "--out", str(out)])
        assert code == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not out.exists()
    assert started == []


def test_cli_no_dropout_flag(tmp_path):
    cfg_path = write_micro_config(tmp_path)
    out = tmp_path / "run-nd"
    code = main(
        [
            "train", "--config", str(cfg_path), "--out", str(out),
            "--set", "model.layer_dropout=0.3", "--no-dropout",
        ]
    )
    assert code == 0
    with open(out / "config.json", encoding="utf-8") as fh:
        stored = json.load(fh)["config"]
    assert stored["model"]["attention_dropout"] == 0.0
    assert stored["model"]["embedding_dropout"] == 0.0
    assert stored["model"]["layer_dropout"] == 0.0


def test_cli_decode_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(write_micro_config(tmp_path)), "--out", str(out)]) == 0
    text = "\n".join(" ".join(s) for s, _ in generate_synthetic_corpus(micro_config().task).test[:5]) + "\n"
    code = main(decode_args(tmp_path, text, run=out) + ["--beam-size", "2", "--alpha", "1.0", "--max-length", "8"])
    assert code == 0
    lines = (tmp_path / "hyp.txt").read_text().splitlines()
    assert len(lines) == 5
    sidecar = [json.loads(l) for l in (tmp_path / "hyp.txt.meta.jsonl").read_text().splitlines()]
    assert len(sidecar) == 5
    assert all({"score", "log_prob", "length", "wall_ns"} <= set(row) for row in sidecar)


def decode_args(tmp_path, text: str, run=None) -> list[str]:
    """`decode` arguments for the model and vocabularies of a trained `run`
    directory or, with none, of an untrained MICRO model saved as
    `model.npz`, and an input file holding `text`."""
    checkpoint = run / "average.npz" if run else tmp_path / "model.npz"
    if run is None:
        run, cfg = tmp_path, micro_config()
        corpus = generate_synthetic_corpus(cfg.task)
        src_vocab = build_vocabulary(corpus.train, "source")
        tgt_vocab = build_vocabulary(corpus.train, "target")
        model = init_parameters(cfg.model.with_vocabs(len(src_vocab), len(tgt_vocab)), seed=0)
        save_checkpoint(checkpoint, model, step=0)
        src_vocab.save(tmp_path / "src_vocab.txt")
        tgt_vocab.save(tmp_path / "tgt_vocab.txt")
    (tmp_path / "input.txt").write_text(text)
    return [
        "decode",
        "--checkpoint", str(checkpoint),
        "--src-vocab", str(run / "src_vocab.txt"),
        "--tgt-vocab", str(run / "tgt_vocab.txt"),
        "--input", str(tmp_path / "input.txt"),
        "--output", str(tmp_path / "hyp.txt"),
    ]


def test_cli_sweep_analyze_report_pipeline(tmp_path, capsys):
    cfg_path = write_micro_config(tmp_path)
    sweep_out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(sweep_out)]) == 0
    assert (sweep_out / "sweep.csv").exists()

    run_dir = sweep_out / "runs" / "T1"
    an_out = tmp_path / "analysis"
    assert main(["analyze", "--runs", str(run_dir), "--out", str(an_out), "--no-timing"]) == 0
    assert (an_out / "entropy_curves.csv").exists()

    capsys.readouterr()
    assert main(["report", "--dir", str(sweep_out)]) == 0
    text = capsys.readouterr().out
    assert "sweep.csv" in text
    assert (sweep_out / "report.txt").exists()


# ---------------------------------------------------------------------------
# CLI refusals: exit code, stderr, and nothing printed, created or decoded


def cli_errors(*rows):
    """A test that each row's command exits with its code and names its
    fragment on stderr, printing nothing on stdout, creating none of `--out`,
    decode's output and `report.txt`, and decoding nothing. A row is
    (arguments, from `tmp_path` and `monkeypatch`; exit code; stderr
    fragment). Bound to a `test_` name in this module, it is collected under
    that name."""

    def test(tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "decode_corpus", lambda *a, **k: pytest.fail("decoded before checks"))
        for args_of, code, fragment in rows:
            args = args_of(tmp_path, monkeypatch)
            assert main(args) == code, args
            out, err = capsys.readouterr()
            assert fragment in err and out == "", (fragment, out)
            assert not {"out", "hyp.txt", "report.txt"} & {p.name for p in tmp_path.rglob("*")}, args

    return test


def train_args(tmp_path, *extra):
    return ["train", "--config", str(write_micro_config(tmp_path)), *extra, "--out", str(tmp_path / "out")]


def numeric_abort(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "run_experiment", lambda *a, **k: (_ for _ in ()).throw(NumericError("boom at step 3"))
    )
    return train_args(tmp_path)


def edited_checkpoint(edit):
    """Arguments that decode with the untrained MICRO model's checkpoint
    after `edit(path)`."""

    def args_of(tmp_path, _monkeypatch):
        args = decode_args(tmp_path, "a b\n")
        edit(tmp_path / "model.npz")
        return args

    return args_of


def nan_in_out_b(path):
    with np.load(path) as zf:
        payload = dict(zf)
    payload["out_b"][3] = np.nan
    np.savez(path, **payload)


def missing_file(tmp_path, _monkeypatch):
    args = decode_args(tmp_path, "a b\n")
    args[args.index("--src-vocab") + 1] = str(tmp_path / "missing_vocab.txt")
    return args


TOO_LONG = " ".join(["a"] * 11)  # MICRO's max_positions is 10: sources up to 10 tokens, --max-length up to 9

test_cli_exit_code_for_config_error = cli_errors(
    (lambda tmp, _: train_args(tmp, "--set", "tempering.temperature=-1"), 2, "configuration error"),
)
test_trainer_seed_is_a_config_error = cli_errors(
    (lambda tmp, _: train_args(tmp, "--set", "trainer.seed=5"), 2, "seeds.train"),
)
test_cli_exit_code_for_numeric_abort = cli_errors((numeric_abort, 4, "numeric abort"))
test_cli_decode_empty_input_is_data_error = cli_errors((lambda tmp, _: decode_args(tmp, ""), 3, "data error"))
test_cli_decode_wrong_shape_checkpoint_is_data_error = cli_errors(
    (edited_checkpoint(lambda path: shrink_parameter(path, "dec0.cross.bq")), 3, "dec0.cross.bq"),
)
test_cli_decode_malformed_checkpoint_config_is_data_error = cli_errors(
    (edited_checkpoint(lambda path: edit_stored_config(path, extra=1)), 3, "malformed configuration"),
)
test_cli_decode_text_file_checkpoint_is_data_error = cli_errors(
    (edited_checkpoint(lambda path: path.write_text("not a checkpoint\n", encoding="utf-8")), 3, "not an .npz archive"),
)
test_cli_decode_non_finite_checkpoint_is_data_error = cli_errors(
    (edited_checkpoint(nan_in_out_b), 3, "model.npz parameter out_b holds non-finite values"),
)
test_cli_unreadable_files_exit_codes = cli_errors(
    (missing_file, 3, "missing_vocab.txt"),
    (lambda tmp, _: decode_args(tmp, "a b\n")[:-1] + [str(tmp / "missing_dir" / "hyp.txt"), "--max-length", "8"], 3,
     "missing_dir does not exist"),
    (lambda tmp, _: ["train", "--config", str(tmp / "missing.json"), "--out", str(tmp / "out")], 2,
     "cannot read config file"),
)
test_cli_decode_checks_lengths_before_decoding = cli_errors(
    (lambda tmp, _: decode_args(tmp, f"a b\n{TOO_LONG}\n") + ["--max-length", "8"], 3, "input line 2 has 11 tokens"),
    (lambda tmp, _: decode_args(tmp, "a b\n\nc\n") + ["--max-length", "8"], 3, "input line 2 has 0 tokens"),
    (lambda tmp, _: decode_args(tmp, "a b\n") + ["--max-length", "10"], 2, "--max-length 10"),
)
test_cli_report_needs_a_directory_of_results = cli_errors(
    (lambda tmp, _: ["report", "--dir", str(tmp / "missing")], 3, "missing does not exist"),
    (lambda tmp, _: ["report", "--dir", str(tmp)], 3, "holds none of sweep.csv"),
)
