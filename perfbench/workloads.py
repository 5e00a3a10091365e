"""The benchmark's four workloads: train, greedy, beam and sweep.

Each workload has a set-up (everything before the first timed operation),
an untimed warm-up, rounds of fixed work that the run repeats until its
time is up, and a correctness check that runs after the measurement.
Calls into temperlab go through module attributes so that the tracer's
wrappers are seen.
"""

from __future__ import annotations

import csv
import shutil
import time
from pathlib import Path

import numpy as np

from temperlab import data, decoding, experiments, model as tmodel, tempering, tensor, training
from temperlab.errors import TemperlabError

import checks
from tracer import PREFIX_LENGTHS

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture" / "model_T1_s0.npz"
OUT = HERE / "out"

# the acceptance campaign's recipe: desk-default task and model, init seed
# 100 + s, train seed 200 + s, decode length 25
MODEL_SEED = 100
DECODE_MAX_LENGTH = 25
TRAIN_TEMPERATURE = 2.0
BEAM_SIZE, BEAM_ALPHA = 4, 1.0
WARM_UP_OPS = 3
PROBE_SENTENCES = 20


def desk_data() -> training.TaskData:
    corpus = data.generate_synthetic_corpus(data.SyntheticTaskSpec())
    return training.TaskData(
        train=corpus.train,
        dev=corpus.dev,
        test=corpus.test,
        src_vocab=data.build_vocabulary(corpus.train, "source"),
        tgt_vocab=data.build_vocabulary(corpus.train, "target"),
        decode_max_length=DECODE_MAX_LENGTH,
    )


def clock() -> int:
    return time.perf_counter_ns()


class Train:
    """Desk-default training from a fixed initialisation: batch 32, dropout
    on, T = 2 with loss rescaling, no evaluation. A round is one epoch."""

    def __init__(self, seed: int):
        self.seed = seed
        self.losses: list[float] = []
        self.attempted = self.failed = 0

    def setup(self) -> None:
        self.data = desk_data()
        self.encoded = data.encode_pairs(self.data.train, self.data.src_vocab, self.data.tgt_vocab)
        cfg = tmodel.ModelConfig().with_vocabs(len(self.data.src_vocab), len(self.data.tgt_vocab))
        self.model = self.initial = tmodel.init_parameters(cfg, MODEL_SEED)
        self.tempering = tempering.TemperingConfig(temperature=TRAIN_TEMPERATURE)
        self.trainer = training.TrainerConfig(seed=self.seed)
        self.adam = training.AdamState(self.model.params)
        self.rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1)))
        self.step = self.epoch = 0

    def _batches(self, epoch: int):
        seed = int(np.random.SeedSequence((self.seed, 2, epoch)).generate_state(1)[0])
        return data.make_batches(self.encoded, self.trainer.batch_size, seed=seed)

    def warm_up(self) -> None:
        adam = training.AdamState(self.model.params)
        rng = np.random.default_rng(0)
        batches = data.make_batches(self.encoded, self.trainer.batch_size, seed=0)
        for i, batch in enumerate(batches[:WARM_UP_OPS]):
            training.train_step(self.model, batch, self.tempering, self.trainer, adam, i + 1, rng)

    def round(self, ops: list[int]) -> int:
        t0 = clock()
        for batch in self._batches(self.epoch):
            self.step += 1
            self.attempted += 1
            t = clock()
            try:
                self.model, rec = training.train_step(
                    self.model, batch, self.tempering, self.trainer, self.adam, self.step, self.rng
                )
            except TemperlabError:
                self.failed += 1
                continue
            ops.append(clock() - t)
            self.losses.append(rec.loss)
        self.epoch += 1
        return clock() - t0

    def check(self) -> list[str]:
        problems = checks.check_losses(self.losses)
        batch = self._batches(0)[0]
        vocab = self.model.config.target_vocab
        smoothing = self.tempering.label_smoothing
        with tensor.GradientTape() as tape:
            logits = self.model.forward_teacher_forced(
                batch.source, batch.target_in, train=True, rng=np.random.default_rng(0)
            )
            labels = tempering.smoothed_label_array(batch.target_out, vocab, smoothing)
            loss = tempering.tempered_loss(logits, labels, batch.token_count, self.tempering)
        grads = tensor.backward(tape, loss)
        problems += checks.check_logit_gradient(
            logits.array, batch.target_out, smoothing, TRAIN_TEMPERATURE, grads.get(logits)
        )
        return problems + self._finite_differences()

    def _finite_differences(self) -> list[str]:
        """Tape gradients of a few parameter coordinates against central
        differences, dropout off, on a copy of the fixed initial model and
        four fixed pairs. A ReLU kink within the step of a coordinate would
        spoil its difference; at this fixed point none is, and no seed
        changes the point."""
        m = training.model_from_checkpoint(training.snapshot(self.initial, 0))
        rows = data.pad_batch(self.encoded[:4])
        vocab = m.config.target_vocab

        def loss_of():
            logits = m.forward_teacher_forced(rows.source, rows.target_in, train=False)
            labels = tempering.smoothed_label_array(
                rows.target_out, vocab, self.tempering.label_smoothing
            )
            return tempering.tempered_loss(logits, labels, rows.token_count, self.tempering)

        with tensor.GradientTape() as tape:
            loss = loss_of()
        grads = tensor.backward(tape, loss)
        coords = [
            ("out_w", (3, 5)),
            ("dec1.cross.wq", (2, 7)),
            ("enc0.ff.w1", (1, 4)),
            ("dec0.ln2.gain", (3,)),
            ("enc1.attn.bv", (5,)),
            ("tgt_embed", (int(rows.target_in[0, 1]), 2)),
        ]
        pairs = []
        h = 1e-5
        for name, idx in coords:
            arr = m.params[name].array
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_of().item()
            arr[idx] = orig - h
            down = loss_of().item()
            arr[idx] = orig
            pairs.append((f"{name}{list(idx)}", float(grads[m.params[name]][idx]), (up - down) / (2 * h)))
        return checks.check_finite_differences(pairs)


class Decode:
    """Per-sentence decoding at batch size 1 over the desk test set, in an
    order drawn from the seed, with the committed T=1 fixture model. A round
    is one pass over the 200 test sentences."""

    def __init__(self, seed: int, beam: bool):
        self.seed = seed
        self.beam = beam
        self.outputs: list | None = None
        self.attempted = self.failed = 0

    def setup(self) -> None:
        self.data = desk_data()
        self.model, _ = tmodel.load_checkpoint(FIXTURE)
        cfg = self.model.config
        if (cfg.source_vocab, cfg.target_vocab) != (len(self.data.src_vocab), len(self.data.tgt_vocab)):
            raise SystemExit("fixture vocabulary does not match the desk task; remake the fixture")
        order = np.random.default_rng(self.seed).permutation(len(self.data.test))
        self.sources = [self.data.src_vocab.encode(self.data.test[i][0]) for i in order]
        self.beam_cfg = decoding.BeamConfig(BEAM_SIZE, BEAM_ALPHA, DECODE_MAX_LENGTH)

    def _decode(self, src):
        if self.beam:
            return decoding.beam_decode(self.model, src, self.beam_cfg)
        return decoding.greedy_decode(self.model, src, DECODE_MAX_LENGTH)

    def warm_up(self) -> None:
        for src in self.sources[:WARM_UP_OPS]:
            self._decode(src)

    def round(self, ops: list[int]) -> int:
        outputs = []
        t0 = clock()
        for src in self.sources:
            self.attempted += 1
            t = clock()
            try:
                out = self._decode(src)
            except TemperlabError:
                self.failed += 1
                outputs.append(None)
                continue
            ops.append(clock() - t)
            outputs.append(out)
        elapsed = clock() - t0
        if self.outputs is None:
            self.outputs = outputs
        elif self._key(outputs) != self._key(self.outputs):
            self.outputs = []  # a later round decoded differently; check() reports it
        return elapsed

    def _key(self, outputs):
        return [None if o is None else [(h.tokens, h.log_prob, h.score) for h in (o if self.beam else [o])]
                for o in outputs]

    def _teacher_forced(self, src, token_rows) -> list[np.ndarray]:
        """Logits over tokens[:-1] for each hypothesis of one source."""
        width = max(len(t) for t in token_rows) - 1
        target_in = np.zeros((len(token_rows), max(width, 1)), dtype=np.int64)
        for i, t in enumerate(token_rows):
            target_in[i, : len(t) - 1] = t[:-1]
        source = np.repeat(np.asarray(src, dtype=np.int64)[None, :], len(token_rows), axis=0)
        logits = self.model.forward_teacher_forced(source, target_in, train=False).array
        return [logits[i] for i in range(len(token_rows))]

    def check(self) -> list[str]:
        if not self.outputs:
            return ["decode: rounds decoded the same sentences differently"]
        done = [(src, out) for src, out in zip(self.sources, self.outputs) if out is not None]
        if self.beam:
            results = [[(h.tokens, h.log_prob, h.score, h.finished) for h in hs] for _, hs in done]
            logits = [self._teacher_forced(src, [h[0] for h in hs]) for (src, _), hs in zip(done, results)]
            return checks.check_beam(results, logits, BEAM_ALPHA)
        hyps = [(h.tokens, h.log_prob, h.finished) for _, h in done]
        logits = [self._teacher_forced(src, [h.tokens])[0] for src, h in done]
        batch = decoding.greedy_decode_batch(self.model, [src for src, _ in done], DECODE_MAX_LENGTH)
        return checks.check_greedy(hyps, logits, [h.tokens for h in batch])

    def probe(self) -> dict[int, list[float]]:
        """ms per decode_step call at the prefix lengths the trace reports."""
        out: dict[int, list[float]] = {}
        # any in-vocabulary target ids will do: the cost does not depend on them
        tgt = [int(t) for _, ref in self.data.test for t in self.data.tgt_vocab.encode(ref)]
        for n in PREFIX_LENGTHS:
            times = []
            for k, src in enumerate(self.sources[:PROBE_SENTENCES]):
                encoded = self.model.encode(src)
                prefix = np.asarray([data.BOS_ID] + tgt[k : k + n - 1], dtype=np.int64)
                t = clock()
                self.model.decode_step(encoded, prefix)
                times.append((clock() - t) / 1e6)
            out[n] = times
        return out


class Sweep:
    """`run_sweep` at T = 1 and 2, reduced to a 1-layer model on a short
    copy task so that one sweep takes seconds, not hours. A round is one
    sweep; an operation is one temperature.

    The training seeds are fixed, so every sweep trains and decodes the
    same models and does the same work; at these seeds T_opt is 2, so the
    paired bootstrap against T = 1 always runs. The run's seed sets the
    order in which the temperatures are given."""

    TEMPERATURES = (1.0, 2.0)
    SEEDS = (0, 1)  # model initialisation, training
    MAX_STEPS = 300
    KEEP = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = self.failed = 0

    def setup(self) -> None:
        order = np.random.default_rng(self.seed).permutation(len(self.TEMPERATURES))
        self.cfg = experiments.ExperimentConfig(
            task=data.SyntheticTaskSpec(
                kind="copy", alphabet_size=16, length_range=(3, 8),
                corpus_sizes=(1000, 40, 40), noise_rate=0.1, seed=0,
            ),
            model=tmodel.ModelConfig(num_layers=1, model_dim=32, num_heads=2, ff_dim=64, max_positions=16),
            tempering=tempering.TemperingConfig(temperature=1.0),
            trainer=training.TrainerConfig(
                lr_scale=0.15, warmup_steps=60, batch_size=32, eval_interval=60,
                patience=1000, max_steps=self.MAX_STEPS, checkpoint_keep=self.KEEP,
            ),
            beam_grid=experiments.BeamGridConfig(beam_sizes=(2, 4), length_penalties=(1.0,), max_length=12),
            temperatures=tuple(self.TEMPERATURES[i] for i in order),
            seeds=experiments.SeedConfig(*self.SEEDS),
        )
        self.dir = OUT / f"sweep-{self.seed}"

    def warm_up(self) -> None:
        pass  # a sweep is seconds long; its own first steps warm it

    def round(self, ops: list[int]) -> int:
        shutil.rmtree(self.dir, ignore_errors=True)
        t0 = clock()
        report = experiments.run_sweep(self.cfg, self.dir)
        elapsed = clock() - t0
        self.attempted += len(report.rows)
        self.failed += sum(r.status != "ok" for r in report.rows)
        self.report = report
        for t in self.TEMPERATURES:  # the operation timed is a training step, as the record gives it
            record = training.ExperimentRecord.load_jsonl(self.dir / "runs" / f"T{t:g}" / "record.jsonl")
            ops += [int(s.wall_s * 1e9) for s in record.steps]
        return elapsed

    def check(self) -> list[str]:
        with open(self.dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        corpus = data.generate_synthetic_corpus(self.cfg.task)
        refs = [t for _, t in corpus.test]
        hyps = {}
        for r in rows:
            path = self.dir / f"test_greedy_T{float(r['temperature']):g}.txt"
            if path.exists():
                lines = path.read_text(encoding="utf-8").split("\n")[:-1]
                hyps[float(r["temperature"])] = [tuple(line.split()) for line in lines]
        problems = checks.check_sweep_table(rows, hyps, refs)
        for r in rows:
            if r["status"] != "ok":
                continue
            run = self.dir / "runs" / f"T{float(r['temperature']):g}"
            record = training.ExperimentRecord.load_jsonl(run / "record.jsonl")
            if len(record.steps) != self.MAX_STEPS:
                problems.append(f"sweep {run.name}: {len(record.steps)} steps, configured {self.MAX_STEPS}")
            files = sorted((run / "checkpoints").glob("step*.npz"))[-self.KEEP :]
            retained = [_arrays(f) for f in files]
            problems += checks.check_average(retained, _arrays(run / "average.npz"))
        return problems

    def clean(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _arrays(path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as zf:
        return {k: zf[k] for k in zf.files if not k.startswith("__")}


def make(name: str, seed: int):
    if name == "train":
        return Train(seed)
    if name in ("greedy", "beam"):
        return Decode(seed, beam=name == "beam")
    if name == "sweep":
        return Sweep(seed)
    raise SystemExit(f"unknown workload {name!r}")
