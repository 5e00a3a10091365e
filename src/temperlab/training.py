"""Training loop: Adam with inverse-square-root warmup schedule, dev-BLEU
early stopping, checkpoint averaging, and per-step diagnostics.

Each step records the per-token loss, the mean entropy of the
temperature-scaled softmax (the distribution the loss sees) and of the
unscaled softmax (the distribution decoding would see), and the global L2
norm over all parameter gradients. Gradients are never clipped, so the
recorded norm curves are unclipped.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .data import PAD_ID, Batch, Pair, Vocabulary, encode_pairs, make_batches
from .decoding import BeamConfig, beam_decode_batch, greedy_decode_batch
from .errors import ConfigError, ContractError, DataError, NumericError
from .metrics import corpus_bleu
from .model import ModelConfig, TransformerModel, parameter_views, save_checkpoint
from .tempering import TemperingConfig, entropy_views, smoothed_label_array, tempered_loss
from .tensor import GradientTape, Tensor, backward

Array = np.ndarray


@dataclass(frozen=True)
class TrainerConfig:
    lr_scale: float = 0.05
    warmup_steps: int = 200
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-9
    batch_size: int = 32
    eval_interval: int = 200  # steps between dev evaluations / checkpoints
    patience: int = 10  # consecutive evaluations forming the stopping window
    min_delta: float = 0.1  # BLEU band width that counts as "not varying"
    max_steps: int = 1500
    checkpoint_keep: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.eval_interval < 1:
            raise ConfigError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.min_delta < 0.0:
            raise ConfigError(f"min_delta must be >= 0, got {self.min_delta}")
        if self.max_steps < 1 or self.batch_size < 1 or self.checkpoint_keep < 1:
            raise ConfigError("max_steps, batch_size and checkpoint_keep must be positive")
        if self.lr_scale <= 0.0 or self.warmup_steps < 1:
            raise ConfigError("lr_scale must be positive and warmup_steps >= 1")


def learning_rate(step: int, cfg: TrainerConfig) -> float:
    """lr_scale * min(step * warmup^-1.5, step^-0.5); both branches meet at
    step == warmup_steps."""
    if step < 1:
        raise ContractError(f"schedule is defined for steps >= 1, got {step}")
    return cfg.lr_scale * min(step * cfg.warmup_steps**-1.5, step**-0.5)


@dataclass
class StepRecord:
    step: int
    loss: float
    tempered_entropy: float
    raw_entropy: float
    grad_norm: float
    wall_s: float


@dataclass
class EvalRecord:
    step: int
    dev_bleu: float
    checkpoint_id: str


@dataclass
class ExperimentRecord:
    """Per-step and per-evaluation diagnostics for one training run."""

    steps: list[StepRecord] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.steps:
                fh.write(json.dumps({"kind": "step", **dataclasses.asdict(rec)}) + "\n")
            for rec in self.evals:
                fh.write(json.dumps({"kind": "eval", **dataclasses.asdict(rec)}) + "\n")

    @classmethod
    def load_jsonl(cls, path) -> "ExperimentRecord":
        out = cls()
        kinds = {"step": (out.steps, StepRecord), "eval": (out.evals, EvalRecord)}
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                try:
                    row = json.loads(line)
                    rows, record = kinds[row.pop("kind")]  # KeyError for a missing or unknown kind
                    rows.append(record(**row))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise DataError(f"{path} line {number} is not a step or eval record: {exc!r}") from exc
        return out


@dataclass
class Checkpoint:
    """Copy of a model's parameter vector at one training step."""

    flat: Array
    config: ModelConfig
    step: int

    @property
    def checkpoint_id(self) -> str:
        return f"step{self.step:06d}"


def snapshot(model: TransformerModel, step: int) -> Checkpoint:
    return Checkpoint(flat=model.flat.copy(), config=model.config, step=step)


def model_from_checkpoint(ckpt: Checkpoint) -> TransformerModel:
    return TransformerModel(ckpt.config, ckpt.flat.copy())


def average_checkpoints(checkpoints: list[Checkpoint]) -> Checkpoint:
    """Arithmetic mean of the parameter vectors of snapshots of one model
    configuration; the step is the latest of theirs."""
    if not checkpoints:
        raise ContractError("cannot average an empty checkpoint list")
    first = checkpoints[0]
    for ck in checkpoints[1:]:
        if ck.config != first.config or ck.flat.shape != first.flat.shape:
            raise ContractError("checkpoints disagree on the model configuration")
    # anchored mean: bitwise identity for identical snapshots (deltas are 0),
    # and a better-conditioned sum in general. Summed in order, one delta at a
    # time: the floats of `np.mean` over their stack, in 2 vectors, not 2K
    total = first.flat - first.flat
    for ck in checkpoints[1:]:
        total += ck.flat - first.flat
    total /= len(checkpoints)
    total += first.flat
    return Checkpoint(flat=total, config=first.config, step=max(ck.step for ck in checkpoints))


def should_stop(history: list[float], patience: int, min_delta: float) -> bool:
    """True once the last `patience` dev scores all lie within a band of
    width `min_delta` (windowed range)."""
    if len(history) < patience:
        return False
    window = history[-patience:]
    return max(window) - min(window) <= min_delta


def global_gradient_norm(grads: dict[str, Array]) -> float:
    """L2 norm over the concatenation of all parameter gradients, summed per
    tensor: one sum over the flat gradient rounds differently."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return float(np.sqrt(total))


class AdamState:
    """Adam's moment vectors, updated in place; nothing else is held between steps."""

    def __init__(self, params: dict[str, Tensor]):
        size = sum(p.size for p in params.values())
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def update(self, flat: Array, grad: Array, lr: float, cfg: TrainerConfig) -> Array:
        """The parameter vector after one Adam step from `flat`, as a new one;
        `flat` and `grad` are read only. In place in `m`, `v`, a fresh scratch and
        the new vector, yet in the operation order (so the floats) of
        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and flat - lr mhat / (sqrt(vhat) + eps)."""
        self.t += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        a = np.empty_like(flat)
        self.m *= b1
        self.m += np.multiply(grad, 1.0 - b1, out=a)
        self.v *= b2
        self.v += np.multiply(np.multiply(grad, 1.0 - b2, out=a), grad, out=a)
        np.sqrt(np.divide(self.v, 1.0 - b2**self.t, out=a), out=a)  # sqrt(vhat)
        a += cfg.adam_eps
        b = np.divide(self.m, 1.0 - b1**self.t)  # mhat, in the vector returned
        b *= lr
        b /= a
        return np.subtract(flat, b, out=b)


@dataclass
class TaskData:
    """Corpora plus vocabularies bundled for the trainer."""

    train: list[Pair]
    dev: list[Pair]
    test: list[Pair]
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    decode_max_length: int = 32


@dataclass
class TrainResult:
    model: TransformerModel
    checkpoints: list[Checkpoint]
    record: ExperimentRecord


def train_step(
    model: TransformerModel,
    batch: Batch,
    tempering: TemperingConfig,
    trainer: TrainerConfig,
    adam: AdamState,
    step: int,
    rng: np.random.Generator,
) -> tuple[TransformerModel, StepRecord]:
    """One optimisation step; returns the updated model and its record."""
    t0 = time.perf_counter()
    try:
        with GradientTape() as tape:
            logits = model.forward_teacher_forced(batch.source, batch.target_in, train=True, rng=rng)
            labels = smoothed_label_array(
                batch.target_out, model.config.target_vocab, tempering.label_smoothing, PAD_ID
            )
            loss = tempered_loss(logits, labels, batch.token_count, tempering)
        loss_value = loss.item()
    except NumericError as exc:
        raise NumericError(f"step {step} batch {batch.index}: {exc}") from exc
    if not np.isfinite(loss_value):
        raise NumericError(f"non-finite loss at step {step} batch {batch.index}")
    tempered_h, raw_h = entropy_views(logits.array, batch.target_mask, tempering.temperature)
    logits = None  # so that neither the logits nor their gradient outlive the forward
    grad_map = backward(tape, loss)
    grad = np.empty_like(model.flat)
    grads = parameter_views(model.config, grad)
    for name, p in model.params.items():
        grads[name][...] = grad_map.get(p, 0.0)
    norm = global_gradient_norm(grads)
    new_flat = adam.update(model.flat, grad, learning_rate(step, trainer), trainer)
    record = StepRecord(
        step=step,
        loss=loss_value,
        tempered_entropy=tempered_h,
        raw_entropy=raw_h,
        grad_norm=norm,
        wall_s=time.perf_counter() - t0,
    )
    return TransformerModel(model.config, new_flat), record


def tail_grad_norm(norms: list[float]) -> float:
    """Mean gradient norm over the final quarter of training steps."""
    return float(np.mean(norms[len(norms) * 3 // 4 :]))


def greedy_outputs(model: TransformerModel, data: TaskData, split: str) -> list[tuple[str, ...]]:
    """Greedy target tokens for every source of a split; no temperature at decode time."""
    sources = [data.src_vocab.encode(src) for src, _ in getattr(data, split)]
    hyps = greedy_decode_batch(model, sources, data.decode_max_length)
    return [data.tgt_vocab.decode(h.surface()) for h in hyps]


def beam_outputs(
    model: TransformerModel, data: TaskData, split: str, cfg: BeamConfig
) -> list[tuple[str, ...]]:
    """Target tokens of the best beam hypothesis for every source of a split."""
    sources = [data.src_vocab.encode(src) for src, _ in getattr(data, split)]
    return [data.tgt_vocab.decode(hyps[0].surface()) for hyps in beam_decode_batch(model, sources, cfg)]


def evaluate_checkpoint(model: TransformerModel, data: TaskData, split: str = "dev") -> float:
    """Greedy corpus BLEU on a held-out split."""
    return corpus_bleu(greedy_outputs(model, data, split), [tgt for _, tgt in getattr(data, split)])


def epoch_batches(encoded: list[tuple[Array, Array]], trainer: TrainerConfig) -> Iterator[Batch]:
    """The batches of epochs 0, 1, ... without end, epoch e shuffled with the seed of
    `(trainer.seed, 2, e)`. `train` zips its step range with it, range first, so none past max_steps is made."""
    for epoch in itertools.count():
        epoch_seed = int(np.random.SeedSequence((trainer.seed, 2, epoch)).generate_state(1)[0])
        yield from make_batches(encoded, trainer.batch_size, seed=epoch_seed)


def train(
    model: TransformerModel,
    data: TaskData,
    tempering: TemperingConfig,
    trainer: TrainerConfig,
    checkpoint_dir=None,
) -> TrainResult:
    """Run the optimisation loop until max_steps or the dev-BLEU stopping
    rule fires. Deterministic under fixed seeds. With `checkpoint_dir`, the
    retained checkpoints (the last `checkpoint_keep`) are kept there as .npz."""
    for split in ("train", "dev"):
        if not getattr(data, split):
            raise DataError(f"the {split} split is empty")
    encoded = encode_pairs(data.train, data.src_vocab, data.tgt_vocab)
    adam = AdamState(model.params)
    record = ExperimentRecord()
    checkpoints: list[Checkpoint] = []
    history: list[float] = []
    dropout_rng = np.random.default_rng(np.random.SeedSequence((trainer.seed, 1)))

    for step, batch in zip(range(1, trainer.max_steps + 1), epoch_batches(encoded, trainer)):
        model, step_rec = train_step(model, batch, tempering, trainer, adam, step, dropout_rng)
        record.steps.append(step_rec)
        if step % trainer.eval_interval == 0:
            ckpt = snapshot(model, step)
            checkpoints.append(ckpt)
            if checkpoint_dir is not None:
                save_checkpoint(f"{checkpoint_dir}/{ckpt.checkpoint_id}.npz", model, step)
            if len(checkpoints) > trainer.checkpoint_keep:
                dropped = checkpoints.pop(0)
                if checkpoint_dir is not None:
                    os.remove(f"{checkpoint_dir}/{dropped.checkpoint_id}.npz")
            dev_bleu = evaluate_checkpoint(model, data, "dev")
            record.evals.append(EvalRecord(step=step, dev_bleu=dev_bleu, checkpoint_id=ckpt.checkpoint_id))
            history.append(dev_bleu)
            if should_stop(history, trainer.patience, trainer.min_delta):
                break
    return TrainResult(model=model, checkpoints=checkpoints, record=record)
