"""Temperature-scaled softmax training loss and its diagnostics.

The training-time prediction divides logits by a temperature T before the
softmax, which smooths the distribution; the cross-entropy against the
(optionally label-smoothed) reference is then multiplied by T so gradient
magnitudes at the logit level are preserved. Decoding never applies the
temperature.

`tempered_loss` is the one implementation of the loss: the batched form,
one `tensor.cross_entropy` node on the tape, that training runs. The scalar
API (`tempered_cross_entropy`, `analytic_logit_gradient`) is a one-row view
of it, so checks of the scalar loss and its gradient test the training code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import PAD_ID
from .errors import ConfigError, ContractError

Array = np.ndarray


@dataclass(frozen=True)
class TemperingConfig:
    """Training-loss hyper-parameters: temperature, loss rescaling, smoothing."""

    temperature: float = 1.0
    rescale_loss: bool = True
    label_smoothing: float = 0.1

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")


@dataclass(frozen=True)
class LabelDistribution:
    """Smoothed reference distribution: 1-eps at the target id, eps spread
    uniformly over the other vocab_size-1 entries."""

    target_id: int
    vocab_size: int
    smoothing: float = 0.0

    def __post_init__(self):
        if not 0 <= self.target_id < self.vocab_size:
            raise ContractError(
                f"target id {self.target_id} outside vocabulary of size {self.vocab_size}"
            )
        if not 0.0 <= self.smoothing < 1.0:
            raise ConfigError(f"smoothing must be in [0, 1), got {self.smoothing}")
        if self.smoothing > 0.0 and self.vocab_size < 2:
            raise ConfigError("smoothing needs a vocabulary of at least 2 tokens")

    def vector(self) -> Array:
        # pad id -1 matches no target, so a target id of 0 keeps its label row
        return smoothed_label_array([self.target_id], self.vocab_size, self.smoothing, pad_id=-1)[0]


def tempered_softmax(logits: Array, temperature: float) -> Array:
    """softmax(logits / T); argmax is identical to argmax(logits) for any T > 0."""
    if temperature <= 0.0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    return tt.softmax(np.asarray(logits, dtype=np.float64) / temperature)


def _row_loss(logits: Array, label: LabelDistribution, cfg: TemperingConfig) -> tuple[tt.Tensor, tt.Tensor]:
    """`tempered_loss` over a one-row batch: the [1, vocab] logits tensor and the loss."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (label.vocab_size,):
        raise ContractError(
            f"logits shape {logits.shape} does not match vocabulary size {label.vocab_size}"
        )
    row = tt.Tensor(logits[None, :], tracked=True)
    return row, tempered_loss(row, label.vector()[None, :], 1, cfg)


def tempered_cross_entropy(logits: Array, label: LabelDistribution, cfg: TemperingConfig) -> float:
    """Cross-entropy of the temperature-scaled prediction against `label`,
    multiplied by the temperature when `cfg.rescale_loss` is set."""
    return _row_loss(logits, label, cfg)[1].item()


def analytic_logit_gradient(logits: Array, label: LabelDistribution, cfg: TemperingConfig) -> Array:
    """Gradient of `tempered_cross_entropy` w.r.t. the logits, from the tape.

    With rescaling on this is p_temp - label: the loss multiplier T cancels
    the 1/T from the chain rule through the scaled logits. With rescaling
    off it is (p_temp - label) / T.
    """
    with tt.GradientTape() as tape:
        row, loss = _row_loss(logits, label, cfg)
    return tt.backward(tape, loss)[row][0]


def shannon_entropy(p: Array) -> float:
    """Entropy in nats, with 0 * log 0 = 0. Input must be a distribution."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ContractError("shannon_entropy input is not a probability distribution")
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


# ---------------------------------------------------------------------------
# batched forms used by the training loop


def smoothed_label_array(
    target_ids: Array, vocab_size: int, smoothing: float, pad_id: int = PAD_ID
) -> Array:
    """Dense [..., vocab] reference distributions; rows at pad positions are
    all-zero so they contribute nothing to the loss."""
    ids = np.asarray(target_ids)
    out = np.zeros(ids.shape + (vocab_size,), dtype=np.float64)
    valid = ids != pad_id
    if smoothing > 0.0:
        out[valid] = smoothing / (vocab_size - 1)
    flat = out.reshape(-1, vocab_size)
    flat_ids = ids.reshape(-1)
    rows = np.nonzero(valid.reshape(-1))[0]
    flat[rows, flat_ids[rows]] = 1.0 - smoothing
    return out


def tempered_loss(logits: tt.Tensor, labels: Array, token_count: int, cfg: TemperingConfig) -> tt.Tensor:
    """Per-token mean tempered cross-entropy over a batch, one tape node.

    `labels` is a dense [..., vocab] array (zero rows at padding) and
    `token_count` the number of non-pad target positions; the labels get no
    gradient.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise ContractError(f"logits {logits.shape} and labels {labels.shape} differ")
    if token_count < 1:
        raise ContractError("loss needs at least one non-pad target token")
    factor = -1.0 / token_count
    if cfg.rescale_loss:
        factor *= cfg.temperature
    return tt.cross_entropy(logits, labels, 1.0 / cfg.temperature, factor)


def entropy_views(logits: Array, token_mask: Array, temperature: float) -> tuple[float, float]:
    """Mean per-token entropy of the temperature-scaled and unscaled softmax.

    Averaged over positions where `token_mask` is true; returns
    (tempered_entropy, raw_entropy) in nats.
    """
    mask = np.asarray(token_mask, dtype=bool)
    if not mask.any():
        raise ContractError("entropy_views needs at least one unmasked position")
    rows = np.asarray(logits, dtype=np.float64)[mask]
    raw = _entropy_rows(rows)
    rows /= temperature  # a copy: boolean indexing
    return float(_entropy_rows(rows).mean()), float(raw.mean())


def _entropy_rows(rows: Array) -> Array:
    """-sum(softmax * log_softmax) per row, one shift, exp and row sum for both."""
    z = rows - rows.max(axis=-1, keepdims=True)
    p = np.exp(z)
    s = np.add.reduce(p, axis=-1, keepdims=True)
    z -= np.log(s)
    p /= s
    p *= z
    return -np.add.reduce(p, axis=-1)
