"""Temperature-scaled softmax training loss and its diagnostics.

The training-time prediction divides logits by a temperature T before the
softmax, which smooths the distribution; the cross-entropy against the
(optionally label-smoothed) reference is then multiplied by T so gradient
magnitudes at the logit level are preserved. Decoding never applies the
temperature.

`tempered_loss` is the one implementation of the loss, one
`tensor.cross_entropy` node on the tape, and `entropy_views` the one reading
of the entropies a training step records; checks of a single row call them
on a [1, vocab] batch. The tempered prediction, `tensor.softmax(logits / T)`,
has the argmax of the logits for any T > 0.
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
    gradient. At non-pad positions the logits' gradient is
    (softmax(logits / T) - labels) / token_count, since the loss multiplier
    T cancels the chain rule's 1/T; without rescaling it is that over T.
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
