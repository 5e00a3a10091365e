"""Greedy and beam search over a model's encoder and incremental decoder.

Models share the reserved token ids (PAD=0, BOS=1, EOS=2). A model
provides:

- `encode(source)` for one sentence and `encode_batch(padded sources)`
  for many, each returning an encoded batch;
- `decode_start(encoded) -> state`, a decoder state with one empty row
  per encoded source;
- `decode_next(state, tokens) -> [rows, vocab] logits`, which feeds one
  token per row at the next position and grows the state; a state started
  from one source may hold any number of rows, all decoding that source;
- `decode_reorder(state, parents)`, which makes row j of the state a copy
  of row `parents[j]`, so the row count may change.

Greedy decoding, one sentence or many, runs through `greedy_decode_batch`
with one row per source. Beam search advances all live hypotheses of one
sentence in one `decode_next` call per length and then reorders the state
to the survivors. Hypothesis scores divide the summed log probability by a
length penalty ((5 + len) / 6) ** alpha, where len counts tokens after BOS
(EOS included). Each step of beam search ranks deterministically:

- each live row proposes its `beam_size` best tokens by log probability,
  ties to the lowest token id;
- the candidates are ranked by score, ties to row-major order (live row,
  then the row's own token order);
- EOS candidates retire into the finished pool in that order, and the first
  `beam_size` of the rest stay live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import BOS_ID, EOS_ID, PAD_ID
from .errors import ConfigError, ContractError
from .tensor import log_softmax

Array = np.ndarray


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 4
    length_penalty_alpha: float = 1.0
    max_length: int = 32

    def __post_init__(self):
        if self.beam_size < 1:
            raise ConfigError(f"beam_size must be at least 1, got {self.beam_size}")
        if self.length_penalty_alpha < 0.0:
            raise ConfigError(f"length_penalty_alpha must be >= 0, got {self.length_penalty_alpha}")
        if self.max_length < 1:
            raise ConfigError(f"max_length must be at least 1, got {self.max_length}")

    @property
    def greedy(self) -> bool:
        """Beam size 1 with no length penalty is argmax decoding."""
        return self.beam_size == 1 and self.length_penalty_alpha == 0.0


@dataclass
class Hypothesis:
    """Decoded sequence (BOS ... [EOS]) with its cumulative log probability
    and length-penalised score."""

    tokens: tuple[int, ...]
    log_prob: float
    score: float
    finished: bool

    def surface(self) -> tuple[int, ...]:
        """Token ids without BOS/EOS/PAD, i.e. the text that is scored by BLEU."""
        return tuple(t for t in self.tokens if t not in (PAD_ID, BOS_ID, EOS_ID))


def length_penalty(length: int, alpha: float) -> float:
    if length < 1:
        raise ContractError(f"length penalty needs length >= 1, got {length}")
    return ((5.0 + length) / 6.0) ** alpha


def greedy_decode(model, source, max_length: int) -> Hypothesis:
    """Argmax decoding of one sentence; stops at EOS or after max_length
    generated tokens."""
    return greedy_decode_batch(model, [source], max_length)[0]


def beam_decode(model, source, cfg: BeamConfig) -> list[Hypothesis]:
    """Beam search of one sentence, ranked as the module docstring states.

    Returns at most `beam_size` finished hypotheses, best first, or, if none
    finishes within max_length, the best live one, flagged unfinished.
    """
    alpha, k = cfg.length_penalty_alpha, cfg.beam_size
    state = model.decode_start(model.encode(np.asarray(source, dtype=np.int64)))
    tokens = np.full((1, 1), BOS_ID, dtype=np.int64)  # [live, length]
    log_probs = np.zeros(1)
    completed: list[Hypothesis] = []
    for length in range(1, cfg.max_length + 1):
        logp = log_softmax(model.decode_next(state, tokens[:, -1]))
        top = np.argsort(-logp, axis=1, kind="stable")[:, :k]
        rows, tok = np.repeat(np.arange(len(tokens)), top.shape[1]), top.ravel()
        sums = log_probs[rows] + logp[rows, tok]
        scores = sums / length_penalty(length, alpha)
        ranked = np.lexsort((np.arange(tok.size), -scores))
        eos = tok[ranked] == EOS_ID
        completed += [
            Hypothesis(tuple(tokens[rows[c]].tolist()) + (EOS_ID,), float(sums[c]), float(scores[c]), True)
            for c in ranked[eos]
        ]
        completed = sorted(completed, key=lambda h: -h.score)[:k]
        keep = ranked[~eos][:k]
        if keep.size == 0:
            break
        tokens = np.concatenate([tokens[rows[keep]], tok[keep, None]], axis=1)
        log_probs, live_scores = sums[keep], scores[keep]
        if len(completed) == k:
            # optimistic bound: log_prob can only fall, and the penalty divisor
            # can only grow to its max_length value, so no live hypothesis can
            # beat `bound` later
            bound = min(log_probs.max(), 0.0) / length_penalty(cfg.max_length, alpha)
            if bound <= completed[-1].score:
                break
        model.decode_reorder(state, rows[keep])
    if completed:
        return completed
    return [Hypothesis(tuple(tokens[0].tolist()), float(log_probs[0]), float(live_scores[0]), False)]


def greedy_decode_batch(model, sources: list[Array], max_length: int) -> list[Hypothesis]:
    """Greedy decoding of many sentences at once; stops at EOS or after
    max_length generated tokens.

    Shorter sources are padded to the longest, which can move a sentence's
    log probability in its last bits against its one-sentence decode.
    """
    if not sources:
        return []
    n = len(sources)
    s_len = max(len(s) for s in sources)
    padded = np.full((n, s_len), PAD_ID, dtype=np.int64)
    for i, s in enumerate(sources):
        padded[i, : len(s)] = s
    state = model.decode_start(model.encode_batch(padded))

    columns = [np.full(n, BOS_ID, dtype=np.int64)]
    log_probs = np.zeros(n)
    finished = np.zeros(n, dtype=bool)
    for _ in range(max_length):
        logits = model.decode_next(state, columns[-1])
        logp = log_softmax(logits)
        nxt = np.argmax(logits, axis=-1)
        log_probs = np.where(finished, log_probs, log_probs + logp[np.arange(n), nxt])
        columns.append(nxt)
        finished = finished | (nxt == EOS_ID)
        if finished.all():
            break

    prefixes = np.stack(columns, axis=1)
    out = []
    for i in range(n):
        row = prefixes[i].tolist()
        done = EOS_ID in row[1:]
        if done:
            row = row[: row.index(EOS_ID, 1) + 1]
        lp = float(log_probs[i])  # also the score: alpha 0's length penalty is 1.0
        out.append(Hypothesis(tokens=tuple(row), log_prob=lp, score=lp, finished=done))
    return out


def decode_corpus(model, sources: list[Array], beam_cfg: BeamConfig) -> tuple[list[Hypothesis], list[int]]:
    """Decode one sentence at a time, greedily when `beam_cfg.greedy`, else
    with beam search; returns the hypotheses and each sentence's wall time
    in nanoseconds."""
    hyps: list[Hypothesis] = []
    wall_ns: list[int] = []
    for src in sources:
        t0 = time.perf_counter_ns()
        if beam_cfg.greedy:
            hyp = greedy_decode(model, src, beam_cfg.max_length)
        else:
            hyp = beam_decode(model, src, beam_cfg)[0]
        wall_ns.append(time.perf_counter_ns() - t0)
        hyps.append(hyp)
    return hyps, wall_ns
