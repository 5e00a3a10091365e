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
(EOS included).
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


def _score(log_prob: float, tokens_after_bos: int, alpha: float) -> float:
    return log_prob / length_penalty(max(1, tokens_after_bos), alpha)


def greedy_decode(model, source, max_length: int) -> Hypothesis:
    """Argmax decoding of one sentence; stops at EOS or after max_length
    generated tokens."""
    return greedy_decode_batch(model, [source], max_length)[0]


@dataclass
class _Live:
    tokens: tuple[int, ...]
    log_prob: float
    order: int  # insertion index, the deterministic tie-breaker
    parent: int = 0  # the decoder-state row this hypothesis extends
    score: float = 0.0  # length-penalised log_prob, computed once when made


def beam_decode(model, source, cfg: BeamConfig) -> list[Hypothesis]:
    """Standard beam search with a retired pool of finished hypotheses.

    All live hypotheses advance in one `decode_next` call per length, and
    the decoder state is then reordered to the surviving ones. Returns
    finished hypotheses sorted by score descending (ties broken by insertion
    order). If nothing finishes within max_length, the best unfinished
    hypothesis is returned, flagged unfinished.
    """
    alpha = cfg.length_penalty_alpha
    state = model.decode_start(model.encode(np.asarray(source, dtype=np.int64)))
    live: list[_Live] = [_Live(tokens=(BOS_ID,), log_prob=0.0, order=0)]
    completed: list[Hypothesis] = []
    counter = 1

    for _ in range(cfg.max_length):
        logp_rows = log_softmax(model.decode_next(state, [hyp.tokens[-1] for hyp in live]))
        candidates: list[_Live] = []
        for row, (hyp, logp) in enumerate(zip(live, logp_rows)):
            k = min(cfg.beam_size, logp.shape[0])
            top = np.argpartition(-logp, k - 1)[:k]
            top = top[np.lexsort((top, -logp[top]))]  # prob desc, then lowest id
            for tok in top:
                log_prob = hyp.log_prob + float(logp[tok])
                candidates.append(
                    _Live(
                        tokens=hyp.tokens + (int(tok),),
                        log_prob=log_prob,
                        order=counter,
                        parent=row,
                        score=_score(log_prob, len(hyp.tokens), alpha),
                    )
                )
                counter += 1
        candidates.sort(key=lambda c: (-c.score, c.order))
        live = []
        for cand in candidates:
            if cand.tokens[-1] == EOS_ID:
                completed.append(
                    Hypothesis(tokens=cand.tokens, log_prob=cand.log_prob, score=cand.score, finished=True)
                )
            elif len(live) < cfg.beam_size:
                live.append(cand)
        completed.sort(key=lambda h: -h.score)
        completed = completed[: cfg.beam_size]
        if not live:
            break
        if len(completed) >= cfg.beam_size:
            # optimistic bound: log_prob can only fall, the penalty divisor can
            # only grow to its max_length value, so for log_prob <= 0 no live
            # hypothesis can beat `bound` later
            worst = completed[-1].score
            bound = max(
                _score(h.log_prob, cfg.max_length, alpha) if h.log_prob < 0.0 else 0.0
                for h in live
            )
            if bound <= worst:
                break
        model.decode_reorder(state, [hyp.parent for hyp in live])

    if completed:
        return completed
    best = live[0]
    return [Hypothesis(tokens=best.tokens, log_prob=best.log_prob, score=best.score, finished=False)]


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
        lp = float(log_probs[i])
        out.append(
            Hypothesis(tokens=tuple(row), log_prob=lp, score=_score(lp, len(row) - 1, 0.0), finished=done)
        )
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
