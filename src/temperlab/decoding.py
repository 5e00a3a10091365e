"""Greedy and beam search over a model's encoder and incremental decoder.

Models share the reserved token ids (PAD=0, BOS=1, EOS=2). A model
provides:

- `encode(source)` for one sentence and `encode_batch(padded sources)`
  for many, each returning an encoded batch;
- `decode_start(encoded) -> state`, a decoder state with one empty row
  per encoded source; a state holds the rows of one source or of many;
- `decode_next(state, tokens) -> [rows, vocab] logits`, which feeds one
  token per row at the next position and grows the state;
- `decode_reorder(state, parents)`, which makes row j of the state a copy
  of row `parents[j]`, so the row count may change. In a state of many
  sources it gathers each row's cross-attention rows too, so a row keeps
  attending to its own source; a state of one source shares that source's
  rows among all of its rows.

Greedy decoding, one sentence or many, runs through `greedy_decode_batch`
with one row per source; a row that has emitted EOS leaves the state.
Beam search, one sentence or many, runs through `beam_decode_batch`. It
groups the sources by length, so that no source is padded, and advances
all live hypotheses of a group in one `decode_next` call per length, then
reorders the state to the survivors. Each source's hypotheses are bit-equal
to decoding it alone: every row's arithmetic is the same whatever else the
state holds, and each source is ranked only against itself.

Hypothesis scores divide the summed log probability by a length penalty
((5 + len) / 6) ** alpha, where len counts tokens after BOS (EOS included).
Each step of beam search ranks every source's candidates deterministically:

- each live row proposes its `beam_size` best tokens by log probability,
  ties to the lowest token id;
- the candidates are ranked by score, ties to row-major order (live row,
  then the row's own token order);
- EOS candidates retire into the source's finished pool in that order, and
  the first `beam_size` of the rest stay live.
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
    """Beam search of one sentence; see `beam_decode_batch`."""
    return beam_decode_batch(model, [source], cfg)[0]


def beam_decode_batch(model, sources: list[Array], cfg: BeamConfig) -> list[list[Hypothesis]]:
    """Beam search of many sentences, ranked as the module docstring states.

    Returns, per source, at most `beam_size` finished hypotheses, best first,
    or, if none finishes within max_length, the best live one, flagged
    unfinished. Sources of one length share an encoder pass and a decoder
    state.
    """
    by_length: dict[int, list[int]] = {}
    for i, src in enumerate(sources):
        by_length.setdefault(len(src), []).append(i)
    out: list[list[Hypothesis]] = [[] for _ in sources]
    for group in by_length.values():
        batch = np.asarray([sources[i] for i in group], dtype=np.int64)
        for i, hyps in zip(group, _beam_search(model, batch, cfg)):
            out[i] = hyps
    return out


def _rank_in_group(keys: Array) -> Array:
    """Each element's position among the equal elements of sorted `keys`."""
    return np.arange(keys.size) - np.searchsorted(keys, keys)


def _beam_search(model, batch: Array, cfg: BeamConfig) -> list[list[Hypothesis]]:
    """Beam search of the equal-length sources `batch` [n, src_len] in one
    decoder state.

    Live rows are held sorted by source and, within a source, by rank. The
    finished pool is held sorted by source, then best score first, then
    age, with at most `beam_size` entries per source. A source ends when it
    has no live row left or its early-stop bound holds; its pool is then
    final, and its rows leave the state at the next reorder.
    """
    alpha, k = cfg.length_penalty_alpha, cfg.beam_size
    n, width = len(batch), cfg.max_length + 1
    bound_penalty = length_penalty(cfg.max_length, alpha)
    state = model.decode_start(model.encode_batch(batch))
    src = np.arange(n)  # the source of each live row
    tokens = np.full((n, width), PAD_ID, dtype=np.int64)
    tokens[:, 0] = BOS_ID
    log_probs = scores = np.zeros(n)
    pool_src = np.zeros(0, dtype=np.int64)
    pool_log_probs = pool_scores = np.zeros(0)
    pool_tokens = np.zeros((0, width), dtype=np.int64)
    worst = np.full(n, np.nan)  # the k-th pool score of a source with a full pool, else NaN
    for length in range(1, cfg.max_length + 1):
        logp = log_softmax(model.decode_next(state, tokens[:, length - 1]))
        top = np.argsort(-logp, axis=1, kind="stable")[:, :k]
        rows, tok = np.repeat(np.arange(src.size), top.shape[1]), top.ravel()
        cand_src = src[rows]
        sums = log_probs[rows] + logp[rows, tok]
        cand_scores = sums / length_penalty(length, alpha)
        ranked = np.lexsort((-cand_scores, cand_src))  # stable: ties stay row-major
        eos = tok[ranked] == EOS_ID
        new = ranked[eos]
        if new.size:
            # the old pool first, then the new entries in rank order, so the
            # stable sort keeps the older of two equal scores first
            merged_src = np.concatenate([pool_src, cand_src[new]])
            merged_scores = np.concatenate([pool_scores, cand_scores[new]])
            order = np.lexsort((-merged_scores, merged_src))
            pool_rank = _rank_in_group(merged_src[order])
            order, pool_rank = order[pool_rank < k], pool_rank[pool_rank < k]
            finished = tokens[rows[new]]
            finished[:, length] = EOS_ID
            pool_src, pool_scores = merged_src[order], merged_scores[order]
            pool_log_probs = np.concatenate([pool_log_probs, sums[new]])[order]
            pool_tokens = np.concatenate([pool_tokens, finished])[order]
            kth = pool_rank == k - 1
            worst[pool_src[kth]] = pool_scores[kth]
        live = ranked[~eos]
        rank = _rank_in_group(cand_src[live])
        live, rank = live[rank < k], rank[rank < k]
        if live.size == 0:
            break
        if pool_src.size >= k:  # else no source has a full pool
            # optimistic bound: log_prob can only fall, and the penalty
            # divisor can only grow to its max_length value, so no live
            # hypothesis can beat `bound` later
            starts = np.flatnonzero(rank == 0)
            bound = np.minimum(np.maximum.reduceat(sums[live], starts), 0.0) / bound_penalty
            live_sources = cand_src[live[starts]]
            ended = np.zeros(n, dtype=bool)
            ended[live_sources] = bound <= worst[live_sources]
            live = live[~ended[cand_src[live]]]
            if live.size == 0:
                break
        src = cand_src[live]
        tokens = tokens[rows[live]]
        tokens[:, length] = tok[live]
        log_probs, scores = sums[live], cand_scores[live]
        if length < cfg.max_length:
            model.decode_reorder(state, rows[live])

    out = []
    pool_start = np.searchsorted(pool_src, np.arange(n + 1))
    for s in range(n):
        part = range(pool_start[s], pool_start[s + 1])
        if part:
            hyps = []
            for i in part:
                row = pool_tokens[i].tolist()
                hyps.append(Hypothesis(tuple(row[: row.index(EOS_ID) + 1]), float(pool_log_probs[i]),
                                       float(pool_scores[i]), True))
            out.append(hyps)
        else:  # no hypothesis finished: the best live one, which has max_length tokens
            r = int(np.searchsorted(src, s))
            out.append([Hypothesis(tuple(tokens[r].tolist()), float(log_probs[r]), float(scores[r]), False)])
    return out


def greedy_decode_batch(model, sources: list[Array], max_length: int) -> list[Hypothesis]:
    """Greedy decoding of many sentences at once; stops at EOS or after
    max_length generated tokens. A row leaves the decoder state once it has
    emitted EOS.

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

    tokens = np.full((n, max_length + 1), PAD_ID, dtype=np.int64)
    tokens[:, 0] = BOS_ID
    log_probs = np.zeros(n)
    live = np.arange(n)  # the sentence of each row of the state
    for length in range(1, max_length + 1):
        logits = model.decode_next(state, tokens[live, length - 1])
        logp = log_softmax(logits)
        nxt = np.argmax(logits, axis=-1)
        log_probs[live] += logp[np.arange(live.size), nxt]
        tokens[live, length] = nxt
        ended = nxt == EOS_ID
        if ended.any():
            stay = np.flatnonzero(~ended)
            if stay.size == 0:
                break
            live = live[stay]
            if length < max_length:
                model.decode_reorder(state, stay)

    out = []
    for i in range(n):
        row = tokens[i].tolist()  # a row that never emitted EOS fills every column
        done = EOS_ID in row
        if done:
            row = row[: row.index(EOS_ID) + 1]
        lp = float(log_probs[i])  # also the score: alpha 0's length penalty is 1.0
        out.append(Hypothesis(tuple(row), lp, lp, done))
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
