"""Correctness checks for the benchmark's workloads.

Each check recomputes what the program returned by a route apart from it
(plain numpy, a brute-force BLEU, a teacher-forced forward pass in place of
incremental decoding) or tests a property the method must have. No check
compares against a stored copy of earlier output. Every check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

PAD, BOS, EOS = 0, 1, 2
LOGPROB_TOL = 1e-9  # summed log-probability against teacher-forced rescoring
ARGMAX_TOL = 1e-9  # logit slack when asking whether a token is the argmax
MAX_PROBLEMS = 10


def log_softmax(z: np.ndarray) -> np.ndarray:
    s = z - z.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def capped(problems: list[str]) -> list[str]:
    """The first MAX_PROBLEMS problems and a count of the rest."""
    if len(problems) > MAX_PROBLEMS:
        return problems[:MAX_PROBLEMS] + [f"... and {len(problems) - MAX_PROBLEMS} more"]
    return problems


def _well_formed(i: int, tokens, finished: bool) -> list[str]:
    if not tokens or tokens[0] != BOS:
        return [f"sentence {i}: hypothesis does not start with BOS"]
    if EOS in tokens[1:-1]:
        return [f"sentence {i}: EOS before the end of the hypothesis"]
    if finished and tokens[-1] != EOS:
        return [f"sentence {i}: finished hypothesis does not end in EOS"]
    if not finished and tokens[-1] == EOS:
        return [f"sentence {i}: hypothesis ends in EOS but is marked unfinished"]
    return []


def _rescored(tokens, logits: np.ndarray) -> float:
    """Summed log-probability of tokens[1:] under teacher-forced logits
    [len(tokens) - 1, vocab]."""
    logp = log_softmax(logits[: len(tokens) - 1])
    return float(sum(logp[j, tok] for j, tok in enumerate(tokens[1:])))


def check_greedy(hyps, teacher_logits, batch_tokens) -> list[str]:
    """`hyps`: (tokens, log_prob, finished) per sentence; `teacher_logits`:
    the model's teacher-forced logits over tokens[:-1] for each; and
    `batch_tokens`: the tokens `greedy_decode_batch` gave for each sentence."""
    problems = []
    if len(hyps) != len(teacher_logits) or len(hyps) != len(batch_tokens):
        return ["greedy: outputs, rescoring and batched outputs differ in count"]
    for i, ((tokens, log_prob, finished), logits, batch) in enumerate(
        zip(hyps, teacher_logits, batch_tokens)
    ):
        problems += _well_formed(i, tokens, finished)
        for j, tok in enumerate(tokens[1:]):
            row = logits[j]
            if row[tok] < row.max() - ARGMAX_TOL:
                problems.append(f"sentence {i}: token {tok} at position {j + 1} is not the argmax")
                break
        expected = _rescored(tokens, logits)
        if abs(expected - log_prob) > LOGPROB_TOL:
            problems.append(f"sentence {i}: log-prob {log_prob!r} but rescoring gives {expected!r}")
        if tuple(batch) != tuple(tokens):
            problems.append(f"sentence {i}: greedy_decode_batch gave other tokens")
    return problems


def gnmt_score(log_prob: float, tokens, alpha: float) -> float:
    length = max(1, len(tokens) - 1)
    return log_prob / ((5.0 + length) / 6.0) ** alpha


def check_beam(results, teacher_logits, alpha: float) -> list[str]:
    """`results`: per sentence, the list of (tokens, log_prob, score,
    finished) that `beam_decode` returned; `teacher_logits`: per sentence,
    one teacher-forced logit array per hypothesis."""
    problems = []
    if len(results) != len(teacher_logits):
        return ["beam: outputs and rescoring differ in count"]
    for i, (hyps, logits) in enumerate(zip(results, teacher_logits)):
        if not hyps:
            problems.append(f"sentence {i}: no hypothesis returned")
            continue
        scores = [h[2] for h in hyps]
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"sentence {i}: hypotheses are not sorted by score")
        for (tokens, log_prob, score, finished), lg in zip(hyps, logits):
            problems += _well_formed(i, tokens, finished)
            expected = _rescored(tokens, lg)
            if abs(expected - log_prob) > LOGPROB_TOL:
                problems.append(f"sentence {i}: log-prob {log_prob!r} but rescoring gives {expected!r}")
            want = gnmt_score(log_prob, tokens, alpha)
            if abs(want - score) > 1e-12 * max(1.0, abs(want)):
                problems.append(f"sentence {i}: score {score!r} but log-prob / penalty is {want!r}")
    return problems


def smoothed_labels(target_out: np.ndarray, vocab: int, smoothing: float) -> np.ndarray:
    y = np.zeros(target_out.shape + (vocab,))
    valid = target_out != PAD
    y[valid] = smoothing / (vocab - 1)
    b, t = np.nonzero(valid)
    y[b, t, target_out[b, t]] = 1.0 - smoothing
    return y


def check_logit_gradient(logits, target_out, smoothing, temperature, tape_grad) -> list[str]:
    """The paper's identity: with the loss multiplied by T, the gradient of
    the per-token mean loss w.r.t. the logits is (softmax(z/T) - y) * mask / n."""
    z = np.asarray(logits) / temperature
    p = np.exp(log_softmax(z))
    mask = (np.asarray(target_out) != PAD)[..., None]
    y = smoothed_labels(np.asarray(target_out), z.shape[-1], smoothing)
    expected = (p - y) * mask / mask.sum()
    if tape_grad is None or tape_grad.shape != expected.shape:
        return ["train: the tape has no gradient of the logits' shape"]
    err = float(np.max(np.abs(tape_grad - expected)))
    scale = float(np.max(np.abs(expected)))
    if err > 1e-10 * scale:
        return [f"train: logit gradient differs from (softmax(z/T) - y) * mask / n by {err:.3g}"]
    return []


def check_finite_differences(pairs) -> list[str]:
    """`pairs`: (label, tape gradient, central difference) per coordinate."""
    problems = []
    for label, analytic, numeric in pairs:
        if abs(analytic - numeric) > 1e-6 + 1e-4 * abs(numeric):
            problems.append(f"train: d loss / d {label} is {analytic!r}, finite differences give {numeric!r}")
    return problems


def check_losses(losses, window: int = 10) -> list[str]:
    if len(losses) < 2 * window:
        return [f"train: only {len(losses)} losses recorded"]
    if not all(math.isfinite(v) for v in losses):
        return ["train: a loss is not finite"]
    first, last = np.mean(losses[:window]), np.mean(losses[-window:])
    if not last < first:
        return [f"train: mean loss of the last steps {last:.4f} is not below the first {first:.4f}"]
    return []


def bleu(hyps, refs) -> float:
    """Corpus BLEU (n = 1..4, clipped counts pooled over the corpus, brevity
    penalty, orders without hypothesis n-grams dropped), by brute force."""
    matched = [0] * 4
    total = [0] * 4
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for hyp, ref in zip(hyps, refs):
        for n in range(1, 5):
            ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            hyp_grams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            total[n - 1] += len(hyp_grams)
            for gram in set(hyp_grams):
                matched[n - 1] += min(hyp_grams.count(gram), ref_grams.count(gram))
    if hyp_len == 0:
        return 0.0
    orders = [n for n in range(4) if total[n] > 0]
    if any(matched[n] == 0 for n in orders):
        return 0.0
    log_precision = sum(math.log(matched[n] / total[n]) for n in orders) / len(orders)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


def check_sweep_table(rows, test_hyps, refs) -> list[str]:
    """`rows`: sweep.csv as dicts; `test_hyps`: temperature -> the token
    lines of its test_greedy file; `refs`: the test references."""
    problems = []
    ok = [r for r in rows if r["status"] == "ok"]
    for r in ok:
        t = float(r["temperature"])
        if t not in test_hyps:
            problems.append(f"sweep T={t:g}: no test greedy output")
            continue
        if len(test_hyps[t]) != len(refs):
            problems.append(f"sweep T={t:g}: {len(test_hyps[t])} test hypotheses for {len(refs)} references")
            continue
        want = bleu(test_hyps[t], refs)
        got = float(r["test_greedy_bleu"])
        if abs(want - got) > 1e-9:
            problems.append(f"sweep T={t:g}: test greedy BLEU {got!r}, brute force gives {want!r}")
    if ok:
        best = max(float(r["dev_greedy_bleu"]) for r in ok)
        marked = [r for r in rows if r["is_t_opt"] == "1"]
        if len(marked) != 1 or float(marked[0]["dev_greedy_bleu"]) != best:
            problems.append("sweep: T_opt is not the dev argmax")
    return problems


def check_average(retained, average) -> list[str]:
    """`retained`: the retained checkpoints as name -> array dicts;
    `average`: the averaged model's arrays."""
    if not retained:
        return ["sweep: no retained checkpoints"]
    problems = []
    for name, arr in average.items():
        mean = np.mean([ck[name] for ck in retained], axis=0)
        if not np.allclose(arr, mean, rtol=1e-12, atol=1e-14):
            problems.append(f"sweep: average.npz {name} is not the mean of the retained checkpoints")
    if set(average) != set(retained[0]):
        problems.append("sweep: average.npz and the checkpoints hold other parameters")
    return problems
