"""Each checker accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer
from run import END_TO_END_UNITS, WORKLOADS

RNG = np.random.default_rng(0)
VOCAB = 9


def greedy_case(n=5):
    """Greedy outputs made from random logits by argmax, with their logits."""
    hyps, logits = [], []
    for _ in range(n):
        tokens, rows = [checks.BOS], []
        for _ in range(6):
            row = RNG.normal(size=VOCAB)
            rows.append(row)
            tokens.append(int(np.argmax(row)))
            if tokens[-1] == checks.EOS:
                break
        lg = np.array(rows)
        hyps.append((tuple(tokens), checks._rescored(tokens, lg), tokens[-1] == checks.EOS))
        logits.append(lg)
    return hyps, logits


def test_greedy_accepts_argmax_outputs():
    hyps, logits = greedy_case()
    assert checks.check_greedy(hyps, logits, [h[0] for h in hyps]) == []


def test_greedy_rejects_flipped_token():
    hyps, logits = greedy_case()
    tokens, lp, fin = hyps[2]
    flipped = list(tokens)
    flipped[1] = 3 if flipped[1] != 3 else 4
    hyps[2] = (tuple(flipped), lp, fin)
    problems = checks.check_greedy(hyps, logits, [h[0] for h in hyps])
    assert any("not the argmax" in p for p in problems)


def test_greedy_rejects_perturbed_log_prob():
    hyps, logits = greedy_case()
    tokens, lp, fin = hyps[0]
    hyps[0] = (tokens, lp + 1e-7, fin)
    assert any("rescoring" in p for p in checks.check_greedy(hyps, logits, [h[0] for h in hyps]))


def test_greedy_rejects_batch_disagreement():
    hyps, logits = greedy_case()
    batch = [h[0] for h in hyps]
    batch[1] = batch[1][:-1]
    assert any("greedy_decode_batch" in p for p in checks.check_greedy(hyps, logits, batch))


def beam_case(alpha=1.0):
    """Three finished hypotheses per sentence, scored and sorted."""
    results, logits = [], []
    for _ in range(3):
        hyps, lgs = [], []
        for length in (3, 4, 5):
            tokens = [checks.BOS] + [int(t) for t in RNG.integers(3, VOCAB, size=length - 1)] + [checks.EOS]
            lg = RNG.normal(size=(len(tokens) - 1, VOCAB))
            lp = checks._rescored(tokens, lg)
            hyps.append((tuple(tokens), lp, checks.gnmt_score(lp, tokens, alpha), True))
            lgs.append(lg)
        order = sorted(range(3), key=lambda i: -hyps[i][2])
        results.append([hyps[i] for i in order])
        logits.append([lgs[i] for i in order])
    return results, logits


def test_beam_accepts_rescored_sorted_hypotheses():
    results, logits = beam_case()
    assert checks.check_beam(results, logits, 1.0) == []


def test_beam_rejects_perturbed_log_prob():
    results, logits = beam_case()
    tokens, lp, score, fin = results[1][2]
    results[1][2] = (tokens, lp - 1e-6, score, fin)
    assert any("rescoring" in p for p in checks.check_beam(results, logits, 1.0))


def test_beam_rejects_wrong_length_penalty():
    results, logits = beam_case()
    assert any("penalty" in p for p in checks.check_beam(results, logits, 0.6))


def test_beam_rejects_unsorted_hypotheses():
    results, logits = beam_case()
    results[0].reverse()
    logits[0].reverse()
    assert any("not sorted" in p for p in checks.check_beam(results, logits, 1.0))


def test_beam_rejects_finished_without_eos():
    results, logits = beam_case()
    tokens, lp, score, _ = results[2][0]
    results[2][0] = (tokens[:-1] + (4,), lp, score, True)
    assert any("EOS" in p for p in checks.check_beam(results, logits, 1.0))


def logit_case(temperature=2.0, smoothing=0.1):
    z = RNG.normal(size=(2, 4, VOCAB))
    target = np.array([[5, 6, checks.EOS, checks.PAD], [7, 4, 8, checks.EOS]])
    y = checks.smoothed_labels(target, VOCAB, smoothing)
    p = np.exp(checks.log_softmax(z / temperature))
    mask = (target != checks.PAD)[..., None]
    return z, target, (p - y) * mask / mask.sum()


def test_logit_gradient_accepts_identity():
    z, target, grad = logit_case()
    assert checks.check_logit_gradient(z, target, 0.1, 2.0, grad) == []


def test_logit_gradient_rejects_unscaled_or_unmasked_gradient():
    z, target, grad = logit_case()
    assert checks.check_logit_gradient(z, target, 0.1, 2.0, grad / 2.0)  # loss not rescaled by T
    leaked = grad.copy()
    leaked[0, 3] += 1e-3  # gradient at a pad position
    assert checks.check_logit_gradient(z, target, 0.1, 2.0, leaked)
    assert checks.check_logit_gradient(z, target, 0.1, 2.0, None)


def test_finite_differences_and_losses():
    assert checks.check_finite_differences([("w", 0.25, 0.25 + 1e-9)]) == []
    assert checks.check_finite_differences([("w", 0.25, 0.26)])
    falling = list(np.linspace(4.0, 3.0, 40))
    assert checks.check_losses(falling) == []
    assert checks.check_losses(falling[::-1])
    assert checks.check_losses(falling[:-1] + [float("nan")])


def test_bleu_hand_examples():
    assert checks.bleu([("a", "b", "c")], [("a", "b", "c")]) == 100.0
    assert abs(checks.bleu([("the", "cat", "sat")], [("the", "cat", "sat", "down")]) - 71.653) < 1e-3
    assert checks.bleu([("x",)], [("y",)]) == 0.0
    assert checks.bleu([()], [("y",)]) == 0.0


def sweep_case():
    refs = [("a", "b", "c", "d"), ("e", "f", "g")]
    hyps = {1.0: [("a", "b", "c", "d"), ("e", "f", "x")], 2.0: [("a", "b", "c", "d"), ("e", "f", "g")]}
    rows = [
        {"temperature": "1.0", "status": "ok", "dev_greedy_bleu": "50.0",
         "test_greedy_bleu": repr(checks.bleu(hyps[1.0], refs)), "is_t_opt": "0"},
        {"temperature": "2.0", "status": "ok", "dev_greedy_bleu": "60.0",
         "test_greedy_bleu": repr(checks.bleu(hyps[2.0], refs)), "is_t_opt": "1"},
    ]
    return rows, hyps, refs


def test_sweep_table_accepts_consistent_outputs():
    assert checks.check_sweep_table(*sweep_case()) == []


def test_sweep_table_rejects_wrong_bleu_and_wrong_t_opt():
    rows, hyps, refs = sweep_case()
    rows[0]["test_greedy_bleu"] = repr(float(rows[0]["test_greedy_bleu"]) + 0.01)
    assert any("brute force" in p for p in checks.check_sweep_table(rows, hyps, refs))
    rows, hyps, refs = sweep_case()
    rows[0]["is_t_opt"], rows[1]["is_t_opt"] = "1", "0"
    assert any("T_opt" in p for p in checks.check_sweep_table(rows, hyps, refs))
    rows, hyps, refs = sweep_case()
    hyps[2.0] = hyps[2.0][:1]
    assert any("references" in p for p in checks.check_sweep_table(rows, hyps, refs))


def test_average_accepts_mean_and_rejects_other_arrays():
    retained = [{"w": RNG.normal(size=(3, 2))} for _ in range(3)]
    mean = {"w": np.mean([c["w"] for c in retained], axis=0)}
    assert checks.check_average(retained, mean) == []
    assert checks.check_average(retained, {"w": retained[-1]["w"]})
    assert checks.check_average([], mean)


def test_benchmark_json_lists_the_metrics_the_command_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_UNITS


@pytest.mark.parametrize("tokens", [(checks.BOS, 5, checks.EOS, 6), (5, 6)])
def test_malformed_hypotheses_are_rejected(tokens):
    assert checks._well_formed(0, tokens, finished=False)
