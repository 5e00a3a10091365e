"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
Criteria 6-9 share a cached 12-run training campaign (see campaign.py);
the first run takes around twenty minutes on one CPU core, later runs
reuse the cache.
"""

import time

import numpy as np
import pytest

from temperlab.data import BOS_ID, EOS_ID
from temperlab.decoding import BeamConfig, beam_decode, greedy_decode
from temperlab.metrics import corpus_bleu
from temperlab.model import ModelConfig, init_parameters, parameter_count
from temperlab.tempering import (
    LabelDistribution,
    TemperingConfig,
    analytic_logit_gradient,
    shannon_entropy,
    tempered_cross_entropy,
    tempered_softmax,
    smoothed_label_array,
    tempered_loss,
)
from temperlab.tensor import Tensor
from temperlab.training import (
    TrainerConfig,
    average_checkpoints,
    should_stop,
    snapshot,
    tail_grad_norm,
    train,
)

from tests import campaign
from tests.conftest import micro_data, micro_model
from tests.reference import (
    TableModel,
    enumerate_best,
    finite_difference_gradient,
    oracle_bleu,
    parameter_gradient_error,
    random_corpus,
    random_table,
    reference_smoothed_ce,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def campaign_runs():
    return campaign.run_campaign()


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_exact = 0.0
    worst_fd = 0.0
    for case in range(1000):
        v = 8 if case % 2 == 0 else 64
        logits = rng.uniform(-4.0, 4.0, size=v)
        temperature = float(rng.uniform(1.0, 10.0))
        eps = 0.0 if case % 4 < 2 else 0.1
        target = int(rng.integers(v))
        cfg = TemperingConfig(temperature=temperature, rescale_loss=True, label_smoothing=eps)
        label = LabelDistribution(target, v, eps)

        # the scalar API is a one-row tempered_loss, so `grad` is the tape's
        grad = analytic_logit_gradient(logits, label, cfg)
        identity = tempered_softmax(logits, temperature) - label.vector()
        worst_exact = max(worst_exact, float(np.max(np.abs(grad - identity))))

        fd = finite_difference_gradient(
            lambda t: tempered_cross_entropy(t.array, label, cfg), Tensor(logits), h=1e-5
        ).array
        # gradient-vector relative error: single components cross zero (where
        # p_i equals the smoothing mass), making per-component ratios undefined
        rel = float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
        worst_fd = max(worst_fd, rel)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "gradient identity and finite differences",
        worst_exact <= 1e-12 and worst_fd < 1e-6 and elapsed < 60.0,
        f"max identity err {worst_exact:.2e}, max fd rel err {worst_fd:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_t1_reduction():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(500):
        v = int(rng.integers(2, 40))
        logits = rng.uniform(-6, 6, size=v)
        eps = float(rng.choice([0.0, 0.1, 0.3]))
        target = int(rng.integers(v))
        cfg = TemperingConfig(temperature=1.0, rescale_loss=True, label_smoothing=eps)
        ours = tempered_cross_entropy(logits, LabelDistribution(target, v, eps), cfg)
        worst = max(worst, abs(ours - reference_smoothed_ce(logits, target, eps)))
    report(2, "T=1 reduces to standard smoothed cross-entropy", worst <= 1e-12, f"max abs err {worst:.2e}")


def test_criterion_03_entropy_monotonicity_and_argmax():
    rng = np.random.default_rng(1003)
    grid = (1.0, 2.0, 3.0, 5.0, 10.0)
    monotone = True
    argmax_ok = True
    for case in range(1000):
        v = 8 if case % 2 == 0 else 64
        logits = rng.uniform(-4, 4, size=v)
        ents = []
        base_argmax = int(np.argmax(logits))
        for t in grid:
            p = tempered_softmax(logits, t)
            ents.append(shannon_entropy(p))
            argmax_ok &= int(np.argmax(p)) == base_argmax
        monotone &= all(b > a for a, b in zip(ents, ents[1:]))
    report(3, "entropy strictly increasing in T, argmax invariant", monotone and argmax_ok)


def test_criterion_04_end_to_end_autodiff():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    cfg = ModelConfig(
        source_vocab=12, target_vocab=12, num_layers=2, model_dim=32, num_heads=4,
        ff_dim=64, max_positions=12,
    ).without_dropout()
    model = init_parameters(cfg, seed=7)
    src = rng.integers(4, 12, size=(3, 6))
    tgt_in = rng.integers(4, 12, size=(3, 7))
    tgt_in[:, 0] = BOS_ID
    tgt_out = np.roll(tgt_in, -1, axis=1)
    tgt_out[:, -1] = EOS_ID
    tempering = TemperingConfig(temperature=2.0, rescale_loss=True, label_smoothing=0.1)
    labels = smoothed_label_array(tgt_out, 12, 0.1)
    n_tok = tgt_out.size

    def loss_of():
        return tempered_loss(model.forward_teacher_forced(src, tgt_in), labels, n_tok, tempering)

    names = list(model.params)
    picks = []
    for _ in range(20):
        name = names[int(rng.integers(len(names)))]
        picks.append((name, int(rng.integers(model.params[name].size))))
    # floor 1e-6: attention key biases have structurally zero gradients
    # (softmax shift invariance), where only absolute accuracy is defined
    worst = parameter_gradient_error(model, loss_of, picks, h=1e-5, floor=1e-6)
    elapsed = time.perf_counter() - t0
    report(
        4,
        "full-model gradients match finite differences",
        worst < 1e-3 and elapsed < 300.0,
        f"max rel err {worst:.2e} over 20 sampled parameters, {elapsed:.1f}s",
    )


def test_criterion_05_decoding_correctness(trained_copy):
    result, data = trained_copy
    greedy_ok = True
    for src_tokens, _ in data.dev[:10]:
        src = data.src_vocab.encode(src_tokens)
        g = greedy_decode(result.model, src, data.decode_max_length)
        b = beam_decode(result.model, src, BeamConfig(1, 0.0, data.decode_max_length))
        greedy_ok &= g.tokens == b[0].tokens

    oracle_ok = True
    for seed in range(25):
        table = random_table(seed, vocab=5)
        best = enumerate_best(table, alpha=1.0, max_length=4)
        beam = beam_decode(TableModel(table), [4], BeamConfig(32, 1.0, 4))
        oracle_ok &= beam[0].tokens == best[0][2] and abs(beam[0].score - best[0][0]) <= 1e-12
    report(
        5,
        "beam-1 equals greedy; wide beam matches exhaustive enumeration",
        greedy_ok and oracle_ok,
    )


def test_criterion_06_entropy_views_after_training(campaign_runs):
    seed = campaign.SEEDS[0]
    temps = (1.0, 2.0, 5.0)
    raw = [campaign_runs[(t, seed)].raw_entropy for t in temps]
    tempered = [campaign_runs[(t, seed)].tempered_entropy for t in temps]
    decreasing = all(b < a for a, b in zip(raw, raw[1:]))
    spread_ok = (max(tempered) - min(tempered)) < (max(raw) - min(raw))
    budget = sum(campaign_runs[(t, seed)].train_wall_s for t in temps)
    report(
        6,
        "raw-view entropy decreases with training temperature",
        decreasing and spread_ok and budget < 1800.0,
        f"raw {['%.3f' % r for r in raw]}, tempered spread {max(tempered) - min(tempered):.3f}, "
        f"training {budget:.0f}s",
    )


def test_criterion_07_gradient_norms(campaign_runs):
    seed = campaign.SEEDS[0]
    hot = campaign_runs[(5.0, seed)]
    base = campaign_runs[(1.0, seed)]

    ratio = tail_grad_norm(hot.grad_norms) / tail_grad_norm(base.grad_norms)
    report(
        7,
        "late-training gradient norms grow with temperature",
        ratio > 1.5,
        f"T=5 vs T=1 final-quarter mean ratio {ratio:.2f}",
    )


def test_criterion_08_similarity_trend(campaign_runs):
    temps = (1.0, 2.0, 3.0, 5.0)
    good_seeds = 0
    details = []
    for seed in campaign.SEEDS:
        sims = [campaign_runs[(t, seed)].similarity_bleu for t in temps]
        ok = all(b >= a for a, b in zip(sims, sims[1:]))
        good_seeds += ok
        details.append(f"seed {seed}: " + "->".join(f"{s:.1f}" for s in sims) + (" ok" if ok else " X"))
    report(
        8,
        "greedy-beam similarity non-decreasing in T (seed majority)",
        good_seeds >= 2,
        "; ".join(details),
    )


def test_criterion_09_tempered_beats_baseline(campaign_runs):
    tempered_grid = (2.0, 3.0, 5.0)
    wins = 0
    gaps_base = []
    gaps_temp = []
    details = []
    for seed in campaign.SEEDS:
        t_opt = max(tempered_grid, key=lambda t: campaign_runs[(t, seed)].dev_bleu)
        chosen = campaign_runs[(t_opt, seed)]
        base = campaign_runs[(1.0, seed)]
        wins += chosen.test_greedy_bleu >= base.test_greedy_bleu
        gaps_base.append(base.test_beam4_bleu - base.test_greedy_bleu)
        gaps_temp.append(chosen.test_beam4_bleu - chosen.test_greedy_bleu)
        details.append(
            f"seed {seed}: T_opt={t_opt:g} test {chosen.test_greedy_bleu:.2f} vs {base.test_greedy_bleu:.2f}"
        )
    gap_shrinks = float(np.mean(gaps_temp)) < float(np.mean(gaps_base))
    report(
        9,
        "dev-selected temperature beats baseline on test; greedy-beam gap shrinks",
        wins >= 2 and gap_shrinks,
        f"wins {wins}/3, mean gap {np.mean(gaps_temp):.2f} vs baseline {np.mean(gaps_base):.2f}; "
        + "; ".join(details),
    )


def test_criterion_10_decoding_speed(campaign_runs):
    from temperlab.experiments import build_task_data, time_decoding

    run = campaign_runs[(1.0, campaign.SEEDS[0])]
    model = campaign.load_campaign_model(run)
    data = build_task_data(campaign.CONFIG)
    sources = [data.src_vocab.encode(s) for s, _ in data.test]
    assert len(sources) == 200
    rows = time_decoding(model, sources, data.decode_max_length)
    by_mode = {r["mode"]: r for r in rows}
    r4 = by_mode["beam4"]["slowdown_vs_greedy"]
    r10 = by_mode["beam10"]["slowdown_vs_greedy"]
    report(
        10,
        "greedy decodes faster than beam",
        r4 >= 1.3 and r10 >= 2.0,
        f"beam-4 {r4:.2f}x, beam-10 {r10:.2f}x slower than greedy "
        f"(greedy {by_mode['greedy']['median_wall_s']:.1f}s median over 200 sentences)",
    )


def test_criterion_11_bleu_correctness():
    rng = np.random.default_rng(1011)
    exact = True
    for _ in range(100):
        n = int(rng.integers(1, 10))
        hyps = random_corpus(rng, n, vocab=5, max_len=8)
        refs = random_corpus(rng, n, vocab=5, max_len=8)
        exact &= corpus_bleu(hyps, refs) == oracle_bleu(hyps, refs)
    identity = corpus_bleu([("a", "b", "c")], [("a", "b", "c")]) == 100.0
    hand = corpus_bleu([("the", "cat", "sat")], [("the", "cat", "sat", "down")])
    hand_ok = abs(hand - 71.65) <= 0.01
    report(
        11,
        "corpus BLEU matches brute-force oracle",
        exact and identity and hand_ok,
        f"hand example {hand:.4f}",
    )


def test_criterion_12_protocol_fidelity():
    stop_ok = (
        should_stop([10.0] * 10, 10, 0.1)
        and should_stop([10.0, 10.05, 10.08, 10.02, 10.09, 10.01, 10.1, 10.03, 10.06, 10.0], 10, 0.1)
        and not should_stop([10.0] * 8 + [10.0, 10.2], 10, 0.1)
        and not should_stop([10.0] * 9, 10, 0.1)
    )

    data = micro_data()
    model = micro_model(data)
    cks = [snapshot(model, step=s) for s in range(10, 110, 10)]
    avg = average_checkpoints(cks)
    eps = np.finfo(np.float64).eps
    avg_ok = (
        np.max(np.abs(avg.flat - model.flat) / np.maximum(np.abs(model.flat), np.finfo(np.float64).tiny))
        <= eps
    )

    trainer = TrainerConfig(
        lr_scale=0.05, warmup_steps=10, batch_size=8, eval_interval=10, max_steps=20, seed=5
    )
    tempering = TemperingConfig(1.0, True, 0.1)
    r1 = train(micro_model(data, seed=2), data, tempering, trainer)
    r2 = train(micro_model(data, seed=2), data, tempering, trainer)
    repro_ok = [s.loss for s in r1.record.steps] == [s.loss for s in r2.record.steps] and all(
        np.array_equal(r1.model.params[n].array, r2.model.params[n].array) for n in r1.model.params
    )
    report(
        12,
        "stopping rule, checkpoint averaging, bit-reproducibility",
        stop_ok and avg_ok and repro_ok,
    )


def test_criterion_13_recurrent_stacking():
    desk = dict(model_dim=64, num_heads=4, ff_dim=128, source_vocab=68, target_vocab=68)
    dense4 = init_parameters(ModelConfig(num_layers=4, **desk), seed=0)
    shared4 = init_parameters(ModelConfig(num_layers=4, recurrent_stacking=True, **desk), seed=0)
    ratio = parameter_count(shared4) / parameter_count(dense4)

    dense1 = init_parameters(ModelConfig(num_layers=1, **desk), seed=4)
    shared1 = init_parameters(ModelConfig(num_layers=1, recurrent_stacking=True, **desk), seed=4)
    rng = np.random.default_rng(0)
    src = rng.integers(4, 68, size=(2, 6))
    tgt = rng.integers(4, 68, size=(2, 5))
    tgt[:, 0] = BOS_ID
    diff = np.max(
        np.abs(
            dense1.forward_teacher_forced(src, tgt).array
            - shared1.forward_teacher_forced(src, tgt).array
        )
    )
    report(
        13,
        "recurrent stacking shrinks the model and matches at depth 1",
        ratio < 0.55 and diff <= 1e-12,
        f"shared/dense parameter ratio {ratio:.3f}, depth-1 max diff {diff:.1e}",
    )


def test_campaign_cache_is_reproduced_by_the_current_code(campaign_runs):
    # criteria 6-9 read the cached campaign, whose key covers the
    # configuration and the numeric environment but not the code; a change
    # that moves training or decoding bits must fail here, not pass against
    # stale numbers (bump campaign.CAMPAIGN_VERSION and rebuild instead)
    from temperlab.experiments import build_task_data

    run = campaign_runs[(2.0, 0)]
    data = build_task_data(campaign.CONFIG)
    assert campaign._retrain_diffs(run, data) == []
    model = campaign.load_campaign_model(run)
    assert campaign.greedy_test_outputs(model, data)[1] == run.test_greedy_bleu
    assert campaign.beam4_test_bleu(model, data)[1] == run.test_beam4_bleu
