import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from temperlab import training
from temperlab.data import PAD_ID, encode_pairs, pad_batch
from temperlab.errors import ConfigError, ContractError, DataError, NumericError
from temperlab.tempering import TemperingConfig, smoothed_label_array, tempered_loss
from temperlab.tensor import GradientTape, Tensor, backward, softmax
from temperlab.training import (
    AdamState,
    Checkpoint,
    EvalRecord,
    ExperimentRecord,
    StepRecord,
    TrainerConfig,
    average_checkpoints,
    evaluate_checkpoint,
    global_gradient_norm,
    learning_rate,
    model_from_checkpoint,
    should_stop,
    snapshot,
    train,
    train_step,
)
from tests.conftest import micro_data, micro_model, refusals


# ---------------------------------------------------------------------------
# config and schedule


def test_learning_rate_branches_meet_at_warmup():
    cfg = TrainerConfig(lr_scale=2.0, warmup_steps=400)
    w = cfg.warmup_steps
    assert learning_rate(w, cfg) == pytest.approx(2.0 * w**-0.5, abs=1e-15)
    assert w * w**-1.5 == pytest.approx(w**-0.5, abs=1e-18)  # algebraic identity


def test_learning_rate_rises_then_decays():
    cfg = TrainerConfig(lr_scale=1.0, warmup_steps=100)
    values = [learning_rate(s, cfg) for s in (1, 50, 100, 200, 400)]
    assert values[0] < values[1] < values[2]
    assert values[2] > values[3] > values[4]
    with pytest.raises(ContractError):
        learning_rate(0, cfg)


# ---------------------------------------------------------------------------
# stopping rule


def stopping(history, fires, patience=10, min_delta=0.1):
    """A test that the stopping rule fires on `history`, or does not. Bound
    to a `test_` name, it is collected under that name."""

    def test():
        assert should_stop(history, patience=patience, min_delta=min_delta) == fires

    return test


test_should_stop_flat_history_fires = stopping([10.0] * 10, True)
test_should_stop_within_band_fires = stopping([10.0, 10.05, 10.08, 10.02, 10.09, 10.01, 10.1, 10.03, 10.06, 10.0], True)
test_should_stop_band_exceeded_does_not_fire = stopping([10.0] * 8 + [10.0, 10.2], False)
test_should_stop_short_history_never_fires = stopping([10.0] * 9, False)
# early volatility is irrelevant once the last `patience` scores settle
test_should_stop_only_window_counts = stopping([1.0, 25.0, 3.0] + [11.0] * 10, True)
# a band exactly min_delta wide is within it (all three are exact binary fractions)
test_should_stop_band_of_exactly_min_delta_fires = stopping([30.0, 30.5, 30.25], True, patience=3, min_delta=0.5)


# ---------------------------------------------------------------------------
# checkpoint averaging


def test_average_of_identical_snapshots_is_identity():
    data = micro_data()
    model = micro_model(data)
    cks = [snapshot(model, step=s) for s in (10, 20, 30)]
    avg = average_checkpoints(cks)
    eps = np.finfo(np.float64).eps
    denom = np.maximum(np.abs(model.flat), np.finfo(np.float64).tiny)
    assert np.max(np.abs(avg.flat - model.flat) / denom) <= eps  # within 1 ulp
    assert avg.step == 30


def test_average_of_zero_and_two_is_one():
    base = Checkpoint(flat=np.zeros(4), config=None, step=1)
    other = Checkpoint(flat=np.full(4, 2.0), config=None, step=2)
    avg = average_checkpoints([base, other])
    assert np.array_equal(avg.flat, np.ones(4))


def test_average_permutation_invariant():
    rng = np.random.default_rng(0)
    cks = [
        Checkpoint(flat=rng.uniform(-1, 1, size=16), config=None, step=i)
        for i in range(5)
    ]
    a = average_checkpoints(cks)
    b = average_checkpoints(list(reversed(cks)))
    assert np.max(np.abs(a.flat - b.flat)) <= 1e-15


def test_average_streams_the_mean_of_the_stacked_deltas():
    # the deltas summed one at a time and divided by K are the bytes of
    # np.mean over their stack, which numpy sums row by row; holding two
    # vectors, not the K deltas and their stack
    rng = np.random.default_rng(3)
    cks = [Checkpoint(flat=rng.normal(size=180_548), config=None, step=i) for i in range(10)]
    for k in (1, 2, 3, 5, 10):
        first = cks[0].flat
        want = first + np.mean([ck.flat - first for ck in cks[:k]], axis=0)
        assert average_checkpoints(cks[:k]).flat.tobytes() == want.tobytes(), k
    tracemalloc.start()
    try:
        average_checkpoints(cks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * cks[0].flat.nbytes, peak


# ---------------------------------------------------------------------------
# Adam and the training step


def test_adam_update_equals_per_tensor_reference_bitwise():
    # the plain per-tensor expressions, in their operation order; the
    # in-place update over the flat vector must give the same bits
    rng = np.random.default_rng(4)
    shapes = [(30, 40), (40,), (20, 50), (7,)]
    ref = {f"p{i}": rng.uniform(-1, 1, size=s) for i, s in enumerate(shapes)}
    adam = AdamState({n: Tensor(a, tracked=True) for n, a in ref.items()})
    flat = np.concatenate([a.ravel() for a in ref.values()])
    m = {n: np.zeros_like(a) for n, a in ref.items()}
    v = {n: np.zeros_like(a) for n, a in ref.items()}
    cfg = TrainerConfig(lr_scale=5.0, warmup_steps=2)
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for t in (1, 2, 3):
        grads = {n: rng.normal(scale=10.0 ** rng.integers(-4, 2), size=a.shape) for n, a in ref.items()}
        lr = learning_rate(t, cfg)
        flat = adam.update(flat, np.concatenate([g.ravel() for g in grads.values()]), lr, cfg)
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1.0 - b1) * g
            v[n] = b2 * v[n] + (1.0 - b2) * g * g
            mhat = m[n] / (1.0 - b1**t)
            vhat = v[n] / (1.0 - b2**t)
            ref[n] = ref[n] - lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)
        for got, want in ((flat, ref), (adam.m, m), (adam.v, v)):
            assert got.tobytes() == np.concatenate([a.ravel() for a in want.values()]).tobytes(), t


def test_adam_holds_only_its_moments_between_updates():
    rng = np.random.default_rng(6)
    flat = rng.uniform(-1, 1, size=500)
    adam = AdamState({"p": Tensor(flat, tracked=True)})
    for step in range(3):
        held = [a for a in vars(adam).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in held) == 2 * flat.nbytes, step
        flat = adam.update(flat, rng.normal(size=500), 0.1, TrainerConfig())


def test_adam_update_aliases_nothing():
    # one scratch vector that the update allocates and drops, and the result
    # in a new one: an update writes neither its inputs nor the vector that
    # the previous update returned, and two steps equal the earlier
    # two-scratch expression bitwise
    rng = np.random.default_rng(5)
    flat = rng.uniform(-1, 1, size=500)
    adam = AdamState({"p": Tensor(flat, tracked=True)})
    m, v, want = np.zeros(500), np.zeros(500), flat
    cfg = TrainerConfig()
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    outs = []
    for t in (1, 2):
        grad = rng.normal(size=500)
        args = [flat, grad, *outs]
        before = [a.copy() for a in args]
        flat = adam.update(flat, grad, 0.1 * t, cfg)
        assert all(a.tobytes() == c.tobytes() for a, c in zip(args, before)), t
        assert not any(np.shares_memory(flat, a) for a in args), t
        outs.append(flat)
        a, b = np.empty(500), np.empty(500)
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=a)
        v *= b2
        v += np.multiply(np.multiply(grad, 1.0 - b2, out=a), grad, out=a)
        np.sqrt(np.divide(v, 1.0 - b2**t, out=a), out=a)
        a += cfg.adam_eps
        np.divide(m, 1.0 - b1**t, out=b)
        b *= 0.1 * t
        b /= a
        want = want - b
        for got, ref in ((flat, want), (adam.m, m), (adam.v, v)):
            assert got.tobytes() == ref.tobytes(), t


def test_train_step_leaves_its_input_model_unchanged():
    data = micro_data()
    model = micro_model(data)
    flat = model.flat.copy()
    arrays = {name: p.array.copy() for name, p in model.params.items()}
    batch = pad_batch(encode_pairs(data.train[:4], data.src_vocab, data.tgt_vocab))
    new, _rec = train_step(
        model, batch, TemperingConfig(2.0, True, 0.1), TrainerConfig(), AdamState(model.params),
        step=1, rng=np.random.default_rng(0),
    )
    assert model.flat.tobytes() == flat.tobytes()
    for name, p in model.params.items():
        assert p.array.tobytes() == arrays[name].tobytes(), name
    assert not np.shares_memory(new.flat, model.flat)
    assert new.flat.tobytes() != flat.tobytes()
    for name, p in new.params.items():
        assert np.shares_memory(p.array, new.flat), name
    start = 0
    for p in new.params.values():  # the views tile the vector in layout order
        assert p.array.tobytes() == new.flat[start : start + p.size].tobytes()
        start += p.size
    assert start == new.flat.size


# ---------------------------------------------------------------------------
# gradient norm


def test_global_gradient_norm_matches_concatenation():
    rng = np.random.default_rng(1)
    grads = {f"p{i}": rng.uniform(-1, 1, size=(3, i + 1)) for i in range(4)}
    flat = np.concatenate([g.reshape(-1) for g in grads.values()])
    assert global_gradient_norm(grads) == pytest.approx(float(np.linalg.norm(flat)), abs=1e-10)


def test_recorded_norm_recomputable_from_gradient_dump():
    # replay the step with an identically seeded dropout stream and recompute
    # the norm from the raw gradients
    data = micro_data()
    model = micro_model(data)
    batch = pad_batch(encode_pairs(data.train[:4], data.src_vocab, data.tgt_vocab))
    tempering = TemperingConfig(2.0, True, 0.1)
    trainer = TrainerConfig()
    _new_model, rec = train_step(
        model, batch, tempering, trainer, AdamState(model.params), step=1,
        rng=np.random.default_rng(77),
    )

    with GradientTape() as tape:
        logits = model.forward_teacher_forced(
            batch.source, batch.target_in, train=True, rng=np.random.default_rng(77)
        )
        labels = smoothed_label_array(batch.target_out, model.config.target_vocab, 0.1, PAD_ID)
        loss = tempered_loss(logits, labels, batch.token_count, tempering)
    gmap = backward(tape, loss)
    dump = {name: gmap[p] for name, p in model.params.items()}
    flat = np.concatenate([g.reshape(-1) for g in dump.values()])
    assert rec.grad_norm == pytest.approx(float(np.linalg.norm(flat)), abs=1e-10)


# ---------------------------------------------------------------------------
# loss masking and the logit-gradient identity through a real batch


def test_batched_loss_equals_sum_of_per_sentence_losses():
    data = micro_data()
    model = micro_model(data)
    tempering = TemperingConfig(temperature=2.0, rescale_loss=True, label_smoothing=0.1)
    encoded = encode_pairs(data.train[:4], data.src_vocab, data.tgt_vocab)
    batch = pad_batch(encoded)
    v = model.config.target_vocab

    logits = model.forward_teacher_forced(batch.source, batch.target_in)
    labels = smoothed_label_array(batch.target_out, v, 0.1, PAD_ID)
    batched_total = tempered_loss(logits, labels, batch.token_count, tempering).item() * batch.token_count

    singles_total = 0.0
    for pair in encoded:
        single = pad_batch([pair])
        lg = model.forward_teacher_forced(single.source, single.target_in)
        lab = smoothed_label_array(single.target_out, v, 0.1, PAD_ID)
        singles_total += tempered_loss(lg, lab, single.token_count, tempering).item() * single.token_count
    assert batched_total == pytest.approx(singles_total, abs=1e-10)


def test_step_gradient_at_logits_is_ptemp_minus_label():
    data = micro_data()
    model = micro_model(data)
    tempering = TemperingConfig(temperature=4.0, rescale_loss=True, label_smoothing=0.1)
    batch = pad_batch(encode_pairs(data.train[:3], data.src_vocab, data.tgt_vocab))
    labels = smoothed_label_array(batch.target_out, model.config.target_vocab, 0.1, PAD_ID)

    with GradientTape() as tape:
        logits = model.forward_teacher_forced(batch.source, batch.target_in)
        loss = tempered_loss(logits, labels, batch.token_count, tempering)
    g = backward(tape, loss)[logits]

    expected = (softmax(logits.array / 4.0) - labels) / batch.token_count
    expected[batch.target_out == PAD_ID] = 0.0
    assert np.max(np.abs(g - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# train loop behaviour


def test_training_is_bit_reproducible():
    data = micro_data()
    trainer = TrainerConfig(
        lr_scale=0.05, warmup_steps=20, batch_size=8, eval_interval=10, max_steps=25, seed=13
    )
    tempering = TemperingConfig(1.0, True, 0.1)
    res1 = train(micro_model(data, seed=4), data, tempering, trainer)
    res2 = train(micro_model(data, seed=4), data, tempering, trainer)
    losses1 = [s.loss for s in res1.record.steps]
    losses2 = [s.loss for s in res2.record.steps]
    assert losses1 == losses2
    for name in res1.model.params:
        assert np.array_equal(res1.model.params[name].array, res2.model.params[name].array)
    bleus1 = [e.dev_bleu for e in res1.record.evals]
    bleus2 = [e.dev_bleu for e in res2.record.evals]
    assert bleus1 == bleus2


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
READ_THREADS = "from temperlab import blas; print(blas.describe()['threads'])"


def run_python(code: str, threads=None) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter with RuntimeWarnings as errors, the
    thread variables unset or all set to `threads`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(dict.fromkeys(THREAD_VARS, threads) if threads else {})
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code], env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "imports, threads",
    [("numpy, temperlab", None), ("temperlab, numpy", None), ("numpy, temperlab", "1")],
)
def test_thread_pin_holds_whatever_the_import_order(imports, threads):
    proc = run_python(f"import {imports}; {READ_THREADS}", threads)
    assert proc.returncode == 0, proc.stderr  # no warning either
    assert proc.stdout.split() == ["1"]


def test_thread_pin_warns_for_a_blas_it_cannot_find():
    hide = "import glob, numpy; glob.glob = lambda pattern: []"  # no bundled OpenBLAS in sight
    proc = run_python(f"{hide}; import temperlab")
    assert proc.returncode != 0
    assert "RuntimeWarning" in proc.stderr and "README, Reproducibility" in proc.stderr


def test_record_structure_and_monotone_steps():
    data = micro_data()
    trainer = TrainerConfig(
        lr_scale=0.05, warmup_steps=20, batch_size=8, eval_interval=7, max_steps=20, seed=1
    )
    res = train(micro_model(data), data, TemperingConfig(1.0, True, 0.1), trainer)
    steps = [s.step for s in res.record.steps]
    assert steps == sorted(set(steps))
    assert len(res.record.steps) == 20
    assert [e.step for e in res.record.evals] == [7, 14]
    vocab = len(data.tgt_vocab)
    for s in res.record.steps:
        assert 0.0 <= s.tempered_entropy <= np.log(vocab) + 1e-9
        assert 0.0 <= s.raw_entropy <= np.log(vocab) + 1e-9
        assert s.grad_norm >= 0.0


def test_early_stopping_halts_within_one_interval(monkeypatch):
    # dev BLEU is scripted, so the evaluation at which the rule (patience 3,
    # min_delta 0.5) fires is known whatever the trained parameters are; 16
    # steps at batch 8 span four epochs of micro_data's 40 pairs
    data = micro_data()
    trainer = TrainerConfig(
        lr_scale=0.05, warmup_steps=10, batch_size=8, eval_interval=2, patience=3, min_delta=0.5, max_steps=16, seed=3
    )
    for scores, fired_at in (
        ([10.0, 20.0, 30.0, 30.5, 30.25, 50.0, 50.0, 50.0], 4),  # the window at eval 4 spans exactly 0.5
        ([10.0, 20.0] * 4, None),  # never settles, so it runs to max_steps
    ):
        monkeypatch.setattr(training, "evaluate_checkpoint", lambda *args, bleus=iter(scores): next(bleus))
        res = train(micro_model(data), data, TemperingConfig(1.0, True, 0.0), trainer)
        last = 16 if fired_at is None else 2 * (fired_at + 1)
        assert [s.step for s in res.record.steps] == list(range(1, last + 1)), scores
        assert [e.dev_bleu for e in res.record.evals] == scores[: last // 2], scores


def test_checkpoint_ring_keeps_last_k(tmp_path):
    data = micro_data()
    trainer = TrainerConfig(
        lr_scale=0.05, warmup_steps=10, batch_size=8, eval_interval=5, max_steps=40,
        checkpoint_keep=3, seed=2,
    )
    res = train(micro_model(data), data, TemperingConfig(1.0, True, 0.1), trainer, tmp_path)
    assert [c.step for c in res.checkpoints] == [30, 35, 40]
    # the directory holds the same window, not every snapshot
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["step000030.npz", "step000035.npz", "step000040.npz"]


def test_evaluate_checkpoint_untrained_is_noise():
    data = micro_data()
    model = micro_model(data)
    bleu = evaluate_checkpoint(model, data, "dev")
    assert bleu < 5.0


def test_evaluate_checkpoint_deterministic(trained_copy):
    result, data = trained_copy
    assert evaluate_checkpoint(result.model, data, "dev") == evaluate_checkpoint(
        result.model, data, "dev"
    )


def test_trained_model_reaches_high_dev_bleu(trained_copy):
    result, data = trained_copy
    assert evaluate_checkpoint(result.model, data, "dev") >= 99.0


def test_snapshot_roundtrip_forward_identical(trained_copy):
    result, data = trained_copy
    ck = snapshot(result.model, step=1)
    clone = model_from_checkpoint(ck)
    src = data.src_vocab.encode(data.dev[0][0]).reshape(1, -1)
    tgt = np.array([[1, 4, 5]])
    assert np.array_equal(
        clone.forward_teacher_forced(src, tgt).array,
        result.model.forward_teacher_forced(src, tgt).array,
    )


def test_record_jsonl_roundtrip(tmp_path):
    rec = ExperimentRecord(
        steps=[StepRecord(1, 2.0, 1.5, 1.4, 0.3, 0.01), StepRecord(2, 1.9, 1.4, 1.2, 0.4, 0.01)],
        evals=[EvalRecord(2, 55.5, "step000002")],
    )
    path = tmp_path / "rec.jsonl"
    rec.save_jsonl(path)
    loaded = ExperimentRecord.load_jsonl(path)
    assert loaded == rec


# ---------------------------------------------------------------------------
# refusals


def poisoned_step():
    """A training step whose forward overflows: one parameter is poisoned."""
    data = micro_data()
    model = micro_model(data)
    model.params["src_embed"].array[:] = 1e200
    batch = pad_batch(encode_pairs(data.train[:2], data.src_vocab, data.tgt_vocab), index=17)
    with np.errstate(over="ignore", invalid="ignore"):
        train_step(
            model, batch, TemperingConfig(1.0, True, 0.1), TrainerConfig(),
            AdamState(model.params), step=9, rng=np.random.default_rng(0),
        )


def train_without(split):
    """`train` on `micro_data()` with `split` emptied."""
    data = dataclasses.replace(micro_data(), **{split: []})
    return lambda: train(micro_model(data), data, TemperingConfig(), TrainerConfig(max_steps=3, eval_interval=2))


test_trainer_config_validation = refusals(
    (lambda: TrainerConfig(eval_interval=0), ConfigError, ""),
    (lambda: TrainerConfig(patience=0), ConfigError, ""),
    (lambda: TrainerConfig(min_delta=-0.5), ConfigError, ""),
    (lambda: TrainerConfig(lr_scale=0.0), ConfigError, ""),
)
test_average_shape_mismatch_rejected = refusals(
    (lambda: average_checkpoints([Checkpoint(np.zeros(3), None, 1), Checkpoint(np.zeros(4), None, 2)]),
     ContractError, ""),
    (lambda: average_checkpoints([]), ContractError, ""),
)
test_non_finite_forward_aborts_with_context = refusals((poisoned_step, NumericError, "step 9 batch 17"))
test_train_refuses_an_empty_split = refusals(
    (train_without("train"), DataError, "the train split is empty"),
    (train_without("dev"), DataError, "the dev split is empty"),
)
