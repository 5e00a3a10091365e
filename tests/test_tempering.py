import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import temperlab.tensor as tt
from temperlab.errors import ConfigError, ContractError
from temperlab.tempering import (
    LabelDistribution,
    TemperingConfig,
    analytic_logit_gradient,
    entropy_views,
    shannon_entropy,
    smoothed_label_array,
    tempered_cross_entropy,
    tempered_loss,
    tempered_softmax,
)
from temperlab.tensor import GradientTape, Tensor, backward
from tests.conftest import refusals
from tests.reference import finite_difference_gradient, reference_smoothed_ce, reference_tempered_ce

finite_logits = st.lists(
    st.floats(min_value=-8, max_value=8), min_size=2, max_size=12
).map(np.array)


# ---------------------------------------------------------------------------
# configs and labels


def test_label_distribution_sums_to_one():
    lab = LabelDistribution(target_id=2, vocab_size=9, smoothing=0.1)
    vec = lab.vector()
    assert abs(vec.sum() - 1.0) <= 1e-12
    assert np.all(vec >= 0.0)
    assert vec[2] == pytest.approx(0.9)
    assert vec[0] == pytest.approx(0.1 / 8)


def test_label_distribution_zero_smoothing_is_one_hot():
    vec = LabelDistribution(target_id=1, vocab_size=4, smoothing=0.0).vector()
    assert np.array_equal(vec, [0.0, 1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# tempered softmax


def test_tempered_softmax_closed_form():
    out = tempered_softmax(np.array([2.0, 0.0]), 2.0)
    e = np.e
    assert out[0] == pytest.approx(e / (e + 1.0), abs=1e-12)
    assert out[0] == pytest.approx(0.731059, abs=1e-6)


def test_tempered_softmax_uniform_logits_any_temperature():
    for t in (0.5, 1.0, 7.3):
        out = tempered_softmax(np.zeros(8), t)
        assert np.allclose(out, 0.125, atol=1e-15)


def test_higher_temperature_raises_entropy():
    d = np.array([2.0, 0.0])
    assert shannon_entropy(tempered_softmax(d, 10.0)) > shannon_entropy(tempered_softmax(d, 1.0))


@settings(max_examples=60, deadline=None)
@given(finite_logits, st.floats(min_value=0.1, max_value=20.0))
def test_argmax_invariance(logits, temperature):
    # an entry within float spacing of the max collapses onto it once the max
    # is subtracted (see the near-tie test below); require every entry below
    # the max to be resolvably below it
    below = logits[logits < logits.max()]
    assume(below.size == 0 or logits.max() - below.max() > 1e-9)
    p = tempered_softmax(logits, temperature)
    assert int(np.argmax(p)) == int(np.argmax(logits))


@pytest.mark.parametrize("temperature", [0.5, 1.0, 7.0])
def test_argmax_of_near_tie_within_float_spacing(temperature):
    # found by Hypothesis: x - max rounds exp(-1.64e-256 / T) to 1, so the
    # softmax is uniform and its argmax is index 0, not the logits' index 1;
    # float64 only promises an index whose logit is within spacing of the max
    logits = np.array([-1.64e-256, 0.0, 0.0])
    p = tempered_softmax(logits, temperature)
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    k = int(np.argmax(p))
    assert logits.max() - logits[k] <= temperature * np.finfo(np.float64).eps


@settings(max_examples=40, deadline=None)
@given(finite_logits)
def test_entropy_strictly_increasing_in_temperature(logits):
    # needs a resolvable spread: for near-constant logits the entropy change
    # across temperatures falls below float resolution
    assume(logits.max() - logits.min() > 1e-3)
    grid = [1.0, 2.0, 3.0, 5.0, 10.0]
    ents = [shannon_entropy(tempered_softmax(logits, t)) for t in grid]
    assert all(b > a for a, b in zip(ents, ents[1:]))


# ---------------------------------------------------------------------------
# tempered cross entropy


def test_uniform_logits_loss_is_t_log_v():
    cfg = TemperingConfig(temperature=2.0, rescale_loss=True, label_smoothing=0.0)
    loss = tempered_cross_entropy(np.zeros(8), LabelDistribution(0, 8, 0.0), cfg)
    assert loss == pytest.approx(2.0 * np.log(8.0), abs=1e-12)
    assert loss == pytest.approx(4.158883, abs=1e-6)


def test_confident_correct_prediction_tiny_loss():
    cfg = TemperingConfig(temperature=1.0, rescale_loss=True, label_smoothing=0.0)
    loss = tempered_cross_entropy(np.array([10.0, -10.0]), LabelDistribution(0, 2, 0.0), cfg)
    # -log sigmoid(20) = log(1 + e^-20)
    assert loss == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-9)
    assert loss == pytest.approx(2.06e-9, rel=1e-2)


def test_rescaling_multiplies_loss_by_temperature(rng):
    logits = rng.uniform(-3, 3, size=11)
    lab = LabelDistribution(4, 11, 0.1)
    on = tempered_cross_entropy(logits, lab, TemperingConfig(2.0, True, 0.1))
    off = tempered_cross_entropy(logits, lab, TemperingConfig(2.0, False, 0.1))
    assert on == 2.0 * off


@settings(max_examples=60, deadline=None)
@given(finite_logits, st.sampled_from([0.0, 0.1]), st.booleans())
def test_t1_matches_standard_smoothed_cross_entropy(logits, eps, rescale):
    target = int(np.argmin(logits))  # any valid index
    cfg = TemperingConfig(temperature=1.0, rescale_loss=rescale, label_smoothing=eps)
    ours = tempered_cross_entropy(logits, LabelDistribution(target, len(logits), eps), cfg)
    assert ours == pytest.approx(reference_smoothed_ce(logits, target, eps), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(finite_logits, st.floats(min_value=0.5, max_value=10.0))
def test_loss_non_negative(logits, temperature):
    cfg = TemperingConfig(temperature=temperature, rescale_loss=True, label_smoothing=0.1)
    loss = tempered_cross_entropy(logits, LabelDistribution(0, len(logits), 0.1), cfg)
    assert loss >= 0.0


# ---------------------------------------------------------------------------
# analytic gradient


def test_gradient_t1_one_hot_is_softmax_minus_onehot(rng):
    logits = rng.uniform(-2, 2, size=7)
    lab = LabelDistribution(3, 7, 0.0)
    grad = analytic_logit_gradient(logits, lab, TemperingConfig(1.0, True, 0.0))
    expected = tempered_softmax(logits, 1.0) - lab.vector()
    assert np.allclose(grad, expected, atol=1e-15)


def test_gradient_sums_to_zero_with_rescaling(rng):
    for _ in range(20):
        logits = rng.uniform(-4, 4, size=16)
        lab = LabelDistribution(int(rng.integers(16)), 16, 0.1)
        cfg = TemperingConfig(float(rng.uniform(1, 10)), True, 0.1)
        assert abs(analytic_logit_gradient(logits, lab, cfg).sum()) <= 1e-12


def test_gradient_matches_finite_differences_of_loss(rng):
    logits = rng.uniform(-3, 3, size=16)
    lab = LabelDistribution(5, 16, 0.1)
    cfg = TemperingConfig(temperature=3.0, rescale_loss=True, label_smoothing=0.1)
    grad = analytic_logit_gradient(logits, lab, cfg)

    fd = finite_difference_gradient(
        lambda t: tempered_cross_entropy(t.array, lab, cfg), Tensor(logits), h=1e-5
    )
    rel = np.abs(grad - fd.array) / np.maximum(np.abs(fd.array), 1e-8)
    assert rel.max() < 1e-6


def test_gradient_without_rescaling_is_scaled_down(rng):
    logits = rng.uniform(-3, 3, size=8)
    lab = LabelDistribution(2, 8, 0.0)
    g_on = analytic_logit_gradient(logits, lab, TemperingConfig(4.0, True, 0.0))
    g_off = analytic_logit_gradient(logits, lab, TemperingConfig(4.0, False, 0.0))
    assert np.allclose(g_on, 4.0 * g_off, atol=1e-15)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform_and_onehot():
    assert shannon_entropy(np.full(8, 0.125)) == pytest.approx(np.log(8.0), abs=1e-12)
    assert shannon_entropy(np.array([0.0, 1.0, 0.0])) == 0.0


def test_entropy_frozen_example():
    assert shannon_entropy(np.array([0.731059, 0.268941])) == pytest.approx(0.582203, abs=1e-6)


def test_entropy_bounds(rng):
    for _ in range(20):
        p = rng.dirichlet(np.ones(10))
        h = shannon_entropy(p)
        assert 0.0 <= h <= np.log(10.0) + 1e-12


# ---------------------------------------------------------------------------
# batched helpers


def test_smoothed_label_array_pads_are_zero():
    ids = np.array([[4, 5, 0], [6, 0, 0]])
    labels = smoothed_label_array(ids, vocab_size=8, smoothing=0.1, pad_id=0)
    assert labels.shape == (2, 3, 8)
    assert np.allclose(labels[0, 2], 0.0)
    assert np.allclose(labels[1, 1:], 0.0)
    assert labels[0, 0].sum() == pytest.approx(1.0, abs=1e-12)
    assert labels[0, 0, 4] == pytest.approx(0.9)


def test_tempered_loss_gradient_is_ptemp_minus_label_over_tokens(rng):
    # logit-level identity lifted through the per-token mean
    logits_arr = rng.uniform(-2, 2, size=(2, 3, 8))
    ids = np.array([[4, 5, 0], [6, 7, 2]])
    cfg = TemperingConfig(temperature=5.0, rescale_loss=True, label_smoothing=0.1)
    labels = smoothed_label_array(ids, 8, cfg.label_smoothing, pad_id=0)
    n_tokens = int((ids != 0).sum())

    logits = Tensor(logits_arr, tracked=True)
    with GradientTape() as tape:
        loss = tempered_loss(logits, labels, n_tokens, cfg)
    g = backward(tape, loss)[logits]

    expected = (tempered_softmax(logits_arr, cfg.temperature) - labels) / n_tokens
    # pad rows have all-zero labels, so no gradient flows through them at all
    pad = np.asarray(ids == 0)
    expected[pad] = 0.0
    assert np.max(np.abs(g - expected)) <= 1e-12


def test_tempered_loss_matches_vector_form(rng):
    # the scalar loss is a one-row tempered_loss, so compare both with the
    # independent numpy oracle rather than with each other
    logits_arr = rng.uniform(-2, 2, size=(2, 2, 6))
    ids = np.array([[4, 5], [3, 0]])  # the last position is padding
    cfg = TemperingConfig(temperature=2.0, rescale_loss=True, label_smoothing=0.1)
    labels = smoothed_label_array(ids, 6, cfg.label_smoothing, pad_id=0)
    loss = tempered_loss(Tensor(logits_arr), labels, 3, cfg).item()
    kept = [(0, 0), (0, 1), (1, 0)]
    expected = np.mean([reference_tempered_ce(logits_arr[k], ids[k], 0.1, 2.0) for k in kept])
    assert loss == pytest.approx(expected, abs=1e-12)
    # in the scalar API target id 0 is a token like any other, not padding
    row = logits_arr[1, 1]
    ours = tempered_cross_entropy(row, LabelDistribution(0, 6, 0.1), cfg)
    assert ours == pytest.approx(reference_tempered_ce(row, 0, 0.1, 2.0), abs=1e-12)


def test_entropy_views_agree_with_scalar_entropy(rng):
    logits = rng.uniform(-3, 3, size=(2, 2, 5))
    mask = np.array([[True, False], [True, True]])
    t_h, r_h = entropy_views(logits, mask, temperature=2.0)
    rows = logits[mask]
    expected_t = np.mean([shannon_entropy(tempered_softmax(r, 2.0)) for r in rows])
    expected_r = np.mean([shannon_entropy(tempered_softmax(r, 1.0)) for r in rows])
    assert t_h == pytest.approx(expected_t, abs=1e-12)
    assert r_h == pytest.approx(expected_r, abs=1e-12)
    # masked positions carry zero weight
    assert entropy_views(logits, mask, 2.0) != entropy_views(logits, np.ones_like(mask), 2.0)
    # one shift, exp and row sum per view: the floats of the softmax pair
    for h, z in ((t_h, rows / 2.0), (r_h, rows)):
        assert h == float((-(tt.softmax(z) * tt.log_softmax(z)).sum(axis=-1)).mean())


# ---------------------------------------------------------------------------
# refusals

test_config_validation = refusals(
    (lambda: TemperingConfig(temperature=0.0), ConfigError, ""),
    (lambda: TemperingConfig(temperature=-2.0), ConfigError, ""),
    (lambda: TemperingConfig(label_smoothing=1.0), ConfigError, ""),
)
test_label_distribution_target_range = refusals(
    (lambda: LabelDistribution(target_id=5, vocab_size=5), ContractError, ""),
)
test_tempered_softmax_rejects_bad_temperature = refusals(
    (lambda: tempered_softmax(np.array([1.0, 2.0]), 0.0), ConfigError, ""),
)
test_length_mismatch_rejected = refusals(
    (lambda: tempered_cross_entropy(np.zeros(5), LabelDistribution(0, 6, 0.0), TemperingConfig()), ContractError, ""),
)
test_entropy_rejects_non_distribution = refusals((lambda: shannon_entropy(np.array([0.5, 0.6])), ContractError, ""))
