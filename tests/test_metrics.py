import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temperlab.errors import ContractError
from temperlab.metrics import (
    corpus_bleu,
    output_similarity_bleu,
    paired_bootstrap,
    sentence_stats,
)
from tests.conftest import refusals
from tests.reference import oracle_bleu, random_corpus


# ---------------------------------------------------------------------------
# corpus_bleu


def test_identity_scores_100():
    hyp = [("a", "b", "c"), ("d",)]
    assert corpus_bleu(hyp, hyp) == 100.0


def test_zero_overlap_scores_0():
    assert corpus_bleu([("a", "b")], [("c", "d")]) == 0.0


def test_hand_example_with_order_truncation():
    # p1 = p2 = p3 = 1, no pooled 4-grams, BP = exp(1 - 4/3)
    score = corpus_bleu([("the", "cat", "sat")], [("the", "cat", "sat", "down")])
    assert score == pytest.approx(100.0 * math.exp(-1.0 / 3.0), abs=1e-9)
    assert score == pytest.approx(71.65, abs=0.01)


def test_brevity_penalty_only_for_short_hypotheses():
    # longer hypothesis than reference: BP = 1, precisions dominate
    hyp = [("a", "b", "c", "d")]
    ref = [("a", "b", "c")]
    stats = sentence_stats(hyp[0], ref[0])
    assert stats[-2] == 4 and stats[-1] == 3
    assert corpus_bleu(hyp, ref) == pytest.approx(oracle_bleu(hyp, ref), abs=0.0)


def test_permutation_invariance(rng):
    hyps = random_corpus(rng, 30)
    refs = random_corpus(rng, 30)
    base = corpus_bleu(hyps, refs)
    perm = rng.permutation(30)
    shuffled = corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm])
    assert shuffled == base


def test_matches_bruteforce_oracle_on_random_corpora():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        hyps = random_corpus(rng, n)
        refs = random_corpus(rng, n)
        assert corpus_bleu(hyps, refs) == oracle_bleu(hyps, refs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_clipping_never_exceeds_reference_counts(seed):
    rng = np.random.default_rng(seed)
    hyp = random_corpus(rng, 1, vocab=3, max_len=7)[0]
    ref = random_corpus(rng, 1, vocab=3, max_len=7)[0]
    stats = sentence_stats(hyp, ref)
    for n in range(1, 5):
        ref_total = max(len(ref) - n + 1, 0)
        assert 0 <= stats[n - 1] <= min(stats[4 + n - 1], ref_total) or stats[n - 1] <= ref_total


def test_score_range(rng):
    for _ in range(25):
        hyps = random_corpus(rng, 8)
        refs = random_corpus(rng, 8)
        score = corpus_bleu(hyps, refs)
        assert 0.0 <= score <= 100.0


# ---------------------------------------------------------------------------
# similarity


def test_similarity_identical_outputs():
    outs = [("a", "b"), ("c",)]
    assert output_similarity_bleu(outs, outs) == 100.0


def test_similarity_disjoint_outputs():
    assert output_similarity_bleu([("a", "b")], [("c", "d")]) == 0.0


def test_similarity_uses_greedy_as_reference():
    greedy = [("a", "b", "c", "d")]
    beam = [("a", "b", "c")]
    # beam output shorter than greedy reference -> brevity penalty applies
    assert output_similarity_bleu(greedy, beam) == corpus_bleu(beam, greedy)


# ---------------------------------------------------------------------------
# paired bootstrap


def test_bootstrap_identical_systems():
    rng = np.random.default_rng(0)
    refs = random_corpus(rng, 40)
    hyp = random_corpus(rng, 40)
    res = paired_bootstrap(hyp, hyp, refs, resamples=200, seed=1)
    assert res.p_value == 1.0
    assert res.tie_fraction == 1.0
    assert res.bleu_a == res.bleu_b


def test_bootstrap_detects_clear_superiority():
    rng = np.random.default_rng(3)
    refs = random_corpus(rng, 200, vocab=8)
    perfect = list(refs)
    noise = random_corpus(rng, 200, vocab=8)
    res = paired_bootstrap(perfect, noise, refs, resamples=1000, seed=2)
    assert res.p_value < 0.05  # the noisy system essentially never wins
    assert res.bleu_a == 100.0
    assert res.bleu_b < res.bleu_a


def test_bootstrap_deterministic_under_seed():
    rng = np.random.default_rng(5)
    refs = random_corpus(rng, 30)
    a = random_corpus(rng, 30)
    b = random_corpus(rng, 30)
    r1 = paired_bootstrap(a, b, refs, resamples=150, seed=9)
    r2 = paired_bootstrap(a, b, refs, resamples=150, seed=9)
    assert r1 == r2
    r3 = paired_bootstrap(a, b, refs, resamples=150, seed=10)
    assert r1.seed != r3.seed


def test_bootstrap_p_value_in_unit_interval(rng):
    refs = random_corpus(rng, 25)
    a = random_corpus(rng, 25)
    b = random_corpus(rng, 25)
    res = paired_bootstrap(a, b, refs, resamples=120, seed=0)
    assert 0.0 <= res.p_value <= 1.0
    assert 0.0 <= res.tie_fraction <= 1.0


# ---------------------------------------------------------------------------
# refusals

test_contract_errors = refusals(
    (lambda: corpus_bleu([], []), ContractError, ""),
    (lambda: corpus_bleu([("a",)], [("a",), ("b",)]), ContractError, ""),
)
test_bootstrap_minimum_resamples = refusals(
    (lambda: paired_bootstrap([("a",)], [("a",)], [("a",)], resamples=50, seed=0), ContractError, ""),
)
