import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temperlab.data import BOS_ID, EOS_ID
from temperlab.decoding import (
    BeamConfig,
    beam_decode,
    beam_decode_batch,
    decode_corpus,
    greedy_decode,
    greedy_decode_batch,
    length_penalty,
)
from temperlab.errors import ConfigError, ContractError
from tests.conftest import refusals
from tests.reference import (
    SourceTableModel,
    TableModel,
    enumerate_best,
    log_softmax,
    random_table,
    reference_beam,
)


# ---------------------------------------------------------------------------
# config + penalty


test_beam_config_validation = refusals(
    (lambda: BeamConfig(beam_size=0), ConfigError, ""),
    (lambda: BeamConfig(length_penalty_alpha=-0.1), ConfigError, ""),
    (lambda: BeamConfig(max_length=0), ConfigError, ""),
)


def test_length_penalty_values():
    assert length_penalty(1, 0.0) == 1.0
    assert length_penalty(40, 0.0) == 1.0
    assert length_penalty(1, 2.5) == 1.0
    assert length_penalty(13, 1.0) == pytest.approx(3.0, abs=1e-15)
    with pytest.raises(ContractError):
        length_penalty(0, 1.0)


def test_hypothesis_score_recomputable(trained_copy):
    # every hypothesis beam search returns, finished or not, holds its score
    # as its log probability over its own length's penalty, exactly
    result, data = trained_copy
    sources = [data.src_vocab.encode(s) for s, _ in data.dev[:10]]
    unreachable = random_table(5)
    unreachable[:, EOS_ID] = -1e9
    finished = set()
    for alpha in (0.0, 0.6, 1.0):
        runs = [
            (result.model, sources, BeamConfig(4, alpha, data.decode_max_length)),
            (result.model, sources, BeamConfig(3, alpha, 2)),  # too short to finish
            (TableModel(random_table(3)), [[4], [4, 5]], BeamConfig(4, alpha, 6)),
            (TableModel(unreachable), [[4]], BeamConfig(3, alpha, 5)),
        ]
        for model, srcs, cfg in runs:
            for hyps in beam_decode_batch(model, srcs, cfg):
                for h in hyps:
                    assert h.score == h.log_prob / length_penalty(len(h.tokens) - 1, alpha)
                    finished.add(h.finished)
    assert finished == {True, False}


# ---------------------------------------------------------------------------
# greedy


def test_greedy_is_deterministic():
    model = TableModel(random_table(0))
    a = greedy_decode(model, [4, 5], max_length=8)
    b = greedy_decode(model, [4, 5], max_length=8)
    assert a == b


def test_greedy_unfinished_flag():
    table = random_table(1)
    table[:, EOS_ID] = -1e9  # EOS unreachable
    hyp = greedy_decode(TableModel(table), [4], max_length=5)
    assert not hyp.finished
    assert len(hyp.tokens) == 6  # BOS + 5 generated


def test_greedy_tokens_follow_argmax_chain():
    table = random_table(2)
    hyp = greedy_decode(TableModel(table), [4], max_length=10)
    cur = BOS_ID
    for tok in hyp.tokens[1:]:
        assert tok == int(np.argmax(table[cur]))
        cur = tok


# ---------------------------------------------------------------------------
# beam


# EOS (id 2) ties with token 3 for the best log probability after every token
TIED_EOS = np.tile([-1e9, -1e9, -0.2, -0.2, -2.7, -3.0], (6, 1))


def test_beam_size_one_alpha_zero_equals_greedy():
    # both sum the same log probabilities in the same order, and both break
    # a tie to the lowest id, so they agree bit for bit
    for table in [random_table(seed) for seed in range(6)] + [TIED_EOS]:
        model = TableModel(table)
        greedy = greedy_decode(model, [4], max_length=8)
        [beam] = beam_decode(model, [4], BeamConfig(beam_size=1, length_penalty_alpha=0.0, max_length=8))
        assert (beam.tokens, beam.log_prob, beam.score) == (greedy.tokens, greedy.log_prob, greedy.score)
    assert greedy.tokens == (BOS_ID, EOS_ID)  # on TIED_EOS, the tie goes to EOS


def test_beam_survivors_of_a_tie_at_the_kth_place_are_the_lowest_ids():
    # after BOS, token 3 is best and tokens 4, 5 and 6 tie for second place;
    # every later token prefers EOS, so the two survivors finish at once
    table = np.full((7, 7), -1e9)
    table[BOS_ID, 2:] = [-9.0, 0.0, -1.0, -1.0, -1.0]
    table[3:, 2:] = [0.0, -5.0, -5.0, -5.0, -5.0]
    hyps = beam_decode(TableModel(table), [4], BeamConfig(beam_size=2, length_penalty_alpha=1.0, max_length=4))
    assert [h.tokens for h in hyps] == [(BOS_ID, 3, EOS_ID), (BOS_ID, 4, EOS_ID)]


def test_beam_scores_non_increasing():
    model = TableModel(random_table(3))
    hyps = beam_decode(model, [4], BeamConfig(beam_size=4, length_penalty_alpha=1.0, max_length=6))
    scores = [h.score for h in hyps]
    assert scores == sorted(scores, reverse=True)


def test_beam_score_invariant_holds_exactly():
    model = TableModel(random_table(4))
    hyps = beam_decode(model, [4], BeamConfig(beam_size=3, length_penalty_alpha=0.8, max_length=6))
    for h in hyps:
        assert h.score == pytest.approx(
            h.log_prob / length_penalty(len(h.tokens) - 1, 0.8), abs=1e-12
        )
        assert h.finished
        assert h.tokens[0] == BOS_ID and h.tokens[-1] == EOS_ID


def test_beam_matches_exhaustive_enumeration_hand_case():
    # three-token toy model with known transitions; beam 2 must find the
    # optimum over all sequences up to length 4
    table = np.full((5, 5), -1e9)
    # after BOS: token 3 likely, token 4 less so; EOS unlikely
    table[BOS_ID, [2, 3, 4]] = [0.0, 2.0, 1.0]
    table[3, [2, 3, 4]] = [2.5, -1.0, 0.5]
    table[4, [2, 3, 4]] = [3.0, 0.0, 0.0]
    oracle = enumerate_best(table, alpha=1.0, max_length=4)
    beam = beam_decode(TableModel(table), [4], BeamConfig(2, 1.0, 4))
    assert beam[0].tokens == oracle[0][2]
    assert beam[0].score == pytest.approx(oracle[0][0], abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.0, 0.6, 1.0, 1.4]))
def test_wide_beam_matches_exhaustive_enumeration(seed, alpha):
    table = random_table(seed, vocab=5)
    max_length = 4
    oracle = enumerate_best(table, alpha, max_length)
    # width >= number of live prefixes per depth (3 non-special tokens -> 27)
    beam = beam_decode(TableModel(table), [4], BeamConfig(32, alpha, max_length))
    assert oracle, "oracle found no finished sequence"
    assert beam[0].score == pytest.approx(oracle[0][0], abs=1e-12)
    assert beam[0].tokens == oracle[0][2]


def test_hypotheses_hold_plain_python_values():
    # beam search ranks on arrays; what it returns must not leak numpy scalars
    table = random_table(7)
    hyps = beam_decode(TableModel(table), [4], BeamConfig(3, 1.0, 6))
    table[:, EOS_ID] = -1e9
    hyps += beam_decode(TableModel(table), [4], BeamConfig(3, 1.0, 6))  # unfinished
    hyps.append(greedy_decode(TableModel(table), [4], max_length=6))
    for h in hyps:
        assert type(h.tokens) is tuple and {type(t) for t in h.tokens} == {int}
        assert (type(h.log_prob), type(h.score), type(h.finished)) == (float, float, bool)
    assert not hyps[-2].finished


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=36, max_size=36),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.6, 1.0]),
)
@example([0] * 36, 3, 1.0)  # EOS never among a row's best three: unfinished
# tokens 3 and 4 tie after BOS and have equal rows, so their EOS candidates
# tie at step 2 and retire in row order
@example([0] * 6 + [0, 0, -2, 1, 1, -2] + [0] * 6 + [0, 0, 2, 0, 0, 0] * 2 + [0] * 6, 2, 1.0)
def test_beam_equals_its_one_candidate_at_a_time_reference_on_tied_tables(cells, beam_size, alpha):
    # integer logits tie often, at the k-th place and in the ranking
    table = np.asarray(cells, dtype=np.float64).reshape(6, 6)
    table[:, [0, 1]] = -1e9
    cfg = BeamConfig(beam_size, alpha, max_length=5)
    assert beam_decode(TableModel(table), [4], cfg) == reference_beam(table, cfg)
    # three sources in one state, each with its own table: the given one,
    # its rows reversed, and one where EOS is never proposed
    no_eos = table.copy()
    no_eos[:, EOS_ID] = -2.5
    tables = [table, table[::-1], no_eos]
    batched = beam_decode_batch(SourceTableModel(tables), [[0], [1], [2]], cfg)
    assert batched == [reference_beam(t, cfg) for t in tables]
    assert not batched[2][0].finished


def test_beam_returns_flagged_unfinished_when_eos_unreachable():
    table = random_table(5)
    table[:, EOS_ID] = -1e9
    hyps = beam_decode(TableModel(table), [4], BeamConfig(3, 1.0, 5))
    assert len(hyps) == 1
    assert not hyps[0].finished


# ---------------------------------------------------------------------------
# on a real trained model


def test_greedy_recovers_copy_task(trained_copy):
    result, data = trained_copy
    correct = 0
    pairs = data.dev[:20]
    for src_tokens, tgt_tokens in pairs:
        hyp = greedy_decode(result.model, data.src_vocab.encode(src_tokens), data.decode_max_length)
        out = data.tgt_vocab.decode(hyp.surface())
        correct += out == tgt_tokens
    assert correct >= 19  # overfit copy model reproduces its input


def test_beam1_equals_greedy_on_trained_model(trained_copy):
    result, data = trained_copy
    for src_tokens, _ in data.dev[:5]:
        src = data.src_vocab.encode(src_tokens)
        g = greedy_decode(result.model, src, data.decode_max_length)
        [b] = beam_decode(result.model, src, BeamConfig(1, 0.0, data.decode_max_length))
        assert (g.tokens, g.log_prob, g.score, g.finished) == (b.tokens, b.log_prob, b.score, b.finished)


def test_batched_greedy_equals_sequential(trained_copy):
    result, data = trained_copy
    sources = [data.src_vocab.encode(s) for s, _ in data.dev[:12]]
    batched = greedy_decode_batch(result.model, sources, data.decode_max_length)
    for src, hyp in zip(sources, batched):
        single = greedy_decode(result.model, src, data.decode_max_length)
        assert hyp.tokens == single.tokens
        assert hyp.log_prob == pytest.approx(single.log_prob, abs=1e-9)


def test_batched_greedy_on_equal_lengths_equals_sequential(trained_copy):
    # with no padding, a row's arithmetic does not depend on the other rows
    result, data = trained_copy
    sources = [data.src_vocab.encode(s) for s, _ in data.dev]
    length = max({len(s) for s in sources}, key=[len(s) for s in sources].count)
    sources = [s for s in sources if len(s) == length]
    assert len(sources) > 3
    for max_length in (3, data.decode_max_length):
        batched = greedy_decode_batch(result.model, sources, max_length)
        assert batched == [greedy_decode(result.model, s, max_length) for s in sources]


def test_batched_greedy_feeds_no_row_past_its_eos():
    tables = [random_table(seed) for seed in range(6)]
    tables[5][:, EOS_ID] = -1e9  # never finishes
    model = SourceTableModel(tables)
    batched = greedy_decode_batch(model, [[i] for i in range(6)], max_length=8)
    assert len({len(h.tokens) for h in batched}) > 2  # rows finish at different steps
    for i, hyp in enumerate(batched):
        assert hyp == greedy_decode(TableModel(tables[i]), [4], max_length=8)
        assert model.fed[i] == list(hyp.tokens[:-1])  # EOS, or the last token, is never fed


@pytest.mark.parametrize("beam_size", [1, 2, 4])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_batched_beam_equals_one_sentence_at_a_time(trained_copy, beam_size, alpha):
    result, data = trained_copy
    sources = [data.src_vocab.encode(s) for s, _ in data.dev[:16]]
    counts = [len(s) for s in sources]
    sources.append(np.concatenate([sources[0], sources[1]]))  # a length no other source has
    assert counts.count(len(sources[-1])) == 0
    assert max(counts.count(n) for n in counts) > 1
    cfg = BeamConfig(beam_size, alpha, data.decode_max_length)
    assert beam_decode_batch(result.model, sources, cfg) == [beam_decode(result.model, s, cfg) for s in sources]


def test_beam_hypotheses_match_teacher_forced_rescoring(trained_copy):
    # TableModel ignores the decoder state, so only a real model checks
    # that the cache rows follow their hypotheses through each reorder
    result, data = trained_copy
    model = result.model
    for beam_size in (4, 10):
        cfg = BeamConfig(beam_size, 1.0, data.decode_max_length)
        for src_tokens, _ in data.dev[:8]:
            src = data.src_vocab.encode(src_tokens)
            hyps = beam_decode(model, src, cfg)
            width = max(len(h.tokens) for h in hyps) - 1
            target_in = np.zeros((len(hyps), width), dtype=np.int64)
            for i, h in enumerate(hyps):
                target_in[i, : len(h.tokens) - 1] = h.tokens[:-1]
            sources = np.repeat(src[None, :], len(hyps), axis=0)
            logits = model.forward_teacher_forced(sources, target_in).array
            for i, h in enumerate(hyps):
                rescored = sum(log_softmax(logits[i, j])[tok] for j, tok in enumerate(h.tokens[1:]))
                assert abs(h.log_prob - rescored) <= 1e-9
                assert h.score == h.log_prob / length_penalty(len(h.tokens) - 1, 1.0)


# ---------------------------------------------------------------------------
# corpus decoding + timing sidecar


def test_decode_corpus_modes_and_timings():
    model = TableModel(random_table(6))
    sources = [[4], [5], [4, 5]]
    hyps, wall_ns = decode_corpus(model, sources, BeamConfig(1, 0.0, 6))
    assert len(hyps) == len(wall_ns) == 3
    assert all(ns > 0 for ns in wall_ns)


def test_beam_config_greedy_needs_beam_one_and_no_penalty():
    assert BeamConfig(1, 0.0).greedy
    assert not BeamConfig(1, 1.0).greedy
    assert not BeamConfig(2, 0.0).greedy


def test_decode_corpus_beam_one_with_penalty_runs_beam_search(monkeypatch):
    import temperlab.decoding as decoding

    model = TableModel(random_table(6))
    cfg = BeamConfig(1, 1.0, 6)
    monkeypatch.setattr(decoding, "greedy_decode", lambda *a, **k: pytest.fail("decoded greedily"))
    hyps, _ = decode_corpus(model, [[4], [5]], cfg)
    expected = [beam_decode(model, s, cfg)[0] for s in ([4], [5])]
    assert [(h.tokens, h.score) for h in hyps] == [(h.tokens, h.score) for h in expected]
