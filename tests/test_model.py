import tracemalloc
import weakref

import numpy as np
import pytest

import temperlab.tensor as tensor_module
from temperlab.data import EOS_ID, PAD_ID
from temperlab.decoding import BeamConfig, beam_decode, greedy_decode
from temperlab.errors import ConfigError, DataError, NumericError
from temperlab.model import (
    ModelConfig,
    TransformerModel,
    init_parameters,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from temperlab.tempering import TemperingConfig, smoothed_label_array, tempered_loss
from temperlab.tensor import GradientTape, backward
from tests.conftest import edit_stored_config, refusals, shrink_parameter
from tests.reference import parameter_gradient_error

SMALL = dict(source_vocab=11, target_vocab=13, num_layers=2, model_dim=16, num_heads=2, ff_dim=24, max_positions=12)


def small_model(seed=0, **over):
    cfg = ModelConfig(**{**SMALL, **over})
    return init_parameters(cfg, seed)


def random_batch(rng, cfg, batch=3, src_len=5, tgt_len=6):
    src = rng.integers(4, cfg.source_vocab, size=(batch, src_len))
    tgt_in = rng.integers(4, cfg.target_vocab, size=(batch, tgt_len))
    tgt_in[:, 0] = 1  # BOS
    return src, tgt_in


# ---------------------------------------------------------------------------
# config


def test_without_dropout_zeroes_all_three_sites():
    cfg = ModelConfig(source_vocab=8, target_vocab=8).without_dropout()
    assert cfg.attention_dropout == cfg.embedding_dropout == cfg.layer_dropout == 0.0


# ---------------------------------------------------------------------------
# initialisation


def test_init_is_deterministic_bitwise():
    m1 = small_model(seed=5)
    m2 = small_model(seed=5)
    assert m1.params.keys() == m2.params.keys()
    for name in m1.params:
        assert np.array_equal(m1.params[name].array, m2.params[name].array), name


def test_different_seed_changes_parameters():
    m1, m2 = small_model(seed=1), small_model(seed=2)
    assert not np.array_equal(m1.params["src_embed"].array, m2.params["src_embed"].array)


def test_recurrent_stacking_has_fewer_parameters():
    dense = small_model(num_layers=4)
    shared = small_model(num_layers=4, recurrent_stacking=True)
    assert parameter_count(shared) < parameter_count(dense)


def test_recurrent_stack_size_independent_of_depth():
    counts = {parameter_count(small_model(num_layers=n, recurrent_stacking=True)) for n in (2, 3, 4)}
    assert len(counts) == 1


def test_parameter_count_arithmetic():
    cfg = ModelConfig(**SMALL)
    model = init_parameters(cfg, 0)
    d, ff = cfg.model_dim, cfg.ff_dim
    attn = 4 * (d * d + d)
    ln = 2 * d
    ffn = d * ff + ff + ff * d + d
    enc_layer = attn + ln + ffn + ln
    dec_layer = attn + ln + attn + ln + ffn + ln
    expected = (
        cfg.source_vocab * d
        + cfg.target_vocab * d
        + cfg.num_layers * (enc_layer + dec_layer)
        + d * cfg.target_vocab
        + cfg.target_vocab
    )
    assert parameter_count(model) == expected


def test_shared_one_layer_equals_unshared_one_layer(rng):
    dense = small_model(seed=9, num_layers=1)
    shared = small_model(seed=9, num_layers=1, recurrent_stacking=True)
    src, tgt = random_batch(rng, dense.config)
    out_d = dense.forward_teacher_forced(src, tgt).array
    out_s = shared.forward_teacher_forced(src, tgt).array
    assert np.max(np.abs(out_d - out_s)) <= 1e-12


# ---------------------------------------------------------------------------
# forward contracts


def test_causality_perturbation_probe(rng):
    model = small_model(seed=2)
    src, tgt = random_batch(rng, model.config, batch=2, tgt_len=6)
    base = model.forward_teacher_forced(src, tgt).array
    for j in (1, 3, 5):
        bumped = tgt.copy()
        bumped[:, j] = (bumped[:, j] - 4 + 1) % (model.config.target_vocab - 4) + 4
        out = model.forward_teacher_forced(src, bumped).array
        assert np.array_equal(out[:, :j], base[:, :j]), f"leak before position {j}"
        assert not np.allclose(out[:, j:], base[:, j:])


def test_eval_forward_is_deterministic(rng):
    model = small_model(seed=3)
    src, tgt = random_batch(rng, model.config)
    a = model.forward_teacher_forced(src, tgt).array
    b = model.forward_teacher_forced(src, tgt).array
    assert np.array_equal(a, b)


def test_dropout_changes_training_forward_but_not_eval(rng):
    model = small_model(seed=4)
    src, tgt = random_batch(rng, model.config)
    r1 = np.random.default_rng(0)
    r2 = np.random.default_rng(1)
    t1 = model.forward_teacher_forced(src, tgt, train=True, rng=r1).array
    t2 = model.forward_teacher_forced(src, tgt, train=True, rng=r2).array
    assert not np.array_equal(t1, t2)
    e1 = model.forward_teacher_forced(src, tgt).array
    e2 = model.forward_teacher_forced(src, tgt).array
    assert np.array_equal(e1, e2)


def desk_step_tape(rng):
    """A desk-default model and the tape, logits and loss of one training
    forward at T=2 with dropout on."""
    model = init_parameters(ModelConfig().with_vocabs(11, 13), seed=0)
    src, tgt = random_batch(rng, model.config, batch=32, src_len=9, tgt_len=10)
    labels = smoothed_label_array(np.roll(tgt, -1, axis=1), 13, 0.1, PAD_ID)
    with GradientTape() as tape:
        logits = model.forward_teacher_forced(src, tgt, train=True, rng=np.random.default_rng(0))
        loss = tempered_loss(logits, labels, tgt.size, TemperingConfig(temperature=2.0))
    return model, tape, logits, loss


def test_forward_holds_only_what_backward_rules_read(rng, monkeypatch):
    # the tape refers to each output weakly and to each input by its node,
    # so an intermediate that no rule reads dies with the forward's local
    made = {}
    for name in ("linear", "ffn"):

        def record(x, w, *rest, fn=getattr(tensor_module, name)):
            out = fn(x, w, *rest)
            made[id(w)] = weakref.ref(out)
            return out

        monkeypatch.setattr(tensor_module, name, record)
    tracemalloc.start()
    try:
        model, tape, logits, _loss = desk_step_tape(rng)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert made[id(model.params["enc0.attn.wq"])]() is None  # a q projection
    assert made[id(model.params["dec1.ff.w1"])]() is None  # an FFN branch output
    assert any(node.output is logits for node in tape.nodes)
    # a tape that held every output and float64 dropout multipliers held
    # 19.0 MB here, one that held norm outputs and boolean draws 10.9 MB;
    # this one rebuilds norm outputs and packs its draws, and holds 9.0 MB
    assert held < 10e6, held


def test_desk_training_step_records_fifty_tape_nodes(rng):
    # one node per embedding and its dropout, linear, attention core, ffn
    # and residual norm (dropout, add and layer norm), and one for the loss:
    # 2 + 16 encoder nodes, 2 + 28 decoder nodes, the output projection and
    # the loss
    _model, tape, _logits, _loss = desk_step_tape(rng)
    assert len(tape.nodes) == 50


def test_backward_frees_what_it_has_used(rng):
    # a backward that held every node's saved arrays until it returned
    # peaked at about 1.5x the bytes held at its start
    tracemalloc.start()
    try:
        model, tape, logits, loss = desk_step_tape(rng)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * held, (peak, held)
    assert tape.nodes == []
    # every parameter, the held logits and the loss; no dropped intermediate
    kept = {id(t) for t in (*model.params.values(), logits, loss)}
    assert {id(t) for t in grads} == kept
    assert grads[logits].shape == logits.shape


# ---------------------------------------------------------------------------
# gradients through the whole model


def test_end_to_end_gradient_matches_finite_differences(rng):
    cfg = ModelConfig(
        source_vocab=9, target_vocab=9, num_layers=2, model_dim=32, num_heads=4,
        ff_dim=48, max_positions=10,
    ).without_dropout()
    model = init_parameters(cfg, seed=1)
    src = rng.integers(4, 9, size=(2, 4))
    tgt_in = rng.integers(4, 9, size=(2, 5))
    tgt_in[:, 0] = 1
    tgt_out = np.roll(tgt_in, -1, axis=1)
    tgt_out[:, -1] = 2
    tempering = TemperingConfig(temperature=2.0, rescale_loss=True, label_smoothing=0.1)
    labels = smoothed_label_array(tgt_out, 9, 0.1, PAD_ID)
    n_tok = int((tgt_out != PAD_ID).sum())

    picks = [("src_embed", 5), ("enc0.attn.wq", 7), ("dec1.cross.wv", 3), ("dec0.ff.w1", 11), ("out_w", 2)]

    def loss_of():
        return tempered_loss(model.forward_teacher_forced(src, tgt_in), labels, n_tok, tempering)

    assert parameter_gradient_error(model, loss_of, picks, h=1e-5, floor=1e-8) < 1e-3


# ---------------------------------------------------------------------------
# decode_step


def test_decode_step_matches_teacher_forced_last_position(rng):
    # the cached decoder against the tape, one sentence and a padded batch
    # of three unequal sources, with and without recurrent stacking
    for over in ({}, {"recurrent_stacking": True, "num_layers": 3}):
        model = small_model(seed=6, **over)
        cfg = model.config
        src = rng.integers(4, cfg.source_vocab, size=(5,))
        encoded = model.encode(src)
        for t_len in (1, 3, 6):
            prefix = rng.integers(4, cfg.target_vocab, size=(t_len,))
            prefix[0] = 1
            step_logits = model.decode_step(encoded, prefix)
            full = model.forward_teacher_forced(src.reshape(1, -1), prefix.reshape(1, -1)).array
            assert np.max(np.abs(step_logits - full[0, -1])) <= 1e-10

        sources = np.full((3, 5), PAD_ID)
        for i, n in enumerate((5, 2, 4)):
            sources[i, :n] = rng.integers(4, cfg.source_vocab, size=n)
        prefixes = rng.integers(4, cfg.target_vocab, size=(3, 6))
        prefixes[:, 0] = 1
        full = model.forward_teacher_forced(sources, prefixes).array
        encoded = model.encode_batch(sources)
        for t_len in range(1, 7):
            step_logits = model.decode_step_batch(encoded, prefixes[:, :t_len])
            assert np.max(np.abs(step_logits - full[:, t_len - 1])) <= 1e-10


def test_decode_step_bos_only_prefix(rng):
    model = small_model(seed=6)
    encoded = model.encode(rng.integers(4, model.config.source_vocab, size=(4,)))
    logits = model.decode_step(encoded, np.array([1]))
    assert logits.shape == (model.config.target_vocab,)
    assert np.all(np.isfinite(logits))


def test_decode_step_deterministic(rng):
    model = small_model(seed=6)
    encoded = model.encode(rng.integers(4, model.config.source_vocab, size=(4,)))
    prefix = np.array([1, 5, 6])
    a = model.decode_step(encoded, prefix)
    b = model.decode_step(encoded, prefix)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path, rng):
    model = small_model(seed=8)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, step=123)
    loaded, step = load_checkpoint(path)
    assert step == 123
    assert loaded.config == model.config
    assert list(loaded.params.keys()) == list(model.params.keys())
    for name in model.params:
        assert np.array_equal(loaded.params[name].array, model.params[name].array)
    src, tgt = random_batch(rng, model.config)
    assert np.array_equal(
        loaded.forward_teacher_forced(src, tgt).array,
        model.forward_teacher_forced(src, tgt).array,
    )


def test_checkpoint_load_holds_one_vector_at_a_time(tmp_path):
    # each stored array is copied into its slice as it is read, so the
    # arrays and their concatenation are never all held at once
    model = init_parameters(ModelConfig(source_vocab=68, target_vocab=68), seed=0)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, step=1)
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * model.flat.nbytes


def test_checkpoint_rs_mode_roundtrip(tmp_path):
    model = small_model(seed=8, recurrent_stacking=True, num_layers=3)
    path = tmp_path / "rs.npz"
    save_checkpoint(path, model, step=7)
    loaded, _ = load_checkpoint(path)
    assert loaded.config.recurrent_stacking
    assert parameter_count(loaded) == parameter_count(model)


@pytest.mark.parametrize("changes", [{"extra": 1}, {"num_heads": 3}, None])
def test_checkpoint_with_malformed_config_is_data_error(tmp_path, changes):
    # an unknown key fails the ModelConfig call, a bad value its validation;
    # None drops the archive's step entry
    path = tmp_path / "model.npz"
    save_checkpoint(path, small_model(seed=8), step=1)
    if changes is None:
        with np.load(path) as zf:
            payload = {k: zf[k] for k in zf.files if k != "__step__"}
        np.savez(path, **payload)
    else:
        edit_stored_config(path, **changes)
    with pytest.raises(DataError, match="malformed configuration"):
        load_checkpoint(path)


def test_checkpoint_with_wrong_shape_is_data_error(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(path, small_model(seed=8), step=1)
    shrink_parameter(path, "dec0.cross.bq")
    with pytest.raises(DataError, match="dec0.cross.bq"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# refusals


def forward_of_a_random_batch(out_of_range=False, **kwargs):
    """small_model(seed=3)'s teacher-forced forward of a random batch, with
    source token (1, 2) out of the vocabulary if asked."""
    model = small_model(seed=3)
    src, tgt = random_batch(np.random.default_rng(12345), model.config)
    if out_of_range:
        src[1, 2] = model.config.source_vocab + 5
    return model.forward_teacher_forced(src, tgt, **kwargs)


def decode_past_max_positions(beam):
    # EOS is never the argmax, so both decoders run past the position table
    model = small_model(seed=6)
    model.params["out_b"].array[EOS_ID] = -1e9
    max_length = model.config.max_positions + 2
    if beam:
        return beam_decode(model, [4, 5, 6], BeamConfig(2, 1.0, max_length))
    return greedy_decode(model, [4, 5, 6], max_length)


def with_nan_at_7(model):
    flat = model.flat.copy()
    flat[7] = np.nan
    return flat


test_config_rejects_indivisible_heads = refusals(
    (lambda: ModelConfig(source_vocab=8, target_vocab=8, model_dim=10, num_heads=3), ConfigError, "divisible"),
)
test_config_rejects_dropout_of_one = refusals(
    (lambda: ModelConfig(source_vocab=8, target_vocab=8, attention_dropout=1.0), ConfigError, ""),
)
test_config_rejects_nonpositive_dims = refusals(
    (lambda: ModelConfig(source_vocab=8, target_vocab=8, num_layers=0), ConfigError, ""),
)
test_unresolved_vocab_rejected_at_init = refusals((lambda: init_parameters(ModelConfig(), seed=0), ConfigError, ""))
test_train_forward_needs_rng = refusals((lambda: forward_of_a_random_batch(train=True, rng=None), ConfigError, ""))
test_out_of_range_token_reports_position = refusals(
    (lambda: forward_of_a_random_batch(out_of_range=True), DataError, "(1, 2)"),
)
test_sequence_longer_than_max_positions_rejected = refusals(
    (lambda: small_model(seed=3).encode_batch(np.random.default_rng(12345).integers(4, 11, size=(1, 13))),
     DataError, ""),
)
test_decoding_past_max_positions_is_data_error = refusals(
    (lambda: decode_past_max_positions(beam=False), DataError, "max_positions"),
    (lambda: decode_past_max_positions(beam=True), DataError, "max_positions"),
)
test_model_refuses_a_non_finite_parameter_vector = refusals(
    (lambda: TransformerModel(small_model().config, with_nan_at_7(small_model())), NumericError, ""),
)
