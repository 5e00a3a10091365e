import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import temperlab.tensor as tt
from temperlab.errors import ConfigError, ContractError, NumericError, ShapeError
from temperlab.tempering import TemperingConfig, smoothed_label_array, tempered_loss
from temperlab.tensor import GradientTape, Tensor, backward
from tests.conftest import refusals
from tests.reference import (
    attention_chain,
    check_input_gradients,
    dropout_of,
    embed_chain,
    ffn_chain,
    finite_difference_gradient,
    grads_of,
    linear_chain,
    loss_chain,
    residual_chain,
)


def sum_of_squares(y):
    return tt.sum_all(tt.mul(y, y))


# ---------------------------------------------------------------------------
# construction


def test_tensor_keeps_a_scalar_zero_dimensional_and_stores_c_order():
    scalar = Tensor(3.0)
    assert scalar.shape == ()
    assert scalar.item() == 3.0
    strided = np.arange(12.0).reshape(3, 4).T
    t = Tensor(strided)
    assert t.array.flags.c_contiguous
    assert np.array_equal(t.array, strided)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(tt.matmul(eye, a).array, a.array)


def test_matmul_hand_example():
    out = tt.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.array, [[3.0], [7.0]])


def test_matmul_gradient_matches_finite_differences(rng):
    a = Tensor(rng.uniform(-2, 2, size=(3, 4)), tracked=True)
    b_arr = rng.uniform(-2, 2, size=(4, 5))
    ga, _ = check_input_gradients(lambda x, y: tt.sum_all(tt.matmul(x, y)), (a, Tensor(b_arr)), h=1e-6, tol=1e-6)
    # independent oracle: d sum(A @ B) / dA_ij = sum_n B_jn
    assert np.allclose(ga, np.tile(b_arr.sum(axis=1), (3, 1)), atol=1e-12)


def test_matmul_batched_gradient(rng):
    a = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)), tracked=True)
    b = Tensor(rng.uniform(-1, 1, size=(2, 4, 3)), tracked=True)
    check_input_gradients(lambda x, y: sum_of_squares(tt.matmul(x, y)), (a, b))


# ---------------------------------------------------------------------------
# row softmax


def test_row_softmax_uniform():
    out = tt.row_softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.array, 0.25, atol=1e-15)


def test_row_softmax_extreme_inputs_stay_finite():
    out = tt.row_softmax(Tensor([1000.0, 0.0])).array
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_row_softmax_closed_form():
    out = tt.row_softmax(Tensor([2.0, 0.0])).array
    e2 = np.exp(2.0)
    assert out[0] == pytest.approx(e2 / (e2 + 1.0), abs=1e-12)
    assert out[0] == pytest.approx(0.880797, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8))
def test_row_softmax_rows_sum_to_one_and_shift_invariant(values):
    x = np.array(values)
    p = tt.row_softmax(Tensor(x)).array
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0.0)
    shifted = tt.row_softmax(Tensor(x + 3.7)).array
    assert np.max(np.abs(p - shifted)) <= 1e-12


def test_row_softmax_gradient(rng):
    x = Tensor(rng.uniform(-2, 2, size=(2, 5)), tracked=True)
    check_input_gradients(lambda t: sum_of_squares(tt.row_softmax(t)), (x,))


def test_log_row_softmax_matches_log_of_softmax(rng):
    x = rng.uniform(-4, 4, size=(3, 6))
    direct = tt.log_row_softmax(Tensor(x)).array
    assert np.allclose(direct, np.log(tt.row_softmax(Tensor(x)).array), atol=1e-12)


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row_is_zero():
    x = Tensor(np.full((1, 4), 3.0))
    out = tt.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-6)
    assert np.allclose(out.array, 0.0, atol=1e-9)


def test_layer_norm_unit_variance_row_passthrough():
    x = Tensor([[1.0, -1.0]])
    out = tt.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.array, [[1.0, -1.0]], atol=1e-9)


def test_layer_norm_gradients(rng):
    x = Tensor(rng.uniform(-2, 2, size=(3, 6)), tracked=True)
    gain = Tensor(rng.uniform(0.5, 1.5, size=6), tracked=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, size=6), tracked=True)
    check_input_gradients(lambda *t: sum_of_squares(tt.layer_norm(*t, eps=1e-6)), (x, gain, bias))


# ---------------------------------------------------------------------------
# the fused nodes: bitwise against their primitive chains, and against
# finite differences


def loss_inputs(rng):
    # 2 x 3 target positions over 5 tokens, one of them padding (id 0)
    ids = np.array([[1, 4, 0], [2, 2, 3]])
    logits = Tensor(rng.normal(scale=3.0, size=(2, 3, 5)), tracked=True)
    return logits, ids, int((ids != 0).sum())


def attention_inputs(rng):
    # 3 heads of dimension 5; 4 queries against 6 keys
    q = Tensor(rng.normal(size=(2, 4, 15)), tracked=True)
    k, v = (Tensor(rng.normal(size=(2, 6, 15)), tracked=True) for _ in range(2))
    mask = np.where(rng.random((2, 1, 1, 6)) < 0.3, -1e9, 0.0)
    keep = rng.random((2, 3, 4, 6)) >= 0.2  # the boolean draw at rate 0.2
    return (q, k, v), mask, keep


def residual_inputs(rng):
    shapes = ((2, 3, 4), (2, 3, 4), (4,), (4,))
    return tuple(Tensor(rng.normal(size=s), tracked=True) for s in shapes)


def ffn_inputs(rng):
    shapes = ((2, 3, 4), (4, 6), (6,), (6, 4), (4,))
    return tuple(Tensor(rng.normal(size=s), tracked=True) for s in shapes)


def tape_chain(fn):
    """A primitive chain as a reference: its output and input gradients."""
    return lambda inputs, weight: grads_of(fn, inputs, weight)


def attention_case(rng):
    (q, k, v), mask, keep = attention_inputs(rng)
    fused = lambda *t: tt.attention(*t, 3, mask, keep, 0.2)
    return fused, tape_chain(lambda *t: attention_chain(*t, 3, mask, keep)), (q, k, v), rng.normal(size=(2, 4, 15))


def ffn_case(rng):
    return tt.ffn, tape_chain(ffn_chain), ffn_inputs(rng), rng.normal(size=(2, 3, 4))


def embed_case(rng):
    # no id occurs more than twice, so any order of summing its gradient
    # rows gives the same float
    table = Tensor(rng.normal(size=(7, 4)), tracked=True)
    ids, positions = np.array([[1, 3, 1], [0, 6, 2]]), rng.normal(size=(3, 4))
    chain = tape_chain(lambda t: embed_chain(t, ids, positions))
    return lambda t: tt.embed(t, ids, positions), chain, (table,), rng.normal(size=(2, 3, 4))


def embed_repeated_case(rng):
    # with ids repeated many times, its scatter-add sums in np.add.at's order
    table = Tensor(rng.normal(size=(7, 4)), tracked=True)
    ids, positions = rng.integers(0, 7, size=(40, 3)), rng.normal(size=(3, 4))

    def scatter(inputs, weight):
        grad = np.zeros((7, 4))
        np.add.at(grad, ids.reshape(-1), (weight * 2.0).reshape(-1, 4))
        return embed_chain(inputs[0], ids, positions).array, [grad]

    return lambda t: tt.embed(t, ids, positions), scatter, (table,), rng.normal(size=(40, 3, 4))


def linear_case(rng):
    # through a transpose the gradient reaches the linear node as a
    # non-contiguous view, as attention's key gradient does in the model; at
    # these sizes BLAS rounds a contiguous copy of it differently
    params = tuple(Tensor(rng.normal(size=s), tracked=True) for s in ((4, 6, 32), (32, 32), (32,)))
    fused = lambda *t: tt.transpose(tt.linear(*t), (0, 2, 1))
    return fused, tape_chain(lambda *t: tt.transpose(linear_chain(*t), (0, 2, 1))), params, rng.normal(size=(4, 32, 6))


def loss_case(rescale, smoothing):
    def case(rng):
        logits, ids, n = loss_inputs(rng)
        cfg = TemperingConfig(temperature=2.5, rescale_loss=rescale, label_smoothing=smoothing)
        labels = smoothed_label_array(ids, 5, smoothing)
        chain = tape_chain(lambda t: loss_chain(t, labels, n, cfg))
        return lambda t: tempered_loss(t, labels, n, cfg), chain, (logits,), None

    return case


def dropout_case(rng):
    x = Tensor(rng.normal(size=(4, 5, 6)), tracked=True)
    scale = tt.dropout_mask(x.shape, 0.3, np.random.default_rng(9)) / (1.0 - 0.3)
    return dropout_of(0.3, 9), tape_chain(lambda t: tt.mul(t, Tensor(scale))), (x,), rng.normal(size=x.shape)


def residual_case(rate, axes):
    # with dropout on and off, and with a contiguous and a non-contiguous
    # incoming gradient
    def case(rng):
        def fused(x, branch, gain, bias):
            keep = tt.dropout_mask(branch.shape, rate, np.random.default_rng(9)) if rate else None
            return tt.transpose(tt.residual_norm(x, branch, keep, rate, gain, bias, 1e-6), axes)

        chain = tape_chain(lambda *t: tt.transpose(residual_chain(*t, rate, 9), axes))
        return fused, chain, residual_inputs(rng), rng.normal(size=[(2, 3, 4)[a] for a in axes])

    return case


BITWISE = {
    "attention-with-dropout": attention_case,
    "ffn": ffn_case,
    "embed-distinct-ids": embed_case,
    "embed-repeated-ids": embed_repeated_case,
    "linear-through-transpose": linear_case,
    **{f"loss-rescale{r}-smoothing{s}": loss_case(r, s) for r in (True, False) for s in (0.0, 0.1)},
    "dropout": dropout_case,
    **{
        f"residual-norm-rate{rate}-{layout}": residual_case(rate, axes)
        for rate in (0.0, 0.3)
        for layout, axes in (("contiguous", (0, 1, 2)), ("transposed", (0, 2, 1)))
    },
}


@pytest.mark.parametrize("case", BITWISE.values(), ids=BITWISE.keys())
def test_fused_node_equals_its_chain_bitwise(rng, case):
    # the model's tape uses the fused nodes; training bits depend on them
    # computing the same floats as the chains they replace
    fused, reference, inputs, weight = case(rng)
    out, grads = grads_of(fused, inputs, weight)
    want, want_grads = reference(inputs, weight)
    assert [(a.shape, a.tobytes()) for a in (out, *grads)] == [(a.shape, a.tobytes()) for a in (want, *want_grads)]


def test_residual_norm_forward_half_without_a_draw_is_add_then_layer_norm(rng):
    x, branch, gain, bias = (rng.normal(size=s) for s in ((2, 4), (2, 4), (4,), (4,)))
    chain = tt.layer_norm(tt.add(Tensor(x), Tensor(branch)), Tensor(gain), Tensor(bias), 1e-6)
    assert np.array_equal(tt.residual_norm_forward(x, branch, None, gain, bias, 1e-6)[0], chain.array)


def test_a_norm_output_is_rebuilt_for_its_consumers_not_held(rng):
    # residual_norm's output feeds three linears (as q, k and v) and an ffn,
    # as in the model. They keep its recipe, not its array, so the array dies
    # with the forward's reference; their rules share one rebuild until the
    # norm's rule runs, and every gradient equals that of the same graph fed
    # the output without a recipe
    x, branch, gain, bias = residual_inputs(rng)
    proj = [Tensor(rng.normal(size=s), tracked=True) for _ in range(3) for s in ((4, 4), (4,))]
    ff = ffn_inputs(rng)[1:]
    inputs = (x, branch, gain, bias, *proj, *ff)
    weights = [Tensor(rng.normal(size=(2, 3, 4))) for _ in range(4)]
    for rate in (0.0, 0.3):
        keep = tt.dropout_mask(branch.shape, rate, np.random.default_rng(9)) if rate else None
        runs, handed = [], []
        for rebuilt in (False, True):
            with GradientTape() as tape:
                y = tt.residual_norm(x, branch, keep, rate, gain, bias, 1e-6)
                node, recipe, forward_bytes, dead = y.node, y.recipe, y.array.tobytes(), weakref.ref(y.array)
                if rebuilt:
                    y.recipe = lambda: handed.append(recipe()) or handed[-1]
                else:
                    del y.recipe
                outs = [tt.linear(y, proj[i], proj[i + 1]) for i in (0, 2, 4)] + [tt.ffn(y, *ff)]
                del y
                losses = [tt.sum_all(tt.mul(out, w)) for out, w in zip(outs, weights)]
                del outs
                loss = tt.add(tt.add(losses[0], losses[1]), tt.add(losses[2], losses[3]))
            assert (dead() is None) == rebuilt, rate
            rule = node.backward
            node.backward = lambda g: handed.append("norm rule") or rule(g)
            grads = backward(tape, loss)
            runs.append([grads[t] for t in inputs])
        # the plain run's norm rule, then the four consumer rules and the norm rule
        assert len(handed) == 6 and handed[0] == handed[5] == "norm rule", rate
        assert all(a is handed[1] for a in handed[1:5]) and handed[1].tobytes() == forward_bytes, rate
        fresh = recipe()  # the norm's rule has dropped the shared rebuild
        assert fresh is not handed[1] and fresh.tobytes() == forward_bytes, rate
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*runs)), rate


def test_relu_equals_where_bitwise_on_signed_zeros_and_subnormals():
    # `feed_forward` applies `relu_forward` to its hidden layer
    tiny = np.finfo(np.float64).smallest_subnormal
    h = np.array([-0.0, 0.0, tiny, -tiny, 2.0 * tiny, -1.5, 3.0, -np.inf, np.inf])
    where = np.where(h > 0.0, h, 0.0)
    hc = h.copy()  # in place, as `feed_forward` applies it
    for out in (tt.relu_forward(h), tt.relu_forward(hc, out=hc), tt.relu(tt.wrap(h, False)).array):
        assert out.tobytes() == where.tobytes()  # -0.0 comes out as +0.0, as np.where gives


def test_forward_halves_allocate_no_more_than_they_return(rng):
    # tracemalloc peak of one call, as a multiple of the 32x20x64 input's
    # bytes: what the call returns, numpy's 8192-float ufunc buffer (0.2),
    # and no full-size temporary but log_softmax's exp
    x, branch = rng.normal(size=(32, 20, 64)), rng.normal(size=(32, 20, 64))
    gain, bias = rng.normal(size=64), rng.normal(size=64)
    q, k_t = tt.split_heads(x, 4), tt.split_keys(branch, 4)
    mask = np.where(rng.random((32, 1, 1, 20)) < 0.2, -1e9, 0.0)
    scale = tt.dropout_scale(tt.dropout_mask(x.shape, 0.1, rng), 0.1)
    w1, b1, w2, b2 = rng.normal(size=(64, 128)), rng.normal(size=128), rng.normal(size=(128, 64)), rng.normal(size=64)
    table, ids = rng.normal(size=(50, 64)), rng.integers(0, 50, size=(32, 20))
    cases = (
        (2.5, tt.layer_norm_forward, (x, gain, bias, 1e-6)),  # returns 2x
        (1.5, tt.softmax, (x,)),
        (2.1, tt.log_softmax, (x,)),
        (2.0, tt.attention_weights, (q, k_t, mask)),  # returns 1.25x
        (2.5, tt.residual_norm_forward, (x, branch, scale, gain, bias, 1e-6)),  # returns 2x
        (3.5, tt.feed_forward, (x, w1, b1, w2, b2)),  # returns 3x
        (1.5, tt.embedding, (table, ids, x[0])),
    )
    for bound, fn, args in cases:
        before = [a.copy() for a in args if isinstance(a, np.ndarray)]
        fn(*args)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args)
            ratio = (tracemalloc.get_traced_memory()[1] - held) / x.nbytes
        finally:
            tracemalloc.stop()
        assert ratio <= bound, (fn.__name__, ratio)
        after = [a for a in args if isinstance(a, np.ndarray)]
        assert all(u.tobytes() == v.tobytes() for u, v in zip(before, after)), fn.__name__


def test_attention_and_ffn_gradients_match_finite_differences(rng):
    (q, k, v), mask, keep = attention_inputs(rng)
    logits, ids, n = loss_inputs(rng)
    cfg = TemperingConfig(temperature=2.5, label_smoothing=0.1)
    labels = smoothed_label_array(ids, 5, 0.1)
    for fn, inputs in (
        (lambda *t: tt.attention(*t, 3, mask, keep, 0.2), (q, k, v)),
        (tt.ffn, ffn_inputs(rng)),
        (tt.linear, ffn_inputs(rng)[:3]),
        (lambda t: tempered_loss(t, labels, n, cfg), (logits,)),
        (dropout_of(0.3, 9), (Tensor(rng.normal(size=(4, 5)), tracked=True),)),
        (lambda x, b, g, c: tt.residual_norm(x, b, keep[:, 0, :3, :4], 0.2, g, c, 1e-6), residual_inputs(rng)),
    ):
        shape = fn(*inputs).shape
        check_input_gradients(fn, inputs, rng.normal(size=shape) if shape else None, floor=1e-6)


# ---------------------------------------------------------------------------
# backward / tape


def closed_form(draw, graph, expected, atol=None):
    """A test that the tape gradient of the scalar `graph(x)` at x =
    `draw(rng)` is `expected(x)`: equal, or within `atol` by np.allclose.
    Bound to a `test_` name, it is collected under that name."""

    def test(rng):
        x = Tensor(draw(rng), tracked=True)
        with GradientTape() as tape:
            loss = graph(x)
        g = backward(tape, loss)[x]
        assert np.array_equal(g, expected(x.array)) if atol is None else np.allclose(g, expected(x.array), atol=atol)

    return test


def transpose_reshape_squares(x):
    z = tt.reshape(tt.transpose(x, (1, 0, 2)), (3, 8))
    assert x.size == z.size == 24
    return sum_of_squares(z)


test_backward_of_sum_is_ones = closed_form(lambda r: r.uniform(-1, 1, size=(2, 3)), tt.sum_all, np.ones_like)
test_backward_of_sum_of_squares_is_2x = closed_form(
    lambda r: r.uniform(-1, 1, size=(4,)), sum_of_squares, lambda a: 2 * a, atol=1e-14
)
test_dropout_backward_uses_forward_mask = closed_form(
    lambda r: r.uniform(1, 2, size=(30, 10)),
    lambda x: tt.sum_all(dropout_of(0.5, 5)(x)),
    lambda a: dropout_of(0.5, 5)(Tensor(a)).array / a,  # the mask, read off the forward
    atol=1e-12,
)
test_transpose_and_reshape_roundtrip_gradients = closed_form(
    lambda r: r.uniform(-1, 1, size=(2, 3, 4)), transpose_reshape_squares, lambda a: 2 * a, atol=1e-14
)


def test_backward_two_layer_network_vs_finite_differences(rng):
    w1 = Tensor(rng.uniform(-1, 1, size=(4, 8)), tracked=True)
    w2 = Tensor(rng.uniform(-1, 1, size=(8, 3)), tracked=True)
    b1 = Tensor(np.zeros(8), tracked=True)
    x = Tensor(rng.uniform(-1, 1, size=(5, 4)))

    def network(w1_, w2_, b1_):
        h = tt.relu(tt.bias_add(tt.matmul(x, w1_), b1_))
        out = tt.log_row_softmax(tt.matmul(h, w2_))
        return tt.scale(tt.sum_all(out), -1.0)

    check_input_gradients(network, (w1, w2, b1))


def test_untracked_leaves_absent_from_gradient_map(rng):
    x = Tensor(rng.uniform(-1, 1, size=(3,)), tracked=True)
    c = Tensor(rng.uniform(-1, 1, size=(3,)), tracked=False)
    with GradientTape() as tape:
        loss = tt.sum_all(tt.mul(x, c))
    grads = backward(tape, loss)
    assert x in grads
    assert c not in grads


def test_backward_determinism_bitwise(rng):
    def build(seed):
        r = np.random.default_rng(seed)
        x = Tensor(r.uniform(-2, 2, size=(4, 6)), tracked=True)
        w = Tensor(r.uniform(-1, 1, size=(6, 6)), tracked=True)
        with GradientTape() as tape:
            h = tt.row_softmax(tt.matmul(x, w))
            loss = tt.sum_all(tt.mul(h, h))
        g = backward(tape, loss)
        return g[x].copy(), g[w].copy()

    ga1, gw1 = build(99)
    ga2, gw2 = build(99)
    assert np.array_equal(ga1, ga2) and np.array_equal(gw1, gw2)


def test_ops_outside_tape_record_nothing(rng):
    x = Tensor(rng.uniform(-1, 1, size=(2, 2)), tracked=True)
    y = tt.mul(x, x)
    assert not y.tracked  # no active tape, so no graph participation


def test_repeated_operand_accumulates(rng):
    x = Tensor(rng.uniform(0.5, 1.5, size=(3,)), tracked=True)
    check_input_gradients(sum_of_squares, (x,), tol=1e-6)  # both operands of `mul` are x


def test_in_place_sums_never_write_into_a_handed_out_gradient(rng):
    # residual_norm without dropout hands one array to x and to b; x then
    # receives two more contributions, the first into a new sum and the
    # second in place into it. Every gradient must equal fresh `acc + gi` sums
    x, b, gain, bias = (Tensor(rng.normal(size=s), tracked=True) for s in ((3, 4, 5), (3, 4, 5), 5, 5))
    w = rng.normal(size=(3, 4, 5))
    with GradientTape() as tape:
        x2, x3 = tt.scale(x, 3.0), tt.scale(x, -0.5)
        r = tt.residual_norm(x, b, None, 0.0, gain, bias, 1e-6)
        loss = tt.sum_all(tt.mul(tt.add(tt.add(r, x2), x3), Tensor(w)))
    grads = backward(tape, loss)
    _, xhat, inv = tt.residual_norm_forward(x.array, b.array, None, gain.array, bias.array, 1e-6)
    gx, ggain, gbias = tt._layer_norm_backward(np.ones(w.shape) * w, xhat, inv, gain.array)
    want = {x: gx + w * -0.5 + w * 3.0, b: gx, gain: ggain, bias: gbias, x2: w, x3: w, r: w}
    for t, g in want.items():
        assert grads[t].tobytes() == g.tobytes()


def test_tape_node_shows_its_held_output_and_runs_an_assigned_rule(rng):
    # the benchmark's tracer finds a node by `node.output is out` and times
    # its rule by assigning a wrapper to `node.backward` before `backward`
    x = Tensor(rng.normal(size=(3, 4)), tracked=True)
    with GradientTape() as tape:
        y = tt.relu(x)
        loss = tt.sum_all(y)
    (node,) = [n for n in tape.nodes if n.output is y]
    rule, seen = node.backward, []

    def wrapped(g):
        seen.append(g)
        return rule(g)

    node.backward = wrapped
    grads = backward(tape, loss)
    assert len(seen) == 1 and grads[y] is seen[0]
    assert np.array_equal(grads[x], (x.array > 0.0) * 1.0)


# ---------------------------------------------------------------------------
# embedding, dropout


def test_embed_forward_and_gradient(rng):
    table = Tensor(rng.uniform(-1, 1, size=(7, 4)), tracked=True)
    ids = np.array([[1, 3, 1], [0, 6, 2]])
    positions = rng.uniform(-1, 1, size=(3, 4))
    e = tt.embed(table, ids, positions)
    assert e.shape == (2, 3, 4)
    assert np.array_equal(e.array[1, 2], table.array[2] * 2.0 + positions[2])
    (g,) = check_input_gradients(lambda t: sum_of_squares(tt.embed(t, ids, positions)), (table,))
    assert np.allclose(g[4], 0.0)  # id 4 never looked up
    with pytest.raises(ShapeError):
        tt.embed(table, ids, positions[:2])


def test_dropout_scaling_and_rates(rng):
    x = Tensor(np.ones((200, 50)), tracked=True)
    out = tt.dropout(x, 0.25, np.random.default_rng(0))
    vals = np.unique(out.array)
    assert set(np.round(vals, 9)) <= {0.0, np.round(1 / 0.75, 9)}
    keep_fraction = (out.array != 0).mean()
    assert keep_fraction == pytest.approx(0.75, abs=0.02)
    assert tt.dropout(x, 0.0, np.random.default_rng(0)) is x
    with pytest.raises(ConfigError):
        tt.dropout(x, 1.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# finite differences


def test_finite_difference_of_sum_is_ones(rng):
    x = Tensor(rng.uniform(-2, 2, size=(2, 3)))
    fd = finite_difference_gradient(lambda t: tt.sum_all(t), x, h=1e-5)
    assert np.allclose(fd.array, 1.0, atol=1e-9)


def test_finite_difference_sum_of_squares():
    x = Tensor([1.0, 2.0])
    fd = finite_difference_gradient(sum_of_squares, x, h=1e-5)
    assert np.allclose(fd.array, [2.0, 4.0], atol=1e-8)


def test_finite_difference_restores_input():
    x = Tensor([1.0, 2.0])
    before = x.array.copy()
    finite_difference_gradient(lambda t: tt.sum_all(t), x, h=1e-5)
    assert np.array_equal(x.array, before)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_small_graphs_match_finite_differences(seed):
    # three random unary/binary ops chained onto a 2x3 input
    r = np.random.default_rng(seed)
    x = Tensor(r.uniform(-2, 2, size=(2, 3)), tracked=True)
    w = Tensor(r.uniform(-1, 1, size=(3, 3)))
    ops = [r.integers(0, 4) for _ in range(3)]

    def build(t):
        h = t
        for op in ops:
            if op == 0:
                h = tt.relu(h)
            elif op == 1:
                h = tt.row_softmax(h)
            elif op == 2:
                h = tt.matmul(h, w)
            else:
                h = tt.mul(h, h)
        return tt.sum_all(h)

    # relu kinks can make FD disagree at the boundary; tolerate only tiny grads there
    check_input_gradients(build, (x,), floor=1e-4)


# ---------------------------------------------------------------------------
# refusals


def backward_of_a_matrix():
    x = Tensor(np.random.default_rng(12345).uniform(-1, 1, size=(2, 2)), tracked=True)
    with GradientTape() as tape:
        y = tt.mul(x, x)
    return backward(tape, y)


test_matmul_shape_error_names_both_shapes = refusals(
    (lambda: tt.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))), ShapeError, "(2, 3)"),
)
test_row_softmax_rejects_non_finite = refusals(
    (lambda: tt.row_softmax(tt.wrap(np.array([np.inf, 0.0]), False)), NumericError, ""),
)
test_layer_norm_eps_must_be_positive = refusals(
    (lambda: tt.layer_norm(Tensor(np.ones((1, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0), ConfigError, ""),
)
test_backward_requires_scalar_loss = refusals((backward_of_a_matrix, ContractError, ""))
test_finite_difference_rejects_bad_step = refusals(
    (lambda: finite_difference_gradient(lambda t: tt.sum_all(t), Tensor([1.0]), h=0.0), ContractError, ""),
)
test_tensor_rejects_non_finite = refusals((lambda: Tensor([np.nan, 1.0]), NumericError, ""))
test_bias_add_shape_check = refusals((lambda: tt.bias_add(Tensor(np.ones((2, 3))), Tensor(np.ones(2))), ShapeError, ""))
test_add_and_mul_shape_checks = refusals(
    (lambda: tt.add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))), ShapeError, ""),
    (lambda: tt.mul(Tensor(np.ones((2, 2))), Tensor(np.ones(4))), ShapeError, ""),
)
