"""Dense float64 tensors with a reverse-mode gradient tape.

Only the primitives a small encoder-decoder needs are implemented: matmul
(plain and leading-batch), elementwise arithmetic, row softmax and
log-softmax, layer norm, multi-head attention, the feed-forward block,
the scaled embedding plus positions, shape moves, and inverted dropout.
Storage is row-major float64 throughout; every backward rule is
hand-written and checked against central finite differences in the test
suite. Broadcasting is deliberately restricted to bias-add, masks,
positions and row-wise ops so each rule stays auditable.

Some primitives are one tape node for a chain of elementary ones: `linear`
for `bias_add(matmul(x, w), b)`; `attention` and `ffn` for the attention
core and the feed-forward block; `embed` for the gather, scale and position
add; `dropout` for `mul` by its mask; `residual_norm` for `dropout`, `add`
and `layer_norm`; `cross_entropy` for `scale`, `log_row_softmax`, `mul` by
the labels, `sum_all` and `scale`. Each computes the same floats as the
chain it replaces, forward and backward, in the same order, so training
bits do not depend on which of the two builds the graph
(`tests/test_tensor.py` checks this bit for bit); the one node saves tape
nodes, temporaries and the gradients that nothing reads. The tape holds
identities and boolean dropout draws, not activations, and `backward`
consumes it, so what each node saved is freed while it runs. The forward
halves write in place only into arrays that they allocated, and `backward` only
into sums that it allocated; `out=` gives a ufunc's out-of-place floats.

`softmax` and `log_softmax` are the package's one stable softmax pair, on
plain arrays; the primitives, the tempering diagnostics and decoding use it.
Likewise `embedding`, `attention_weights`, `residual_norm_forward` and
`feed_forward` are the plain-array forward halves of `embed`, `attention`,
`residual_norm` and `ffn`, and `split_heads`, `split_keys` and `merge_heads`
are the one head layout, so the tape and the cached decoder compute the
same expressions.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError

Array = np.ndarray


class Tensor:
    """Dense float64 array plus a flag marking gradient-tape participation.

    Tensors are treated as immutable once created; training replaces the
    parameter vector wholesale instead of mutating it in place.
    """

    __slots__ = ("array", "tracked", "node", "__weakref__")  # `node`: set on a tape output only

    def __init__(self, values, tracked: bool = False):
        arr = np.asarray(values, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor initialised with non-finite values")
        self.array = arr
        self.tracked = bool(tracked)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def size(self) -> int:
        return self.array.size

    def item(self) -> float:
        if self.array.shape != ():
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.array)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, tracked={self.tracked})"


def wrap(arr: Array, tracked: bool) -> Tensor:
    """A tensor over `arr` as it is, with no copy and no finiteness scan:
    for op outputs, finite by construction for finite inputs (stable softmax
    etc.), and for the views of a parameter vector that was scanned whole."""
    t = object.__new__(Tensor)
    t.array = arr
    t.tracked = tracked
    return t


class _Node:
    """A primitive application: its output by weak reference, each input by
    its producing node (a leaf by itself, an untracked one as None), and its rule."""

    __slots__ = ("_output", "inputs", "backward")

    def __init__(self, output, inputs, backward):
        self._output = weakref.ref(output)
        self.inputs = inputs
        self.backward = backward

    @property
    def output(self) -> Tensor | None:
        return self._output()


class GradientTape:
    """Ordered record of primitive applications for reverse-mode replay.

    Nodes are appended in execution order, which is a topological order of
    the computation graph, so `backward` can pop them from the end. It holds
    identities and what the rules read, dropout as boolean draws (`backward`).
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "GradientTape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.pop()
        assert popped is self, "gradient tapes closed out of order"
        return False


_TAPES: list[GradientTape] = []


def _active_tape() -> GradientTape | None:
    return _TAPES[-1] if _TAPES else None


def _emit(arr: Array, inputs: tuple[Tensor, ...], backward) -> Tensor:
    tape = _active_tape()
    tracked = tape is not None and any(t.tracked for t in inputs)
    out = wrap(arr, tracked)
    if tracked:
        out.node = _Node(out, tuple(getattr(t, "node", t) if t.tracked else None for t in inputs), backward)
        tape.nodes.append(out.node)
    return out


def backward(tape: GradientTape, loss: Tensor) -> dict[Tensor, Array]:
    """Accumulate gradients of `loss` w.r.t. every tracked tensor on the tape.

    The tape holds identities, not activations: a node refers to its output
    weakly and to its inputs by their nodes, so an intermediate lives only
    while the forward code or a rule holds it, and a dropout rule holds its
    boolean draw. Gradients are keyed by node. Consumes the tape: each node
    is popped, and its rule dropped, as it is replayed. Returns a map keyed
    by tensor identity for every tracked tensor that the caller still
    references. Untracked leaves never appear; tracked leaves receive a
    gradient of identical shape to their value. A third and later contribution
    is added in place into the sum that backward allocated for the second, never
    into an array that a rule handed out (`add` hands one to both its inputs).
    """
    if loss.array.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads = {getattr(loss, "node", loss): np.ones((), dtype=np.float64)}
    held, owned = {}, set()  # owned: keys whose sum backward allocated
    while tape.nodes:
        node = tape.nodes.pop()
        rule, inputs = node.backward, node.inputs
        node.backward = node.inputs = None  # a held output keeps its node alive
        g = grads.pop(node, None)
        owned.discard(node)
        if g is None:
            continue
        out = node.output
        if out is not None:
            held[out] = g
        for inp, gi in zip(inputs, rule(g)):
            if gi is None or inp is None:
                continue
            if inp in owned:
                grads[inp] += gi  # in place; a 0-d sum, a numpy scalar, is replaced
            elif inp in grads:
                grads[inp] = grads[inp] + gi
                owned.add(inp)
            else:
                grads[inp] = gi
    # what is left is keyed by leaves, and by nodes of a tape already
    # replayed; the last node, rule and input replayed would stay alive
    node = rule = inputs = inp = gi = out = owned = None
    held.update((k if isinstance(k, Tensor) else k.output, g) for k, g in grads.items())
    held.pop(None, None)
    live = weakref.WeakKeyDictionary(held)
    held = grads = None
    return dict(live)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2-D x 2-D, N-D x 2-D, and N-D x N-D with
    identical leading dimensions; no other broadcasting."""
    am, bm = a.array, b.array
    if am.ndim < 2 or bm.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {am.shape} and {bm.shape}")
    if am.shape[-1] != bm.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for {am.shape} and {bm.shape}")
    if bm.ndim > 2 and am.shape[:-2] != bm.shape[:-2]:
        raise ShapeError(f"matmul: leading dimensions disagree for {am.shape} and {bm.shape}")
    out = am @ bm

    def bwd(g: Array):
        ga = g @ bm.swapaxes(-1, -2)
        if bm.ndim == 2:
            gb = am.reshape(-1, am.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = am.swapaxes(-1, -2) @ g
        return ga, gb

    return _emit(out, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _emit(a.array + b.array, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    am, bm = a.array, b.array
    return _emit(am * bm, (a, b), lambda g: (g * bm, g * am))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit(x.array * c, (x,), lambda g: (g * c,))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    bm = b.array
    if bm.ndim != 1 or x.shape[-1] != bm.shape[0]:
        raise ShapeError(f"bias_add: bias {b.shape} does not match last dim of {x.shape}")
    n = bm.shape[0]

    def bwd(g: Array):
        return g, g.reshape(-1, n).sum(axis=0)

    return _emit(x.array + bm, (x, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D `w` and a 1-D `b`: `bias_add(matmul(x, w), b)`
    as one node."""
    xm, wm, bm = x.array, w.array, b.array
    if xm.ndim < 2 or wm.ndim != 2 or xm.shape[-1] != wm.shape[0] or bm.shape != wm.shape[1:]:
        raise ShapeError(f"linear: input {xm.shape}, weight {wm.shape} and bias {bm.shape} do not fit")
    out = xm @ wm
    out += bm
    k, n = wm.shape

    def bwd(g: Array):
        g2 = g.reshape(-1, n)
        return g @ wm.T, xm.reshape(-1, k).T @ g2, g2.sum(axis=0)

    return _emit(out, (x, w, b), bwd)


def relu_forward(x: Array, out: Array | None = None) -> Array:
    """max(x, 0) into `out` (default new), +0.0 wherever x <= 0 (-0.0 included):
    the floats of `np.where(x > 0.0, x, 0.0)` in a fraction of its time. Adding
    +0.0 turns a -0.0 into +0.0 and leaves every other value alone."""
    out = np.maximum(x, 0.0, out=out)
    out += 0.0
    return out


def relu(x: Tensor) -> Tensor:
    keep = x.array > 0.0
    return _emit(relu_forward(x.array), (x,), lambda g: (g * keep,))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = x.array.shape
    out = x.array.reshape(shape)
    return _emit(out, (x,), lambda g: (g.reshape(orig),))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inv = np.argsort(axes)
    out = np.ascontiguousarray(x.array.transpose(axes))
    return _emit(out, (x,), lambda g: (g.transpose(inv),))


def softmax(x: Array) -> Array:
    """Softmax of a plain array over its last axis, with max-subtraction."""
    return _softmax_shifted(x - x.max(axis=-1, keepdims=True))


def _softmax_shifted(z: Array) -> Array:
    """exp(z) over its row sum, in place in the max-shifted `z`."""
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def log_softmax(x: Array) -> Array:
    """Log-softmax of a plain array over its last axis, computed directly
    (not as the log of a softmax)."""
    z = x - x.max(axis=-1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
    return z


def row_softmax(x: Tensor) -> Tensor:
    """`softmax` over the last axis, on the tape."""
    xm = x.array
    if not np.all(np.isfinite(xm)):
        raise NumericError("row_softmax: non-finite input")
    y = softmax(xm)

    def bwd(g: Array):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _emit(y, (x,), bwd)


def log_row_softmax(x: Tensor) -> Tensor:
    """`log_softmax` over the last axis, on the tape."""
    xm = x.array
    if not np.all(np.isfinite(xm)):
        raise NumericError("log_row_softmax: non-finite input")
    out = log_softmax(xm)

    def bwd(g: Array):
        p = np.exp(out)
        return (g - p * g.sum(axis=-1, keepdims=True),)

    return _emit(out, (x,), bwd)


def layer_norm_forward(x: Array, gain: Array, bias: Array, eps: float) -> tuple[Array, Array, Array]:
    """Layer norm of a plain array over its last axis: the output, and the
    normalised input and inverse standard deviation that the backward needs.
    A sum divided by the count is the same float as `mean`, without its
    per-call overhead."""
    return _normalise(x - np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1], gain, bias, eps)


def _normalise(xc: Array, gain: Array, bias: Array, eps: float) -> tuple[Array, Array, Array]:
    """`layer_norm_forward` of the centred `xc`, which becomes xhat in place."""
    out = xc * xc
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / xc.shape[-1] + eps)
    xc *= inv
    np.multiply(xc, gain, out=out)
    out += bias
    return out, xc, inv


def _layer_norm_backward(g: Array, xhat: Array, inv: Array, gain: Array) -> tuple[Array, Array, Array]:
    """The input, gain and bias gradients for the output gradient `g`: the
    input's is inv * (gh - mean(gh) - xhat * mean(gh * xhat)) with
    gh = g * gain, in that operation order, on two temporaries."""
    d = xhat.shape[-1]
    gh = g * gain
    t = gh * xhat
    m = np.add.reduce(t, axis=-1, keepdims=True) / d
    gh -= np.add.reduce(gh, axis=-1, keepdims=True) / d
    gh -= np.multiply(xhat, m, out=t)
    gh *= inv
    return gh, np.multiply(g, xhat, out=t).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def _check_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> None:
    if eps <= 0.0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match last dim {d}")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then apply
    the affine transform `gain * xhat + bias`."""
    _check_norm(x, gain, bias, eps)
    out, xhat, inv = layer_norm_forward(x.array, gain.array, bias.array, eps)
    return _emit(out, (x, gain, bias), lambda g: _layer_norm_backward(g, xhat, inv, gain.array))


def residual_norm_forward(x: Array, branch: Array, scale: Array | None, gain: Array, bias: Array, eps: float):
    """`layer_norm_forward` of x + branch * scale, or of x + branch when
    `scale` is None, on plain arrays: the forward half of `residual_norm`."""
    s = x + branch if scale is None else branch * scale
    if scale is not None:
        s += x
    s -= np.add.reduce(s, axis=-1, keepdims=True) / s.shape[-1]
    return _normalise(s, gain, bias, eps)


def residual_norm(
    x: Tensor, branch: Tensor, keep: Array | None, rate: float, gain: Tensor, bias: Tensor, eps: float
) -> Tensor:
    """`layer_norm(add(x, dropout(branch)), gain, bias, eps)` as one node,
    with `keep` the boolean dropout draw for the branch at `rate`, or None
    for no dropout. It saves the normalised sum, the inverse deviation and `keep`."""
    if x.shape != branch.shape:
        raise ShapeError(f"residual_norm: shapes {x.shape} and {branch.shape} differ")
    _check_norm(x, gain, bias, eps)
    scale = None if keep is None else dropout_scale(keep, rate)
    out, xhat, inv = residual_norm_forward(x.array, branch.array, scale, gain.array, bias.array, eps)

    def bwd(g: Array):
        gx, ggain, gbias = _layer_norm_backward(g, xhat, inv, gain.array)
        return gx, gx if keep is None else _dropped(gx, keep, rate), ggain, gbias

    return _emit(out, (x, branch, gain, bias), bwd)


def split_heads(x: Array, heads: int) -> Array:
    """[rows, len, model_dim] -> contiguous [rows, heads, len, head_dim]."""
    rows, length, dim = x.shape
    return np.ascontiguousarray(x.reshape(rows, length, heads, dim // heads).transpose(0, 2, 1, 3))


def split_keys(x: Array, heads: int) -> Array:
    """[rows, len, model_dim] -> contiguous [rows, heads, head_dim, len]:
    `split_heads` with the last two axes swapped, in one copy."""
    rows, length, dim = x.shape
    return np.ascontiguousarray(x.reshape(rows, length, heads, dim // heads).transpose(0, 2, 3, 1))


def merge_heads(x: Array) -> Array:
    """The inverse of `split_heads`; it copies only where no view exists."""
    rows, heads, length, head_dim = x.shape
    return x.transpose(0, 2, 1, 3).reshape(rows, length, heads * head_dim)


def attention_weights(q: Array, k_t: Array, mask: Array | None) -> Array:
    """softmax(q @ k_t / sqrt(head_dim) + mask) on plain [..., heads, len,
    head_dim] queries: the forward half of `attention` before its optional
    dropout. `k_t` holds the keys with their last two axes swapped; `mask`
    is additive and broadcast."""
    scores = q @ k_t
    scores *= 1.0 / np.sqrt(q.shape[-1])
    if mask is not None:
        scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    return _softmax_shifted(scores)


def attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, mask: Array | None, keep: Array | None, rate: float
) -> Tensor:
    """Multi-head scaled dot-product attention over [batch, len, model_dim]
    projections: split into `heads`, `attention_weights`, times the dropout
    multiplier of the boolean draw `keep` at `rate` when given, times the
    values, heads merged again. The backward is the chain rule through those
    steps in reverse, with the dropped weights rebuilt from `w` and `keep`."""
    qm, vm, k_t = split_heads(q.array, heads), split_heads(v.array, heads), split_keys(k.array, heads)
    c = 1.0 / np.sqrt(qm.shape[-1])
    w = attention_weights(qm, k_t, mask)
    if not np.all(np.isfinite(w)):
        raise NumericError("attention: non-finite scores")
    wd = w if keep is None else _dropped(w, keep, rate)

    def bwd(g: Array):
        g = split_heads(g, heads)
        # g_s = w * (g_w - sum(g_w * w)) * c with g_w the weights' gradient,
        # in that operation order, in place
        g_s = g @ vm.swapaxes(-1, -2)
        wd = w if keep is None else dropout_scale(keep, rate)
        if keep is not None:
            g_s *= wd
            wd *= w
        g_v = wd.swapaxes(-1, -2) @ g
        g_s -= np.add.reduce(g_s * w, axis=-1, keepdims=True)
        g_s *= w
        g_s *= c
        g_q = g_s @ k_t.swapaxes(-1, -2)
        g_k = (qm.swapaxes(-1, -2) @ g_s).swapaxes(-1, -2)
        return merge_heads(g_q), merge_heads(g_k), merge_heads(g_v)

    return _emit(merge_heads(wd @ vm), (q, k, v), bwd)


def feed_forward(x: Array, w1: Array, b1: Array, w2: Array, b2: Array) -> tuple[Array, Array]:
    """relu(x @ w1 + b1) @ w2 + b2 on plain arrays: the output and the
    hidden activations, the forward half of `ffn`."""
    h = x @ w1
    h += b1
    relu_forward(h, out=h)
    out = h @ w2
    out += b2
    return out, h


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Position-wise feed-forward block with a ReLU hidden layer."""
    xm, w1m, w2m = x.array, w1.array, w2.array
    out, h = feed_forward(xm, w1m, b1.array, w2m, b2.array)

    def bwd(g: Array):
        d, hidden = w2m.shape[1], w2m.shape[0]
        g_b2 = g.reshape(-1, d).sum(axis=0)
        g_w2 = h.reshape(-1, hidden).T @ g.reshape(-1, d)
        g_h = g @ w2m.swapaxes(-1, -2)
        g_h *= h > 0.0
        g_b1 = g_h.reshape(-1, hidden).sum(axis=0)
        g_w1 = xm.reshape(-1, xm.shape[-1]).T @ g_h.reshape(-1, hidden)
        return g_h @ w1m.swapaxes(-1, -2), g_w1, g_b1, g_w2, g_b2

    return _emit(out, (x, w1, b1, w2, b2), bwd)


def embedding(table: Array, ids: Array, positions: Array) -> Array:
    """table[ids] * sqrt(dim) + positions on plain arrays, the forward half
    of `embed`; `positions` [len, dim] is broadcast over the leading axes."""
    out = table[ids]
    out *= np.sqrt(table.shape[1])
    out += positions
    return out


def embed(table: Tensor, ids: Array, positions: Array) -> Tensor:
    """Gather rows of `table` by integer id, scale them by sqrt(dim) and add
    the position rows; backward scatter-adds the scaled gradient."""
    idx = np.asarray(ids)
    if table.array.ndim != 2 or positions.shape != (idx.shape[-1], table.shape[1]):
        raise ShapeError(f"embed: table {table.shape} and positions {positions.shape} do not fit ids {idx.shape}")
    v, d = table.array.shape

    def bwd(g: Array):
        # np.bincount adds each cell's terms in input order from 0.0, the
        # floats of np.add.at into zeros, in a fraction of its time
        cells = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        gt = np.bincount(cells, weights=(g * np.sqrt(d)).reshape(-1), minlength=v * d)
        return (gt.reshape(v, d),)

    return _emit(embedding(table.array, idx, positions), (table,), bwd)


def sum_all(x: Tensor) -> Tensor:
    shp = x.array.shape
    out = np.asarray(x.array.sum())
    return _emit(out, (x,), lambda g: (np.full(shp, float(g)),))


def cross_entropy(logits: Tensor, labels: Array, logit_scale: float, factor: float) -> Tensor:
    """factor * sum(labels * log_softmax(logits * logit_scale)) as one node:
    the chain `scale`, `log_row_softmax`, `mul` by the labels, `sum_all`,
    `scale`. `labels` is a plain array of the logits' shape and gets no
    gradient."""
    c, k = float(logit_scale), float(factor)
    scaled = logits.array * c
    if not np.all(np.isfinite(scaled)):
        raise NumericError("cross_entropy: non-finite scaled logits")
    logp = log_softmax(scaled)
    out = np.asarray((logp * labels).sum() * k)

    def bwd(g: Array):
        # the chain's full(shape, g * k) * labels, then the log-softmax and
        # scale backward, in place
        g_logp = labels * float(g * k)
        p = np.exp(logp)
        p *= np.add.reduce(g_logp, axis=-1, keepdims=True)
        g_logp -= p
        g_logp *= c
        return (g_logp,)

    return _emit(out, (logits,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept units are divided by the keep probability.

    The node keeps its boolean draw, so the backward pass sees exactly the
    mask used in the forward pass; it is `mul` by the multiplier as one node."""
    if rate == 0.0:
        return x
    keep = dropout_mask(x.shape, rate, rng)
    return _emit(_dropped(x.array, keep, rate), (x,), lambda g: (_dropped(g, keep, rate),))


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> Array:
    """Boolean inverted-dropout draw, False with probability `rate`: what the
    tape saves, an eighth of the multiplier's bytes (`dropout_scale`)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    return rng.random(shape) >= rate


def dropout_scale(keep: Array, rate: float) -> Array:
    """The multiplier of the draw `keep`: 0 where dropped, else 1 / (1 - rate)."""
    return keep * (1.0 / (1.0 - rate))


def _dropped(a: Array, keep: Array, rate: float) -> Array:
    """a * dropout_scale(keep, rate), computed in the multiplier's new array."""
    m = dropout_scale(keep, rate)
    m *= a
    return m
