"""The oracles that the tests compare temperlab against, one per concept:
central differences and the two gradient checkers built on them; the fused
tape nodes as chains of elementary primitives; the smoothed and tempered
cross-entropy references and a one-row `tempered_loss` with its gradient;
an entropy; brute-force decoders on Markov tables; and a brute-force corpus
BLEU. Test modules import them from here, never from each other."""

import math
from collections import Counter

import numpy as np

import temperlab.tensor as tt
from temperlab.data import BOS_ID, EOS_ID
from temperlab.decoding import Hypothesis, length_penalty
from temperlab.errors import ContractError
from temperlab.tempering import smoothed_label_array, tempered_loss
from temperlab.tensor import GradientTape, Tensor, backward, wrap

# ---------------------------------------------------------------------------
# gradients


def _central_difference(f, flat, i: int, h: float) -> float:
    """(f() at flat[i] + h minus f() at flat[i] - h) / 2h, with flat[i]
    restored bitwise afterwards."""
    orig = flat[i]
    flat[i] = orig + h
    fp = f()
    flat[i] = orig - h
    fm = f()
    flat[i] = orig
    return (fp - fm) / (2.0 * h)


def finite_difference_gradient(f, x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of a deterministic scalar function.

    `f` receives a Tensor sharing the storage of a copy of x, whose
    coordinates are perturbed by +/- h in turn."""
    if h <= 0.0:
        raise ContractError(f"finite difference step must be positive, got {h}")
    base = np.array(x.array, dtype=np.float64)
    probe = wrap(base, False)
    flat = base.reshape(-1)
    grad = [_central_difference(lambda: _scalar(f(probe)), flat, i, h) for i in range(flat.size)]
    return wrap(np.array(grad).reshape(x.array.shape), False)


def _scalar(value) -> float:
    if isinstance(value, Tensor):
        return value.item()
    return float(value)


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a)
    b = np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def weighted_sum(out, weight):
    """sum(out * weight), or `out` itself, a scalar loss, with no weight."""
    return out if weight is None else tt.sum_all(tt.mul(out, Tensor(weight)))


def grads_of(fn, inputs, weight):
    """fn's output array and the tape gradient of `weighted_sum` of it for
    each input (None for an untracked one)."""
    with GradientTape() as tape:
        out = fn(*inputs)
        loss = weighted_sum(out, weight)
    grads = backward(tape, loss)
    return out.array, [grads.get(t) for t in inputs]


def check_input_gradients(fn, inputs, weight=None, h=1e-5, tol=1e-4, floor=1e-8):
    """Assert that the tape gradient of `weighted_sum(fn(*inputs), weight)`
    matches central differences with step h for every tracked input, to a
    relative error below `tol` over magnitudes of at least `floor`; return
    the tape gradients as `grads_of` does."""
    _, grads = grads_of(fn, inputs, weight)
    for i, (x, g) in enumerate(zip(inputs, grads)):
        if g is None:
            continue

        def f(t, i=i):
            args = list(inputs)
            args[i] = t
            return weighted_sum(fn(*args), weight)

        err = rel_err(g, finite_difference_gradient(f, x, h).array, floor)
        assert err < tol, f"input {i}: relative error {err:.2e}, tolerance {tol:.0e}"
    return grads


def parameter_gradient_error(model, loss_of, picks, h=1e-5, floor=1e-8) -> float:
    """The largest relative error, over magnitudes of at least `floor`,
    between the tape gradient of `loss_of()` (a scalar Tensor computed from
    `model`) and central differences with step h, at each (parameter name,
    flat index) of `picks`."""
    with GradientTape() as tape:
        loss = loss_of()
    grads = backward(tape, loss)
    worst = 0.0
    for name, idx in picks:
        param = model.params[name]
        analytic = grads[param].reshape(-1)[idx]
        fd = _central_difference(lambda: loss_of().item(), param.array.reshape(-1), idx, h)
        worst = max(worst, abs(analytic - fd) / max(abs(analytic), abs(fd), floor))
    return worst


# ---------------------------------------------------------------------------
# the fused tape nodes as chains of elementary primitives


def attention_chain(q, k, v, heads, mask, keep):
    """Multi-head attention as a chain of the elementary primitives, with
    the head split and merge as reshape and transpose nodes, and dropout at
    rate 0.2 as `mul` by the multiplier of the draw `keep`."""

    def split(x):
        batch, length, dim = x.shape
        return tt.transpose(tt.reshape(x, (batch, length, heads, dim // heads)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = tt.scale(tt.matmul(q, tt.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(q.shape[-1]))
    scores = tt.add(scores, Tensor(np.broadcast_to(mask, scores.shape).copy()))
    weights = tt.mul(tt.row_softmax(scores), Tensor(keep / 0.8))
    ctx = tt.transpose(tt.matmul(weights, v), (0, 2, 1, 3))
    return tt.reshape(ctx, ctx.shape[:2] + (-1,))


def embed_chain(table, ids, positions):
    """The embedding as a chain of the elementary primitives: the row gather
    as a one-hot matmul, then the scale and the position add."""
    one_hot = Tensor(np.eye(table.shape[0])[ids])
    x = tt.scale(tt.matmul(one_hot, table), np.sqrt(table.shape[1]))
    return tt.add(x, Tensor(np.broadcast_to(positions, x.shape).copy()))


def ffn_chain(x, w1, b1, w2, b2):
    """The feed-forward block as a chain of the elementary primitives."""
    h = tt.relu(tt.bias_add(tt.matmul(x, w1), b1))
    return tt.bias_add(tt.matmul(h, w2), b2)


def linear_chain(x, w, b):
    return tt.bias_add(tt.matmul(x, w), b)


def loss_chain(logits, labels, token_count, cfg):
    """The tempered loss as the five-node chain `tempered_loss` replaces."""
    logp = tt.log_row_softmax(tt.scale(logits, 1.0 / cfg.temperature))
    factor = -1.0 / token_count
    if cfg.rescale_loss:
        factor *= cfg.temperature
    return tt.scale(tt.sum_all(tt.mul(logp, Tensor(labels))), factor)


def dropout_of(rate, seed):
    """Dropout as a function of its input alone: a fresh generator per call
    draws the same mask each time."""
    return lambda x: tt.dropout(x, rate, np.random.default_rng(seed))


def residual_chain(x, branch, gain, bias, rate, seed):
    """The residual node as dropout (at `rate`, drawn from `seed`), add and
    layer norm."""
    return tt.layer_norm(tt.add(x, dropout_of(rate, seed)(branch)), gain, bias, 1e-6)


# ---------------------------------------------------------------------------
# cross entropy and entropy


def reference_smoothed_ce(logits, target, eps):
    """Independent oracle: label-smoothed cross entropy at T=1, log-sum-exp form."""
    v = len(logits)
    lse = np.log(np.exp(logits - logits.max()).sum()) + logits.max()
    logp = logits - lse
    label = np.full(v, eps / (v - 1))
    label[target] = 1.0 - eps
    return -float(np.dot(label, logp))


def reference_tempered_ce(logits, target, eps, temperature):
    """The oracle above on logits / T, multiplied by T (loss rescaling on)."""
    return temperature * reference_smoothed_ce(np.asarray(logits) / temperature, target, eps)


def _one_row(logits, target, cfg):
    """The tracked [1, V] row of `logits` and its one-token `tempered_loss`
    against the smoothed label of `target` (pad id -1: id 0 is a token)."""
    row = Tensor(np.asarray(logits, dtype=np.float64)[None, :], tracked=True)
    labels = smoothed_label_array([target], row.shape[1], cfg.label_smoothing, pad_id=-1)
    return row, tempered_loss(row, labels, 1, cfg)


def row_loss(logits, target, cfg) -> float:
    """`tempered_loss` of one row of logits (a [V] array) with target id `target`."""
    return _one_row(logits, target, cfg)[1].item()


def row_gradient(logits, target, cfg):
    """The tape gradient of `row_loss` with respect to the row, a [V] array."""
    with GradientTape() as tape:
        row, loss = _one_row(logits, target, cfg)
    return backward(tape, loss)[row][0]


def shannon_entropy(p) -> float:
    """Independent oracle: the entropy of a distribution in nats, with 0 * log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


# ---------------------------------------------------------------------------
# decoding


class TableModel:
    """Markov toy decoder: next-token logits depend only on the last token.

    `table` is [vocab, vocab]; row i holds the logits emitted after token i.
    The source is ignored, which makes exhaustive enumeration trivial, and
    the decoder state is too: the newest token is all a step needs.
    """

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def encode(self, source):
        return None

    def encode_batch(self, sources):
        return None

    def decode_start(self, encoded):
        return None

    def decode_next(self, state, tokens):
        return self.table[np.asarray(tokens, dtype=np.int64)]

    def decode_reorder(self, state, parents):
        pass


class SourceTableModel(TableModel):
    """One Markov table per source: a source's first token is the index of
    its table. The state is each row's table index, and every token fed to
    a source's rows is recorded in `fed`."""

    def __init__(self, tables):
        self.tables = [np.asarray(t, dtype=np.float64) for t in tables]
        self.fed = {}

    def encode_batch(self, sources):
        return [int(s[0]) for s in sources]

    def decode_start(self, encoded):
        return list(encoded)

    def decode_next(self, state, tokens):
        tokens = np.asarray(tokens).tolist()
        for src, tok in zip(state, tokens):
            self.fed.setdefault(src, []).append(tok)
        return np.stack([self.tables[src][tok] for src, tok in zip(state, tokens)])

    def decode_reorder(self, state, parents):
        state[:] = [state[p] for p in parents]


def log_softmax(row):
    z = row - row.max()
    return z - np.log(np.exp(z).sum())


def enumerate_best(table, alpha, max_length):
    """Brute-force oracle: scores of every finished sequence up to max_length."""
    table = np.asarray(table, dtype=np.float64)
    results = []

    def walk(prefix, log_prob):
        depth = len(prefix) - 1
        if depth >= max_length:
            return
        logp = log_softmax(table[prefix[-1]])
        for tok in range(table.shape[0]):
            lp = log_prob + logp[tok]
            seq = prefix + (tok,)
            if tok == EOS_ID:
                results.append((lp / length_penalty(len(seq) - 1, alpha), lp, seq))
            else:
                walk(seq, lp)

    walk((BOS_ID,), 0.0)
    return sorted(results, key=lambda r: -r[0])


def random_table(seed, vocab=6):
    r = np.random.default_rng(seed)
    table = r.uniform(-2.0, 2.0, size=(vocab, vocab))
    table[:, 0] = -1e9  # never emit PAD
    table[:, 1] = -1e9  # never emit BOS
    return table


def reference_beam(table, cfg):
    """The ranking rules of `temperlab.decoding`, one candidate at a time and
    with no early stop (its bound only skips steps that cannot change the
    result)."""
    live, done = [((BOS_ID,), 0.0)], []
    for length in range(1, cfg.max_length + 1):
        cands = []
        for tokens, lp in live:
            logp = log_softmax(table[tokens[-1]])
            best = sorted(range(len(logp)), key=lambda t: (-logp[t], t))[: cfg.beam_size]
            cands += [(tokens + (t,), lp + float(logp[t])) for t in best]
        penalty = length_penalty(length, cfg.length_penalty_alpha)
        ranked = sorted(cands, key=lambda c: -c[1] / penalty)  # stable: ties stay row-major
        done += [Hypothesis(t, lp, lp / penalty, True) for t, lp in ranked if t[-1] == EOS_ID]
        done = sorted(done, key=lambda h: -h.score)[: cfg.beam_size]
        live = [c for c in ranked if c[0][-1] != EOS_ID][: cfg.beam_size]
        if not live:
            break
    return done or [Hypothesis(live[0][0], live[0][1], live[0][1] / penalty, False)]


# ---------------------------------------------------------------------------
# BLEU


def oracle_bleu(hypotheses, references):
    """Brute-force oracle: pool clipped n-gram counts over the corpus, then
    geometric mean of precisions times the brevity penalty. Orders with no
    hypothesis n-grams are dropped."""
    matched = {n: 0 for n in range(1, 5)}
    totals = {n: 0 for n in range(1, 5)}
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            h_counts = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            r_counts = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            for gram, c in h_counts.items():
                matched[n] += min(c, r_counts[gram])
            totals[n] += max(len(hyp) - n + 1, 0)
    if hyp_len == 0:
        return 0.0
    logs = []
    for n in range(1, 5):
        if totals[n] == 0:
            continue
        if matched[n] == 0:
            return 0.0
        logs.append(math.log(matched[n] / totals[n]))
    precision = math.exp(math.fsum(logs) / len(logs))
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * brevity * precision


def random_corpus(rng, n_sentences, vocab=6, max_len=9):
    out = []
    for _ in range(n_sentences):
        length = int(rng.integers(1, max_len))
        out.append(tuple(f"t{v}" for v in rng.integers(0, vocab, size=length)))
    return out
