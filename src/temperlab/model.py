"""Small post-norm transformer encoder-decoder.

Supports an optional recurrently-stacked mode in which one encoder layer
and one decoder layer are created and their parameters reused at every
stack position, shrinking the model without changing its depth. Positional
encoding is sinusoidal (parameter-free) so parameter accounting under
sharing stays clean. Source/target embeddings and the output projection
are untied.

Dropout sites, each independently configurable: attention weights,
embedding sums, and residual branches.

Training and teacher-forced scoring run on the tape. Decoding runs an
incremental decoder on plain arrays (`decode_start`, `decode_next`,
`decode_reorder`): it caches the self-attention keys and values, as in
fairseq's incremental decoding, and calls the same forward halves
(`tensor.embedding`, `split_heads`, `attention_weights`, `merge_heads`,
`residual_norm_forward`, `feed_forward`) as the tape's primitives do.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .data import PAD_ID
from .errors import ConfigError, ContractError, DataError, NumericError
from .tensor import Tensor

Array = np.ndarray

LN_EPS = 1e-6
MASK_VALUE = -1e9


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs. Vocabulary sizes of 0 mean "fill in from data"
    and must be resolved before `init_parameters`."""

    source_vocab: int = 0
    target_vocab: int = 0
    num_layers: int = 2
    model_dim: int = 64
    num_heads: int = 4
    ff_dim: int = 128
    attention_dropout: float = 0.1
    embedding_dropout: float = 0.1
    layer_dropout: float = 0.1
    recurrent_stacking: bool = False
    max_positions: int = 64

    def __post_init__(self):
        problems = []
        if self.source_vocab < 0 or self.target_vocab < 0:
            problems.append("vocabulary sizes must be non-negative")
        for name in ("num_layers", "model_dim", "num_heads", "ff_dim", "max_positions"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be positive")
        if self.num_heads >= 1 and self.model_dim % self.num_heads != 0:
            problems.append(
                f"model_dim {self.model_dim} is not divisible by num_heads {self.num_heads}"
            )
        for name in ("attention_dropout", "embedding_dropout", "layer_dropout"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                problems.append(f"{name} must be in [0, 1), got {rate}")
        if problems:
            raise ConfigError("; ".join(problems))

    def without_dropout(self) -> "ModelConfig":
        return dataclasses.replace(
            self, attention_dropout=0.0, embedding_dropout=0.0, layer_dropout=0.0
        )

    def with_vocabs(self, source_vocab: int, target_vocab: int) -> "ModelConfig":
        return dataclasses.replace(self, source_vocab=source_vocab, target_vocab=target_vocab)


@dataclass
class EncodedSource:
    """Immutable encoder output reused across decode steps."""

    memory: Array  # [batch, src_len, model_dim]
    source_mask: Array  # [batch, src_len] bool, False at padding


@dataclass
class DecoderState:
    """Incremental decoding cache for `rows` hypotheses of one or many
    sources, started by `TransformerModel.decode_start`, grown one token per
    row by `decode_next` and gathered by `decode_reorder`.

    The cross-attention keys and values depend only on the sources, so
    `decode_start` computes them once, one row per source. They then hold
    either one row per decoder row, where row r attends to its own source
    and `decode_reorder` gathers them with the self-attention rows, or a
    single row, which every decoder row attends to by broadcasting. The
    self-attention keys and values grow one position per step at each stack
    position. Keys are stored with their last two axes swapped, ready for
    `tensor.attention_weights`.
    """

    cross_keys: list[Array]  # per distinct decoder layer: [rows or 1, heads, head_dim, src_len]
    cross_values: list[Array]  # per distinct decoder layer: [rows or 1, heads, src_len, head_dim]
    cross_mask: Array  # [rows or 1, 1, 1, src_len], MASK_VALUE at padding
    self_keys: list[Array]  # per stack position: [rows, heads, head_dim, length]
    self_values: list[Array]  # per stack position: [rows, heads, length, head_dim]
    length: int = 0  # tokens consumed per row; the next one sits at this position


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@functools.lru_cache(maxsize=16)
def _sinusoidal_positions(max_positions: int, dim: int) -> Array:
    """The position table, built once per shape and shared read-only."""
    pos = np.arange(max_positions, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((max_positions, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table.flags.writeable = False
    return table


class TransformerModel:
    """Parameter vector plus forward passes; owns no training state.

    `flat` holds every parameter in `parameter_layout` order as one float64
    vector, and `params[name]` is a tracked `Tensor` viewing its slice, so a
    write through either is seen by both.
    """

    def __init__(self, config: ModelConfig, flat: Array):
        self.config = config
        views = parameter_views(config, flat)
        if not np.all(np.isfinite(flat)):
            raise NumericError("parameter vector holds non-finite values")
        self.flat = flat
        self.params = {name: tt.wrap(view, tracked=True) for name, view in views.items()}
        self._positions = _sinusoidal_positions(config.max_positions, config.model_dim)

    # -- structure ---------------------------------------------------------

    def _layer_index(self, i: int) -> int:
        return 0 if self.config.recurrent_stacking else i

    # -- forward -----------------------------------------------------------

    def _check_ids(self, ids: Array, vocab: int, what: str) -> None:
        bad = (ids < 0) | (ids >= vocab)
        if bad.any():
            pos = tuple(int(v) for v in np.argwhere(bad)[0])
            raise DataError(
                f"{what} token id {int(ids[pos])} out of range [0, {vocab}) at position {pos}"
            )

    def _embed(self, table_name: str, ids: Array, rate: float, train: bool, rng) -> Tensor:
        cfg = self.config
        if ids.shape[-1] > cfg.max_positions:
            raise DataError(f"sequence length {ids.shape[-1]} exceeds max_positions {cfg.max_positions}")
        x = tt.embed(self.params[table_name], ids, self._positions[: ids.shape[-1]])
        if train and rate > 0.0:
            x = tt.dropout(x, rate, rng)
        return x

    def _attention(
        self, prefix: str, query_in: Tensor, key_in: Tensor, mask: Array | None, train: bool, rng
    ) -> Tensor:
        cfg = self.config
        p = self.params
        q = tt.linear(query_in, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
        k = tt.linear(key_in, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
        v = tt.linear(key_in, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
        keep = None
        if train and cfg.attention_dropout > 0.0:
            shape = (query_in.shape[0], cfg.num_heads, query_in.shape[1], key_in.shape[1])
            keep = tt.dropout_mask(shape, cfg.attention_dropout, rng)
        ctx = tt.attention(q, k, v, cfg.num_heads, mask, keep, cfg.attention_dropout)
        return tt.linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        return tt.ffn(x, *(p[f"{prefix}.{n}"] for n in ("w1", "b1", "w2", "b2")))

    def _residual(self, x: Tensor, branch: Tensor, ln_prefix: str, train: bool, rng) -> Tensor:
        rate = self.config.layer_dropout
        keep = tt.dropout_mask(branch.shape, rate, rng) if train and rate > 0.0 else None
        gain, bias = self.params[f"{ln_prefix}.gain"], self.params[f"{ln_prefix}.bias"]
        return tt.residual_norm(x, branch, keep, rate, gain, bias, LN_EPS)

    def _encoder_stack(self, source: Array, train: bool, rng) -> Tensor:
        cfg = self.config
        self._check_ids(source, cfg.source_vocab, "source")
        pad = np.where(source == PAD_ID, MASK_VALUE, 0.0)[:, None, None, :]
        x = self._embed("src_embed", source, cfg.embedding_dropout, train, rng)
        for i in range(cfg.num_layers):
            li = self._layer_index(i)
            attn = self._attention(f"enc{li}.attn", x, x, pad, train, rng)
            x = self._residual(x, attn, f"enc{li}.ln1", train, rng)
            ff = self._ffn(f"enc{li}.ff", x)
            x = self._residual(x, ff, f"enc{li}.ln2", train, rng)
        return x

    def _decoder_stack(
        self, target_in: Array, memory: Tensor, source_mask: Array, train: bool, rng
    ) -> Tensor:
        cfg = self.config
        self._check_ids(target_in, cfg.target_vocab, "target")
        t_len = target_in.shape[-1]
        causal = np.triu(np.full((t_len, t_len), MASK_VALUE), k=1)[None, None, :, :]
        cross = np.where(source_mask, 0.0, MASK_VALUE)[:, None, None, :]
        y = self._embed("tgt_embed", target_in, cfg.embedding_dropout, train, rng)
        for i in range(cfg.num_layers):
            li = self._layer_index(i)
            attn = self._attention(f"dec{li}.self", y, y, causal, train, rng)
            y = self._residual(y, attn, f"dec{li}.ln1", train, rng)
            xattn = self._attention(f"dec{li}.cross", y, memory, cross, train, rng)
            y = self._residual(y, xattn, f"dec{li}.ln2", train, rng)
            ff = self._ffn(f"dec{li}.ff", y)
            y = self._residual(y, ff, f"dec{li}.ln3", train, rng)
        p = self.params
        return tt.linear(y, p["out_w"], p["out_b"])

    def forward_teacher_forced(
        self,
        source: Array,
        target_in: Array,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Logits [batch, target_len, target_vocab] for a BOS-led target batch.

        Causal masking guarantees the logits at position i depend only on the
        source and target positions <= i; position i's logits score the token
        at position i+1 of the same sequence (EOS at the end).
        """
        if train and rng is None:
            raise ConfigError("training-mode forward needs a dropout rng")
        source = np.asarray(source, dtype=np.int64)
        target_in = np.asarray(target_in, dtype=np.int64)
        memory = self._encoder_stack(source, train, rng)
        return self._decoder_stack(target_in, memory, source != PAD_ID, train, rng)

    # -- decoding interface --------------------------------------------------

    def encode(self, source: Array) -> EncodedSource:
        """Evaluation-mode encoder pass over a single source sequence."""
        source = np.asarray(source, dtype=np.int64).reshape(1, -1)
        return self.encode_batch(source)

    def encode_batch(self, source: Array) -> EncodedSource:
        source = np.asarray(source, dtype=np.int64)
        memory = self._encoder_stack(source, train=False, rng=None)
        return EncodedSource(memory=memory.array, source_mask=source != PAD_ID)

    def decode_step(self, encoded: EncodedSource, prefix: Array) -> Array:
        """Next-token logits [target_vocab] for one BOS-led prefix.

        Equals the last-position logits of a teacher-forced forward pass over
        the same prefix.
        """
        prefix = np.asarray(prefix, dtype=np.int64).reshape(1, -1)
        return self.decode_step_batch(encoded, prefix)[0]

    def decode_step_batch(self, encoded: EncodedSource, prefixes: Array) -> Array:
        """Next-token logits [batch, target_vocab] for equal-length prefixes,
        by running the cached decoder over them."""
        prefixes = np.asarray(prefixes, dtype=np.int64)
        state = self.decode_start(encoded)
        for t in range(prefixes.shape[1]):
            logits = self.decode_next(state, prefixes[:, t])
        return logits

    # -- cached decoder on plain arrays ---------------------------------------

    def _linear(self, x: Array, prefix: str, which: str) -> Array:
        p = self.params
        return x @ p[f"{prefix}.w{which}"].array + p[f"{prefix}.b{which}"].array

    def _attend(self, prefix: str, q: Array, keys: Array, values: Array, mask: Array | None) -> Array:
        """Attention core and output projection for [rows, heads, 1, head_dim]
        queries against cached keys and values."""
        ctx = tt.attention_weights(q, keys, mask) @ values
        return self._linear(tt.merge_heads(ctx), prefix, "o")

    def _norm(self, x: Array, branch: Array, ln_prefix: str) -> Array:
        p = self.params
        gain, bias = p[f"{ln_prefix}.gain"].array, p[f"{ln_prefix}.bias"].array
        return tt.residual_norm_forward(x, branch, None, gain, bias, LN_EPS)[0]

    def decode_start(self, encoded: EncodedSource) -> DecoderState:
        """A cache with one empty row per encoded source, holding each
        distinct decoder layer's cross-attention keys and values."""
        cfg = self.config
        rows = encoded.memory.shape[0]
        head_dim = cfg.model_dim // cfg.num_heads
        cross_keys, cross_values = [], []
        for li in range(1 if cfg.recurrent_stacking else cfg.num_layers):
            cross_keys.append(tt.split_keys(self._linear(encoded.memory, f"dec{li}.cross", "k"), cfg.num_heads))
            cross_values.append(tt.split_heads(self._linear(encoded.memory, f"dec{li}.cross", "v"), cfg.num_heads))
        return DecoderState(
            cross_keys=cross_keys,
            cross_values=cross_values,
            cross_mask=np.where(encoded.source_mask, 0.0, MASK_VALUE)[:, None, None, :],
            self_keys=[np.zeros((rows, cfg.num_heads, head_dim, 0))] * cfg.num_layers,
            self_values=[np.zeros((rows, cfg.num_heads, 0, head_dim))] * cfg.num_layers,
        )

    def decode_next(self, state: DecoderState, tokens: Array) -> Array:
        """Feed one token per row at position `state.length`, append each
        layer's self-attention key and value to the cache, and return the
        next-token logits [rows, target_vocab].

        The same blocks as `_decoder_stack` for the newest position only; no
        causal mask is needed, because the cache holds no later position.
        """
        cfg = self.config
        pos = state.length
        if pos >= cfg.max_positions:
            raise DataError(f"sequence length {pos + 1} exceeds max_positions {cfg.max_positions}")
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1, 1)
        self._check_ids(tokens, cfg.target_vocab, "target")
        p = self.params
        y = tt.embedding(p["tgt_embed"].array, tokens, self._positions[pos : pos + 1])
        for i in range(cfg.num_layers):
            li = self._layer_index(i)
            q, k, v = (tt.split_heads(self._linear(y, f"dec{li}.self", w), cfg.num_heads) for w in "qkv")
            keys = state.self_keys[i] = np.concatenate([state.self_keys[i], k.swapaxes(-1, -2)], axis=-1)
            values = state.self_values[i] = np.concatenate([state.self_values[i], v], axis=-2)
            y = self._norm(y, self._attend(f"dec{li}.self", q, keys, values, None), f"dec{li}.ln1")
            q = tt.split_heads(self._linear(y, f"dec{li}.cross", "q"), cfg.num_heads)
            keys, values = state.cross_keys[li], state.cross_values[li]
            y = self._norm(y, self._attend(f"dec{li}.cross", q, keys, values, state.cross_mask), f"dec{li}.ln2")
            ff = tt.feed_forward(y, *(p[f"dec{li}.ff.{n}"].array for n in ("w1", "b1", "w2", "b2")))
            y = self._norm(y, ff[0], f"dec{li}.ln3")
        state.length = pos + 1
        return (y @ p["out_w"].array + p["out_b"].array)[:, 0, :]

    def decode_reorder(self, state: DecoderState, parents: Array) -> None:
        """Make row j of the cache a copy of row `parents[j]`; the number of
        rows may change. Cross-attention rows are gathered too when they are
        one per decoder row, so each row keeps its own source; a single
        source row stays shared."""
        parents = np.asarray(parents, dtype=np.int64)
        state.self_keys = [k[parents] for k in state.self_keys]
        state.self_values = [v[parents] for v in state.self_values]
        if state.cross_mask.shape[0] > 1:
            state.cross_keys = [k[parents] for k in state.cross_keys]
            state.cross_values = [v[parents] for v in state.cross_values]
            state.cross_mask = state.cross_mask[parents]


@functools.lru_cache(maxsize=16)
def parameter_layout(config: ModelConfig) -> tuple[tuple[str, tuple[int, ...], str], ...]:
    """(name, shape, initialiser) of every parameter, in initialisation draw
    order; the initialiser is "glorot", "zeros" or "ones". Built once per
    configuration.

    With recurrent stacking only layer 0 exists per stack, so the layer
    parameters of a 1-layer shared model are bitwise identical to the
    unshared 1-layer model at the same seed.
    """
    d, ff, tgt = config.model_dim, config.ff_dim, config.target_vocab
    attention = [(w, (d, d), "glorot") for w in ("wq", "wk", "wv", "wo")]
    attention += [(b, (d,), "zeros") for b in ("bq", "bk", "bv", "bo")]
    norm = [("gain", (d,), "ones"), ("bias", (d,), "zeros")]
    ffn = [("w1", (d, ff), "glorot"), ("b1", (ff,), "zeros")]
    ffn += [("w2", (ff, d), "glorot"), ("b2", (d,), "zeros")]
    enc = (("attn", attention), ("ln1", norm), ("ff", ffn), ("ln2", norm))
    dec = (("self", attention), ("ln1", norm), ("cross", attention), ("ln2", norm))
    dec += (("ff", ffn), ("ln3", norm))
    layout = [("src_embed", (config.source_vocab, d), "glorot"), ("tgt_embed", (tgt, d), "glorot")]
    stack = 1 if config.recurrent_stacking else config.num_layers
    for side, blocks in (("enc", enc), ("dec", dec)):
        for i in range(stack):
            for block, parts in blocks:
                layout += [(f"{side}{i}.{block}.{p}", shape, init) for p, shape, init in parts]
    return tuple(layout + [("out_w", (d, tgt), "glorot"), ("out_b", (tgt,), "zeros")])


@functools.lru_cache(maxsize=16)
def _slices(config: ModelConfig) -> tuple[int, tuple[tuple[str, slice, tuple[int, ...]], ...]]:
    """The parameter count and each parameter's (name, slice, shape) in the
    flat vector, in `parameter_layout` order."""
    out, start = [], 0
    for name, shape, _ in parameter_layout(config):
        out.append((name, slice(start, start + math.prod(shape)), shape))
        start += math.prod(shape)
    return start, tuple(out)


def parameter_views(config: ModelConfig, flat: Array) -> dict[str, Array]:
    """Every parameter's view of `flat`, a float64 vector that holds them
    in `parameter_layout` order."""
    size, slices = _slices(config)
    if flat.dtype != np.float64 or flat.shape != (size,):
        raise ContractError(f"parameter vector {flat.dtype}{flat.shape}, the layout needs float64({size},)")
    return {name: flat[part].reshape(shape) for name, part, shape in slices}


def init_parameters(config: ModelConfig, seed: int) -> TransformerModel:
    """Deterministic initialisation: scaled-uniform (Glorot) matrices drawn
    in `parameter_layout` order, zero biases, unit norm gains."""
    if config.source_vocab < 1 or config.target_vocab < 1:
        raise ConfigError(
            "vocabulary sizes must be resolved to positive values before initialisation"
        )
    rng = np.random.default_rng(seed)
    parts = []
    for _name, shape, init in parameter_layout(config):
        if init == "glorot":
            parts.append(_glorot(rng, *shape).ravel())
        else:
            parts.append(np.full(math.prod(shape), 1.0 if init == "ones" else 0.0))
    return TransformerModel(config, np.concatenate(parts))


def parameter_count(model: TransformerModel) -> int:
    return model.flat.size


def save_checkpoint(path, model: TransformerModel, step: int) -> None:
    """npz container: one float64 array per parameter name, plus the config
    as JSON and the training step. Round-trips bitwise."""
    payload = {name: p.array for name, p in model.params.items()}
    payload["__config__"] = np.asarray(json.dumps(dataclasses.asdict(model.config)))
    payload["__step__"] = np.asarray(step, dtype=np.int64)
    np.savez(path, **payload)


def load_checkpoint(path) -> tuple[TransformerModel, int]:
    """Inverse of `save_checkpoint`; the arrays must match the names and
    shapes of the stored configuration's `parameter_layout`. Each array is
    copied into its slice of one preallocated vector as it is read, so at
    most one of them is held besides the vector."""
    try:
        with np.load(path, allow_pickle=False) as zf:
            try:
                config = ModelConfig(**json.loads(str(zf["__config__"])))
                step = int(zf["__step__"])
            except (KeyError, TypeError, ValueError, ConfigError) as exc:
                raise DataError(f"checkpoint {path} has a malformed configuration: {exc}") from exc
            flat = np.empty(_slices(config)[0])
            views = parameter_views(config, flat)
            expected = {name: view.shape for name, view in views.items()}
            found = {}
            for name in set(zf.files) - {"__config__", "__step__"}:
                arr = zf[name]
                found[name] = arr.shape
                if arr.shape == expected.get(name):
                    views[name][...] = arr
                    if not np.all(np.isfinite(arr)):
                        raise DataError(f"checkpoint {path} parameter {name} holds non-finite values")
    except (ValueError, TypeError, zipfile.BadZipFile) as exc:
        raise DataError(f"checkpoint {path} is not an .npz archive: {exc}") from exc
    if found != expected:
        name = min(n for n in expected.keys() | found.keys() if found.get(n) != expected.get(n))
        raise DataError(
            f"checkpoint parameter {name} has shape {found.get(name)}, the stored "
            f"configuration needs {expected.get(name)} (None: no such parameter)"
        )
    return TransformerModel(config, flat), step
