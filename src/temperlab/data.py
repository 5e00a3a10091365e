"""Synthetic transduction corpora, vocabularies, tagging, and batching.

Tasks map a random token sequence to a deterministic transduction of it
(copy, reverse, shift-substitution, bigram-grammar), optionally corrupted
by replacing each target token with a different random token at a fixed
rate. The noise models label diversity: with it the loss floor is bounded
away from zero and training dynamics resemble a low-resource setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DataError

Array = np.ndarray

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
NUM_RESERVED = len(RESERVED_TOKENS)

TASK_KINDS = ("copy", "reverse", "shift-substitution", "bigram-grammar")
SHIFT_OFFSET = 3  # shift-substitution adds this to every symbol, mod alphabet

Pair = tuple[tuple[str, ...], tuple[str, ...]]


class Vocabulary:
    """Token <-> id bijection with fixed reserved ids PAD=0 BOS=1 EOS=2 UNK=3.

    Non-reserved tokens (including any language-tag tokens) start at id 4 in
    the order given.
    """

    def __init__(self, tokens: list[str] | tuple[str, ...]):
        self._tokens = tuple(tokens)
        seen = set(RESERVED_TOKENS)
        for tok in self._tokens:
            if tok in seen:
                raise DataError(f"duplicate or reserved token in vocabulary: {tok!r}")
            seen.add(tok)
        self._ids = {tok: NUM_RESERVED + i for i, tok in enumerate(self._tokens)}

    def __len__(self) -> int:
        return NUM_RESERVED + len(self._tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if 0 <= token_id < NUM_RESERVED:
            return RESERVED_TOKENS[token_id]
        idx = token_id - NUM_RESERVED
        if not 0 <= idx < len(self._tokens):
            raise DataError(f"token id {token_id} outside vocabulary of size {len(self)}")
        return self._tokens[idx]

    def encode(self, tokens) -> Array:
        return np.asarray([self.id_of(t) for t in tokens], dtype=np.int64)

    def decode(self, ids) -> tuple[str, ...]:
        return tuple(self.token_of(int(i)) for i in ids)

    def save(self, path) -> None:
        """One non-reserved token per line; line number = id - 4."""
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self._tokens:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens)


def build_vocabulary(pairs: list[Pair], side: str, tags: tuple[str, ...] = ()) -> Vocabulary:
    """Vocabulary over one side of a parallel corpus.

    Tag tokens (sorted) occupy the first non-reserved ids so they stay stable
    across corpora; corpus tokens follow, ordered by descending frequency and
    then lexicographically.
    """
    if side not in ("source", "target"):
        raise ContractError(f"side must be 'source' or 'target', got {side!r}")
    if not pairs:
        raise ContractError("cannot build a vocabulary from an empty corpus")
    idx = 0 if side == "source" else 1
    counts: dict[str, int] = {}
    tag_set = set(tags)
    for pair in pairs:
        for tok in pair[idx]:
            if tok not in tag_set:
                counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocabulary(tuple(sorted(tag_set)) + tuple(ordered))


# ---------------------------------------------------------------------------
# synthetic tasks


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Recipe for one synthetic transduction corpus."""

    kind: str = "copy"
    alphabet_size: int = 64
    length_range: tuple[int, int] = (5, 20)
    corpus_sizes: tuple[int, int, int] = (2000, 200, 200)  # train / dev / test
    noise_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}; choose from {TASK_KINDS}")
        if self.alphabet_size < 2:
            raise ConfigError(f"alphabet_size must be at least 2, got {self.alphabet_size}")
        lo, hi = self.length_range
        if not 1 <= lo <= hi:
            raise ConfigError(f"invalid length_range {self.length_range}")
        if any(n < 1 for n in self.corpus_sizes):
            raise ConfigError(f"corpus_sizes must be positive, got {self.corpus_sizes}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        check_seed("task.seed", self.seed)


def check_seed(name: str, value) -> None:
    """Raise ConfigError unless `value` is a non-negative int (not a bool),
    which numpy's generators would otherwise reject mid-command."""
    if type(value) is not int or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass
class ParallelCorpus:
    train: list[Pair] = field(default_factory=list)
    dev: list[Pair] = field(default_factory=list)
    test: list[Pair] = field(default_factory=list)

    def splits(self) -> dict[str, list[Pair]]:
        return {"train": self.train, "dev": self.dev, "test": self.test}


def _token_names(alphabet_size: int) -> tuple[str, ...]:
    """The token of each symbol id, zero-padded to one width."""
    width = len(str(alphabet_size - 1))
    return tuple(f"w{i:0{width}d}" for i in range(alphabet_size))


def transduce(kind: str, source: list[int], alphabet_size: int) -> list[int]:
    """Apply the deterministic transduction for `kind` to symbol ids."""
    if kind == "copy":
        return list(source)
    if kind == "reverse":
        return list(reversed(source))
    if kind == "shift-substitution":
        return [(s + SHIFT_OFFSET) % alphabet_size for s in source]
    if kind == "bigram-grammar":
        # each output symbol mixes the current and previous input symbol
        prev = 0
        out = []
        for s in source:
            out.append((s + prev) % alphabet_size)
            prev = s
        return out
    raise ConfigError(f"unknown task kind {kind!r}")


def _apply_noise(target: list[int], rate: float, rng: np.random.Generator, alphabet_size: int) -> list[int]:
    if rate == 0.0:
        return target
    out = list(target)
    hits = rng.random(len(out)) < rate
    for i in np.flatnonzero(hits).tolist():
        # replace with a uniformly random different symbol
        out[i] = int((out[i] + 1 + rng.integers(alphabet_size - 1)) % alphabet_size)
    return out


def _draw_source(rng: np.random.Generator, spec: SyntheticTaskSpec) -> tuple[int, ...]:
    lo, hi = spec.length_range
    n = int(rng.integers(lo, hi + 1))
    return tuple(rng.integers(0, spec.alphabet_size, size=n).tolist())


def _make_pairs(
    rng: np.random.Generator,
    spec: SyntheticTaskSpec,
    count: int,
    forbidden: set[tuple[int, ...]] | None,
) -> tuple[list[tuple[tuple[int, ...], list[int]]], set[tuple[int, ...]]]:
    pairs = []
    sources: set[tuple[int, ...]] = set()
    for _ in range(count):
        src = _draw_source(rng, spec)
        if forbidden is not None:
            attempts = 0
            while src in forbidden or src in sources:
                src = _draw_source(rng, spec)
                attempts += 1
                if attempts > 1000:
                    raise DataError(
                        "cannot draw held-out sources disjoint from training; "
                        "the task space is too small for the requested corpus sizes"
                    )
            sources.add(src)
        tgt = transduce(spec.kind, list(src), spec.alphabet_size)
        tgt = _apply_noise(tgt, spec.noise_rate, rng, spec.alphabet_size)
        pairs.append((src, tgt))
    return pairs, sources


def generate_synthetic_corpus(spec: SyntheticTaskSpec) -> ParallelCorpus:
    """Deterministic train/dev/test pair sets from disjoint random streams.

    Dev and test source sequences never occur in train (nor in each other).
    """
    train_ss, dev_ss, test_ss = np.random.SeedSequence(spec.seed).spawn(3)
    n_train, n_dev, n_test = spec.corpus_sizes

    train, _ = _make_pairs(np.random.default_rng(train_ss), spec, n_train, None)
    train_sources = {src for src, _ in train}
    dev, dev_sources = _make_pairs(np.random.default_rng(dev_ss), spec, n_dev, train_sources)
    test, _ = _make_pairs(np.random.default_rng(test_ss), spec, n_test, train_sources | dev_sources)

    names = _token_names(spec.alphabet_size)

    def to_tokens(int_pairs) -> list[Pair]:
        return [(tuple(names[s] for s in src), tuple(names[t] for t in tgt)) for src, tgt in int_pairs]

    return ParallelCorpus(train=to_tokens(train), dev=to_tokens(dev), test=to_tokens(test))


MULTILINGUAL_TAGS = {
    "copy": "<2copy>",
    "reverse": "<2rev>",
    "shift-substitution": "<2shift>",
    "bigram-grammar": "<2gram>",
}


def generate_multilingual_corpus(base: SyntheticTaskSpec) -> tuple[ParallelCorpus, tuple[str, ...]]:
    """One-to-many corpus: a shared source set appears once per transduction
    of `TASK_KINDS`, each copy prefixed with that transduction's tag token.

    Returns the corpus and the tag tokens that must be registered in the
    source vocabulary.
    """
    shared = generate_synthetic_corpus(
        SyntheticTaskSpec(
            kind="copy",
            alphabet_size=base.alphabet_size,
            length_range=base.length_range,
            corpus_sizes=base.corpus_sizes,
            noise_rate=0.0,
            seed=base.seed,
        )
    )
    noise_rng = np.random.default_rng(np.random.SeedSequence((base.seed, 9173)))
    names = _token_names(base.alphabet_size)
    width_tokens = {name: i for i, name in enumerate(names)}
    out = ParallelCorpus()
    tags = tuple(MULTILINGUAL_TAGS[k] for k in TASK_KINDS)
    for split_name, pairs in shared.splits().items():
        bucket = getattr(out, split_name)
        for kind, tag in zip(TASK_KINDS, tags):
            for src_tokens, _ in pairs:
                src_ids = [width_tokens[t] for t in src_tokens]
                tgt_ids = transduce(kind, src_ids, base.alphabet_size)
                tgt_ids = _apply_noise(tgt_ids, base.noise_rate, noise_rng, base.alphabet_size)
                bucket.append(
                    (
                        (tag,) + tuple(src_tokens),
                        tuple(names[t] for t in tgt_ids),
                    )
                )
    return out, tags


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """Padded id arrays for one training step.

    `target_in` is BOS-led, `target_out` is the same sequence shifted left
    with EOS appended; `target_mask` marks the non-pad positions of
    `target_out`, which are the only positions that enter the loss and the
    entropy averages.
    """

    source: Array
    target_in: Array
    target_out: Array
    source_mask: Array
    target_mask: Array
    index: int = 0

    @property
    def token_count(self) -> int:
        return int(self.target_mask.sum())


def encode_pairs(pairs: list[Pair], src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> list[tuple[Array, Array]]:
    return [(src_vocab.encode(s), tgt_vocab.encode(t)) for s, t in pairs]


def pad_batch(encoded: list[tuple[Array, Array]], index: int = 0) -> Batch:
    b = len(encoded)
    s_len = max(len(s) for s, _ in encoded)
    t_len = max(len(t) for _, t in encoded) + 1  # room for BOS / EOS shift
    source = np.full((b, s_len), PAD_ID, dtype=np.int64)
    target_in = np.full((b, t_len), PAD_ID, dtype=np.int64)
    target_out = np.full((b, t_len), PAD_ID, dtype=np.int64)
    for i, (s, t) in enumerate(encoded):
        source[i, : len(s)] = s
        target_in[i, 0] = BOS_ID
        target_in[i, 1 : len(t) + 1] = t
        target_out[i, : len(t)] = t
        target_out[i, len(t)] = EOS_ID
    return Batch(
        source=source,
        target_in=target_in,
        target_out=target_out,
        source_mask=source != PAD_ID,
        target_mask=target_out != PAD_ID,
        index=index,
    )


def make_batches(encoded: list[tuple[Array, Array]], batch_size: int, seed: int) -> list[Batch]:
    """Deterministically shuffled, length-bucketed batches covering every
    pair exactly once."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be at least 1, got {batch_size}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(len(encoded))
    # stable sort by source length over the permuted order: buckets by length
    # while epoch-to-epoch composition still varies among equal lengths
    order = sorted(perm.tolist(), key=lambda i: len(encoded[i][0]))
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    rng.shuffle(chunks)
    return [pad_batch([encoded[i] for i in chunk], index=ci) for ci, chunk in enumerate(chunks)]
