import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temperlab.data import (
    BOS_ID,
    EOS_ID,
    MULTILINGUAL_TAGS,
    NUM_RESERVED,
    PAD_ID,
    TASK_KINDS,
    UNK_ID,
    SyntheticTaskSpec,
    Vocabulary,
    build_vocabulary,
    encode_pairs,
    generate_multilingual_corpus,
    generate_synthetic_corpus,
    make_batches,
    pad_batch,
    transduce,
)
from temperlab.errors import ConfigError, ContractError, DataError
from tests.conftest import refusals


# ---------------------------------------------------------------------------
# vocabulary


def test_reserved_ids():
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)


def test_build_vocabulary_single_sentence():
    vocab = build_vocabulary([(("a", "b", "a"), ("a",))], side="source")
    assert len(vocab) == NUM_RESERVED + 2
    assert vocab.id_of("a") == 4  # most frequent first
    assert vocab.id_of("b") == 5


def test_build_vocabulary_deterministic_rebuild():
    pairs = [(("x", "y"), ("y",)), (("y", "z"), ("z",))]
    v1 = build_vocabulary(pairs, "source")
    v2 = build_vocabulary(pairs, "source")
    assert all(v1.id_of(t) == v2.id_of(t) for t in ("x", "y", "z"))


def test_frequency_then_lexicographic_order():
    pairs = [(("b", "a", "b", "c", "a"), ("x",))]
    vocab = build_vocabulary(pairs, "source")
    # a and b tie on frequency 2 -> lexicographic; c has frequency 1
    assert vocab.id_of("a") == 4
    assert vocab.id_of("b") == 5
    assert vocab.id_of("c") == 6


def test_unknown_token_encodes_to_unk():
    vocab = build_vocabulary([(("a",), ("a",))], "source")
    assert vocab.encode(["a", "zzz"]).tolist() == [4, UNK_ID]


def test_vocabulary_save_load_roundtrip(tmp_path):
    vocab = build_vocabulary([(("c", "a", "b", "a"), ("x",))], "source", tags=("<2rev>",))
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert len(loaded) == len(vocab)
    for tok in ("<2rev>", "a", "b", "c"):
        assert loaded.id_of(tok) == vocab.id_of(tok)
    lines = path.read_text().splitlines()
    assert lines[vocab.id_of("a") - NUM_RESERVED] == "a"


def test_tags_occupy_first_ids():
    vocab = build_vocabulary([(("<2rev>", "a"), ("a",))], "source", tags=("<2rev>", "<2copy>"))
    assert vocab.id_of("<2copy>") == 4
    assert vocab.id_of("<2rev>") == 5
    assert vocab.id_of("a") == 6  # tag occurrences in the corpus are not re-counted


# ---------------------------------------------------------------------------
# task spec + generation


SMALL_SPEC = dict(alphabet_size=16, length_range=(3, 7), corpus_sizes=(60, 15, 15), seed=11)


def test_copy_task_noise_free():
    corpus = generate_synthetic_corpus(SyntheticTaskSpec(kind="copy", noise_rate=0.0, **SMALL_SPEC))
    for src, tgt in corpus.train + corpus.dev + corpus.test:
        assert tgt == src


def test_reverse_task_noise_free():
    corpus = generate_synthetic_corpus(SyntheticTaskSpec(kind="reverse", noise_rate=0.0, **SMALL_SPEC))
    for src, tgt in corpus.train:
        assert tgt == tuple(reversed(src))


def test_shift_substitution_oracle():
    assert transduce("shift-substitution", [0, 5, 15], 16) == [3, 8, 2]


def test_bigram_grammar_oracle():
    # output mixes current and previous symbol: t_i = (s_i + s_{i-1}) mod A
    assert transduce("bigram-grammar", [2, 3, 7], 10) == [2, 5, 0]


def test_noise_rate_concentration():
    spec = SyntheticTaskSpec(
        kind="copy", alphabet_size=32, length_range=(8, 12), corpus_sizes=(10_000, 1, 1),
        noise_rate=0.1, seed=5,
    )
    corpus = generate_synthetic_corpus(spec)
    corrupted = total = 0
    for src, tgt in corpus.train:
        total += len(tgt)
        corrupted += sum(a != b for a, b in zip(src, tgt))
    assert corrupted / total == pytest.approx(0.10, abs=0.01)


def test_generation_is_deterministic():
    spec = SyntheticTaskSpec(kind="reverse", noise_rate=0.2, **SMALL_SPEC)
    c1 = generate_synthetic_corpus(spec)
    c2 = generate_synthetic_corpus(spec)
    assert c1.train == c2.train and c1.dev == c2.dev and c1.test == c2.test


@pytest.mark.parametrize(
    "make, digest",
    [
        (
            lambda: generate_synthetic_corpus(SyntheticTaskSpec()),
            "4aa9c6f67aae8d3160e85862df9b4484043db1afcf4d2dda234417f0224fca15",
        ),
        (
            lambda: generate_synthetic_corpus(
                SyntheticTaskSpec(kind="bigram-grammar", alphabet_size=120, length_range=(3, 12),
                                  corpus_sizes=(300, 40, 40), noise_rate=0.3, seed=7)
            ),
            "a2133c46ccafee22cfe2e6757fa6ec494711c0e2a0e0c36c270dc2f4c02707b4",
        ),
        (
            lambda: generate_multilingual_corpus(
                SyntheticTaskSpec(alphabet_size=12, length_range=(2, 9), corpus_sizes=(100, 20, 20),
                                  noise_rate=0.1, seed=3)
            )[0],
            "abc573c8a5e226000dcf2230cb672f8a0058b03e2d53cda52b66559959016a40",
        ),
    ],
)
def test_generated_corpora_are_pinned(make, digest):
    # the desk corpus, a noisy corpus with 3-digit token names and a
    # multilingual one: every campaign number depends on these draws
    assert hashlib.sha256(repr(make().splits()).encode()).hexdigest() == digest


def test_heldout_sources_disjoint_from_train():
    corpus = generate_synthetic_corpus(SyntheticTaskSpec(kind="copy", noise_rate=0.0, **SMALL_SPEC))
    train_sources = {src for src, _ in corpus.train}
    for src, _ in corpus.dev + corpus.test:
        assert src not in train_sources


# ---------------------------------------------------------------------------
# tagging / multilingual


def test_multilingual_counts_and_shared_sources():
    base = SyntheticTaskSpec(kind="copy", noise_rate=0.0, **SMALL_SPEC)
    corpus, tags = generate_multilingual_corpus(base)
    assert len(tags) == 4
    assert len(corpus.train) == 4 * 60
    by_tag = {}
    for src, _ in corpus.train:
        by_tag.setdefault(src[0], []).append(src[1:])
    assert set(by_tag) == set(tags)
    counts = {tag: len(v) for tag, v in by_tag.items()}
    assert set(counts.values()) == {60}
    # the same source set appears once per transduction
    sets = [frozenset(v) for v in by_tag.values()]
    assert all(s == sets[0] for s in sets)


def test_multilingual_transductions_are_correct():
    base = SyntheticTaskSpec(kind="copy", noise_rate=0.0, **SMALL_SPEC)
    corpus, tags = generate_multilingual_corpus(base)
    kind_of = {tag: kind for kind, tag in MULTILINGUAL_TAGS.items()}
    assert [kind_of[tag] for tag in tags] == list(TASK_KINDS)
    seen = set()
    for src, tgt in corpus.dev:
        kind = kind_of[src[0]]
        ids = [int(tok[1:]) for tok in src[1:]]  # tokens are w00 .. w15
        assert [int(tok[1:]) for tok in tgt] == transduce(kind, ids, base.alphabet_size)
        seen.add(kind)
    assert seen == set(TASK_KINDS)


# ---------------------------------------------------------------------------
# batching


def make_encoded(rng, n=37):
    pairs = []
    for _ in range(n):
        s_len = int(rng.integers(2, 9))
        t_len = int(rng.integers(2, 9))
        pairs.append(
            (rng.integers(4, 20, size=s_len).astype(np.int64), rng.integers(4, 20, size=t_len).astype(np.int64))
        )
    return pairs


def test_batches_cover_every_pair_exactly_once(rng):
    encoded = make_encoded(rng)
    batches = make_batches(encoded, batch_size=8, seed=0)
    seen = []
    for b in batches:
        for i in range(b.source.shape[0]):
            src = tuple(x for x in b.source[i] if x != PAD_ID)
            tgt = tuple(x for x in b.target_out[i] if x not in (PAD_ID, EOS_ID))
            seen.append((src, tgt))
    expected = sorted((tuple(s), tuple(t)) for s, t in encoded)
    assert sorted(seen) == expected


def test_batch_order_deterministic_per_seed(rng):
    encoded = make_encoded(rng)
    b1 = make_batches(encoded, 8, seed=4)
    b2 = make_batches(encoded, 8, seed=4)
    assert all(np.array_equal(x.source, y.source) for x, y in zip(b1, b2))
    b3 = make_batches(encoded, 8, seed=5)
    assert any(not np.array_equal(x.source, y.source) for x, y in zip(b1, b3))


def test_bucketing_reduces_padding(rng):
    encoded = make_encoded(rng, n=160)

    def padding_fraction(batches):
        pad = total = 0
        for b in batches:
            pad += int((b.source == PAD_ID).sum()) + int((b.target_out == PAD_ID).sum())
            total += b.source.size + b.target_out.size
        return pad / total

    bucketed = make_batches(encoded, 16, seed=0)
    perm = np.random.default_rng(0).permutation(len(encoded))
    naive = [
        pad_batch([encoded[i] for i in perm[k : k + 16]]) for k in range(0, len(encoded), 16)
    ]
    assert padding_fraction(bucketed) <= padding_fraction(naive)


def test_pad_batch_layout():
    batch = pad_batch([(np.array([4, 5]), np.array([6])), (np.array([7]), np.array([8, 9, 10]))])
    assert batch.source.shape == (2, 2)
    assert batch.target_in.shape == batch.target_out.shape == (2, 4)
    assert batch.target_in[0].tolist() == [BOS_ID, 6, PAD_ID, PAD_ID]
    assert batch.target_out[0].tolist() == [6, EOS_ID, PAD_ID, PAD_ID]
    assert batch.target_in[1].tolist() == [BOS_ID, 8, 9, 10]
    assert batch.target_out[1].tolist() == [8, 9, 10, EOS_ID]
    assert batch.target_mask.sum() == 2 + 4
    assert batch.token_count == 6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=500))
def test_batching_multiset_property(batch_size, seed):
    rng = np.random.default_rng(seed)
    encoded = make_encoded(rng, n=23)
    batches = make_batches(encoded, batch_size, seed=seed)
    assert sum(b.source.shape[0] for b in batches) == 23


def test_encode_pairs_shapes(rng):
    pairs = [(("a", "b"), ("b",))]
    sv = build_vocabulary(pairs, "source")
    tv = build_vocabulary(pairs, "target")
    encoded = encode_pairs(pairs, sv, tv)
    assert encoded[0][0].tolist() == [sv.id_of("a"), sv.id_of("b")]
    assert encoded[0][1].tolist() == [tv.id_of("b")]


# ---------------------------------------------------------------------------
# refusals

test_vocabulary_rejects_empty_corpus_and_bad_side = refusals(
    (lambda: build_vocabulary([], "source"), ContractError, ""),
    (lambda: build_vocabulary([(("a",), ("a",))], "both"), ContractError, ""),
)
test_vocabulary_duplicate_token_rejected = refusals((lambda: Vocabulary(["a", "a"]), DataError, ""))
test_spec_validation = refusals(
    (lambda: SyntheticTaskSpec(alphabet_size=1), ConfigError, ""),
    (lambda: SyntheticTaskSpec(kind="sort"), ConfigError, ""),
    (lambda: SyntheticTaskSpec(length_range=(5, 3)), ConfigError, ""),
    (lambda: SyntheticTaskSpec(noise_rate=1.0), ConfigError, ""),
)
# two symbols make only 6 sources of length 1 or 2: none is left for dev and test
INFEASIBLE = SyntheticTaskSpec(
    kind="copy", alphabet_size=2, length_range=(1, 2), corpus_sizes=(6, 4, 4), noise_rate=0.0
)
test_infeasible_disjointness_raises = refusals((lambda: generate_synthetic_corpus(INFEASIBLE), DataError, ""))
test_batch_size_contract = refusals(
    (lambda: make_batches([(np.array([4]), np.array([4]))], 0, seed=0), ContractError, ""),
)
