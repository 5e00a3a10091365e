# temperlab before numpy: importing it pins the BLAS threads, which only
# works before numpy loads (README, Reproducibility)
import temperlab  # noqa: F401

import json

import numpy as np
import pytest

from temperlab.data import (
    SyntheticTaskSpec,
    build_vocabulary,
    generate_synthetic_corpus,
)
from temperlab.model import ModelConfig, init_parameters
from temperlab.tempering import TemperingConfig
from temperlab.training import TaskData, TrainerConfig, train


def make_task_data(spec: SyntheticTaskSpec, decode_max_length: int = 12) -> TaskData:
    corpus = generate_synthetic_corpus(spec)
    src_vocab = build_vocabulary(corpus.train, "source")
    tgt_vocab = build_vocabulary(corpus.train, "target")
    return TaskData(
        train=corpus.train,
        dev=corpus.dev,
        test=corpus.test,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        decode_max_length=decode_max_length,
    )


TINY_MODEL = dict(num_layers=1, model_dim=32, num_heads=2, ff_dim=64, max_positions=16)


@pytest.fixture(scope="session")
def tiny_copy_data() -> TaskData:
    """Noise-free copy task small enough to master in a few hundred steps."""
    spec = SyntheticTaskSpec(
        kind="copy",
        alphabet_size=12,
        length_range=(3, 6),
        corpus_sizes=(800, 40, 40),
        noise_rate=0.0,
        seed=7,
    )
    return make_task_data(spec)


@pytest.fixture(scope="session")
def trained_copy(tiny_copy_data):
    """A model trained to (near) perfection on the tiny copy task."""
    data = tiny_copy_data
    cfg = ModelConfig(
        source_vocab=len(data.src_vocab), target_vocab=len(data.tgt_vocab), **TINY_MODEL
    )
    model = init_parameters(cfg, seed=3)
    trainer = TrainerConfig(
        lr_scale=0.1,
        warmup_steps=80,
        batch_size=16,
        eval_interval=200,
        max_steps=800,
        seed=3,
    )
    tempering = TemperingConfig(temperature=1.0, rescale_loss=True, label_smoothing=0.0)
    result = train(model, data, tempering, trainer)
    return result, data


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def micro_data() -> TaskData:
    """A 40-pair noise-free copy task over 8 symbols."""
    spec = SyntheticTaskSpec(
        kind="copy", alphabet_size=8, length_range=(2, 4), corpus_sizes=(40, 10, 10),
        noise_rate=0.0, seed=21,
    )
    return make_task_data(spec, decode_max_length=8)


def micro_model(data: TaskData, seed: int = 0):
    cfg = ModelConfig(
        source_vocab=len(data.src_vocab), target_vocab=len(data.tgt_vocab),
        num_layers=1, model_dim=16, num_heads=2, ff_dim=24, max_positions=10,
    )
    return init_parameters(cfg, seed)


def shrink_parameter(path, name):
    """Rewrite a checkpoint with the first axis of one parameter one shorter."""
    with np.load(path) as zf:
        payload = dict(zf)
    payload[name] = payload[name][:-1]
    np.savez(path, **payload)


def edit_stored_config(path, **changes):
    """Rewrite a checkpoint with keys of its `__config__` JSON changed or added."""
    with np.load(path) as zf:
        payload = dict(zf)
    config = json.loads(str(payload["__config__"]))
    payload["__config__"] = np.array(json.dumps({**config, **changes}))
    np.savez(path, **payload)


def refusals(*rows):
    """A test that each row's `call()` raises: rows are (call, error type,
    message fragment), and the fragment must occur in the message. Bound to
    a `test_` name in a module, it is collected under that name."""

    def test():
        for call, error, fragment in rows:
            try:
                call()
            except error as exc:
                assert fragment in str(exc), fragment
            else:
                code = call.__code__
                pytest.fail(f"{code.co_filename}:{code.co_firstlineno} raised no {error.__name__}")

    return test
