"""The tracer records the calls it wraps, labels backward callables by
primitive, computes self time, and leaves temperlab as it found it.

    python3 -m pytest perfbench/test_tracer.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from temperlab import tensor as tt  # noqa: E402

import tracer  # noqa: E402


def test_spans_of_a_small_tape():
    originals = {p: getattr(tt, p) for p in tracer.PRIMITIVES}
    t = tracer.Tracer()
    t.install()
    try:
        w = tt.Tensor(np.ones((3, 2)), tracked=True)
        with tt.GradientTape() as tape:
            y = tt.sum_all(tt.relu(tt.matmul(tt.Tensor(np.ones((4, 3))), w)))
        grads = tt.backward(tape, y)
    finally:
        t.uninstall()
    assert all(getattr(tt, p) is f for p, f in originals.items())
    assert np.array_equal(grads[w], np.full((3, 2), 4.0))

    spans = t.spans(0, t.mark())
    for prim in ("matmul", "relu", "sum_all"):
        assert spans.calls(f"tensor.{prim}") == 1
        assert spans.calls(f"tensor.{prim}.bwd") == 1
    assert t.tape_nodes == [(spans.lo + 3, 3)]
    # backward's children are the three primitive backward spans
    child = sum(spans.ms(f"tensor.{p}.bwd") for p in ("matmul", "relu", "sum_all"))
    assert abs(spans.ms("tensor.backward", "self_") - (spans.ms("tensor.backward") - child)) < 1e-9

    metrics = tracer.layer_metrics(spans, t.spans(0, 0), 1, {}, 0.0)
    assert list(metrics) == list(tracer.PER_LAYER_UNITS)
    assert metrics["tensor.matmul.calls"] == 1 and metrics["tensor.tape_nodes"] == 3
