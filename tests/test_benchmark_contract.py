"""The benchmark under `perfbench/` drives temperlab through its public
names and never changes with it, so a change under `src/` must keep every
name and behaviour it uses. This runs the benchmark's own tracer, the
set-up and warm-up of its `train` and `greedy` workloads, and one checked
round each of its `train` workload over 20 batches, of its `beam` workload
over 20 sentences and of its `sweep` workload, in process and writing
under the test's temporary directory, against the current sources."""

import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_workloads_run_on_the_current_api(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    import tracer
    import workloads

    t = tracer.Tracer()
    try:
        t.install()  # fails if a wrapped function or method is gone
        train = workloads.Train(0)
        train.setup()
        train.warm_up()
        assert t.spans(0, t.mark()).calls("training.adam") == workloads.WARM_UP_OPS
        # the train check also reads the gradient of the logits that it holds
        batches = train._batches(0)[:20]
        monkeypatch.setattr(train, "_batches", lambda epoch: batches)
        train.round([])
        assert train.check() == []

        decode = workloads.Decode(0, beam=False)
        decode.setup()
        decode.warm_up()
        probe = decode.probe()
        assert sorted(probe) == sorted(tracer.PREFIX_LENGTHS)

        # the beam check rescores every hypothesis and wants them best first
        beam = workloads.Decode(0, beam=True)
        beam.setup()
        beam.warm_up()
        beam.sources = beam.sources[:20]
        beam.round([])
        assert beam.check() == []

        # the sweep check reads the run directories and records that the sweep wrote
        monkeypatch.setattr(workloads, "OUT", tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one CPU: no worker process
        sweep = workloads.Sweep(0)
        sweep.setup()
        sweep.round([])
        assert sweep.check() == []
    finally:
        t.uninstall()
