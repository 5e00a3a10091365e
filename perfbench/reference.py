"""Reference figures for the README, measured untraced at batch size 1 on
the 200 desk test sentences:

- greedy, beam-4 and beam-10 time per pass and their ratios, against the
  paper's claim that greedy is 1.5-3.5x faster than beam search;
- the cost of one decode_step at prefix lengths 1, 12 and 25;
- beam-4 time on a T=5 model against the T=1 fixture, when --t5 names one.

From the repository root, after making the T=5 model with make_fixture.py:

    PYTHONPATH=src python3 perfbench/reference.py --t5 perfbench/out/model_T5_s0.npz
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from temperlab import data, decoding, model as tmodel  # noqa: E402

from workloads import DECODE_MAX_LENGTH, FIXTURE, desk_data  # noqa: E402

PASSES = 3


def pass_seconds(fn, sources) -> float:
    """Median over PASSES of the time to decode every source once."""
    times = []
    for _ in range(PASSES):
        t = time.perf_counter()
        for src in sources:
            fn(src)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--t5", type=Path, help="a T=5 model made by make_fixture.py")
    args = ap.parse_args()
    task = desk_data()
    sources = [task.src_vocab.encode(s) for s, _ in task.test]
    model, _ = tmodel.load_checkpoint(FIXTURE)
    for src in sources[:5]:  # warm-up
        decoding.greedy_decode(model, src, DECODE_MAX_LENGTH)

    def beam(m, k):
        cfg = decoding.BeamConfig(beam_size=k, length_penalty_alpha=1.0, max_length=DECODE_MAX_LENGTH)
        return lambda src: decoding.beam_decode(m, src, cfg)

    greedy_s = pass_seconds(lambda src: decoding.greedy_decode(model, src, DECODE_MAX_LENGTH), sources)
    beam4_s = pass_seconds(beam(model, 4), sources)
    beam10_s = pass_seconds(beam(model, 10), sources)
    print(f"T=1 fixture, {len(sources)} sentences, median of {PASSES} passes:")
    print(f"  greedy  {greedy_s:7.2f} s  ({1e3 * greedy_s / len(sources):.1f} ms/sentence)")
    print(f"  beam-4  {beam4_s:7.2f} s  {beam4_s / greedy_s:.2f}x greedy")
    print(f"  beam-10 {beam10_s:7.2f} s  {beam10_s / greedy_s:.2f}x greedy")

    refs = [int(t) for _, tgt in task.test for t in task.tgt_vocab.encode(tgt)]
    for n in (1, 12, 25):
        times = []
        for k, src in enumerate(sources[:50]):
            encoded = model.encode(src)
            prefix = np.asarray([data.BOS_ID] + refs[k : k + n - 1], dtype=np.int64)
            for _ in range(5):
                t = time.perf_counter()
                model.decode_step(encoded, prefix)
                times.append(time.perf_counter() - t)
        print(f"  decode_step at prefix length {n:2d}: {1e3 * statistics.median(times):.3f} ms")

    if args.t5:
        t5, _ = tmodel.load_checkpoint(args.t5)
        t5_s = pass_seconds(beam(t5, 4), sources)
        print(f"T=5 model: beam-4 {t5_s:.2f} s, {t5_s / beam4_s:.2f}x the T=1 beam-4 time")


if __name__ == "__main__":
    main()
