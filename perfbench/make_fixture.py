"""Train the decode fixture that the greedy and beam workloads load.

It uses the program's own `train` with the acceptance campaign's seed-0
recipe: the desk-default noisy copy task and model, initialisation seed
100, training seed 200, 1000 steps, label smoothing 0.1, loss rescaling
on, and the mean of the retained checkpoints as the decode model. The
model is written with `save_checkpoint`. From the repository root:

    PYTHONPATH=src python3 perfbench/make_fixture.py                # T=1, the committed fixture
    PYTHONPATH=src python3 perfbench/make_fixture.py --temperature 5 --out perfbench/out/model_T5_s0.npz

Parameter bits depend on the BLAS thread count, so it is pinned to 1
before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from temperlab import model as tmodel, tempering, training  # noqa: E402

from workloads import FIXTURE, MODEL_SEED, desk_data  # noqa: E402

TRAIN_SEED = 200
MAX_STEPS = 1000


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--temperature", type=float, default=1.0)
    ap.add_argument("--out", type=Path, default=FIXTURE)
    args = ap.parse_args()

    data = desk_data()
    cfg = tmodel.ModelConfig().with_vocabs(len(data.src_vocab), len(data.tgt_vocab))
    model = tmodel.init_parameters(cfg, MODEL_SEED)
    trainer = training.TrainerConfig(max_steps=MAX_STEPS, seed=TRAIN_SEED)
    temp = tempering.TemperingConfig(temperature=args.temperature, rescale_loss=True, label_smoothing=0.1)
    t0 = time.perf_counter()
    result = training.train(model, data, temp, trainer)
    decode_model = training.model_from_checkpoint(training.average_checkpoints(result.checkpoints))
    dev = training.evaluate_checkpoint(decode_model, data, "dev")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    tmodel.save_checkpoint(args.out, decode_model, result.record.steps[-1].step)
    print(f"T={args.temperature:g}: {result.record.steps[-1].step} steps in "
          f"{time.perf_counter() - t0:.1f} s, dev BLEU {dev:.2f}, written to {args.out}")


if __name__ == "__main__":
    main()
