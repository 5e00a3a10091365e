"""Command-line entry point: train / decode / sweep / analyze / report.

Configuration comes from a single JSON file (desk-scale defaults when
omitted) with dotted-key overrides via --set; exit codes are 0 on success,
2 for configuration errors (an unreadable config file included), 3 for
data errors (any other unreadable file included), and 4 for numeric aborts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .data import Vocabulary
from .decoding import BeamConfig, decode_corpus
from .errors import ConfigError, DataError, NumericError
from .experiments import (
    ExperimentConfig,
    build_task_data,
    load_config,
    run_analysis,
    run_experiment,
    run_sweep,
    write_hypotheses,
    write_sidecar,
)
from .model import load_checkpoint


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config, args.set or ())
    if args.no_dropout:
        cfg = dataclasses.replace(cfg, model=cfg.model.without_dropout())
    return cfg


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out or cfg.output_dir)
    run = run_experiment(cfg, build_task_data(cfg), cfg.tempering.temperature, out)
    print(
        f"trained T={run.temperature:g} for {run.steps_trained} steps; "
        f"dev greedy BLEU {run.dev_bleu:.2f}; artifacts in {run.run_dir}"
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    report = run_sweep(cfg, args.out or cfg.output_dir)
    for row in report.rows:
        if row.status == "ok":
            print(
                f"T={row.temperature:<5g} dev {row.dev_greedy_bleu:6.2f}  "
                f"test greedy {row.test_greedy_bleu:6.2f}  "
                f"oracle beam {row.oracle_beam_bleu:6.2f} "
                f"(beam {row.oracle_beam_size}, alpha {row.oracle_alpha})"
            )
        else:
            print(f"T={row.temperature:<5g} {row.status}")
    if report.t_opt is not None:
        print(f"T_opt (dev greedy) = {report.t_opt:g}")
    print(f"sweep artifacts in {report.out_dir}")
    return 0


def _cmd_decode(args) -> int:
    model, _step = load_checkpoint(args.checkpoint)
    src_vocab = Vocabulary.load(args.src_vocab)
    tgt_vocab = Vocabulary.load(args.tgt_vocab)
    with open(args.input, encoding="utf-8") as fh:
        lines = [line.split() for line in fh.read().splitlines()]
    if not lines:
        raise DataError(f"input file {args.input} is empty")
    sources = [src_vocab.encode(tokens) for tokens in lines]
    beam_cfg = BeamConfig(
        beam_size=args.beam_size,
        length_penalty_alpha=args.alpha,
        max_length=args.max_length,
    )
    # fail before decoding anything, on the bound that `build_task_data` applies
    limit = model.config.max_positions
    if args.max_length + 1 > limit:
        raise ConfigError(f"--max-length {args.max_length} plus BOS exceeds max_positions {limit}")
    for number, src in enumerate(sources, start=1):
        if not 0 < len(src) <= limit:
            raise DataError(f"input line {number} has {len(src)} tokens; it needs 1 to max_positions ({limit})")
    hyps, wall_ns = decode_corpus(model, sources, beam_cfg)
    out_tokens = [tgt_vocab.decode(h.surface()) for h in hyps]
    write_hypotheses(args.output, out_tokens)
    write_sidecar(str(args.output) + ".meta.jsonl", hyps, wall_ns)
    mode = "greedy" if beam_cfg.greedy else "beam"
    print(f"decoded {len(hyps)} sentences ({mode}) to {args.output}")
    return 0


def _cmd_analyze(args) -> int:
    report = run_analysis(args.runs, args.out, with_timing=not args.no_timing)
    print(f"analysis written to {report.out_dir}")
    for gap in report.gaps:
        print(f"gap: {gap}")
    return 0


def _cmd_report(args) -> int:
    root = Path(args.dir)
    lines = [f"report for {root}", "=" * (11 + len(str(root)))]
    for name in ("sweep.csv", "curve.csv", "similarity.csv", "timing.csv"):
        path = root / name
        if not path.exists():
            continue
        lines.append("")
        lines.append(name)
        lines.append("-" * len(name))
        lines.extend(path.read_text(encoding="utf-8").rstrip("\n").split("\n"))
    summary = root / "summary.txt"
    if summary.exists():
        lines.append("")
        lines.extend(summary.read_text(encoding="utf-8").rstrip("\n").split("\n"))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    (root / "report.txt").write_text(text, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="temperlab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cfg(p):
        p.add_argument("--config", help="JSON experiment config (desk defaults if omitted)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted-key override")
        p.add_argument("--no-dropout", action="store_true", help="zero all three dropout sites")
        p.add_argument("--out", help="output directory (defaults to config output_dir)")

    p_train = sub.add_parser("train", help="train one model at the configured temperature")
    add_cfg(p_train)
    p_train.set_defaults(fn=_cmd_train)

    p_sweep = sub.add_parser("sweep", help="train across the temperature grid and report curves")
    add_cfg(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_dec = sub.add_parser("decode", help="decode a plain-text source file with a checkpoint")
    p_dec.add_argument("--checkpoint", required=True)
    p_dec.add_argument("--src-vocab", required=True)
    p_dec.add_argument("--tgt-vocab", required=True)
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--output", required=True)
    p_dec.add_argument("--beam-size", type=int, default=1)
    p_dec.add_argument("--alpha", type=float, default=0.0)
    p_dec.add_argument("--max-length", type=int, default=32)
    p_dec.set_defaults(fn=_cmd_decode)

    p_an = sub.add_parser("analyze", help="entropy/gradient curves, similarity, and timing")
    p_an.add_argument("--runs", nargs="+", required=True, help="run directories to analyse")
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--no-timing", action="store_true")
    p_an.set_defaults(fn=_cmd_analyze)

    p_rep = sub.add_parser("report", help="render a plain-text report from emitted CSVs")
    p_rep.add_argument("--dir", required=True)
    p_rep.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # an unreadable or unwritable file
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
