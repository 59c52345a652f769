"""Command-line entry point.

Commands: synth, train, eval, decode, compare, fdcheck.  Every command
but eval reads a flat key=value config (--config; optional for decode,
where the defaults apply).  Exit codes: 0 success, 1 check failure
(fdcheck tolerance breach), 2 usage/config/data errors.  All primary
outputs are deterministic for a fixed config and seed; only wall-time
measurements vary between runs.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import config, harness, training
from .data import (
    generate_synthetic,
    load_dataset,
    load_vocabulary,
    nearest_words,
    save_dataset,
)
from .errors import ConfigError, ContractViolation, ParseError
from .inference import evaluate, format_eval_report, subclass_report
from .model import load_checkpoint, save_checkpoint, write_lines


def _load_config(args) -> "config.RunConfig":
    if getattr(args, "config", None):
        return config.parse_config(args.config)
    return config.parse_config_text("")


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    train, test = generate_synthetic(cfg.synth_config())
    os.makedirs(args.out_dir, exist_ok=True)
    for name, dataset in (("train.tsv", train), ("test.tsv", test)):
        path = os.path.join(args.out_dir, name)
        save_dataset(dataset, path)
        print(
            f"wrote {path} ({len(dataset)} samples, dim={dataset.feature_dim}, "
            f"classes={dataset.n_classes})"
        )
    return 0


def _load_split(cfg: "config.RunConfig", data_dir: str, name: str):
    """Load ``data_dir/name``, which must have the config's feature_dim and class count.

    The harness sizes every model to the data, so data the config does
    not describe stops here.
    """
    dataset = load_dataset(os.path.join(data_dir, name))
    if (dataset.feature_dim, dataset.n_classes) != (cfg.feature_dim, cfg.n_classes):
        raise ContractViolation(
            f"dataset feature_dim {dataset.feature_dim}, classes {dataset.n_classes} != "
            f"config feature_dim {cfg.feature_dim}, n_classes {cfg.n_classes}"
        )
    return dataset


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train = _load_split(cfg, args.data_dir, "train.tsv")
    model, trace1, trace2 = training.train_metd(train, cfg)
    save_checkpoint(model, args.out_checkpoint)
    offset = len(trace1)
    combined = list(trace1) + [
        replace(stats, epoch=stats.epoch + offset) for stats in trace2
    ]
    log_path = args.out_checkpoint + ".log"
    write_lines(log_path, training.format_metrics_log(combined).splitlines())
    for stage, trace in ((1, trace1), (2, trace2)):
        if trace:
            last = trace[-1]
            print(
                f"stage {stage}: {len(trace)} epochs, final total={last.total:.6g} "
                f"war={last.war:.4f}"
            )
        else:
            print(f"stage {stage}: 0 epochs")
    print(f"wrote {args.out_checkpoint}")
    print(f"wrote {log_path}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    text = format_eval_report(subclass_report(dataset, evaluate(dataset, model)))
    print(text)
    if args.out:
        write_lines(args.out, text.splitlines())
    return 0


def cmd_decode(args) -> int:
    cfg = _load_config(args)
    model = load_checkpoint(args.checkpoint)
    vocab = load_vocabulary(args.vocab)
    if vocab.dim != model.bank.token_dim:
        raise ContractViolation(
            f"vocabulary dim {vocab.dim} != token dim {model.bank.token_dim}"
        )
    bank = model.bank
    print("class\t(k,m)\tnearest words")
    for i in range(bank.n_classes):
        for k in range(bank.n_subclasses):
            for m in range(bank.n_tokens):
                ranked = nearest_words(vocab, bank.tokens[i, k, m], cfg.decode_top_n)
                words = "\t".join(f"{word}:{dist:.6f}" for word, dist in ranked)
                print(f"{i}\t({k + 1},{m + 1})\t{words}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    splits = tuple(_load_split(cfg, args.data_dir, name) for name in ("train.tsv", "test.tsv"))
    print(harness.format_comparison(harness.compare_all(splits, cfg)))
    return 0


def cmd_fdcheck(args) -> int:
    cfg = _load_config(args)
    tolerance = cfg.fdcheck_tolerance
    rows = training.fd_sweep(
        cfg.seed, cfg.fdcheck_instances, cfg.fdcheck_step, cfg.fdcheck_corrupt
    )
    for stage, name, entries, worst in rows:
        print(
            f"stage {stage}\t{name}\tinstances={cfg.fdcheck_instances}"
            f"\tentries={entries}\tmax_rel_err={worst:.3e}"
        )
    # The first worst row; argmax ranks a NaN error above every number.
    stage, name, _, worst = rows[int(np.argmax([row[3] for row in rows]))]
    if worst < tolerance:
        print(f"fdcheck: PASS (max_rel_err={worst:.3e}, tolerance={tolerance:g})")
        return 0
    print(
        f"fdcheck: FAIL stage {stage} {name} max_rel_err={worst:.3e} "
        f"exceeds tolerance {tolerance:g}"
    )
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metd",
        description="Multi-descriptor cosine classifier: synthesis, training, "
        "evaluation, decoding, comparison, and gradient checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--config", required=True, help="run config path")
    p.add_argument("out_dir", help="output directory for train.tsv/test.tsv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run the two-stage training pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("data_dir", help="directory containing train.tsv")
    p.add_argument("out_checkpoint", help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--out", required=False, help="also write the report here")
    p.add_argument("checkpoint")
    p.add_argument("data", help="dataset file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("decode", help="print nearest vocabulary words per token")
    p.add_argument("--config", required=False)
    p.add_argument("checkpoint")
    p.add_argument("vocab", help="vocabulary file")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("compare", help="run the strategy comparison harness")
    p.add_argument("--config", required=True)
    p.add_argument("data_dir", help="directory containing train.tsv and test.tsv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fdcheck", help="verify analytic gradients numerically")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_fdcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
