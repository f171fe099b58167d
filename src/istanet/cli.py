"""Command-line harness.

Commands: train, eval, gradcheck, inspect, synth.
Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numeric abort, 141 output pipe closed.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .data import ParseError, ValidationError, load_manifest, named, read_iskel, read_text
from .engine import ConfigurationError, UsageError
from .gradcheck import run_gradcheck
from .model import ISTANet, ModelConfig, TrainConfig, evaluate_topk
from .synth import generate_corpus
from .tokenizer import check_window, token_rows, tokenize
from .training import NumericAbort, preprocess, train

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left


_TOP_KEYS = {"model", "train", "data", "out_dir"}
_SECTION_KEYS = {"model": set(ModelConfig.__dataclass_fields__),
                 "train": set(TrainConfig.__dataclass_fields__),
                 "data": {"manifest", "train_tag", "val_tag", "num_classes"}}


def load_run_config(path):
    """Strictly parse a run-config JSON file; unknown keys are rejected and a
    relative manifest path is resolved against the config's directory."""
    text = read_text(path, error=ConfigurationError)
    try:
        doc = json.loads(text)
    except ValueError as e:  # not JSON, or an integer over Python's digit limit
        raise ConfigurationError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: a run config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(f"{path}: unknown top-level keys {sorted(unknown)}")
    for key, known in _SECTION_KEYS.items():
        if not isinstance(doc.get(key), dict):
            raise ConfigurationError(f"{path}: section {key!r} is missing or not a JSON object")
        bad = set(doc[key]) - known
        if bad:
            raise ConfigurationError(f"{path}: unknown {key} keys {sorted(bad)}")

    try:
        model_config = ModelConfig.from_dict(doc["model"])
        train_config = TrainConfig.from_dict(doc["train"])
    except (TypeError, ConfigurationError) as e:
        raise ConfigurationError(f"{path}: {e}") from None

    data = dict(doc["data"])
    data.setdefault("train_tag", "train")
    data.setdefault("val_tag", "val")
    for key in ("manifest", "train_tag", "val_tag"):
        if not isinstance(data.get(key), str):
            raise ConfigurationError(f"{path}: data {key} must be a string, got {data.get(key)!r}")
    num_classes = data.get("num_classes")
    if num_classes is not None and (type(num_classes) is not int or num_classes < 2):
        raise ConfigurationError(
            f"{path}: data num_classes must be an integer >= 2, got {num_classes!r}")
    manifest_path = data["manifest"]
    if not os.path.isabs(manifest_path):
        manifest_path = os.path.join(os.path.dirname(os.path.abspath(path)), manifest_path)
    data["manifest"] = manifest_path
    return model_config, train_config, data, doc.get("out_dir", "runs/out")


def _parse_window(text):
    try:
        t, j, e = (int(v) for v in text.split(","))
    except ValueError:
        raise ConfigurationError(f"--window expects three integers t,j,e, got {text!r}") from None
    return t, j, e


def _apply_overrides(model_config, train_config, args):
    """Command-line values replace the file's and are validated again."""
    window = None if args.window is None else _parse_window(args.window)
    model = {"window": window, "frames": args.frames}
    train = {"epochs": args.epochs, "lr": args.lr, "seed": args.seed}
    given = lambda values: {k: v for k, v in values.items() if v is not None}
    return (dataclasses.replace(model_config, **given(model)),
            dataclasses.replace(train_config, **given(train)))


def cmd_train(args):
    model_config, train_config, data, out_dir = load_run_config(args.config)
    model_config, train_config = _apply_overrides(model_config, train_config, args)
    if args.out is not None:
        out_dir = args.out
    num_classes = min(data.get("num_classes") or model_config.num_classes,
                      model_config.num_classes)
    manifest = load_manifest(data["manifest"], num_classes=num_classes)
    rng = np.random.default_rng(train_config.seed)
    model = ISTANet(model_config, rng=rng)
    os.makedirs(out_dir, exist_ok=True)
    snapshot = {"model": model_config.to_dict(), "train": train_config.to_dict(),
                "data": data, "out_dir": out_dir}
    with open(os.path.join(out_dir, "config.resolved.json"), "w", encoding="utf-8") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)

    def log_sink(record, wall_ms):
        val = "-" if record["val_top1"] is None else f"{record['val_top1']:.4f}"
        print(f"epoch {record['epoch']:4d} lr {record['lr']:.4g} "
              f"loss {record['train_loss']:.4f} train@1 {record['train_top1']:.4f} "
              f"val@1 {val} ({wall_ms:.0f} ms)")

    train(model, manifest, train_config, out_dir=out_dir,
          train_tag=data["train_tag"], val_tag=data["val_tag"], log_sink=log_sink)
    return EXIT_OK


def cmd_eval(args):
    model = load_checkpoint(args.checkpoint)[0]
    manifest = load_manifest(args.manifest, num_classes=model.config.num_classes)
    frames = model.config.frames
    prep = lambda s: preprocess(s, frames)

    if args.folds:
        if not manifest.fold_tags():
            raise UsageError(f"{args.manifest}: --folds needs fold tags (fold0, fold1, ...), "
                             f"and the manifest has none")
        accs = []
        for tag in manifest.fold_tags():
            entries = manifest.split(tag)
            acc, _ = evaluate_topk(model, manifest, entries, k=1, preprocess=prep)
            accs.append(acc)
            print(f"{tag}: {100 * acc:.2f}")
        print(f"mean: {100 * float(np.mean(accs)):.2f}")
        return EXIT_OK

    entries = manifest.split(args.split)
    if not entries:
        raise UsageError(f"no samples tagged {args.split!r} in manifest")
    acc, per_class = evaluate_topk(model, manifest, entries, k=1, preprocess=prep)
    print(f"top-1: {100 * acc:.2f}")
    for cls, (hits, total) in enumerate(per_class):
        if total:
            print(f"class {cls} (class_{cls}): {hits}/{total}")
    return EXIT_OK


def cmd_gradcheck(args):
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise UsageError(f"--tolerance must be a finite number > 0, got {args.tolerance}")
    config = None
    if args.config:
        config, _, _, _ = load_run_config(args.config)
    report, offenders = run_gradcheck(config=config, seed=args.seed or 0,
                                      tolerance=args.tolerance)
    for name in sorted(report):
        print(f"{name}: {report[name]:.3e}")
    if offenders:
        print(f"FAIL: {len(offenders)} parameter(s) exceed tolerance {args.tolerance}:",
              file=sys.stderr)
        for name, err in sorted(offenders.items()):
            print(f"  {name}: {err:.3e}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"OK: all {len(report)} parameters within {args.tolerance}")
    return EXIT_OK


def cmd_inspect(args):
    seq = read_iskel(args.sample)

    if args.what == "tokens":
        window = _parse_window(args.window)
        check_window(window, seq.data.shape[1:])
        tokens, u_layout = tokenize(seq.data, window)
        print("u,t_block,j_block,e_block,t_offset,s,c,value")
        for *idx, value in token_rows(tokens, u_layout):
            print(",".join(str(v) for v in idx) + f",{float(value)!r}")
        return EXIT_OK

    # attention: forward the sample through a checkpoint, dump score matrices
    if not args.checkpoint:
        raise UsageError("inspect attention requires --checkpoint")
    model = load_checkpoint(args.checkpoint)[0]
    frames = model.config.frames
    seq = named(args.sample, lambda s: model.config.check_sample(preprocess(s, frames)), seq)
    tokens = model.tokenize_sample(seq)
    sink = []
    model.forward_tokens(tokens, mode="infer", score_sink=sink)
    layout = model.config.u_layout()
    print(f"# u_layout,{layout[0]},{layout[1]},{layout[2]}")
    for b, block_scores in enumerate(sink):
        for h, scores in enumerate(block_scores):
            print(f"# block,{b},head,{h}")
            for row in scores:
                print(",".join(repr(float(v)) for v in row))
    return EXIT_OK


def cmd_synth(args):
    for flag, value, low in (("--num-train", args.num_train, 0), ("--num-val", args.num_val, 0),
                             ("--folds", args.folds, 0), ("--noise", args.noise, 0),
                             ("--frames", args.frames, 1), ("--joints", args.joints, 1)):
        if not low <= value <= sys.float_info.max:
            raise UsageError(f"{flag} must be a finite number >= {low}, got {value}")
    path = generate_corpus(args.out, num_train=args.num_train, num_val=args.num_val,
                           t=args.frames, j=args.joints, noise=args.noise,
                           seed=args.seed or 0, folds=args.folds)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="istanet",
                                     description="Interactive spatiotemporal token attention harness")
    parser.add_argument("--seed", type=int, default=None, help="global seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--window", default=None, help="t,j,e override")
    p.add_argument("--frames", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("manifest")
    p.add_argument("--split", default="val")
    p.add_argument("--folds", action="store_true", help="k-fold protocol over fold tags")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--config", default=None)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("inspect", help="dump tokens or attention scores as CSV")
    p.add_argument("what", choices=("tokens", "attention"))
    p.add_argument("sample")
    p.add_argument("--window", default="1,1,1", help="t,j,e window for token dump")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("synth", help="generate the synthetic 2-entity corpus")
    p.add_argument("out")
    p.add_argument("--num-train", type=int, default=64)
    p.add_argument("--num-val", type=int, default=32)
    p.add_argument("--frames", type=int, default=40)
    p.add_argument("--joints", type=int, default=5)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--folds", type=int, default=0)
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise UsageError(f"--seed must be an integer >= 0, got {args.seed}")
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except NumericAbort as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigurationError, ParseError, ValidationError, UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
