"""Training harness: epoch loop, deterministic shuffling, per-sample entity
rearrangement draws, metrics logging and checkpointing.

metrics.jsonl holds the deterministic per-epoch record (epoch, lr,
train_loss, train_top1, val_top1); wall-clock timings go to a sidecar
timings.jsonl so two runs with the same seed produce byte-identical metric
logs.
"""

import json
import os
import time

import numpy as np

from . import engine
from .checkpoint import save_checkpoint
from .data import center_sequence, resample_frames
# evaluate_topk is not called here, but it stays in this namespace:
# perfbench/run.py wraps training.evaluate_topk.
from .model import (NesterovSGD, ce_label_smoothing, evaluate_topk,  # noqa: F401
                    lr_schedule, topk_accuracy)
from .tokenizer import entity_rearrange


class NumericAbort(RuntimeError):
    """Training hit a non-finite loss, gradient or stepped parameter; message
    carries diagnostics."""


def preprocess(seq, frames):
    """Dataset-side pipeline: center on the first frame, then resample
    to the configured frame count."""
    return resample_frames(center_sequence(seq), frames)


def _param_norm_report(model, limit=5):
    norms = sorted(((float(np.abs(p.data).max()), p.name) for p in model.parameters()),
                   reverse=True)
    return ", ".join(f"{name}={v:.3e}" for v, name in norms[:limit])


def train(model, manifest, train_config, out_dir=None, train_tag="train",
          val_tag="val", log_sink=None):
    """Run the full training procedure; returns the per-epoch metrics list.

    Deterministic under a fixed seed: sample shuffling and per-sample ER
    draws (made here, before tokenization, when er_enabled) come from
    dedicated child streams of the seed. Both splits are
    loaded and preprocessed once, before the first step; each epoch's
    val_top1 comes from topk_accuracy over the cached val sequences.
    """
    seed_seq = np.random.SeedSequence(train_config.seed)
    shuffle_rng, er_rng = (np.random.default_rng(s) for s in seed_seq.spawn(2))

    train_entries = manifest.split(train_tag)
    if not train_entries:
        raise engine.UsageError(f"no samples tagged {train_tag!r} in manifest")
    val_entries = manifest.split(val_tag)

    frames = model.config.frames
    train_seqs = [preprocess(manifest.load(e), frames) for e in train_entries]
    labels = np.array([e.label for e in train_entries])
    val_seqs = [preprocess(manifest.load(e), frames) for e in val_entries]
    val_labels = [e.label for e in val_entries]

    optimizer = NesterovSGD(model.parameters(), momentum=train_config.momentum)
    metrics = []
    metrics_path = timings_path = None
    checkpoints = {}  # epoch -> path of the checkpoint saved after it
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        last, interval = train_config.epochs - 1, train_config.checkpoint_interval
        checkpoints = {e: os.path.join(out_dir, f"epoch_{e:04d}.ckpt")
                       for e in (range(interval - 1, last, interval) if interval else ())}
        checkpoints[last] = os.path.join(out_dir, "final.ckpt")
        for path in checkpoints.values():
            if os.path.isdir(path):
                raise engine.UsageError(f"checkpoint target {path} is a directory")
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        timings_path = os.path.join(out_dir, "timings.jsonl")
        for p in (metrics_path, timings_path):
            if os.path.exists(p):
                os.remove(p)

    n = len(train_seqs)
    for epoch in range(train_config.epochs):
        t0 = time.monotonic()
        lr = lr_schedule(epoch, train_config)
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_hits = 0
        for start in range(0, n, train_config.batch_size):
            batch = order[start:start + train_config.batch_size]
            seqs = [train_seqs[i] for i in batch]
            if train_config.er_enabled:
                seqs = [entity_rearrange(seq, er_rng, frozen=model.config.frozen_entities)
                        for seq in seqs]
            tokens = np.stack([model.tokenize_sample(seq) for seq in seqs])
            logits = model.forward_tokens(tokens, mode="train")
            loss = ce_label_smoothing(logits, labels[batch],
                                      train_config.label_smoothing,
                                      train_config.temperature)
            loss_val = loss.item()
            where = f"epoch {epoch} batch {start // train_config.batch_size}"
            if not np.isfinite(loss_val):
                raise NumericAbort(
                    f"non-finite loss at {where}; "
                    f"largest parameters: {_param_norm_report(model)}")
            model.zero_grad()
            engine.backward(loss)
            bad = next((p.name for p in optimizer.params
                        if p.grad is not None and not np.isfinite(p.grad).all()), None)
            if bad is not None:
                raise NumericAbort(f"non-finite gradient at {where} in parameter {bad}")
            optimizer.step(lr)
            bad = next((p.name for p in optimizer.params if not np.isfinite(p.data).all()), None)
            if bad is not None:
                raise NumericAbort(f"non-finite parameter after the step at {where}: {bad}")
            epoch_loss += loss_val * len(batch)
            epoch_hits += int((logits.data.argmax(axis=1) == labels[batch]).sum())

        record = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": epoch_loss / n,
            "train_top1": epoch_hits / n,
        }
        record["val_top1"] = topk_accuracy(model, val_seqs, val_labels)[0] if val_seqs else None
        metrics.append(record)
        wall_ms = (time.monotonic() - t0) * 1000.0

        if metrics_path:
            with open(metrics_path, "a", encoding="utf-8") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
            with open(timings_path, "a", encoding="utf-8") as f:
                f.write(json.dumps({"epoch": epoch, "wall_ms": wall_ms}) + "\n")
        if log_sink is not None:
            log_sink(record, wall_ms)

        if epoch in checkpoints:
            save_checkpoint(checkpoints[epoch], model,
                            train_config=train_config, epoch=epoch + 1)
    return metrics
