"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line. Run with -s to see the lines on success."""

import time

import numpy as np
import pytest
from scipy import stats

from istanet.attention import TSABlockConfig, attention_scores
from istanet.checkpoint import load_checkpoint
from istanet.data import SkeletonSequence, compute_padding, load_manifest, pad_to_windows
from istanet.engine import Parameter
from istanet.gradcheck import run_gradcheck
from istanet.model import ISTANet, ModelConfig, NesterovSGD, TrainConfig
from istanet.synth import generate_corpus
from istanet.tokenizer import entity_rearrange, partition, tokenize
from istanet.training import preprocess, train

from helpers import unpartition


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_gradient_correctness():
    t0 = time.monotonic()
    report_dict, offenders = run_gradcheck(tolerance=1e-4)
    elapsed = time.monotonic() - t0
    worst = max(report_dict.values())
    report("gradient correctness (miniature config, 64-bit)",
           not offenders and worst <= 1e-4 and elapsed < 60,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_tokenization_bijection():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        c = int(rng.choice([2, 3]))
        t = int(rng.integers(1, 51))
        j = int(rng.integers(1, 31))
        e = int(rng.integers(1, 5))
        w = tuple(int(rng.integers(1, n + 1)) for n in (t, j, e))
        x = rng.normal(size=(c, t, j, e))
        padded = pad_to_windows(x, w)
        tokens = partition(padded, w)
        back = unpartition(tokens, w, padded.shape[1:])
        ok &= np.array_equal(back, padded)
        ok &= sorted(tokens.reshape(-1)) == sorted(padded.reshape(-1))
    elapsed = time.monotonic() - t0
    report("tokenization bijection (100 random shapes)",
           ok and elapsed < 10, f"{elapsed:.1f}s")


def test_padding_arithmetic_exhaustive():
    n = np.arange(1, 1001)[:, None]
    w = np.arange(1, 1001)[None, :]
    pad = np.array([[compute_padding(int(nn), int(ww)) for ww in range(1, 1001, 37)]
                    for nn in range(1, 1001, 37)])
    # spot grid through the scalar API plus the full closed form
    closed = (w - n % w) % w
    ok = ((n + closed) % w == 0).all() and (closed >= 0).all() and (closed < w).all()
    grid_n = np.arange(1, 1001, 37)[:, None]
    grid_w = np.arange(1, 1001, 37)[None, :]
    ok &= (pad == (grid_w - grid_n % grid_w) % grid_w).all()
    # exhaustive through the API itself
    all_pad = np.array([[compute_padding(nn, ww) for ww in (1, 2, 3, 7, 20, 999, 1000)]
                        for nn in range(1, 1001)])
    ws = np.array([1, 2, 3, 7, 20, 999, 1000])
    ns = np.arange(1, 1001)[:, None]
    ok &= ((ns + all_pad) % ws == 0).all()
    # full exhaustive closed-form equivalence (vectorized)
    full = np.array([compute_padding(nn, ww)
                     for nn in range(1, 1001) for ww in range(1, 1001)])
    ok &= (full.reshape(1000, 1000) == closed).all()
    report("padding arithmetic exhaustive 1<=n,w<=1000", bool(ok))


def test_er_uniformity():
    rng = np.random.default_rng(7)
    seq3 = SkeletonSequence(np.arange(6, dtype=float).reshape(2, 1, 1, 3), label=0)
    counts = {}
    for _ in range(6000):
        out = entity_rearrange(seq3, rng)
        key = tuple(out.data[0, 0, 0])
        counts[key] = counts.get(key, 0) + 1
    _, p = stats.chisquare(list(counts.values()))

    rng2 = np.random.default_rng(1)
    seq2 = SkeletonSequence(np.arange(4, dtype=float).reshape(2, 1, 1, 2), label=0)
    swaps = sum(int(not np.array_equal(entity_rearrange(seq2, rng2).data,
                                       seq2.data))
                for _ in range(6000))
    freq = swaps / 6000
    report("entity rearrangement uniformity",
           len(counts) == 6 and p > 0.01 and abs(freq - 0.5) <= 0.02,
           f"chi2 p={p:.3f}, swap freq={freq:.3f}")


def test_tokenizer_equivariance():
    ok = True
    for e in (2, 3):
        rng = np.random.default_rng(11 + e)
        for _ in range(20):
            t, j = int(rng.integers(2, 8)), int(rng.integers(1, 6))
            x = rng.normal(size=(3, t, j, e))
            w = (int(rng.integers(1, t + 1)), int(rng.integers(1, j + 1)), e)
            perm = rng.permutation(e)
            tok_orig, _ = tokenize(x, w)
            tok_perm, _ = tokenize(x[:, :, :, perm], w)
            s_orig = tok_orig.reshape(tok_orig.shape[0], tok_orig.shape[1], -1, e,
                                      tok_orig.shape[3])
            ok &= np.array_equal(tok_perm.reshape(s_orig.shape), s_orig[:, :, :, perm])
    report("tokenizer entity-permutation equivariance (20 cases, E in {2,3})", ok)


def test_attention_bound():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(1000):
        u = int(rng.integers(1, 6))
        c = int(rng.integers(1, 4))
        scale = float(10 ** rng.uniform(-1, 2))
        q = rng.normal(size=(c, 2, 2, u)) * scale
        k = rng.normal(size=(c, 2, 2, u)) * scale
        m = rng.normal(size=(u, u)).astype(np.float32).astype(np.float64)
        alpha = np.asarray(rng.normal())
        out, _ = attention_scores(q, k, alpha, m, c_beta=4 * c)
        ok &= bool((np.abs(out - m) <= np.abs(alpha)).all())
    report("attention score bound |score - M| <= |alpha| (1000 draws)", ok)


def test_synthetic_overfit(tmp_path):
    t0 = time.monotonic()
    manifest_path = generate_corpus(tmp_path, num_train=64, num_val=32,
                                    t=40, j=5, seed=0)
    manifest = load_manifest(manifest_path, num_classes=4)
    config = ModelConfig(
        window=(10, 1, 2), in_channels=3, frames=40, joints=5, entities=2,
        embed_channels=16, gamma=0.1,
        blocks=[TSABlockConfig(c_in=16, c_out=16, heads=2, c_qkv=4),
                TSABlockConfig(c_in=16, c_out=32, heads=2, c_qkv=4)],
        num_classes=4)
    tc = TrainConfig(lr=0.1, epochs=60, batch_size=32, decay_epochs=(40, 55),
                     checkpoint_interval=0, seed=0)
    model = ISTANet(config, rng=np.random.default_rng(0))
    metrics = train(model, manifest, tc)
    elapsed = time.monotonic() - t0
    final = metrics[-1]
    report("synthetic overfit (train>=95%, held-out>=75%, <=5min)",
           final["train_top1"] >= 0.95 and final["val_top1"] >= 0.75
           and elapsed <= 300,
           f"train {final['train_top1']:.2f}, val {final['val_top1']:.2f}, "
           f"{elapsed:.0f}s")


def _shuffled_eval_accuracy(model, manifest, entries, shuffle_rng):
    hits = 0
    for entry in entries:
        seq = preprocess(manifest.load(entry), model.config.frames)
        seq = entity_rearrange(seq, shuffle_rng)
        logits = model.forward_classify(seq, mode="infer").data.reshape(-1)
        hits += int(int(np.argmax(logits)) == entry.label)
    return hits / len(entries)


def test_er_ablation_direction(tmp_path):
    # entities live in separate tokens here (e_w=1) so token identity carries
    # entity order, which randomized test-time ordering then violates
    manifest_path = generate_corpus(tmp_path, num_train=32, num_val=32,
                                    t=40, j=5, seed=1)
    manifest = load_manifest(manifest_path, num_classes=4)
    config = ModelConfig(
        window=(10, 1, 1), in_channels=3, frames=40, joints=5, entities=2,
        embed_channels=8, gamma=0.1,
        blocks=[TSABlockConfig(c_in=8, c_out=8, heads=2, c_qkv=2)],
        num_classes=4)
    means = {}
    for er in (True, False):
        accs = []
        for seed in (0, 1, 2):
            tc = TrainConfig(lr=0.1, epochs=40, batch_size=32, decay_epochs=(30,),
                             checkpoint_interval=0, seed=seed, er_enabled=er)
            model = ISTANet(config, rng=np.random.default_rng(seed))
            train(model, manifest, tc)
            accs.append(_shuffled_eval_accuracy(
                model, manifest, manifest.split("val"),
                np.random.default_rng(123)))
        means[er] = float(np.mean(accs))
    # strict: without ER applied both means would be equal
    report("ER ablation direction (mean held-out acc, 3 seeds)",
           means[True] > means[False],
           f"with ER {means[True]:.3f} > without {means[False]:.3f}")


def test_nesterov_closed_form():
    p = Parameter("w", np.array([1.0]), dtype=np.float64)
    opt = NesterovSGD([p], momentum=0.9)
    w, v = 1.0, 0.0
    lr, mu = 0.05, 0.9
    worst = 0.0
    for _ in range(10):
        g = float(p.data[0])
        p.grad = np.array([g])
        opt.step(lr=lr)
        v = mu * v + g
        w = w - lr * (g + mu * v)
        worst = max(worst, abs(float(p.data[0]) - w))
    report("Nesterov 10-step trace vs closed form", worst <= 1e-12,
           f"max dev {worst:.1e}")


def test_determinism(tmp_path):
    manifest_path = generate_corpus(tmp_path / "data", num_train=16, num_val=8,
                                    t=8, j=2, seed=0)
    manifest = load_manifest(manifest_path, num_classes=4)
    config = ModelConfig(
        window=(4, 1, 2), in_channels=3, frames=8, joints=2, entities=2,
        embed_channels=4, gamma=0.1,
        blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2)],
        num_classes=4)
    tc = TrainConfig(lr=0.05, epochs=3, batch_size=8, decay_epochs=(),
                     checkpoint_interval=0, seed=5)
    logs = []
    last_model = None
    for name in ("a", "b"):
        model = ISTANet(config, rng=np.random.default_rng(0))
        train(model, manifest, TrainConfig(**tc.to_dict()),
              out_dir=tmp_path / name)
        logs.append((tmp_path / name / "metrics.jsonl").read_bytes())
        last_model = model
    logs_ok = logs[0] == logs[1]

    seq = preprocess(manifest.load(manifest.samples[0]), config.frames)
    before = last_model.forward_classify(seq, mode="infer").data
    loaded, *_ = load_checkpoint(tmp_path / "b" / "final.ckpt")
    after = loaded.forward_classify(seq, mode="infer").data
    ckpt_ok = before.tobytes() == after.tobytes()
    report("determinism (byte-identical logs; checkpoint-identical logits)",
           logs_ok and ckpt_ok)


@pytest.mark.skip(reason="optional: requires user-supplied converted two-person "
                         "interaction data (282-segment single fold)")
def test_dataset_fold_floor():
    report("dataset-backed single-fold floor (optional)", True)
