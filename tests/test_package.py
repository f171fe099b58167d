import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import istanet
from istanet import attention, engine, synth
from istanet.checkpoint import load_checkpoint, save_checkpoint
from istanet.model import ISTANet, TrainConfig, ce_label_smoothing

from helpers import readme_config, record_threads

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
SETUP_PROBE = TRACER.with_name("setup_probe.py")


def test_every_exported_name_imports():
    # a star import fails on a name __all__ lists and the package lacks
    namespace = {}
    exec("from istanet import *", namespace)
    assert set(istanet.__all__) <= set(namespace)


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given,expected", [({}, "1 1 1"),
                                            ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")],
                         ids=["default", "user-set"])
def test_blas_threads_default_to_one_and_a_user_setting_wins(given, expected):
    # the package sets BLAS's own variables before numpy is first imported,
    # as the console script and `python -m istanet` import it
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(given, PYTHONPATH=str(pathlib.Path(istanet.__file__).parents[1]))
    code = f"import os, istanet; print(' '.join(os.environ[v] for v in {BLAS_VARIABLES!r}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.split() == expected.split()


def load_tracer():
    """The benchmark's tracer module, loaded by path, with every istanet
    module imported: Tracer.install looks each traced module up by name."""
    for info in pkgutil.iter_modules(istanet.__path__):
        if info.name != "__main__":  # running it would start the CLI
            importlib.import_module(f"istanet.{info.name}")
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_finds_and_restores_every_traced_attribute():
    # the benchmark's tracer wraps program functions and methods by name; a
    # rename fails here instead of only breaking a traced benchmark run. The
    # tracer is loaded by path: the benchmark's runner tunes BLAS on import.
    tracer = load_tracer()
    missing = [f"{module}.{attr}" for module, attr, _ in tracer.FUNCTIONS
               if not hasattr(sys.modules[f"istanet.{module}"], attr)]
    missing += [f"{module}.{cls}.{meth}" for module, cls, meth, _ in tracer.METHODS
                if meth not in vars(getattr(sys.modules[f"istanet.{module}"], cls, object))]
    assert missing == []

    traced = [(sys.modules[f"istanet.{module}"], attr) for module, attr, _ in tracer.FUNCTIONS]
    traced += [(getattr(sys.modules[f"istanet.{module}"], cls), meth)
               for module, cls, meth, _ in tracer.METHODS]
    modules = [m for n, m in sys.modules.items() if n == "istanet" or n.startswith("istanet.")]
    before = [(owner, dict(vars(owner))) for owner in modules + [o for o, _ in traced]]
    originals = [vars(owner)[attr] for owner, attr in traced]
    t = tracer.Tracer("istanet")
    try:
        t.install()
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(traced, originals))
    finally:
        t.uninstall()
    for owner, attrs in before:
        changed = [k for k, v in attrs.items() if vars(owner).get(k) is not v]
        assert changed == [], (owner, changed)


def test_threaded_block_keeps_the_benchmark_tracer_stack(monkeypatch):
    # the tracer's span stack is the call stack of one thread, so the work
    # that the engine's contractions and the score node hand to other
    # threads must call no traced function, forward or backward
    monkeypatch.setattr(engine, "SCORE_BLOCK_ELEMENTS", 0)
    monkeypatch.setattr(engine, "THREADS", 2)
    idents = record_threads(monkeypatch)
    rng = np.random.default_rng(0)
    cfg = attention.TSABlockConfig(c_in=4, c_out=8, heads=2, c_qkv=2)
    params = attention.TSABlockParams(cfg, 6, rng, dtype=np.float64, name="blocks.0")
    x = engine.Parameter("x", rng.normal(size=(3, 4, 2, 1, 6)))
    upstream = engine.Tensor(rng.normal(size=(3, 8, 2, 1, 6)))
    t = load_tracer().Tracer("istanet")
    try:
        t.install()
        out = attention.tsa_block_forward(x, params, "train")
        engine.backward(engine.tensor_sum(engine.mul(out, upstream)))
    finally:
        t.uninstall()
    assert t._stack == [] and len(idents) > 1
    head = [("attention.attention_scores", "attention.block0"),
            ("engine.attention_contract", "attention.attention_scores"),
            ("engine.apply_scores", "attention.block0")]
    tail = ["engine.conv3d_axis", "engine.batchnorm", "engine.pointwise_conv3d",
            "engine.pointwise_conv3d", "engine.conv3d_axis", "engine.batchnorm"]
    spans = {sid: (name, parent, start, end) for sid, parent, _, name, start, end in t.spans}
    assert [(name, spans[parent][0] if parent is not None else None)
            for name, parent, _, _ in spans.values()] == (
        [("attention.block0", None), ("attention.qkv_project", "attention.block0")]
        + 2 * head + [(n, "attention.block0") for n in tail]
        + [("bench.tape_count", None), ("engine.backward", None)])
    for name, parent, start, end in spans.values():
        assert parent is None or spans[parent][2] <= start <= end <= spans[parent][3]
    assert all(p.grad is not None for p in [x] + params.parameters())


def test_benchmark_tracer_replays_the_batchnorm_of_a_train_step():
    # the tracer records the signature of each call of the engine ops it
    # replays (REPLAYED_OPS), batchnorm's mode included, and replays each
    # one's backward on its own; every such op must be called in a README
    # train step and replay from what was recorded, so a change to how the
    # model calls one fails here, not only in a --trace 1 benchmark run
    tracer = load_tracer()
    model = ISTANet(readme_config(), rng=np.random.default_rng(0))
    tokens = np.random.default_rng(1).normal(size=(2, 3, 10, 2, 20)).astype(np.float32)
    t = tracer.Tracer("istanet")
    try:
        t.install()
        t.record_ops = True
        engine.backward(ce_label_smoothing(model.forward_tokens(tokens, "train"), [0, 1],
                                           smoothing=0.1, temperature=1.0))
        recorded = set(t.op_calls)
        with engine.no_grad():
            model.forward_tokens(tokens, "infer")
    finally:
        t.uninstall()
    assert {s[0] for s in recorded} == set(tracer.REPLAYED_OPS)
    signatures = [s for s in t.op_calls if s[0] == "batchnorm"]
    assert sum(t.op_calls[s] for s in signatures) == 5
    assert {dict(s[3])["mode"] for s in signatures} == {"train"}
    for signature in t.op_calls:
        assert tracer.replay_backward_ms(engine, signature, repeats=1) >= 0.0


def test_benchmark_setup_probe_builds_and_loads(tmp_path):
    # the benchmark times a cold model build and a cold checkpoint load with
    # its set-up probe, and its infer set-up unpacks load_checkpoint's five
    # values; a change to either fails here, not only in a benchmark run
    config = readme_config()
    manifest = synth.generate_corpus(str(tmp_path / "corpus"), num_train=4, num_val=4)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, ISTANet(config, rng=np.random.default_rng(0)),
                    train_config=TrainConfig(epochs=2), epoch=2)
    model, train_config, epoch, _, _ = load_checkpoint(ckpt)
    assert model.config == config and train_config.epochs == epoch == 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(pathlib.Path(istanet.__file__).parents[1])
    spec = json.dumps({"model": config.to_dict(), "seed": 0})
    for kind, arg in (("build", spec), ("load", str(ckpt))):
        done = subprocess.run([sys.executable, str(SETUP_PROBE), src, manifest, kind, arg],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        raw, calibrated = map(float, done.stdout.strip().splitlines()[-1].split())
        assert raw > 0 and calibrated > 0
