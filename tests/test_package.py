import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import numpy as np

import istanet
from istanet import attention, engine

from helpers import record_threads

TRACER = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_every_exported_name_imports():
    # a star import fails on a name __all__ lists and the package lacks
    namespace = {}
    exec("from istanet import *", namespace)
    assert set(istanet.__all__) <= set(namespace)


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_finds_and_restores_every_traced_attribute():
    # the benchmark's tracer wraps program functions and methods by name; a
    # rename fails here instead of only breaking a traced benchmark run. The
    # tracer is loaded by path: the benchmark's runner tunes BLAS on import.
    tracer = load_tracer()
    for info in pkgutil.iter_modules(istanet.__path__):
        if info.name != "__main__":  # running it would start the CLI
            importlib.import_module(f"istanet.{info.name}")
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
    head = [("attention.qkv_project", "attention.block0"),
            ("engine.pointwise_conv3d", "attention.qkv_project"),
            ("engine.pointwise_conv3d", "attention.qkv_project"),
            ("attention.attention_scores", "attention.block0"),
            ("engine.attention_contract", "attention.attention_scores"),
            ("engine.apply_scores", "attention.block0")]
    tail = ["engine.conv3d_axis", "engine.batchnorm", "engine.pointwise_conv3d",
            "engine.pointwise_conv3d", "engine.conv3d_axis", "engine.batchnorm"]
    spans = {sid: (name, parent, start, end) for sid, parent, _, name, start, end in t.spans}
    assert [(name, spans[parent][0] if parent is not None else None)
            for name, parent, _, _ in spans.values()] == (
        [("attention.block0", None)] + 2 * head + [(n, "attention.block0") for n in tail]
        + [("bench.tape_count", None), ("engine.backward", None)])
    for name, parent, start, end in spans.values():
        assert parent is None or spans[parent][2] <= start <= end <= spans[parent][3]
    assert all(p.grad is not None for p in [x] + params.parameters())
