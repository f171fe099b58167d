import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import numpy as np

import istanet
from istanet import attention, engine

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


def test_threaded_score_node_keeps_the_benchmark_tracer_stack(monkeypatch):
    # the tracer's span stack is the call stack of one thread, so the score
    # node's workers must call no traced function. The backward is taken
    # from before install, so the only spans are the forward's
    monkeypatch.setattr(attention, "SCORE_BLOCK_ELEMENTS", 0)
    monkeypatch.setattr(attention, "THREADS", 2)
    rng = np.random.default_rng(0)
    q, k = (engine.Parameter(name, rng.normal(size=(4, 3, 2, 2, 6))) for name in "qk")
    alpha, m = engine.Parameter("alpha", 1.5), engine.Parameter("m", rng.normal(size=(6, 6)))
    backward = engine.backward
    t = load_tracer().Tracer("istanet")
    try:
        t.install()
        out = attention.attention_scores(q, k, alpha, m, c_beta=12)
        backward(engine.tensor_sum(engine.mul(out, engine.Tensor(rng.normal(size=out.shape)))))
    finally:
        t.uninstall()
    assert t._stack == []
    assert [(name, parent) for _, parent, _, name, _, _ in t.spans] == [
        ("attention.attention_scores", None), ("engine.attention_contract", 0)]
    assert all(p.grad is not None for p in (q, k, alpha, m))
