"""Span tracing for the benchmark's traced run.

The program has no tracing of its own, so the benchmark installs timing
wrappers on the public functions and methods of its layers, at every module
attribute that callers resolve at call time (for example both
``istanet.attention.conv3d_axis`` and ``istanet.engine.conv3d_axis``).
Each call records one span: id, parent id, root id, name, start and end.
Spans stay in memory until the run writes them out.

Backward closures are not module attributes, so per-op backward time is
measured by replaying each recorded forward signature in isolation
(``replay_backward_ms``).
"""

import contextlib
import json
import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name) of every traced function. Aliases of the
# same function in other istanet modules are wrapped too.
FUNCTIONS = [
    ("data", "parse_iskel", "data.parse_iskel"),
    ("data", "load_manifest", "data.load_manifest"),
    ("training", "preprocess", "training.preprocess"),
    ("training", "train", "training.train"),
    ("tokenizer", "entity_rearrange", "tokenizer.entity_rearrange"),
    ("tokenizer", "tokenize", "tokenizer.tokenize"),
    ("tokenizer", "embed", "tokenizer.embed"),
    ("attention", "tsa_block_forward", "attention.block"),
    ("attention", "qkv_project", "attention.qkv_project"),
    ("attention", "attention_scores", "attention.attention_scores"),
    ("engine", "pointwise_conv3d", "engine.pointwise_conv3d"),
    ("engine", "conv3d_axis", "engine.conv3d_axis"),
    ("engine", "attention_contract", "engine.attention_contract"),
    ("engine", "apply_scores", "engine.apply_scores"),
    ("engine", "batchnorm", "engine.batchnorm"),
    ("engine", "backward", "engine.backward"),
    ("model", "ce_label_smoothing", "model.ce_label_smoothing"),
    ("model", "evaluate_topk", "model.evaluate_topk"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
]

# (module, class, method, span name) of every traced method.
METHODS = [
    ("model", "ISTANet", "forward_tokens", "model.forward_tokens"),
    ("model", "ISTANet", "forward_classify", "model.forward_classify"),
    ("model", "NesterovSGD", "step", "model.optimizer_step"),
]

# Engine ops whose forward signatures are recorded for the backward replay.
REPLAYED_OPS = ("pointwise_conv3d", "conv3d_axis", "attention_contract",
                "apply_scores", "batchnorm")


def _block_name(args):
    # TSABlockParams names its parameters "blocks.<i>.<...>"
    parts = args[1].ffn_conv_weight.name.split(".")
    return f"attention.block{parts[1]}" if len(parts) > 2 else "attention.block"


def _signature(op, args, kwargs):
    """Hashable description of one engine-op call: argument shapes, dtype and
    the static arguments the replay needs."""
    if op == "batchnorm":
        x, state, mode = args[0], args[1], args[2] if len(args) > 2 else kwargs["mode"]
        return (op, (tuple(x.shape),), str(x.dtype), (("mode", mode), ("channels", state.channels)))
    n_tensors = 3 if op in ("pointwise_conv3d", "conv3d_axis") else 2
    shapes = tuple(tuple(np.shape(a.data if hasattr(a, "data") else a)) for a in args[:n_tensors])
    static = dict(zip(("axis", "k"), args[n_tensors:]))
    static.update(kwargs)
    dtype = str(getattr(args[0], "dtype", "float32"))
    return (op, shapes, dtype, tuple(sorted(static.items())))


def count_tape_nodes(loss):
    """Nodes reachable from `loss` along requires_grad edges, as the engine's
    backward pass visits them."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Records spans while installed; restores every patched attribute on
    uninstall. Single-threaded: the open-span stack is the call stack."""

    def __init__(self, package):
        self.pkg = package
        self.spans = []          # [id, parent, root, name, start, end]
        self._stack = []
        self._patched = []       # (owner, attribute, previous value)
        self.op_calls = Counter()  # engine-op signature -> calls (in job scope)
        self.record_ops = False
        self.tape_nodes = []     # per engine.backward call
        self.saved_bytes = []    # per checkpoint.save call

    # -- spans ------------------------------------------------------------
    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][2] if parent is not None else sid
        rec = [sid, parent, root, name, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[4] = time.perf_counter()
        return rec

    def end(self, rec):
        rec[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, name):
        tracer = self
        op = name.split(".", 1)[1] if name.startswith("engine.") else None
        replayed = op in REPLAYED_OPS

        def wrapper(*args, **kwargs):
            if replayed and tracer.record_ops:
                tracer.op_calls[_signature(op, args, kwargs)] += 1
            elif name == "engine.backward":
                # a span of its own keeps the count out of the caller's self time
                with tracer.span("bench.tape_count"):
                    tracer.tape_nodes.append(count_tape_nodes(args[0]))
            label = _block_name(args) if name == "attention.block" else name
            rec = tracer.begin(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(rec)
                if name == "checkpoint.save":
                    tracer.saved_bytes.append(os.path.getsize(args[0]))

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == self.pkg or n.startswith(self.pkg + "."))]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"{self.pkg}.{mod_name}"], attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"{self.pkg}.{mod_name}"], cls_name)
            self._set(cls, meth, self._wrap(getattr(cls, meth), name))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------
    def self_times(self):
        """(duration, self time) in seconds of each span, indexed by span id."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[5] - s[4], s[5] - s[4] - child[s[0]]) for s in self.spans]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, root, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "root": root,
                                    "name": name, "start": start, "end": end}) + "\n")


def replay_backward_ms(engine, signature, repeats=5, seed=0):
    """Median ms of the backward pass of one engine op, run in isolation on
    random inputs of the recorded signature."""
    op, shapes, dtype, static = signature
    static = dict(static)
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)

    def param(shape):
        return engine.Parameter("replay", rng.standard_normal(shape).astype(dtype))

    if op == "batchnorm":
        state = engine.BatchNormState("replay", static["channels"], dtype=dtype)
        out = engine.batchnorm(param(shapes[0]), state, static["mode"])
    else:
        out = getattr(engine, op)(*(param(s) for s in shapes), **static)
    seed_grad = rng.standard_normal(out.shape).astype(out.dtype)

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _run_tape(out, seed_grad)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def _run_tape(out, seed_grad):
    """Reverse pass from a non-scalar output, in the engine's visiting order."""
    topo, visited, stack = [], set(), [(out, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents
                     if p.requires_grad and id(p) not in visited)
    grads = {id(out): seed_grad}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None or node._backward is None:
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if p.requires_grad:
                grads[id(p)] = grads[id(p)] + pg if id(p) in grads else pg
