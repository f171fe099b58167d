"""istanet benchmark: three workloads, end-to-end metrics, correctness checks
and a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ./src. All
files it writes go under ./.perfbench_out. Every workload is a closed loop
with one client in one process; BLAS is pinned to one thread and glibc's
malloc thresholds are fixed.

Workloads (BENCHMARK.json gives the reason for each, predictions.json the
metrics each layer should move):
  train-coarse  training.train on the README run config: window (10,1,2), so
                U=20 tokens, blocks 16->16->32 with 2 heads, 64 train / 32
                val, batch 32, 8 epochs, with an output directory.
  train-fine    the same blocks with window (1,1,1), so U=400; 64 train,
                batch 16, 3 epochs, no val split, no output directory.
  infer         the README config trained one epoch, saved, then loaded with
                load_checkpoint. Each request serves one val sample:
                DatasetManifest.load (parse_iskel), training.preprocess,
                ISTANet.forward_classify(mode="infer").

A run repeats jobs for --seconds (at least two, three with --trace 1),
after one untimed warm-up epoch on the train workloads. A
train job builds a fresh model from the seed, calls train() once, then makes
one evaluate_topk pass (over val, or over train for train-fine, which has no
val). An infer job serves every val sample once as a request, then makes one
evaluate_topk pass over the same split, which is the `istanet eval` job.

An op is a training step, or one inferred sample (a request, or a sample of
the evaluate_topk pass). `attempted` counts ops and correctness checks;
`failed` counts failed checks. Inputs (synth.generate_corpus from --seed and,
for infer, the checkpoint) are made before any timing.

End-to-end metrics (--trace 0) are calibrated times: the host's speed swings
by up to ~40% for tens of seconds at a time, so every timed interval, less
the calibration probes inside it, is scaled piecewise by the probes timed
next to it (calib.py; each workload names the probe parts that track it).
They read as times on a host where the probe takes
its nominal time; raw wall and set-up times are printed beside them.
Medians over the run unless stated:
  setup_s             import, load_manifest and building the model
                      (load_checkpoint for infer), each in a fresh
                      interpreter calibrated by probes in that interpreter,
                      median of SETUP_REPEATS
  wall_s              one job: the train() call, or the requests plus the
                      evaluate_topk pass
  samples_per_s       samples per epoch / median epoch time; train epochs
                      after each job's first, timed between log_sink
                      callbacks; for infer an epoch is one pass of requests
  op_ms_p50           latency of a training step or of a request
  op_ms_tail          the same at the highest percentile with at least 10
                      samples beyond it; the percentile and count are printed
  loss_mean           mean of the per-epoch train losses over the fixed
                      epoch count (the last epoch's loss alone swings ~25%
                      between seeds), or the label-smoothed cross entropy of
                      the requests' logits; deterministic per seed, a guard
                      on the math
  eval_samples_per_s  samples evaluated / time spent in evaluate_topk, over
                      every pass: per-epoch validation inside train() and
                      the pass after it (a pass takes ~0.3 s and single
                      passes scatter by +-25%, so the total is steadier
                      than a median pass)

The untraced run times train steps and validation passes from stamps taken
at lr_schedule, NesterovSGD.step and evaluate_topk, and takes calibration
probes (a burst of the workload's size) after a stamp, and before a sample's
preprocess inside evaluate_topk, when none ran in the last 50 ms; it does
nothing else inside train(). The traced run (--trace 1) takes no probes and reports raw
times. It alternates untraced and traced jobs; the per-layer metrics come
from the traced jobs, and trace.overhead_s is the traced minus the untraced
median raw job wall time, leaving out the first job.
"""

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections import defaultdict

# Pin BLAS threads before numpy is imported; recorded with every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc adapts its mmap and trim thresholds to the allocation history, so
# one process re-faults ~3 MB per inference request and the next does not:
# run medians then differ by ~40%. Fixed thresholds make runs comparable.
MALLOPT = {"mmap_threshold": (-3, 32 << 20), "trim_threshold": (-1, 256 << 20),
           "top_pad": (-2, 64 << 20)}


def pin_allocator():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if not all(mallopt(param, value) == 1 for param, value in MALLOPT.values()):
        return "default (mallopt refused)"
    return "glibc mallopt " + " ".join(f"{k}={v >> 20}MiB" for k, (_, v) in MALLOPT.items())


ALLOCATOR = pin_allocator()

import numpy as np  # noqa: E402  (after the BLAS pin)

import calib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 11
NUM_TRAIN, NUM_VAL = 64, 32
# README run config
MODEL = {
    "in_channels": 3, "frames": 40, "joints": 5, "entities": 2,
    "embed_channels": 16, "gamma": 0.1, "num_classes": 4,
    "blocks": [{"c_in": 16, "c_out": 16, "heads": 2, "c_qkv": 4},
               {"c_in": 16, "c_out": 32, "heads": 2, "c_qkv": 4}],
}
TRAIN = {"lr": 0.1, "decay_epochs": [40, 55]}

# probe: the calibration probe's parts (calib.py); burst: probes taken at
# each stamp (a training step is ~0.5-0.9 s, so one probe per step left the
# nearest probes seconds apart)
WORKLOADS = {
    "train-coarse": {"window": (10, 1, 2), "batch_size": 32, "epochs": 8,
                     "num_val": NUM_VAL, "out_dir": True, "probe": ("loop", "big"), "burst": 3},
    "train-fine": {"window": (1, 1, 1), "batch_size": 16, "epochs": 3,
                   "num_val": 0, "out_dir": False, "probe": ("loop", "big"), "burst": 3},
    # epochs: the training that makes the checkpoint, before timing
    "infer": {"window": (10, 1, 2), "batch_size": 32, "epochs": 1,
              "num_val": NUM_VAL, "out_dir": False,
              "probe": ("loop", "ufuncs", "einsum", "big"), "burst": 1},
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "op_ms_p50": "ms",
    "op_ms_tail": "ms", "loss_mean": "nat", "eval_samples_per_s": "1/s",
}

ENGINE_OPS = ("pointwise_conv3d", "conv3d_axis", "attention_contract",
              "apply_scores", "batchnorm")
# name -> unit. "/op": total over the traced jobs per op; "/step": per
# training step over the whole traced run (for infer, the training that
# makes its checkpoint); "/call": per call over the whole traced run.
PER_LAYER = {
    "data.parse_iskel.ms": "ms/op",
    "data.parse_iskel.calls": "calls/op",
    "data.load_manifest.ms": "ms/call",
    "training.preprocess.ms": "ms/op",
    "training.train.self_ms": "ms/step",
    "tokenizer.entity_rearrange.ms": "ms/step",
    "tokenizer.tokenize.ms": "ms/op",
    "tokenizer.embed.fwd_ms": "ms/op",
    "attention.block0.fwd_ms": "ms/op",
    "attention.block1.fwd_ms": "ms/op",
    "attention.qkv_project.ms": "ms/op",
    "attention.attention_scores.ms": "ms/op",
    **{f"engine.{op}.fwd_ms": "ms/op" for op in ENGINE_OPS},
    **{f"engine.{op}.bwd_ms": "ms/op" for op in ENGINE_OPS},
    "engine.backward.ms": "ms/step",
    "engine.tape_nodes": "nodes/step",
    "model.forward_tokens.ms": "ms/op",
    "model.ce_label_smoothing.ms": "ms/op",
    "model.optimizer_step.ms": "ms/step",
    "model.forward_classify.ms": "ms/op",
    "model.evaluate_topk.ms": "ms/op",
    "checkpoint.save.ms": "ms/call",
    "checkpoint.load.ms": "ms/call",
    "checkpoint.bytes": "bytes",
    "trace.overhead_s": "s",
}


def import_program():
    if not os.path.isfile(os.path.join(SRC, "istanet", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import istanet
    from istanet import checkpoint, data, engine, model, synth, training
    if os.path.dirname(os.path.dirname(os.path.abspath(istanet.__file__))) != SRC:
        raise SystemExit(f"perfbench: istanet imported from {istanet.__file__}, not {SRC}")
    return types.SimpleNamespace(engine=engine, data=data, model=model, training=training,
                                 checkpoint=checkpoint, synth=synth)


def machine_info(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "allocator": ALLOCATOR,
        "seed": seed,
    }


def tail(values):
    """(value, percentile, count) at the highest whole percentile that has
    at least 10 samples beyond it, by nearest rank."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100)
        if n - k >= 10:
            return xs[k - 1], p, n
    raise RuntimeError(f"{n} samples are too few for a tail with 10 beyond it")


def top1(logits):
    # the same tie order as model.evaluate_topk
    return int(np.argsort(logits)[::-1][0])


def probing(calib, preprocess):
    """preprocess for evaluate_topk that first takes a calibration probe if
    none ran lately, so that an evaluation pass is calibrated by probes
    taken inside it (elapsed() leaves their time out)."""
    def wrapped(seq):
        calib.maybe_probe()
        return seq if preprocess is None else preprocess(seq)
    return wrapped


class StepClock:
    """Stamps epoch starts (lr_schedule), step ends (NesterovSGD.step) and
    validation passes (evaluate_topk) inside training.train, and takes a
    calibration probe after each stamp; restored by close()."""

    def __init__(self, prog, calib):
        self.events = []
        self.eval_spans = []
        self._training = prog.training
        self._sgd = prog.model.NesterovSGD
        self._saved = (self._training.lr_schedule, self._sgd.step,
                       self._training.evaluate_topk)
        events, eval_spans = self.events, self.eval_spans
        lr_fn, step_fn, eval_fn = self._saved

        def lr_schedule(*a, **k):
            events.append(("epoch", time.perf_counter()))
            return lr_fn(*a, **k)

        def step(*a, **k):
            out = step_fn(*a, **k)
            events.append(("step", time.perf_counter()))
            calib.maybe_probe()
            return out

        def evaluate_topk(*a, **k):
            k["preprocess"] = probing(calib, k.get("preprocess"))
            t0 = time.perf_counter()
            out = eval_fn(*a, **k)
            eval_spans.append((t0, time.perf_counter()))
            calib.maybe_probe()
            return out

        self._training.lr_schedule = lr_schedule
        self._sgd.step = step
        self._training.evaluate_topk = evaluate_topk

    def close(self):
        (self._training.lr_schedule, self._sgd.step,
         self._training.evaluate_topk) = self._saved

    def step_spans(self):
        """(start, end) of every training step; a step starts at the
        previous stamp."""
        spans, last = [], None
        for kind, t in self.events:
            if kind == "step":
                spans.append((last, t))
            last = t
        return spans


class Bench:
    def __init__(self, args, prog):
        self.args = args
        self.prog = prog
        self.spec = WORKLOADS[args.workload]
        self.kind = "infer" if args.workload == "infer" else "train"
        self.checks = []  # (name, ok, detail)
        self.tracer = None
        # The traced run reports raw per-layer times and takes no probes,
        # which would otherwise land inside the program's spans.
        self.calib = calib.Calibrator(self.spec["probe"], enabled=not args.trace,
                                      burst=self.spec["burst"])

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    # -- inputs and set-up ---------------------------------------------------
    def model_config(self):
        return self.prog.model.ModelConfig.from_dict(
            {**MODEL, "window": list(self.spec["window"])})

    def train_config(self, epochs):
        return self.prog.model.TrainConfig(
            **TRAIN, epochs=epochs, batch_size=self.spec["batch_size"], seed=self.args.seed)

    def fresh_model(self):
        return self.prog.model.ISTANet(self.model_config(),
                                          rng=np.random.default_rng(self.args.seed))

    def make_inputs(self):
        prog = self.prog
        self.manifest_path = prog.synth.generate_corpus(
            os.path.join(self.work, "corpus"), num_train=NUM_TRAIN,
            num_val=self.spec["num_val"], seed=self.args.seed)
        if self.kind == "infer":
            manifest = prog.data.load_manifest(self.manifest_path)
            model = self.fresh_model()
            tc = self.train_config(self.spec["epochs"])
            prog.training.train(model, manifest, tc, val_tag=None)
            self.ckpt_path = os.path.join(self.work, "infer.ckpt")
            prog.checkpoint.save_checkpoint(self.ckpt_path, model, train_config=tc,
                                               epoch=tc.epochs)

    def setup_seconds(self):
        """Median calibrated cold set-up time over SETUP_REPEATS fresh
        interpreters, each calibrated by its own probes, and the raw times."""
        if self.kind == "infer":
            kind, arg = "load", self.ckpt_path
        else:
            kind, arg = "build", json.dumps({"model": self.model_config().to_dict(),
                                             "seed": self.args.seed})
        cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
               self.manifest_path, kind, arg]
        times, calibrated = [], []
        for _ in range(SETUP_REPEATS):
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                  check=True, cwd=ROOT)
            raw, cal = map(float, done.stdout.strip().splitlines()[-1].split())
            times.append(raw)
            calibrated.append(cal)
        return statistics.median(calibrated), times

    def warm_up(self):
        """One untimed, untraced epoch of the workload's training, or one
        infer job, so that the first timed job does not also pay the
        process's first touch of memory and code paths (it ran ~15% slower
        than later jobs, and infer's first requests would make its tail)."""
        if self.kind == "infer":
            self.infer_job(-1)
        else:
            out_dir = os.path.join(self.work, "warmup") if self.spec["out_dir"] else None
            self.prog.training.train(self.fresh_model(), self.manifest, self.train_config(1),
                                        out_dir=out_dir,
                                        val_tag="val" if self.spec["num_val"] else None)

    def setup(self):
        prog = self.prog
        self.manifest = prog.data.load_manifest(self.manifest_path)
        if self.kind == "infer":
            self.model, self.ckpt_train_config, _, _, _ = prog.checkpoint.load_checkpoint(
                self.ckpt_path)
            self.entries = self.manifest.split("val")
        else:
            self.entries = self.manifest.split("val" if self.spec["num_val"] else "train")

    def preprocess(self, seq):
        return self.prog.training.preprocess(seq, MODEL["frames"])

    def evaluate(self, model):
        t0 = time.perf_counter()
        acc, _ = self.prog.model.evaluate_topk(model, self.manifest, self.entries, k=1,
                                                  preprocess=probing(self.calib, self.preprocess))
        span = (t0, time.perf_counter())
        self.calib.maybe_probe()
        return acc, span

    # -- jobs ----------------------------------------------------------------
    def train_job(self, index):
        prog = self.prog
        model = self.fresh_model()
        out_dir = os.path.join(self.work, f"job{index}") if self.spec["out_dir"] else None
        tc = self.train_config(self.spec["epochs"])
        stamps, records = [], []

        def log_sink(record, wall_ms):
            stamps.append(time.perf_counter())
            records.append(record)
            self.calib.maybe_probe()

        clock = StepClock(prog, self.calib)
        try:
            t0 = time.perf_counter()
            prog.training.train(model, self.manifest, tc, out_dir=out_dir,
                                   val_tag="val" if self.spec["num_val"] else None,
                                   log_sink=log_sink)
            wall = (t0, time.perf_counter())
        finally:
            clock.close()
        acc, eval_span = self.evaluate(model)
        steps = clock.step_spans()
        return {
            "model": model, "out_dir": out_dir, "records": records, "wall": wall,
            "epoch_spans": list(zip(stamps, stamps[1:])),
            "op_spans": steps, "ops": len(steps), "eval_acc": acc,
            "eval_spans": clock.eval_spans + [eval_span],
            "loss": statistics.fmean(r["train_loss"] for r in records),
            "loss_final": records[-1]["train_loss"],
        }

    def infer_job(self, index):
        prog = self.prog
        model = self.model
        t0 = time.perf_counter()
        op_spans, logits = [], []
        for entry in self.entries:
            t = time.perf_counter()
            seq = self.preprocess(self.manifest.load(entry))
            out = model.forward_classify(seq, mode="infer").data.reshape(-1)
            op_spans.append((t, time.perf_counter()))
            logits.append(out)
            self.calib.maybe_probe()
        pass_span = (t0, time.perf_counter())
        acc, eval_span = self.evaluate(model)
        wall = (t0, time.perf_counter())
        logits = np.stack(logits)
        labels = np.array([e.label for e in self.entries])
        tc = self.ckpt_train_config
        loss = prog.model.ce_label_smoothing(logits, labels, tc.label_smoothing,
                                                tc.temperature).item()
        return {
            "logits": logits, "labels": labels, "wall": wall, "pass_span": pass_span,
            "op_spans": op_spans, "ops": 2 * len(self.entries), "eval_acc": acc,
            "eval_spans": [eval_span], "loss": loss,
        }

    @contextlib.contextmanager
    def phase(self, name, traced=True):
        """With --trace 1, trace the enclosed calls under one root span."""
        if self.tracer is None or not traced:
            yield
            return
        self.tracer.install()
        self.tracer.record_ops = name == "bench.job"
        try:
            with self.tracer.span(name):
                yield
        finally:
            self.tracer.record_ops = False
            self.tracer.uninstall()

    def run_jobs(self):
        """Jobs until the next would end past --seconds, at least two. With
        --trace 1, odd-numbered jobs are traced and there are at least three,
        so that an untraced job other than the first (which also pays the
        process's first-touch of memory) is there to compare against."""
        job = self.train_job if self.kind == "train" else self.infer_job
        min_jobs = 2 if self.tracer is None else 3
        jobs, durations = [], []
        start = time.perf_counter()
        self.calib.probe(calib.NEAREST)
        while True:
            traced = self.tracer is not None and len(jobs) % 2 == 1
            t0 = time.perf_counter()
            with self.phase("bench.job", traced):
                result = job(len(jobs))
            result["traced"] = traced
            jobs.append(result)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(jobs) >= min_jobs and elapsed + statistics.median(durations) > self.args.seconds:
                self.calib.probe(calib.NEAREST)
                return jobs

    # -- checks ----------------------------------------------------------------
    def check_train(self, jobs):
        epochs = self.spec["epochs"]
        for i, job in enumerate(jobs):
            losses = [r["train_loss"] for r in job["records"]]
            self.check(f"job{i}.loss_finite", len(losses) == epochs
                       and all(np.isfinite(losses)), f"losses {losses}")
            self.check(f"job{i}.deterministic", job["records"] == jobs[0]["records"],
                       "metrics records differ from job 0")
            if job["out_dir"]:
                with open(os.path.join(job["out_dir"], "metrics.jsonl"), encoding="utf-8") as f:
                    lines = f.read().splitlines()
                self.check(f"job{i}.metrics_lines", len(lines) == epochs,
                           f"{len(lines)} lines for {epochs} epochs")
            if self.spec["num_val"]:
                self.check(f"job{i}.val_matches_eval",
                           job["eval_acc"] == job["records"][-1]["val_top1"],
                           f"eval {job['eval_acc']} vs last val_top1 "
                           f"{job['records'][-1]['val_top1']}")
        self.check_checkpoint(jobs[-1])

    def check_checkpoint(self, job):
        """The trained model reloads to byte-identical logits on one sample:
        final.ckpt where train() wrote one, else a checkpoint saved here."""
        prog = self.prog
        path = (os.path.join(job["out_dir"], "final.ckpt") if job["out_dir"]
                else os.path.join(self.work, "roundtrip.ckpt"))
        if not job["out_dir"]:
            prog.checkpoint.save_checkpoint(path, job["model"])
        loaded = prog.checkpoint.load_checkpoint(path)[0]
        seq = self.preprocess(self.manifest.load(self.entries[0]))
        want = job["model"].forward_classify(seq, mode="infer").data.tobytes()
        got = loaded.forward_classify(seq, mode="infer").data.tobytes()
        self.check("checkpoint_reload_logits", want == got, "reloaded logits differ")

    def check_infer(self, jobs):
        for i, job in enumerate(jobs):
            self.check(f"job{i}.logits_finite", np.isfinite(job["logits"]).all(),
                       "non-finite logits")
            hits = sum(top1(row) == label for row, label in zip(job["logits"], job["labels"]))
            acc = hits / len(job["labels"])
            self.check(f"job{i}.top1_matches_eval", acc == job["eval_acc"],
                       f"requests {acc} vs evaluate_topk {job['eval_acc']}")
            self.check(f"job{i}.deterministic",
                       job["logits"].tobytes() == jobs[0]["logits"].tobytes(),
                       "request logits differ from job 0")

    # -- metrics ---------------------------------------------------------------
    def end_to_end(self, jobs, setup_s):
        elapsed = self.calib.elapsed
        op_ms = [elapsed(*span) * 1000.0 for job in jobs for span in job["op_spans"]]
        tail_ms, pct, n = tail(op_ms)
        eval_s = [elapsed(*span) for job in jobs for span in job["eval_spans"]]
        if self.kind == "train":
            epoch_ms = [elapsed(*span) * 1000.0 for job in jobs for span in job["epoch_spans"]]
            samples_per_s = NUM_TRAIN / (statistics.median(epoch_ms) / 1000.0)
        else:
            samples_per_s = len(self.entries) / statistics.median(
                elapsed(*j["pass_span"]) for j in jobs)
        raw_wall = statistics.median(j["wall"][1] - j["wall"][0] for j in jobs)
        walls = [elapsed(*j["wall"]) for j in jobs]
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "samples_per_s": samples_per_s,
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_tail": tail_ms,
            "loss_mean": jobs[-1]["loss"],
            "eval_samples_per_s": len(self.entries) * len(eval_s) / sum(eval_s),
        }
        notes = {"op_ms_tail": f"p{pct} of {n} ops", "op_ms_p50": f"{n} ops",
                 "wall_s": f"{len(jobs)} jobs: {' '.join(f'{w:.3f}' for w in walls)}; "
                           f"raw median {raw_wall:.4f} s",
                 "eval_samples_per_s": f"{len(eval_s)} passes",
                 "calibration": self.calib.summary()}
        if "loss_final" in jobs[-1]:
            notes["loss_final"] = jobs[-1]["loss_final"]
        return values, notes

    def per_layer(self, jobs):
        """Per-layer metrics from the traced jobs and the rest of the traced run."""
        from tracer import replay_backward_ms
        tracer = self.tracer
        traced = [j for j in jobs if j["traced"]]
        ops = sum(j["ops"] for j in traced)
        job_roots = {s[0] for s in tracer.spans if s[3] == "bench.job"}
        # name -> ms (or calls), over the traced jobs and over the whole run
        job_ms, job_calls, job_self = defaultdict(float), defaultdict(int), defaultdict(float)
        all_ms, all_calls, all_self = defaultdict(float), defaultdict(int), defaultdict(float)
        for (_, _, root, name, _, _), (dur, own) in zip(tracer.spans, tracer.self_times()):
            all_ms[name] += dur * 1000.0
            all_calls[name] += 1
            all_self[name] += own * 1000.0
            if root in job_roots:
                job_ms[name] += dur * 1000.0
                job_calls[name] += 1
                job_self[name] += own * 1000.0
        steps = all_calls["model.optimizer_step"]

        def per_op(name):
            return job_ms[name] / ops

        def per_step(total):
            return total / steps if steps else 0.0

        def per_call(name):
            return all_ms[name] / all_calls[name] if all_calls[name] else 0.0

        replay = defaultdict(float)
        for sig, count in tracer.op_calls.items():
            replay[sig[0]] += count * replay_backward_ms(self.prog.engine, sig)
        wall = {t: statistics.median(j["wall"][1] - j["wall"][0] for j in jobs[1:]
                                     if j["traced"] == t)
                for t in (False, True)}
        values = {
            "data.parse_iskel.ms": per_op("data.parse_iskel"),
            "data.parse_iskel.calls": job_calls["data.parse_iskel"] / ops,
            "data.load_manifest.ms": per_call("data.load_manifest"),
            "training.preprocess.ms": per_op("training.preprocess"),
            "training.train.self_ms": per_step(all_self["training.train"]),
            "tokenizer.entity_rearrange.ms": per_step(all_ms["tokenizer.entity_rearrange"]),
            "tokenizer.tokenize.ms": per_op("tokenizer.tokenize"),
            "tokenizer.embed.fwd_ms": per_op("tokenizer.embed"),
            "attention.block0.fwd_ms": per_op("attention.block0"),
            "attention.block1.fwd_ms": per_op("attention.block1"),
            "attention.qkv_project.ms": per_op("attention.qkv_project"),
            "attention.attention_scores.ms": per_op("attention.attention_scores"),
            **{f"engine.{op}.fwd_ms": per_op(f"engine.{op}") for op in ENGINE_OPS},
            **{f"engine.{op}.bwd_ms": replay[op] / ops for op in ENGINE_OPS},
            "engine.backward.ms": per_step(all_ms["engine.backward"]),
            "engine.tape_nodes": (statistics.median(tracer.tape_nodes)
                                  if tracer.tape_nodes else 0),
            "model.forward_tokens.ms": per_op("model.forward_tokens"),
            "model.ce_label_smoothing.ms": per_op("model.ce_label_smoothing"),
            "model.optimizer_step.ms": per_step(all_ms["model.optimizer_step"]),
            "model.forward_classify.ms": per_op("model.forward_classify"),
            "model.evaluate_topk.ms": per_op("model.evaluate_topk"),
            "checkpoint.save.ms": per_call("checkpoint.save"),
            "checkpoint.load.ms": per_call("checkpoint.load"),
            "checkpoint.bytes": (statistics.median(tracer.saved_bytes)
                                 if tracer.saved_bytes else 0),
            "trace.overhead_s": wall[True] - wall[False],
        }
        layer_self = defaultdict(float)
        for name, ms in job_self.items():
            layer_self[name.split(".", 1)[0]] += ms / ops
        notes = {
            "ops_traced": ops, "training_steps_traced": steps,
            "bwd_ms": "isolated replay of each recorded forward signature",
            "self_ms_per_op_by_span": {k: round(v / ops, 4) for k, v in sorted(job_self.items())},
            "self_ms_per_op_by_layer": {k: round(v, 4) for k, v in sorted(layer_self.items())},
            "wall_s_untraced": wall[False], "wall_s_traced": wall[True],
        }
        return values, notes

    # -- running the workload --------------------------------------------------
    def run(self):
        os.makedirs(OUT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{self.args.workload}-", dir=OUT)
        try:
            return self._run()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _run(self):
        if self.args.trace:
            from tracer import Tracer
            self.tracer = Tracer("istanet")
        with self.phase("bench.inputs"):
            self.make_inputs()
        with self.phase("bench.setup"):
            self.setup()
        setup_s, setup_times = self.setup_seconds()
        self.warm_up()

        jobs = self.run_jobs()

        with self.phase("bench.check"):
            if self.kind == "train":
                self.check_train(jobs)
            else:
                self.check_infer(jobs)

        if self.args.trace:
            values, notes = self.per_layer(jobs)
            units = PER_LAYER
            name = f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"
            self.tracer.dump(os.path.join(OUT, name))
            notes["spans_file"] = os.path.join(".perfbench_out", name)
        else:
            values, notes = self.end_to_end(jobs, setup_s)
            units = END_TO_END
            notes["setup_s"] = f"median of {setup_times}"
        ops = sum(j["ops"] for j in jobs)
        failed = [c for c in self.checks if not c[1]]
        return values, units, notes, ops, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description="istanet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prog = import_program()
    machine = machine_info(args.seed)
    bench = Bench(args, prog)
    values, units, notes, ops, failed = bench.run()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value in values.items():
        note = notes.get(name)
        print(f"  {name} = {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    print("notes " + json.dumps({k: v for k, v in notes.items() if k not in values},
                                sort_keys=True))
    print(f"checks {len(bench.checks)} run, {len(failed)} failed")
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")
    result = {
        "correct": not failed,
        "attempted": ops + len(bench.checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
