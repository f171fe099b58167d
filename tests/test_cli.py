import dataclasses
import errno
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from istanet import attention, cli, engine
from istanet.data import SkeletonSequence, load_manifest, parse_iskel, serialize_iskel
from istanet.gradcheck import miniature_config
from istanet.synth import make_sample
from istanet.tokenizer import tokenize

from helpers import (BYTE_EDITS, CHECKPOINT_CORRUPTIONS, MINIATURE_V1_CHECKPOINT,
                     apply_byte_edits, write_corrupt_checkpoint)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_run_config(tmp_path, manifest_path, **overrides):
    doc = {
        "model": {
            "window": [4, 1, 2], "in_channels": 3, "frames": 8, "joints": 2,
            "entities": 2, "embed_channels": 4, "gamma": 0.1,
            "blocks": [{"c_in": 4, "c_out": 4, "heads": 2, "c_qkv": 2}],
            "num_classes": 4,
        },
        "train": {"lr": 0.05, "epochs": 1, "batch_size": 8,
                  "decay_epochs": [], "checkpoint_interval": 0, "seed": 0},
        "data": {"manifest": str(manifest_path), "num_classes": 4},
        "out_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        section, _, name = key.partition(".")
        if name:
            doc[section][name] = value
        else:
            doc[section] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicorpus")
    code = cli.main(["synth", str(out), "--num-train", "16", "--num-val", "8",
                     "--frames", "8", "--joints", "2"])
    assert code == 0
    return out / "manifest.txt"


# case -> (command, extra arguments, run-config overrides); each input is
# refused with exit 2 and one error line, which names each overridden key.
# `train` and `gradcheck --config` take a run config, `inspect tokens` a sample.
BAD_INPUTS = {
    "train-window-not-int": (["train"], ["--window", "a,1,1"], {}),
    "train-epochs-flag-zero": (["train"], ["--epochs", "0"], {}),
    "config-window-two-values": (["train"], [], {"model.window": [1, 2]}),
    "config-window-zero": (["train"], [], {"model.window": [0, 1, 2]}),
    "config-batch-size-zero": (["train"], [], {"train.batch_size": 0}),
    "config-epochs-zero": (["train"], [], {"train.epochs": 0}),
    "config-epochs-negative": (["train"], [], {"train.epochs": -1}),
    "inspect-window-two-values": (["inspect", "tokens"], ["--window", "1,2"], {}),
    "inspect-window-not-int": (["inspect", "tokens"], ["--window", "a,1,1"], {}),
    "inspect-window-zero": (["inspect", "tokens"], ["--window", "0,1,1"], {}),
    "train-window-flag-longer-than-frames": (["train"], ["--window", "2000000000,1,1"], {}),
    "train-window-flag-over-int64": (["train"], ["--window", "99999999999999999999,1,1"], {}),
    "config-window-longer-than-joints": (["train"], [], {"model.window": [4, 3, 2]}),
    "gradcheck-config-window-longer-than-frames": (
        ["gradcheck", "--config"], [], {"model.window": [9, 1, 2]}),
    "inspect-window-longer-than-frames": (["inspect", "tokens"], ["--window", "3,1,1"], {}),
    "inspect-window-over-int64": (
        ["inspect", "tokens"], ["--window", "99999999999999999999,1,1"], {}),
    "config-block-gamma-too-big-for-float": (["train"], [], {"model.blocks": [
        {"c_in": 4, "c_out": 4, "heads": 2, "c_qkv": 2, "gamma": 10 ** 400}]}),
    "config-block-gamma-nan": (["train"], [], {"model.blocks": [
        {"c_in": 4, "c_out": 4, "heads": 2, "c_qkv": 2, "gamma": float("nan")}]}),
    "config-lr-string": (["train"], [], {"train.lr": "x"}),
    "config-lr-decay-string": (["train"], [], {"train.lr_decay": "x"}),
    "config-checkpoint-interval-string": (["train"], [], {"train.checkpoint_interval": "x"}),
    "config-seed-string": (["train"], [], {"train.seed": "x"}),
    "config-seed-negative": (["train"], [], {"train.seed": -1}),
    "config-decay-epochs-not-int": (["train"], [], {"train.decay_epochs": ["a"]}),
    "config-er-enabled-string": (["train"], [], {"train.er_enabled": "no"}),
    "config-gamma-string": (["train"], [], {"model.gamma": "x"}),
    "config-frames-float": (["train"], [], {"model.frames": 2.5}),
    "config-num-classes-float": (["train"], [], {"model.num_classes": 2.5}),
    "config-embed-channels-string": (["train"], [], {"model.embed_channels": "4"}),
    "config-frozen-entity-out-of-range": (["train"], [], {"model.frozen_entities": [5]}),
    "config-frozen-entity-string": (["train"], [], {"model.frozen_entities": ["a"]}),
    "config-section-not-object": (["train"], [], {"train": 5}),
    "config-data-manifest-int": (["train"], [], {"data.manifest": 5}),
    "config-data-train-tag-int": (["train"], [], {"data.train_tag": 5}),
    "config-data-val-tag-list": (["train"], [], {"data.val_tag": ["val"]}),
    "config-data-num-classes-string": (["train"], [], {"data.num_classes": "x"}),
    "config-data-num-classes-one": (["train"], [], {"data.num_classes": 1}),
    "config-data-num-classes-bool": (["train"], [], {"data.num_classes": True}),
    "config-lr-nan": (["train"], [], {"train.lr": float("nan")}),
    "config-lr-decay-inf": (["train"], [], {"train.lr_decay": float("inf")}),
    "config-temperature-nan": (["train"], [], {"train.temperature": float("nan")}),
    "config-gamma-nan": (["train"], [], {"model.gamma": float("nan")}),
    "config-checkpoint-interval-negative": (["train"], [], {"train.checkpoint_interval": -2}),
    "config-in-channels-zero": (["train"], [], {"model.in_channels": 0}),
    "config-entities-zero": (["train"], [], {"model.entities": 0}),
    "config-num-classes-huge": (["train"], [], {"model.num_classes": 2 ** 70}),
    "config-joints-huge": (["train"], [], {"model.joints": 2 ** 70}),
    "config-c-qkv-huge": (["train"], [], {"model.blocks": [
        {"c_in": 4, "c_out": 4, "heads": 2, "c_qkv": 2 ** 70}]}),
    "config-gamma-too-big-for-float": (["train"], [], {"model.gamma": 10 ** 400}),
    "config-lr-too-big-for-float": (["train"], [], {"train.lr": -10 ** 400}),
    "config-label-smoothing-too-big-for-float": (
        ["train"], [], {"train.label_smoothing": 10 ** 400}),
    "gradcheck-config-gamma-too-big-for-float": (
        ["gradcheck", "--config"], [], {"model.gamma": 10 ** 400}),
    "gradcheck-config-lr-too-big-for-float": (
        ["gradcheck", "--config"], [], {"train.lr": 10 ** 400}),
    "train-lr-flag-nan": (["train"], ["--lr", "nan"], {}),
    "train-lr-flag-inf": (["train"], ["--lr", "inf"], {}),
}

# subcommand -> its arguments after `--seed -1`; {config} is a valid run
# config, {ckpt} a valid checkpoint, {manifest} a manifest, {sample} a sample
# and {new} a directory that must not be created
NEGATIVE_SEED = {
    "train": ["train", "{config}"],
    "eval": ["eval", "{ckpt}", "{manifest}"],
    "gradcheck": ["gradcheck"],
    "inspect": ["inspect", "tokens", "{sample}"],
    "synth": ["synth", "{new}"],
}

# case -> (command line, the flag it gets wrong); {new} is a directory that
# must not be created. Each is refused with exit 2 and one error line.
BAD_FLAGS = {
    "gradcheck-tolerance-nan": (["gradcheck", "--tolerance", "nan"], "--tolerance"),
    "gradcheck-tolerance-inf": (["gradcheck", "--tolerance", "inf"], "--tolerance"),
    "gradcheck-tolerance-zero": (["gradcheck", "--tolerance", "0"], "--tolerance"),
    "gradcheck-tolerance-negative": (["gradcheck", "--tolerance", "-1"], "--tolerance"),
    "synth-noise-negative": (["synth", "{new}", "--noise", "-1"], "--noise"),
    "synth-noise-nan": (["synth", "{new}", "--noise", "nan"], "--noise"),
    "synth-noise-inf": (["synth", "{new}", "--noise", "inf"], "--noise"),
    "synth-num-train-negative": (["synth", "{new}", "--num-train", "-1"], "--num-train"),
    "synth-num-val-negative": (["synth", "{new}", "--num-val", "-1"], "--num-val"),
    "synth-num-train-too-big-for-float": (["synth", "{new}", "--num-train", "9" * 401],
                                          "--num-train"),
    "synth-folds-negative": (["synth", "{new}", "--folds", "-2"], "--folds"),
    "synth-frames-negative": (["synth", "{new}", "--frames", "-3"], "--frames"),
    "synth-joints-zero": (["synth", "{new}", "--joints", "0"], "--joints"),
}

# case -> command line; {bad} is a file that is not UTF-8, {dir} a directory,
# {number} a JSON number, {huge} a run config holding an integer of more
# digits than Python converts, {ckpt} a valid checkpoint and {manifest} a
# manifest listing {bad}. Each is refused with exit 2 and one error line.
UNREADABLE_INPUTS = {
    "inspect-sample-not-utf8": ["inspect", "tokens", "{bad}"],
    "inspect-sample-directory": ["inspect", "tokens", "{dir}"],
    "train-config-not-utf8": ["train", "{bad}"],
    "train-config-not-object": ["train", "{number}"],
    "gradcheck-config-not-utf8": ["gradcheck", "--config", "{bad}"],
    "train-config-integer-over-digit-limit": ["train", "{huge}"],
    "gradcheck-config-integer-over-digit-limit": ["gradcheck", "--config", "{huge}"],
    "eval-manifest-not-utf8": ["eval", "{ckpt}", "{bad}"],
    "eval-manifest-directory": ["eval", "{ckpt}", "{dir}"],
    "eval-sample-not-utf8": ["eval", "{ckpt}", "{manifest}"],
    "eval-checkpoint-directory": ["eval", "{dir}", "{manifest}"],
}

# case -> command line; {file} is a regular file, so a path through it is not
# a directory, {outdir} a directory whose config.resolved.json is a directory,
# {config} a valid run config, {ckpt} a valid checkpoint, {manifest} a
# manifest and {sample} a sample. Each is refused with exit 2 and one error
# line. (A PermissionError is caught the same way; no row provokes one,
# because a suite run as root can open any file.)
PATH_ERRORS = {
    "train-out-is-file": ["train", "{config}", "--out", "{file}"],
    "train-out-under-file": ["train", "{config}", "--out", "{file}/sub"],
    "train-out-config-is-directory": ["train", "{config}", "--out", "{outdir}"],
    "synth-out-under-file": ["synth", "{file}/sub"],
    "eval-checkpoint-under-file": ["eval", "{file}/x.ckpt", "{manifest}"],
    "eval-manifest-under-file": ["eval", "{ckpt}", "{file}/manifest.txt"],
    "inspect-tokens-sample-under-file": ["inspect", "tokens", "{file}/x.iskel"],
    "inspect-attention-checkpoint-under-file": [
        "inspect", "attention", "{sample}", "--checkpoint", "{file}/x.ckpt"],
}

# case -> command line that meets a path the system refuses with an error no
# other table provokes; {long} is a path whose last component is 300 bytes,
# longer than a file system allows, {loop} a symlink to itself, {config} a
# valid run config, {loop_config} a run config whose manifest is {loop},
# {ckpt} a valid checkpoint and {manifest} a manifest. Each is refused with
# exit 2 and one error line, and nothing is created.
REFUSED_PATHS = {
    "eval-checkpoint-name-too-long": ["eval", "{long}", "{manifest}"],
    "inspect-tokens-sample-name-too-long": ["inspect", "tokens", "{long}"],
    "synth-out-name-too-long": ["synth", "{long}"],
    "train-out-name-too-long": ["train", "{config}", "--out", "{long}"],
    "inspect-tokens-sample-symlink-loop": ["inspect", "tokens", "{loop}"],
    "eval-manifest-symlink-loop": ["eval", "{ckpt}", "{loop}"],
    "train-manifest-symlink-loop": ["train", "{loop_config}"],
}


class TestExitCodes:
    def test_missing_config_names_path(self, capsys):
        code, _, err = run_cli(capsys, "train", "/nope/absent.json")
        assert code == 2
        assert "/nope/absent.json" in err

    def test_invalid_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "train", str(bad))
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("key,value", [
        ("model.banana", 1), ("train.warmup", 5), ("data.mystery", "x"),
    ])
    def test_unknown_config_keys_rejected(self, capsys, tmp_path, corpus, key, value):
        path = write_run_config(tmp_path, corpus, **{key: value})
        code, _, err = run_cli(capsys, "train", str(path))
        assert code == 2
        assert key.split(".")[1] in err

    @given(BYTE_EDITS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_run_config_byte_mutations_raise_only_configuration_error(self, tmp_path, corpus,
                                                                      edits):
        # flip, insert and delete bytes of a valid run config: load_run_config
        # returns its sections or raises ConfigurationError, nothing else
        path = write_run_config(tmp_path, corpus)
        path.write_bytes(apply_byte_edits(path.read_bytes(), edits))
        try:
            cli.load_run_config(str(path))
        except engine.ConfigurationError:
            pass

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_window_or_train_length_is_usage_error(self, capsys, tmp_path, corpus, case):
        command, extra, overrides = BAD_INPUTS[case]
        if command[0] in ("train", "gradcheck"):
            target = write_run_config(tmp_path, corpus, **overrides)
        else:
            target = tmp_path / "s.iskel"
            target.write_text(serialize_iskel(
                make_sample(label=0, t=2, j=2, rng=np.random.default_rng(0))))
        code, out, err = run_cli(capsys, *command, str(target), *extra)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not (tmp_path / "out").exists()
        for key in overrides:
            assert key.split(".")[-1] in err.replace(str(tmp_path), ""), err

    @pytest.mark.parametrize("command", [["train"], ["gradcheck", "--config"]])
    @pytest.mark.parametrize("field,value", [("gamma", -0.1), ("embed_channels", 2)])
    def test_bad_model_field_names_the_file_before_the_manifest_is_read(
            self, capsys, tmp_path, command, field, value):
        # the manifest is not one: reading it would fail with a ParseError
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("not a manifest line\n")
        config = write_run_config(tmp_path, manifest, **{f"model.{field}": value})
        code, out, err = run_cli(capsys, *command, str(config))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {config}: {field} "), err
        assert "cannot build the model" not in err and "ModelConfig(" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
    def test_undecodable_or_directory_input_is_usage_error(self, capsys, tmp_path, case):
        paths = {"bad": tmp_path / "bad.iskel", "dir": tmp_path / "d",
                 "manifest": tmp_path / "manifest.txt", "number": tmp_path / "n.json",
                 "huge": tmp_path / "huge.json", "ckpt": MINIATURE_V1_CHECKPOINT}
        paths["bad"].write_bytes(b"ISKEL 1\n3 1 1 1 0\n0 0 \xff\n")
        paths["dir"].mkdir()
        paths["manifest"].write_text("bad.iskel 0 val\n")
        paths["number"].write_text("5")
        # json.dumps cannot write this integer, so the text is written as is
        paths["huge"].write_text('{"train": {"seed": ' + "1" * 5000 + "}}")
        argv = [a.format(**paths) for a in UNREADABLE_INPUTS[case]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    @pytest.mark.parametrize("case", sorted(PATH_ERRORS))
    def test_path_through_a_file_is_usage_error(self, capsys, tmp_path, corpus, case):
        man = load_manifest(corpus)
        paths = {"file": tmp_path / "file", "outdir": tmp_path / "outdir",
                 "config": write_run_config(tmp_path, corpus), "ckpt": MINIATURE_V1_CHECKPOINT,
                 "manifest": corpus, "sample": corpus.parent / man.samples[0].path}
        paths["file"].write_text("not a directory\n")
        (paths["outdir"] / "config.resolved.json").mkdir(parents=True)
        argv = [a.format(**paths) for a in PATH_ERRORS[case]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(REFUSED_PATHS))
    def test_name_too_long_or_symlink_loop_is_usage_error(self, capsys, tmp_path, corpus, case):
        (tmp_path / "ok").mkdir()
        (tmp_path / "looped").mkdir()
        paths = {"long": tmp_path / ("n" * 300), "loop": tmp_path / "loop",
                 "config": write_run_config(tmp_path / "ok", corpus),
                 "loop_config": write_run_config(tmp_path / "looped", tmp_path / "loop"),
                 "ckpt": MINIATURE_V1_CHECKPOINT, "manifest": corpus}
        paths["loop"].symlink_to("loop")
        before = sorted(tmp_path.rglob("*"))
        argv = [a.format(**paths) for a in REFUSED_PATHS[case]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert sorted(tmp_path.rglob("*")) == before

    def test_manifest_naming_a_symlink_loop_gives_the_system_message(self, capsys, tmp_path):
        # a looping link does not exist to os.path.exists; the manifest must
        # not call it missing, so that opening it reports the loop
        (tmp_path / "loop.iskel").symlink_to("loop.iskel")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("loop.iskel 0 val\n")
        code, out, err = run_cli(capsys, "eval", str(MINIATURE_V1_CHECKPOINT), str(manifest))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and os.strerror(errno.ELOOP) in err, err

    def test_gradcheck_config_does_not_read_the_manifest(self, capsys, tmp_path):
        model = dataclasses.asdict(miniature_config())
        config = write_run_config(tmp_path, tmp_path / "absent.txt", model=model)
        code, out, err = run_cli(capsys, "gradcheck", "--config", str(config))
        assert code == 0, err
        assert out.splitlines()[-1].startswith("OK: ")

    def test_overflowing_step_aborts_with_one_line(self, capsys, tmp_path, corpus):
        # no errstate here: a numpy warning from the step is an error under
        # this suite's filters, and would print to stderr outside it
        config = write_run_config(tmp_path, corpus)
        code, _, err = run_cli(capsys, "--seed", "7", "train", str(config), "--epochs", "3",
                               "--lr", "1e39")
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("numeric abort: "), err

    @pytest.mark.parametrize("target", ["final.ckpt", "epoch_0000.ckpt"])
    def test_checkpoint_target_directory_is_refused_before_training(self, capsys, tmp_path,
                                                                    corpus, target):
        config = write_run_config(tmp_path, corpus, **{"train.checkpoint_interval": 1})
        (tmp_path / "out" / target).mkdir(parents=True)
        code, out, err = run_cli(capsys, "train", str(config), "--epochs", "2")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert target in err and not (tmp_path / "out" / "metrics.jsonl").exists()

    @pytest.mark.parametrize("command", sorted(NEGATIVE_SEED))
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, corpus, command):
        man = load_manifest(corpus)
        paths = {"config": write_run_config(tmp_path, corpus), "ckpt": MINIATURE_V1_CHECKPOINT,
                 "manifest": corpus, "sample": corpus.parent / man.samples[0].path,
                 "new": tmp_path / "new"}
        argv = [a.format(**paths) for a in NEGATIVE_SEED[command]]
        code, out, err = run_cli(capsys, "--seed", "-1", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "--seed" in err
        assert not (tmp_path / "new").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(BAD_FLAGS))
    def test_bad_flag_value_is_usage_error(self, capsys, tmp_path, case):
        argv, flag = BAD_FLAGS[case]
        code, out, err = run_cli(capsys, *(a.format(new=tmp_path / "new") for a in argv))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert flag in err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_malformed_checkpoint_is_usage_error(self, capsys, tmp_path, corpus, case):
        path = tmp_path / "bad.ckpt"
        message = write_corrupt_checkpoint(path, case)
        code, _, err = run_cli(capsys, "eval", str(path), str(corpus))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert re.search(message, err), err

    def test_gradcheck_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck")
        assert code == 0
        assert "OK" in out

    def test_gradcheck_rejects_f32_precision(self, capsys):
        code, out, err = run_cli(capsys, "--precision", "f32", "gradcheck")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "float64" in err

    def test_gradcheck_f64_precision_gives_default_report(self, capsys):
        default = run_cli(capsys, "gradcheck")
        assert run_cli(capsys, "--precision", "f64", "gradcheck") == default

    def test_gradcheck_detects_corrupted_backward(self, capsys, monkeypatch):
        # negative control: scale one op's gradient and confirm the check
        # goes red with exit code 1
        real = attention.leaky_relu

        def corrupted(t, gamma):
            out = real(t, gamma)
            return engine._make(out.data.copy(), (out,), lambda g: (1.5 * g,))

        monkeypatch.setattr(attention, "leaky_relu", corrupted)
        code, _, err = run_cli(capsys, "gradcheck")
        assert code == 1
        assert "FAIL" in err


@pytest.mark.parametrize("command", ["inspect", "eval"])
def test_closed_output_pipe_exits_141_quietly(tmp_path, command):
    # the read end of stdout's pipe is closed before the program writes, as
    # when a reader such as `head` has already exited
    seq = make_sample(label=0, t=4, j=2, rng=np.random.default_rng(0))
    (tmp_path / "s.iskel").write_text(serialize_iskel(seq))
    (tmp_path / "manifest.txt").write_text("s.iskel 0 val\n")
    argv = {"inspect": ["inspect", "tokens", str(tmp_path / "s.iskel")],
            "eval": ["eval", str(MINIATURE_V1_CHECKPOINT), str(tmp_path / "manifest.txt")]}
    # stdout block-buffered, as by default for a pipe: the write fails at a flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "istanet", *argv[command]], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b"", proc.stderr.decode()


class TestTrainEval:
    def test_train_then_eval(self, capsys, tmp_path, corpus):
        config = write_run_config(tmp_path, corpus)
        code, out, err = run_cli(capsys, "train", str(config), "--epochs", "2")
        assert code == 0, err
        assert out.count("epoch") == 2
        out_dir = tmp_path / "out"
        assert (out_dir / "config.resolved.json").exists()
        assert (out_dir / "final.ckpt").exists()

        code, out, err = run_cli(capsys, "eval", str(out_dir / "final.ckpt"),
                                 str(corpus), "--split", "val")
        assert code == 0, err
        assert out.startswith("top-1: ")
        assert "class 0" in out

    def test_train_determinism_across_invocations(self, capsys, tmp_path, corpus):
        config = write_run_config(tmp_path, corpus)
        logs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            code, _, err = run_cli(capsys, "train", str(config),
                                   "--out", str(out_dir))
            assert code == 0, err
            logs.append((out_dir / "metrics.jsonl").read_bytes())
        assert logs[0] == logs[1]

    def test_eval_missing_split(self, capsys, tmp_path, corpus):
        config = write_run_config(tmp_path, corpus)
        assert run_cli(capsys, "train", str(config))[0] == 0
        code, _, err = run_cli(capsys, "eval",
                               str(tmp_path / "out" / "final.ckpt"),
                               str(corpus), "--split", "ghost")
        assert code == 2
        assert "ghost" in err

    @pytest.mark.parametrize("extra", [["--split", "fold0"], ["--folds"]])
    def test_eval_refuses_a_label_the_model_cannot_predict(self, capsys, tmp_path, extra):
        # the committed v1 checkpoint has 3 classes
        seq = make_sample(label=0, t=4, j=2, rng=np.random.default_rng(0))
        (tmp_path / "s.iskel").write_text(serialize_iskel(SkeletonSequence(seq.data, 3)))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("s.iskel 3 fold0\n")
        code, out, err = run_cli(capsys, "eval", str(MINIATURE_V1_CHECKPOINT), str(manifest),
                                 *extra)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "label 3 >= num_classes 3" in err, err

    @pytest.mark.parametrize("data_classes", [None, 6])
    def test_train_refuses_a_label_the_model_cannot_predict(self, capsys, tmp_path,
                                                            data_classes):
        # the model has 4 classes; a val label of 4 is refused before any step,
        # whether data.num_classes is absent or larger than the model's
        lines = []
        for i, label in enumerate([0, 1, 2, 3, 4]):
            seq = make_sample(label=label % 4, t=8, j=2, rng=np.random.default_rng(i))
            (tmp_path / f"s{i}.iskel").write_text(
                serialize_iskel(SkeletonSequence(seq.data, label)))
            lines.append(f"s{i}.iskel {label} {'val' if label == 4 else 'train'}")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(lines) + "\n")
        data = {"manifest": str(manifest)}
        if data_classes is not None:
            data["num_classes"] = data_classes
        config = write_run_config(tmp_path, manifest, data=data)
        code, out, err = run_cli(capsys, "train", str(config))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "label 4 >= num_classes 4" in err, err
        assert not (tmp_path / "out").exists()

    def test_eval_folds_without_fold_tags_is_usage_error(self, capsys, tmp_path):
        for name in ("a", "b"):
            seq = make_sample(label=0, t=4, j=2, rng=np.random.default_rng(0))
            (tmp_path / f"{name}.iskel").write_text(serialize_iskel(seq))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a.iskel 0 train\nb.iskel 0 val\n")
        code, out, err = run_cli(capsys, "eval", str(MINIATURE_V1_CHECKPOINT), str(manifest),
                                 "--folds")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "fold tags" in err, err


class TestInspect:
    def test_tokens_csv(self, capsys, tmp_path):
        # every (c, t_offset, s, u) index once, with its value's exact float
        # text: the rows rebuild tokenize's array bit for bit
        seq = make_sample(label=0, t=4, j=2, rng=np.random.default_rng(0))
        sample = tmp_path / "s.iskel"
        sample.write_text(serialize_iskel(seq))
        code, out, _ = run_cli(capsys, "inspect", "tokens", str(sample),
                               "--window", "2,1,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,t_block,j_block,e_block,t_offset,s,c,value"
        expect, (_, nj, ne) = tokenize(parse_iskel(sample.read_text()).data, (2, 1, 2))
        rebuilt, seen = np.full_like(expect, np.nan), set()
        for line in lines[1:]:
            *idx, value = line.split(",")
            u, tb, jb, eb, lt, s, c = map(int, idx)
            assert (tb, jb, eb) == (u // (nj * ne), u // ne % nj, u % ne)
            assert (c, lt, s, u) not in seen
            seen.add((c, lt, s, u))
            rebuilt[c, lt, s, u] = float(value)
        assert len(seen) == expect.size
        assert rebuilt.tobytes() == expect.tobytes()

    def test_attention_requires_checkpoint(self, capsys, tmp_path):
        seq = make_sample(label=0, t=8, j=2, rng=np.random.default_rng(0))
        sample = tmp_path / "s.iskel"
        sample.write_text(serialize_iskel(seq))
        code, _, err = run_cli(capsys, "inspect", "attention", str(sample))
        assert code == 2
        assert "checkpoint" in err

    def test_attention_dump_shape(self, capsys, tmp_path, corpus):
        config = write_run_config(tmp_path, corpus)
        assert run_cli(capsys, "train", str(config))[0] == 0
        seq = make_sample(label=1, t=8, j=2, rng=np.random.default_rng(1))
        sample = tmp_path / "s.iskel"
        sample.write_text(serialize_iskel(seq))
        code, out, err = run_cli(capsys, "inspect", "attention", str(sample),
                                 "--checkpoint", str(tmp_path / "out" / "final.ckpt"))
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].startswith("# u_layout,")
        # one block, two heads, U=4 tokens -> 2 section markers + 2*4 rows
        assert sum(1 for l in lines if l.startswith("# block,")) == 2
        data_rows = [l for l in lines if not l.startswith("#")]
        assert len(data_rows) == 8
        assert all(len(r.split(",")) == 4 for r in data_rows)


class TestSynth:
    def test_labels_cover_all_classes(self, corpus):
        from istanet.data import load_manifest
        man = load_manifest(corpus, num_classes=4)
        labels = {e.label for e in man.samples}
        assert labels == {0, 1, 2, 3}

    def test_parseable_sample(self, corpus):
        from istanet.data import load_manifest
        man = load_manifest(corpus)
        seq = man.load(man.samples[0])
        assert seq.data.shape == (3, 8, 2, 2)
        assert np.isfinite(seq.data).all()
