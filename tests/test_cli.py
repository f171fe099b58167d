import json

import numpy as np
import pytest

from istanet import attention, cli, engine
from istanet.data import serialize_iskel
from istanet.synth import make_sample

from helpers import CHECKPOINT_CORRUPTIONS, write_corrupt_checkpoint


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

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_malformed_checkpoint_is_usage_error(self, capsys, tmp_path, corpus, case):
        path = tmp_path / "bad.ckpt"
        write_corrupt_checkpoint(path, case)
        code, _, err = run_cli(capsys, "eval", str(path), str(corpus))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    def test_gradcheck_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck")
        assert code == 0
        assert "OK" in out

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


class TestInspect:
    def test_tokens_csv(self, capsys, tmp_path):
        seq = make_sample(label=0, t=2, j=2, rng=np.random.default_rng(0))
        sample = tmp_path / "s.iskel"
        sample.write_text(serialize_iskel(seq))
        code, out, _ = run_cli(capsys, "inspect", "tokens", str(sample),
                               "--window", "1,2,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,t_block,j_block,e_block,s,c,value"
        assert len(lines) == 1 + 3 * 2 * 2 * 2  # header + C*T*J*E values

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
