import json

import numpy as np
import pytest

from istanet import attention, engine, training
from istanet.attention import TSABlockConfig
from istanet.data import ParseError, SkeletonSequence, load_manifest, serialize_iskel
from istanet.model import ISTANet, ModelConfig, TrainConfig
from istanet.synth import generate_corpus
from istanet.training import NumericAbort, preprocess, train

from helpers import record_threads


def small_config(entities=2, frames=8, joints=2):
    return ModelConfig(
        window=(4, 1, entities), in_channels=3, frames=frames, joints=joints,
        entities=entities, embed_channels=4, gamma=0.1,
        blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2)],
        num_classes=4)


def small_train_config(**kw):
    defaults = dict(lr=0.05, epochs=2, batch_size=8, decay_epochs=(),
                    checkpoint_interval=0, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    path = generate_corpus(out, num_train=16, num_val=8, t=8, j=2, seed=0)
    return path


class TestPreprocess:
    def test_centers_and_resamples(self):
        rng = np.random.default_rng(0)
        seq = SkeletonSequence(rng.normal(size=(3, 5, 2, 2)) + 7.0, label=1)
        out = preprocess(seq, frames=9)
        assert out.data.shape == (3, 9, 2, 2)
        np.testing.assert_allclose(out.data[:, 0].mean(axis=(1, 2)), 0.0, atol=1e-10)
        assert out.label == 1


class TestTrainLoop:
    def test_metrics_shape_and_monotone_epoch(self, corpus):
        manifest = load_manifest(corpus, num_classes=4)
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        metrics = train(model, manifest, small_train_config())
        assert [m["epoch"] for m in metrics] == [0, 1]
        for m in metrics:
            assert set(m) == {"epoch", "lr", "train_loss", "train_top1", "val_top1"}
            assert np.isfinite(m["train_loss"])
            assert 0.0 <= m["train_top1"] <= 1.0

    def test_same_seed_gives_identical_metrics(self, corpus, tmp_path):
        manifest = load_manifest(corpus, num_classes=4)
        logs = []
        for run in ("a", "b"):
            model = ISTANet(small_config(), rng=np.random.default_rng(0))
            train(model, manifest, small_train_config(seed=3),
                  out_dir=tmp_path / run)
            logs.append((tmp_path / run / "metrics.jsonl").read_bytes())
        assert logs[0] == logs[1]

    def test_thread_count_leaves_training_bytes_unchanged(self, tmp_path, monkeypatch):
        # window (1,1,1) over 40 frames, 5 joints and 2 entities gives
        # U = 400, so a batch of 8 has a (8,400,400) map, over
        # SCORE_BLOCK_ELEMENTS: each head runs a sample at a time, its
        # samples split over the threads, at the host's default threshold
        manifest = load_manifest(generate_corpus(tmp_path, num_train=16, num_val=4, seed=0),
                                 num_classes=4)
        config = ModelConfig(window=(1, 1, 1), in_channels=3, frames=40, joints=5,
                             entities=2, embed_channels=4, gamma=0.1,
                             blocks=[TSABlockConfig(c_in=4, c_out=4, heads=2, c_qkv=2)],
                             num_classes=4)
        runs = []
        for threads in (1, 2):
            monkeypatch.setattr(attention, "THREADS", threads)
            idents = record_threads(monkeypatch)
            model = ISTANet(config, rng=np.random.default_rng(0))
            metrics = train(model, manifest, small_train_config(epochs=1, seed=5))
            assert (len(idents) > 1) == (threads > 1) and idents
            runs.append((metrics, [p.data.tobytes() for p in model.parameters()]))
        assert runs[0] == runs[1]

    def test_different_seed_changes_trajectory(self, corpus):
        manifest = load_manifest(corpus, num_classes=4)
        outs = []
        for seed in (0, 1):
            model = ISTANet(small_config(), rng=np.random.default_rng(0))
            outs.append(train(model, manifest, small_train_config(seed=seed)))
        assert outs[0] != outs[1]

    def test_single_entity_er_is_noop(self, tmp_path):
        # with one entity, ER permutes nothing: runs with and without it are
        # bit-identical
        path = tmp_path / "e1"
        path.mkdir()
        rng = np.random.default_rng(4)
        lines = []
        for i in range(8):
            seq = SkeletonSequence(rng.normal(size=(3, 8, 2, 1)), label=i % 4)
            (path / f"s{i}.iskel").write_text(serialize_iskel(seq))
            lines.append(f"s{i}.iskel {i % 4} train")
        (path / "manifest.txt").write_text("\n".join(lines) + "\n")
        manifest = load_manifest(path / "manifest.txt", num_classes=4)

        results = []
        for er in (True, False):
            model = ISTANet(small_config(entities=1), rng=np.random.default_rng(0))
            metrics = train(model, manifest, small_train_config(er_enabled=er))
            results.append(json.dumps(metrics, sort_keys=True))
        assert results[0] == results[1]

    @pytest.mark.parametrize("er", [True, False])
    def test_train_rearranges_each_sample_once_per_epoch(self, corpus, monkeypatch, er):
        # ER is a step of train(), looked up in its module; nothing else
        # (tokenization, evaluation) rearranges entities
        calls = []

        def recording_rearrange(seq, rng, frozen=()):
            calls.append(frozen)
            return real_rearrange(seq, rng, frozen=frozen)

        real_rearrange = training.entity_rearrange
        monkeypatch.setattr(training, "entity_rearrange", recording_rearrange)
        manifest = load_manifest(corpus, num_classes=4)
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        model.config.frozen_entities = (1,)
        train(model, manifest, small_train_config(epochs=2, er_enabled=er))
        assert calls == ([(1,)] * 2 * len(manifest.split("train")) if er else [])

    def test_checkpoints_written(self, corpus, tmp_path):
        manifest = load_manifest(corpus, num_classes=4)
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        train(model, manifest, small_train_config(epochs=3, checkpoint_interval=2),
              out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["epoch_0001.ckpt", "final.ckpt"]
        assert (tmp_path / "metrics.jsonl").exists()
        assert (tmp_path / "timings.jsonl").exists()

    def test_checkpoint_holds_the_model_only(self, corpus, tmp_path):
        # no optimizer velocities and no RNG state: nothing reads them back
        manifest = load_manifest(corpus, num_classes=4)
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        train(model, manifest, small_train_config(epochs=1), out_dir=tmp_path)
        header = json.loads((tmp_path / "final.ckpt").read_bytes().split(b"\n")[1])
        assert sorted(header) == ["blobs", "epoch", "model_config", "train_config"]
        assert [b["name"] for b in header["blobs"]] == (
            [p.name for p in model.parameters()] + [name for name, _ in model.buffers()])

    def test_checkpoint_interval_zero_writes_only_the_final_checkpoint(self, corpus, tmp_path):
        manifest = load_manifest(corpus, num_classes=4)
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        train(model, manifest, small_train_config(epochs=3, checkpoint_interval=0),
              out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == ["final.ckpt"]

    def test_missing_train_tag_rejected(self, corpus):
        from istanet.engine import UsageError
        manifest = load_manifest(corpus, num_classes=4)
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        with pytest.raises(UsageError, match="ghost"):
            train(model, manifest, small_train_config(), train_tag="ghost")

    def test_nonfinite_loss_aborts_with_diagnostics(self, corpus):
        manifest = load_manifest(corpus, num_classes=4)
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        model.fc_weight.data[:] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericAbort, match="epoch 0"):
                train(model, manifest, small_train_config())

    def test_nonfinite_gradient_aborts_before_the_step(self, corpus, monkeypatch):
        # the loss stays finite; only its backward returns NaN, which reaches
        # every parameter
        real_loss = training.ce_label_smoothing

        def loss_with_nan_backward(*args):
            loss = real_loss(*args)
            return engine._make(loss.data, (loss,), lambda g: (np.full_like(g, np.nan),))

        monkeypatch.setattr(training, "ce_label_smoothing", loss_with_nan_backward)
        manifest = load_manifest(corpus, num_classes=4)
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        before = {p.name: p.data.tobytes() for p in model.parameters()}
        with pytest.raises(NumericAbort, match=r"non-finite gradient at epoch 0 "
                                               r"batch 0 in parameter embed\.weight"):
            train(model, manifest, small_train_config())
        assert {p.name: p.data.tobytes() for p in model.parameters()} == before

    def test_step_that_overflows_a_parameter_aborts_before_validation(self, corpus, tmp_path):
        # at lr 1e39 one float32 step leaves the parameters non-finite; the
        # abort comes before that epoch's validation, metrics line and checkpoint
        manifest = load_manifest(corpus, num_classes=4)
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        config = small_train_config(lr=1e39, batch_size=16, epochs=3, checkpoint_interval=1)
        records = []
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericAbort, match=r"non-finite parameter after the step at "
                                                   r"epoch 0 batch 0: embed\.weight"):
                train(model, manifest, config, out_dir=tmp_path / "out",
                      log_sink=lambda record, wall_ms: records.append(record))
        assert records == [] and list((tmp_path / "out").iterdir()) == []

    def test_corrupt_val_file_fails_before_the_first_step(self, tmp_path):
        path = generate_corpus(tmp_path, num_train=8, num_val=4, t=8, j=2, seed=0)
        manifest = load_manifest(path, num_classes=4)
        (tmp_path / manifest.split("val")[-1].path).write_text("ISKEL 1\nnot a header\n")
        model = ISTANet(small_config(), rng=np.random.default_rng(0))
        before = {p.name: p.data.tobytes() for p in model.parameters()}
        records = []
        with pytest.raises(ParseError):
            train(model, manifest, small_train_config(), out_dir=tmp_path / "out",
                  log_sink=lambda record, wall_ms: records.append(record))
        assert records == []
        assert {p.name: p.data.tobytes() for p in model.parameters()} == before
