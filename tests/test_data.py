import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from istanet.data import (ParseError, SkeletonSequence,
                          ValidationError, center_sequence, compute_padding,
                          load_manifest, pad_to_windows, parse_iskel,
                          read_iskel, read_text, resample_frames, serialize_iskel)
from istanet.engine import ConfigurationError

from helpers import BYTE_EDITS, apply_byte_edits


def make_iskel_text(c, t, j, e, label, values):
    body = " ".join(repr(float(v)) for v in values)
    return f"ISKEL 1\n{c} {t} {j} {e} {label}\n{body}\n"


class TestParseIskel:
    def test_zero_payload(self):
        seq = parse_iskel(make_iskel_text(3, 2, 2, 2, 5, [0.0] * 24))
        assert seq.data.shape == (3, 2, 2, 2)
        assert seq.label == 5
        assert not seq.data.any()

    def test_truncated_payload_reports_counts(self):
        with pytest.raises(ParseError, match="expected 24 values, found 23"):
            parse_iskel(make_iskel_text(3, 2, 2, 2, 5, [0.0] * 23))

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="line 1.*magic"):
            parse_iskel("NOPE 1\n3 1 1 1 0\n0 0 0\n")

    def test_bad_coordinate_dimension(self):
        with pytest.raises(ParseError, match="C must be 2 or 3"):
            parse_iskel(make_iskel_text(4, 1, 1, 1, 0, [0.0] * 4))

    def test_non_finite_value(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_iskel("ISKEL 1\n2 1 1 1 0\n1.0 nan\n")

    @pytest.mark.parametrize("value", ["1e39", "-1e39", "3.4028236e38", "1e308"])
    def test_value_beyond_float32_range_is_refused(self, value):
        # finite in float64, but a float32 model would cast it to inf
        with pytest.raises(ParseError, match="line 3: .*float32's range"):
            parse_iskel(f"ISKEL 1\n2 1 1 1 0\n1.0 {value}\n")

    def test_float32_max_is_accepted(self):
        biggest = float(np.finfo(np.float32).max)
        seq = parse_iskel(make_iskel_text(2, 1, 1, 1, 0, [biggest, -biggest]))
        assert np.isfinite(seq.data.astype(np.float32)).all()

    def test_index_order_t_j_e_c(self):
        # values written in (t,j,e,c) nesting must land at data[c,t,j,e]
        vals = np.arange(2 * 2 * 1 * 2, dtype=float)
        seq = parse_iskel(make_iskel_text(2, 2, 2, 1, 0, vals))
        expect = vals.reshape(2, 2, 1, 2).transpose(3, 0, 1, 2)
        np.testing.assert_array_equal(seq.data, expect)

    def test_crlf_file_read_through_read_text(self, tmp_path):
        path = tmp_path / "s.iskel"
        path.write_bytes(make_iskel_text(2, 1, 1, 1, 0, [1.5, -2.5]).replace("\n", "\r\n")
                         .encode())
        seq = parse_iskel(read_text(path))
        np.testing.assert_array_equal(seq.data.reshape(-1), [1.5, -2.5])

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "s.iskel"
        raw = make_iskel_text(2, 1, 1, 1, 0, [1.5, -2.5]).encode()
        path.write_bytes(raw[:19] + b"\xff" + raw[20:])
        with pytest.raises(ParseError, match="s.iskel: not UTF-8 text .* at byte 19"):
            parse_iskel(read_text(path))

    @given(BYTE_EDITS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_byte_mutations_raise_only_typed_errors(self, tmp_path, edits):
        # flip, insert and delete bytes of a valid file: reading and parsing
        # it returns a sequence or raises ParseError or ValidationError,
        # nothing else
        path = tmp_path / "s.iskel"
        raw = make_iskel_text(3, 2, 2, 1, 4, np.linspace(-2, 2, 12)).encode()
        path.write_bytes(apply_byte_edits(raw, edits))
        try:
            parse_iskel(read_text(path))
        except (ParseError, ValidationError):
            pass

    @given(st.integers(0, 2 ** 31), st.sampled_from([2, 3]),
           st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_is_fixed_point(self, seed, c, t, j, e):
        rng = np.random.default_rng(seed)
        seq = SkeletonSequence(rng.normal(size=(c, t, j, e)), label=int(seed % 7))
        text = serialize_iskel(seq)
        again = parse_iskel(text)
        np.testing.assert_array_equal(again.data, seq.data)
        assert serialize_iskel(again) == text


class TestResample:
    def test_identity_when_target_matches(self):
        rng = np.random.default_rng(0)
        seq = SkeletonSequence(rng.normal(size=(3, 5, 2, 2)), label=0)
        out = resample_frames(seq, 5)
        np.testing.assert_allclose(out.data, seq.data)

    def test_linear_interpolation_by_hand(self):
        data = np.zeros((2, 2, 1, 1))
        data[:, 1] = 1.0
        out = resample_frames(SkeletonSequence(data, label=0), 3)
        np.testing.assert_allclose(out.data[0, :, 0, 0], [0.0, 0.5, 1.0])

    def test_constant_sequence_stays_constant(self):
        data = np.full((2, 4, 2, 1), 3.25)
        for target in (1, 4, 9):
            out = resample_frames(SkeletonSequence(data, label=0), target)
            assert (out.data == 3.25).all()
            assert out.data.shape[1] == target

    def test_no_overshoot(self):
        rng = np.random.default_rng(1)
        seq = SkeletonSequence(rng.normal(size=(3, 6, 2, 2)), label=0)
        out = resample_frames(seq, 17)
        assert out.data.max() <= seq.data.max() + 1e-12
        assert out.data.min() >= seq.data.min() - 1e-12

    def test_label_preserved(self):
        seq = SkeletonSequence(np.zeros((2, 3, 1, 1)), label=4)
        assert resample_frames(seq, 7).label == 4


class TestPadding:
    def test_exact_multiple_needs_none(self):
        assert compute_padding(120, 20) == 0

    def test_hand_values(self):
        assert compute_padding(59, 20) == 1
        assert compute_padding(15, 2) == 1

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_padding(10, 0)

    def test_exhaustive_divisibility(self):
        n = np.arange(1, 1001)[:, None]
        w = np.arange(1, 1001)[None, :]
        pad = (w - n % w) % w
        assert ((n + pad) % w == 0).all()
        assert (pad >= 0).all() and (pad < w).all()

    def test_wrap_replication_content(self):
        data = np.arange(2 * 3 * 1 * 1, dtype=float).reshape(2, 3, 1, 1)
        out = pad_to_windows(data, (2, 1, 1))
        assert out.shape == (2, 4, 1, 1)
        np.testing.assert_array_equal(out[:, 3], data[:, 0])

    def test_wrap_replication_beyond_length(self):
        data = np.arange(2, dtype=float).reshape(2, 1, 1, 1) + 1
        out = pad_to_windows(data, (5, 1, 1))
        assert out.shape == (2, 5, 1, 1)
        np.testing.assert_array_equal(out[0, :, 0, 0], np.full(5, 1.0))


class TestCentering:
    def test_first_frame_mean_removed(self):
        rng = np.random.default_rng(2)
        seq = SkeletonSequence(rng.normal(size=(3, 4, 5, 2)) + 10.0, label=0)
        out = center_sequence(seq)
        np.testing.assert_allclose(out.data[:, 0].mean(axis=(1, 2)), 0.0, atol=1e-12)
        # relative geometry preserved
        np.testing.assert_allclose(out.data - out.data[:, :1, :1, :1],
                                   seq.data - seq.data[:, :1, :1, :1])


class TestFloat32Range:
    """Every SkeletonSequence holds values within float32's range, so a
    sequence that parsing, centring or resampling makes is one a float32
    model can cast."""

    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
    def test_sequence_beyond_float32_range_is_refused(self, value):
        data = np.zeros((2, 1, 1, 1))
        data[1, 0, 0, 0] = value
        with pytest.raises(ValidationError, match="float32's range"):
            SkeletonSequence(data, label=0)

    def test_centring_out_of_range_is_refused(self):
        # each value is in range, but the second frame minus the first
        # frame's mean, -3e38, is 6e38
        data = np.zeros((2, 2, 1, 1))
        data[0, :, 0, 0] = (-3e38, 3e38)
        seq = SkeletonSequence(data, label=0)
        with pytest.raises(ValidationError, match="float32's range"):
            center_sequence(seq)

    def test_file_error_names_the_file(self, tmp_path):
        path = tmp_path / "s.iskel"
        path.write_text("ISKEL 1\n2 1 1 1 0\n1.0 1e39\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: "):
            read_iskel(path)


class TestManifest:
    def _write_corpus(self, tmp_path, lines, files=()):
        for name in files:
            seq = SkeletonSequence(np.zeros((2, 1, 1, 1)), label=0)
            (tmp_path / name).write_text(serialize_iskel(seq))
        mpath = tmp_path / "manifest.txt"
        mpath.write_text("\n".join(lines) + "\n")
        return mpath

    def test_five_folds_of_ten_samples(self, tmp_path):
        files = [f"s{i}.iskel" for i in range(10)]
        lines = [f"{f} 0 fold{i % 5}" for i, f in enumerate(files)]
        man = load_manifest(self._write_corpus(tmp_path, lines, files))
        assert man.fold_tags() == [f"fold{i}" for i in range(5)]
        for tag in man.fold_tags():
            assert len(man.split(tag)) == 2

    def test_fold_tags_in_number_order(self, tmp_path):
        # fold10 and fold11 after fold2; fold01 is its own tag, before fold1;
        # folder and fold1x are no folds
        tags = [f"fold{i}" for i in range(12)] + ["fold01", "folder", "fold1x", "fold"]
        files = [f"s{i}.iskel" for i in range(len(tags))]
        lines = [f"{f} 0 {tag}" for f, tag in zip(files, tags)]
        man = load_manifest(self._write_corpus(tmp_path, lines, files))
        assert man.fold_tags() == ["fold0", "fold01", "fold1"] + [
            f"fold{i}" for i in range(2, 12)]

    def test_fold_union_is_everything(self, tmp_path):
        rng = np.random.default_rng(3)
        files = [f"s{i}.iskel" for i in range(12)]
        lines = [f"{f} 0 fold{rng.integers(0, 4)}" for f in files]
        man = load_manifest(self._write_corpus(tmp_path, lines, files))
        seen = []
        for tag in man.fold_tags():
            seen += [s.path for s in man.split(tag)]
        assert sorted(seen) == sorted(files)

    def test_duplicate_path_warns_but_loads_twice(self, tmp_path):
        mpath = self._write_corpus(tmp_path, ["a.iskel 0 train", "a.iskel 0 train"],
                                   files=["a.iskel"])
        with pytest.warns(UserWarning, match="more than once"):
            man = load_manifest(mpath)
        assert len(man.samples) == 2

    @given(BYTE_EDITS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_byte_mutations_raise_only_typed_errors(self, tmp_path, edits):
        # flip, insert and delete bytes of a valid manifest: load_manifest
        # returns a manifest (warning of a path listed twice) or raises
        # ParseError or ValidationError, nothing else
        files = [f"s{i}.iskel" for i in range(4)]
        mpath = self._write_corpus(tmp_path, ["# corpus"] + [
            f"{f} {i} {'train' if i < 3 else 'val'}" for i, f in enumerate(files)], files)
        mpath.write_bytes(apply_byte_edits(mpath.read_bytes(), edits))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "manifest lists .* more than once", UserWarning)
            try:
                load_manifest(mpath, num_classes=4)
            except (ParseError, ValidationError):
                pass

    def test_missing_file_names_path(self, tmp_path):
        mpath = self._write_corpus(tmp_path, ["ghost.iskel 0 train"])
        with pytest.raises(ValidationError, match="ghost.iskel"):
            load_manifest(mpath)

    def test_label_out_of_range(self, tmp_path):
        mpath = self._write_corpus(tmp_path, ["a.iskel 9 train"], files=["a.iskel"])
        with pytest.raises(ValidationError, match="label"):
            load_manifest(mpath, num_classes=3)

    def test_comments_and_order(self, tmp_path):
        mpath = self._write_corpus(
            tmp_path, ["# header", "b.iskel 1 val  # trailing", "a.iskel 0 train"],
            files=["a.iskel", "b.iskel"])
        man = load_manifest(mpath)
        assert [s.path for s in man.samples] == ["b.iskel", "a.iskel"]
        # the largest label, 1, needs two classes
        load_manifest(mpath, num_classes=2)
        with pytest.raises(ValidationError, match="label 1 >= num_classes 1"):
            load_manifest(mpath, num_classes=1)
