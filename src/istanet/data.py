"""Loading, validation, resampling and splitting of interactive skeleton
sequences in the unified (C, T, J, E) layout.

The on-disk `.iskel` text format:
    line 1: magic "ISKEL 1"
    line 2: five integers "C T J E label"
    then C*T*J*E decimal floats, whitespace separated, index order
    t outermost, then j, then e, then c innermost; each value within
    float32's range, which the model casts it to.
Manifests list one sample per line: "relative/path.iskel <label> <tag>",
'#' starts a comment. Tags are either split names (train/val/test) or fold
tags (fold0, fold1, ...).
"""

import os
import re
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .engine import ConfigurationError


class ParseError(ValueError):
    """Malformed .iskel or manifest content; carries the offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ValueError):
    """Structurally valid input that violates a dataset-level invariant."""


# A model casts sample values to float32: max |v| must be at most this,
# which a NaN, taken as the max, fails too
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_FLOAT32_RANGE = f"float32's range (|v| <= {_FLOAT32_MAX!r})"


@dataclass
class SkeletonSequence:
    """One interactive action sample: data is (C,T,J,E), C in {2,3}."""

    data: np.ndarray
    label: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValidationError(f"skeleton data must be rank 4 (C,T,J,E), got rank {self.data.ndim}")
        c, t, j, e = self.data.shape
        if c not in (2, 3):
            raise ValidationError(f"coordinate dimension C must be 2 or 3, got {c}")
        if min(t, j, e) < 1:
            raise ValidationError(f"axes T,J,E must all be >= 1, got shape {self.data.shape}")
        if self.label < 0:
            raise ValidationError(f"label must be >= 0, got {self.label}")
        if not np.abs(self.data).max() <= _FLOAT32_MAX:
            raise ValidationError(f"skeleton data holds a non-finite value or one beyond "
                                  f"{_FLOAT32_RANGE}")


_MAGIC = "ISKEL 1"


def _open_nonblocking(path, flags):
    return os.open(path, flags | getattr(os, "O_NONBLOCK", 0))  # a regular file ignores it


def open_regular(path, mode, error, encoding=None):
    """Open a user-supplied input file to read. One that is not a regular
    file raises `error`: a pipe or a device has no size that bounds a read
    (/dev/zero never ends), and a FIFO, opened non-blocking, is not waited on."""
    f = open(path, mode, encoding=encoding, opener=_open_nonblocking)
    if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        f.close()
        raise error(f"{path}: not a regular file")
    return f


def read_text(path, error=ParseError):
    """Contents of a user-supplied UTF-8 text file (`open_regular`), newlines
    translated as in text mode. Bytes that are not UTF-8 raise `error`, the
    caller's typed input error, as do a file that is not a regular file and
    one too large for memory."""
    with open_regular(path, "r", error, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise error(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
        except MemoryError:
            size = os.fstat(f.fileno()).st_size
            raise error(f"{path}: the {size}-byte file does not fit in memory") from None


def named(path, fn, *args):
    """fn(*args), whose ParseError or ValidationError is raised again as the
    same type, its message prefixed with `path`, the file it is about."""
    try:
        return fn(*args)
    except (ParseError, ValidationError) as e:
        raise type(e)(f"{path}: {e}") from None


def read_iskel(path):
    """The SkeletonSequence of the `.iskel` file at `path` (read_text, then
    parse_iskel). A ParseError or ValidationError of the text names the path
    (named), as does a ParseError for text that fits in memory but whose
    parsed values do not."""
    text = read_text(path)
    try:
        return named(path, parse_iskel, text)
    except MemoryError:
        raise ParseError(f"{path}: the values of the {len(text)}-character file do not fit "
                         f"in memory") from None


def parse_iskel(text):
    """Parse `.iskel` text (a str; `read_text` decodes a file) into a
    SkeletonSequence."""
    lines = text.split("\n", 2)
    if lines[0].strip() != _MAGIC:
        raise ParseError(f"bad magic, expected {_MAGIC!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing header line", line=2)
    header = lines[1].split()
    if len(header) != 5:
        raise ParseError(f"header must be 'C T J E label', got {lines[1]!r}", line=2)
    try:
        c, t, j, e, label = (int(v) for v in header)
    except ValueError:
        raise ParseError(f"non-integer header field in {lines[1]!r}", line=2) from None
    if c not in (2, 3):
        raise ParseError(f"coordinate dimension C must be 2 or 3, got {c}", line=2)
    if min(t, j, e) < 1 or label < 0:
        raise ParseError(f"invalid header dims/label {header}", line=2)

    expected = c * t * j * e
    tokens = lines[2].split() if len(lines) > 2 else []
    if len(tokens) != expected:
        raise ParseError(f"expected {expected} values, found {len(tokens)}", line=3)
    try:
        values = np.array([float(v) for v in tokens], dtype=np.float64)
    except ValueError:
        raise ParseError("non-numeric coordinate value", line=3) from None
    if not np.abs(values).max() <= _FLOAT32_MAX:
        raise ParseError(f"non-finite coordinate value or one beyond {_FLOAT32_RANGE}", line=3)

    # stored order: t outermost, then j, then e, then c innermost
    data = values.reshape(t, j, e, c).transpose(3, 0, 1, 2)
    return SkeletonSequence(data=data, label=label)


def serialize_iskel(seq):
    """Render a SkeletonSequence back to `.iskel` text (parse fixed point)."""
    c, t, j, e = seq.data.shape
    flat = seq.data.transpose(1, 2, 3, 0).reshape(-1)
    lines = [_MAGIC, f"{c} {t} {j} {e} {seq.label}"]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in flat.reshape(t, -1))
    return "\n".join(lines) + "\n"


def resample_frames(seq, target_t):
    """Linearly resample the sequence to exactly target_t frames."""
    if target_t < 1:
        raise ConfigurationError(f"target frame count must be >= 1, got {target_t}")
    n = seq.data.shape[1]
    pos = np.linspace(0.0, n - 1.0, target_t)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n - 1)
    frac = (pos - lo).reshape(1, -1, 1, 1)
    out = seq.data[:, lo] * (1.0 - frac) + seq.data[:, hi] * frac
    return SkeletonSequence(data=out, label=seq.label)


def center_sequence(seq):
    """Subtract the mean joint position of the first frame.

    Removes absolute position; relative geometry and motion are untouched.
    """
    center = seq.data[:, 0].mean(axis=(1, 2)).reshape(-1, 1, 1, 1)
    return SkeletonSequence(data=seq.data - center, label=seq.label)


def compute_padding(n, w):
    """Amount to pad axis of length n so the window length w divides it."""
    if w <= 0:
        raise ConfigurationError(f"window length must be >= 1, got {w}")
    if n < 1:
        raise ConfigurationError(f"axis length must be >= 1, got {n}")
    return (w - n % w) % w


def pad_to_windows(data, window):
    """Wrap-replicate along T/J/E so each axis divides its window length.

    Pad content is copied from the start of the axis, so padded windows stay
    motion-plausible instead of going artificially still.
    """
    c, t, j, e = data.shape
    out = data
    for ax, (n, w) in enumerate(zip((t, j, e), window), start=1):
        pad = compute_padding(n, w)
        if pad:
            idx = np.arange(n + pad) % n
            out = np.take(out, idx, axis=ax)
    return out


@dataclass
class ManifestEntry:
    path: str
    label: int
    tag: str


@dataclass
class DatasetManifest:
    samples: list
    root: str = "."

    def split(self, tag):
        return [s for s in self.samples if s.tag == tag]

    def fold_tags(self):
        """The tags fold<digits>, by number (fold2 before fold10), then by text
        (fold01 before fold1); numbers compare as digit strings, of any length."""
        numbers = {s.tag: s.tag[4:].lstrip("0") for s in self.samples
                   if re.fullmatch("fold[0-9]+", s.tag)}
        return sorted(numbers, key=lambda tag: (len(numbers[tag]), numbers[tag], tag))

    def path(self, entry):
        return os.path.join(self.root, entry.path)

    def load(self, entry):
        seq = read_iskel(self.path(entry))
        if seq.label != entry.label:
            raise ValidationError(
                f"{entry.path}: file label {seq.label} != manifest label {entry.label}")
        return seq


def load_manifest(path, num_classes=None):
    """Parse a manifest file; sample order follows the file deterministically.
    Given num_classes, a label of num_classes or more is a ValidationError."""
    root = os.path.dirname(os.path.abspath(path))
    entries = []
    seen = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"manifest line must be 'path label tag', got {line!r}",
                             line=lineno)
        rel, label_s, tag = parts
        try:
            label = int(label_s)
        except ValueError:
            raise ParseError(f"non-integer label {label_s!r}", line=lineno) from None
        full = os.path.join(root, rel)
        if not os.path.lexists(full):
            raise ValidationError(f"manifest references missing file: {full}")
        if rel in seen:
            warnings.warn(f"manifest lists {rel} more than once; loading it twice")
        seen.add(rel)
        entries.append(ManifestEntry(path=rel, label=label, tag=tag))

    for e in entries:
        if num_classes is not None and e.label >= num_classes:
            raise ValidationError(
                f"{e.path}: label {e.label} >= num_classes {num_classes}")
    return DatasetManifest(samples=entries, root=root)
