"""Datasets: toy-system simulation, excitation signals, CSV ingestion,
normalization.

Records carry channel-major arrays u (nu, T) and y (ny, T); the toy system
additionally keeps its noiseless output so noise-floor studies can compare
against ground truth.
"""

import csv
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, NumericError, ParameterError, SchemaError
from .tensor import Rng


@dataclass
class SequenceRecord:
    u: np.ndarray
    y: np.ndarray
    y_clean: Optional[np.ndarray] = None
    sample_rate: Optional[float] = None

    def __post_init__(self):
        self.u = np.atleast_2d(np.asarray(self.u, dtype=np.float64))
        self.y = np.atleast_2d(np.asarray(self.y, dtype=np.float64))
        if self.y_clean is not None:
            self.y_clean = np.atleast_2d(np.asarray(self.y_clean, dtype=np.float64))
        if self.u.shape[1] != self.y.shape[1]:
            raise DataError(
                f"u and y lengths differ: {self.u.shape[1]} vs {self.y.shape[1]}")

    @property
    def length(self):
        return self.u.shape[1]


@dataclass
class NormConstants:
    u_mean: np.ndarray
    u_scale: np.ndarray
    y_mean: np.ndarray
    y_scale: np.ndarray

    def to_dict(self):
        return {k: list(getattr(self, k)) for k in
                ("u_mean", "u_scale", "y_mean", "y_scale")}

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: np.asarray(d[k], dtype=np.float64) for k in
                      ("u_mean", "u_scale", "y_mean", "y_scale")})


@dataclass
class Dataset:
    records: list
    role: str = "training"

    def __post_init__(self):
        if self.role not in ("training", "validation", "test"):
            raise DataError(f"unknown dataset role '{self.role}'")

    @property
    def num_samples(self):
        return sum(r.length for r in self.records)

    @property
    def channels(self):
        """(nu, ny), the input and output channel counts of the first record."""
        return self.records[0].u.shape[0], self.records[0].y.shape[0]


@dataclass
class NoiseSpec:
    sigma_v: float = 0.0   # process noise, enters the state recursion
    sigma_w: float = 0.0   # additive measurement noise

    def __post_init__(self):
        if not all(0.0 <= s < math.inf for s in (self.sigma_v, self.sigma_w)):
            raise ParameterError("noise standard deviations must be finite "
                                 f"and >= 0, got {self.sigma_v}, {self.sigma_w}")


CHEN_BLOWUP_LIMIT = 1e6


def simulate_chen(u, noise, rng):
    """Simulate the second-order exponential-autoregressive toy system.

    State recursion (zero initial conditions, indices below zero read 0):
      s[k] = (0.8 - 0.5 exp(-s[k-1]^2)) s[k-1] - (0.3 + 0.9 exp(-s[k-1]^2)) s[k-2]
             + u[k-1] + 0.2 u[k-2] + 0.1 u[k-1] u[k-2] + v[k]
      y[k] = s[k] + w[k]
    with v, w i.i.d. Gaussian of the given standard deviations.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    t_len = u.size
    v = rng.gaussian(t_len, std=noise.sigma_v) if noise.sigma_v > 0 else np.zeros(t_len)
    w = rng.gaussian(t_len, std=noise.sigma_w) if noise.sigma_w > 0 else np.zeros(t_len)
    s = np.zeros(t_len)
    s1 = 0.0   # s[k-1]
    s2 = 0.0   # s[k-2]
    for k in range(t_len):
        u1 = u[k - 1] if k >= 1 else 0.0
        u2 = u[k - 2] if k >= 2 else 0.0
        e = math.exp(-s1 * s1)
        sk = (0.8 - 0.5 * e) * s1 - (0.3 + 0.9 * e) * s2 \
            + u1 + 0.2 * u2 + 0.1 * u1 * u2 + v[k]
        if not math.isfinite(sk) or abs(sk) > CHEN_BLOWUP_LIMIT:
            raise NumericError(f"toy-system simulation blew up at sample {k}")
        s[k] = sk
        s2 = s1
        s1 = sk
    return SequenceRecord(u=u[None, :], y=(s + w)[None, :], y_clean=s[None, :])


def generate_held_gaussian_input(length, hold, rng):
    """Standard-normal draws, each held for ``hold`` consecutive samples."""
    if hold < 1:
        raise ParameterError(f"hold must be >= 1, got {hold}")
    draws = rng.gaussian(-(-length // hold))
    return np.repeat(draws, hold)[:length]


def make_chen_dataset(num_records, record_length, noise, seed, hold=5,
                      role="training"):
    """Independent toy-system records, each with fresh input and noise draws."""
    if num_records < 1 or record_length < 3:
        raise ParameterError("need at least 1 record of length >= 3")
    master = Rng(seed)
    records = []
    for _ in range(num_records):
        u = generate_held_gaussian_input(record_length, hold, master.split())
        records.append(simulate_chen(u, noise, master.split()))
    return Dataset(records=records, role=role)


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

def _meta_path(path):
    return os.fspath(path) + ".meta.json"


# np.loadtxt over the selected columns is the one cell parser: a cell is
# what Python's float() reads, without digit-group underscores or non-ASCII
# digits, with whitespace around it and in optional double quotes
_CELLS = dict(delimiter=",", comments=None, quotechar='"', ndmin=2,
              dtype=np.float64)


def _parse_rows(lines, cols):
    """The ``cols`` columns of CSV ``lines`` as a float table, (rows, cols).

    Empty lines are skipped; with no other line the table has zero rows.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, usecols=cols, **_CELLS)


def _bad_row_error(path, cols):
    """The error naming the first body line that the bulk parse rejects or
    that holds a non-finite value, found by parsing line by line, or the
    error saying the file is not UTF-8 text."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for lineno, line in enumerate(fh, start=reader.line_num + 1):
                text = line.rstrip("\r\n")
                try:
                    row = _parse_rows([line], cols)
                except ValueError:
                    return DataError(f"{path}: malformed row at line {lineno}: "
                                     f"{text!r}")
                if not np.isfinite(row).all():
                    return DataError(f"{path}: non-finite value at line "
                                     f"{lineno}: {text!r}")
    except UnicodeDecodeError as exc:
        return _not_text_error(path, exc)
    return DataError(f"{path}: malformed rows")


def _not_text_error(path, exc):
    return DataError(f"{path}: not UTF-8 text ({exc.reason})")


def load_csv_dataset(path, u_cols=None, y_cols=None, role="test"):
    """Load one dataset file: header row naming channels, one sample per row.

    Column names default to the ``u*``/``y*`` prefixes found in the header.
    The body is parsed in one ``np.loadtxt`` pass (see ``_CELLS`` for the
    cells it accepts); empty lines are skipped, and a row that does not
    parse or holds a non-finite value raises a DataError naming its line,
    and a file that is not UTF-8 text one naming the file.
    A sidecar ``<file>.meta.json`` may declare ``sample_rate`` (Hz, a
    finite number > 0) and ``segments`` ([start, stop) pairs splitting the
    file into records).
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"empty dataset file: {path}") from None
        except UnicodeDecodeError as exc:
            raise _not_text_error(path, exc) from None
        except csv.Error as exc:    # e.g. a cell past the csv field limit
            raise SchemaError(f"malformed header in {path}: {exc}") from None
        header = [h.strip() for h in header]
        if u_cols is None:
            u_cols = [h for h in header if h.startswith("u")]
        if y_cols is None:
            y_cols = [h for h in header if h.startswith("y") and
                      not h.startswith("ystar")]
        selected = list(u_cols) + list(y_cols)
        for col in selected:
            if col not in header:
                raise SchemaError(f"column '{col}' not present in {path} "
                                  f"(header: {header})")
            if header.count(col) > 1:
                raise SchemaError(f"column '{col}' appears more than once in "
                                  f"the header of {path}")
            if selected.count(col) > 1:
                raise SchemaError(f"column '{col}' is selected more than once "
                                  f"for {path}")
        if not u_cols or not y_cols:
            raise SchemaError(f"no input/output columns declared for {path}")
        cols = [header.index(c) for c in selected]
        try:
            table = _parse_rows(fh, cols)
        except ValueError:
            table = None
    if table is None or not np.isfinite(table).all():
        raise _bad_row_error(path, cols)
    if not table.shape[0]:
        raise SchemaError(f"dataset file has no data rows: {path}")
    # (n, T) views of C-order (T, n) blocks, the layout of every record
    nu = len(u_cols)
    u = table[:, :nu].copy().T
    y = table[:, nu:].copy().T
    sample_rate = None
    segments = None
    meta_path = _meta_path(path)
    if os.path.exists(meta_path):
        meta = read_json(meta_path, "sidecar")
        sample_rate = meta.get("sample_rate")
        # bool is no rate; NaN fails every comparison; json reads Infinity
        if sample_rate is not None and not (
                type(sample_rate) in (int, float)
                and 0 < sample_rate <= sys.float_info.max):
            raise DataError(f"sidecar {meta_path}: sample_rate must be a "
                            f"finite number > 0, got {sample_rate!r}")
        segments = meta.get("segments")
        if segments is not None:
            _check_segments(segments, u.shape[1], meta_path)
    if segments:
        records = [SequenceRecord(u=u[:, a:b], y=y[:, a:b],
                                  sample_rate=sample_rate) for a, b in segments]
    else:
        records = [SequenceRecord(u=u, y=y, sample_rate=sample_rate)]
    return Dataset(records=records, role=role)


def _check_segments(segments, rows, meta_path):
    """Segments must be ordered, non-overlapping [start, stop) pairs of rows."""
    if not isinstance(segments, list):
        raise DataError(f"sidecar {meta_path}: segments must be a list of "
                        f"[start, stop] pairs, got {segments!r}")
    prev_stop = 0
    for seg in segments:
        if not (isinstance(seg, list) and len(seg) == 2
                and all(type(v) is int for v in seg)):
            raise DataError(f"sidecar {meta_path}: segment {seg!r} is not a "
                            f"[start, stop] pair of integers")
        start, stop = seg
        if not 0 <= start < stop <= rows:
            raise DataError(f"sidecar {meta_path}: segment {seg} breaks "
                            f"0 <= start < stop <= {rows} (data rows)")
        if start < prev_stop:
            raise DataError(f"sidecar {meta_path}: segment {seg} overlaps or "
                            f"precedes the segment before it")
        prev_stop = stop


def write_csv(path, header, rows):
    """The one CSV format sysident writes: a header row, then ``rows``.

    csv writes a float with repr(), so a load round-trips it exactly, and
    None as an empty cell; lines end in a bare newline.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc):
    """The one JSON format sysident writes: indent 1 and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path, what):
    """The JSON object in the file at ``path``, which holds a ``what`` (the
    name its errors give the file). A file that is not UTF-8 JSON, nests
    deeper than the parser's recursion limit, or holds no object raises
    DataError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{what} {path} is not a JSON document: "
                            f"{exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{what} {path} is not a JSON object")
    return doc


def save_csv_dataset(dataset, path):
    """One file per dataset: concatenated records plus a segment sidecar."""
    path = os.fspath(path)
    records = dataset.records
    nu, ny = dataset.channels
    has_clean = all(r.y_clean is not None for r in records)
    header = [f"u{i + 1}" for i in range(nu)] + [f"y{i + 1}" for i in range(ny)]
    if has_clean:
        header += [f"ystar{i + 1}" for i in range(ny)]
    blocks = (np.concatenate([r.u, r.y, r.y_clean] if has_clean else [r.u, r.y])
              for r in records)
    write_csv(path, header, (row for b in blocks for row in b.T.tolist()))
    meta = {"segments": []}
    start = 0
    for rec in records:
        meta["segments"].append([start, start + rec.length])
        start += rec.length
    if records[0].sample_rate is not None:
        meta["sample_rate"] = records[0].sample_rate
    write_json(_meta_path(path), meta)


# ---------------------------------------------------------------------------
# normalization (training-split statistics only)
# ---------------------------------------------------------------------------

def compute_norm_constants(dataset):
    """Per-channel mean/std over all records; must come from the training split."""
    u_all = np.concatenate([r.u for r in dataset.records], axis=1)
    y_all = np.concatenate([r.y for r in dataset.records], axis=1)
    consts = NormConstants(u_mean=u_all.mean(axis=1), u_scale=u_all.std(axis=1),
                           y_mean=y_all.mean(axis=1), y_scale=y_all.std(axis=1))
    for name, scale in (("u", consts.u_scale), ("y", consts.y_scale)):
        if np.any(scale == 0.0):
            raise DataError(f"zero-variance {name} channel cannot be normalized")
    return consts


def normalize_dataset(dataset, constants):
    """Affine per-channel transform with the training split's ``constants``."""
    records = []
    for rec in dataset.records:
        u = (rec.u - constants.u_mean[:, None]) / constants.u_scale[:, None]
        y = (rec.y - constants.y_mean[:, None]) / constants.y_scale[:, None]
        clean = None
        if rec.y_clean is not None:
            clean = (rec.y_clean - constants.y_mean[:, None]) / constants.y_scale[:, None]
        records.append(SequenceRecord(u=u, y=y, y_clean=clean,
                                      sample_rate=rec.sample_rate))
    return Dataset(records=records, role=dataset.role)


def denormalize_output(yhat, constants):
    return yhat * constants.y_scale[:, None] + constants.y_mean[:, None]
