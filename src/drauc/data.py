"""Dataset construction and transformation.

Features always live in the unit box [0,1]^d because the attack's feasible
set is that box; every ingestion path min-max normalizes per dimension and
keeps the (min, max) scaler so downstream evaluation can reuse it.

CSV format: UTF-8, LF line endings, no quoting.  Header row is
"y,x1,...,xd"; labels are 0 or 1; features are plain decimals.  Saving
writes 17-significant-digit decimals, which round-trip float64 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import DataFormatError


@dataclass(eq=False)
class Dataset:
    """Labeled examples with features in [0,1]^d and a cached imbalance ratio."""

    features: np.ndarray     # (n, d) float64 in [0, 1]
    labels: np.ndarray       # (n,) int, values {0, 1}
    p_hat: float             # n_pos / n, cached
    scaler_min: np.ndarray   # (d,) per-dimension minimum seen at ingestion
    scaler_max: np.ndarray   # (d,) per-dimension maximum seen at ingestion
    clipped: int = 0         # feature values a given scaler's clip to [0, 1] changed

    @classmethod
    def from_arrays(cls, features, labels, scaler_min=None, scaler_max=None):
        x = np.asarray(features, dtype=float)
        y = np.asarray(labels)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if y.shape != (x.shape[0],):
            raise ValueError("labels must match the number of feature rows")
        # A NaN fails both comparisons, so it is rejected too.
        if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
            raise ValueError("features must lie in [0, 1], with no NaN")
        # Checked before the cast, which would truncate 0.5 to 0 and refuse NaN.
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        y = np.asarray(y, dtype=int)
        if scaler_min is None:
            scaler_min = np.zeros(x.shape[1])
        if scaler_max is None:
            scaler_max = np.ones(x.shape[1])
        p_hat = float((y == 1).sum() / y.size) if y.size else 0.0
        return cls(x, y, p_hat,
                   np.asarray(scaler_min, dtype=float),
                   np.asarray(scaler_max, dtype=float))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_pos(self) -> int:
        return int((self.labels == 1).sum())

    @property
    def n_neg(self) -> int:
        return int((self.labels == 0).sum())

    def pos_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)


def _apply_scaler(raw: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """Per-dimension (raw - mn) / (mx - mn); constant columns map to 0.5."""
    span = mx - mn
    out = np.empty_like(raw)
    const = span == 0.0
    out[:, const] = 0.5
    out[:, ~const] = (raw[:, ~const] - mn[~const]) / span[~const]
    return out


def check_integer(name, value, least=None, most=None):
    """A ValueError naming ``name`` unless value is an int or np.integer, not
    a bool, at least ``least`` and at most ``most`` where given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value}")


def check_real(name, value, least=None, most=None, strict=False):
    """A ValueError naming ``name`` unless value is one finite int or float,
    NumPy's or a 0-d array's included, not a bool (which arithmetic reads as
    1 or 0), at least ``least`` if given and at most ``most`` if given with it;
    ``strict`` excludes both given ends if True, or each by a (least's, most's) pair."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]  # its NumPy scalar
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    low, high = (strict, strict) if isinstance(strict, bool) else strict
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past every float
        finite = False
    if not (finite
            and (least is None or (value > least if low else value >= least))
            and (most is None or (value < most if high else value <= most))):
        if most is not None:
            bound = f" and in {'(' if low else '['}{least}, {most}{')' if high else ']'}"
        else:
            bound = "" if least is None else f" and {'>' if low else '>='} {least}"
        raise ValueError(f"{name} must be finite{bound}, got {value}")


def seeded_rng(seed) -> np.random.Generator:
    """NumPy's generator for ``seed``, an int >= 0, or a ValueError naming it."""
    check_integer("seed", seed, 0)
    return np.random.default_rng(seed)


def gen_synthetic(n: int, d: int, mu_pos: float = 0.65, mu_neg: float = 0.35,
                  sigma: float = 0.15, seed: int = 0) -> Dataset:
    """Two isotropic Gaussian blobs, half positive at mu_pos and half
    negative at mu_neg, min-max normalized per dimension."""
    check_integer("n", n, 4)
    check_integer("d", d, 1)
    for name, mu in (("mu_pos", mu_pos), ("mu_neg", mu_neg)):
        check_real(name, mu)
    check_real("sigma", sigma, 0, strict=True)
    rng = seeded_rng(seed)
    n_pos = n // 2
    n_neg = n - n_pos
    pos = rng.normal(mu_pos, sigma, size=(n_pos, d))
    neg = rng.normal(mu_neg, sigma, size=(n_neg, d))
    raw = np.vstack([pos, neg])
    mn, mx = raw.min(axis=0), raw.max(axis=0)
    feats = _apply_scaler(raw, mn, mx)
    labels = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
    return Dataset.from_arrays(feats, labels, mn, mx)


def make_long_tailed(dataset: Dataset, ratio: float, seed: int = 0) -> Dataset:
    """Subsample positives so the imbalance ratio becomes ``ratio``.

    Keeps floor(ratio * n_neg / (1 - ratio)) positives, chosen uniformly
    without replacement; negatives are untouched and row order is
    preserved.
    """
    check_real("ratio", ratio, 0, dataset.p_hat, strict=(True, False))
    # The +1e-9 guards against 10.999... from the float division when the
    # exact value is integral.
    keep = int(math.floor(ratio * dataset.n_neg / (1.0 - ratio) + 1e-9))
    keep = min(keep, dataset.n_pos)
    if keep < 1:
        raise ValueError(f"ratio {ratio} would leave zero positive examples")
    rng = seeded_rng(seed)
    chosen = rng.choice(dataset.pos_indices(), size=keep, replace=False)
    mask = dataset.labels == 0
    mask[chosen] = True
    return Dataset.from_arrays(dataset.features[mask], dataset.labels[mask],
                               dataset.scaler_min, dataset.scaler_max)


def corrupt(dataset: Dataset, sigma: float, seed: int = 0) -> Dataset:
    """Add seeded i.i.d. Gaussian noise to features and clip to [0,1]."""
    check_real("sigma", sigma, 0)
    rng = seeded_rng(seed)
    noise = rng.standard_normal(dataset.features.shape)
    feats = np.clip(dataset.features + sigma * noise, 0.0, 1.0)
    return Dataset.from_arrays(feats, dataset.labels.copy(),
                               dataset.scaler_min, dataset.scaler_max)


def _expected_header(d: int) -> str:
    return "y," + ",".join(f"x{i}" for i in range(1, d + 1))


def _parse_body(rows, d: int) -> np.ndarray | None:
    """The (n, d + 1) array of ``float()`` of every field, label first, or
    None if a row is ragged, a field does not parse or a label is not 0 or 1."""
    if set(map(str.count, rows, repeat(","))) != {d}:
        return None
    fields = chain.from_iterable(map(str.split, rows, repeat(",")))
    try:
        values = np.fromiter(map(float, fields), float, count=len(rows) * (d + 1))
    except ValueError:
        return None
    values = values.reshape(len(rows), d + 1)
    labels = values[:, 0]
    if not ((labels == 0.0) | (labels == 1.0)).all():
        return None
    return values


def _first_row_fault(rows, d: int) -> DataFormatError:
    """The error of the first bad row in file order, for rows that
    ``_parse_body`` refused: a ragged row, a label that does not parse or is
    not 0 or 1, or a feature that does not parse, checked in that order."""
    for lineno, line in enumerate(rows, start=2):
        parts = line.split(",")
        if len(parts) != d + 1:
            return DataFormatError(
                f"ragged row: expected {d + 1} fields, got {len(parts)}",
                line=lineno,
            )
        try:
            label = float(parts[0])
        except ValueError:
            return DataFormatError(f"non-numeric label {parts[0]!r}", line=lineno)
        if label not in (0.0, 1.0):
            return DataFormatError(f"label value {parts[0]} is not 0 or 1", line=lineno)
        for j, field in enumerate(parts[1:]):
            try:
                float(field)
            except ValueError:
                return DataFormatError(
                    f"non-numeric field {field!r} in column x{j + 1}", line=lineno
                )
    raise AssertionError("the bulk parse refused rows that have no fault")


def load_csv(path, scaler=None) -> Dataset:
    """Load a CSV file, min-max normalizing features per dimension.

    The scaler stores the file's per-dimension ranges; a column that is
    constant in the file maps to 0.5 everywhere.  Loading a file whose
    columns already span [0, 1] exactly is a bitwise no-op on the values,
    so normalization is idempotent across save/load cycles.  A given
    ``scaler`` (min, max), e.g. a checkpoint's, is applied instead, then
    clipped to [0, 1]; ``clipped`` counts the values the clip changed.

    Every field is parsed by ``float()`` in one pass over the body.  A bad
    body raises the DataFormatError of its first bad line in file order; a
    non-finite value is checked only after every line parses, so a parse
    fault on any line comes first.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = fh.read().split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    if not rows:
        raise DataFormatError("empty file", line=1)
    # Popped in place: a copy of the body's list would raise peak memory.
    first = rows.pop(0)
    header = first.split(",")
    if len(header) < 2 or header[0] != "y" or any(
        header[i] != f"x{i}" for i in range(1, len(header))
    ):
        raise DataFormatError(
            f"malformed header {first!r}, expected "
            f"'{_expected_header(max(len(header) - 1, 1))}'",
            line=1,
        )
    d = len(header) - 1
    if scaler is not None and any(np.shape(v) != (d,) for v in scaler):
        raise DataFormatError(f"{d} feature columns do not match the scaler", line=1)
    if not rows:
        raise DataFormatError("no data rows", line=2)
    values = _parse_body(rows, d)
    if values is None:
        raise _first_row_fault(rows, d)
    labels = values[:, 0].astype(int)
    # A copy, so the parse's array is freed before the scaled ones are made.
    raw = values[:, 1:].copy()
    del values
    bad = ~np.isfinite(raw)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataFormatError(
            f"non-finite value {rows[i].split(',')[j + 1]!r} in column x{j + 1}",
            line=i + 2,
        )
    # Under the file's own ranges the clip changes nothing.
    if scaler is None:
        scaler = raw.min(axis=0), raw.max(axis=0)
    mn, mx = (np.asarray(v, dtype=float) for v in scaler)
    scaled = _apply_scaler(raw, mn, mx)
    dataset = Dataset.from_arrays(np.clip(scaled, 0.0, 1.0), labels, mn, mx)
    dataset.clipped = int((dataset.features != scaled).sum())
    return dataset


def save_csv(dataset: Dataset, path) -> None:
    """Write the (already normalized) dataset; see the module docstring."""
    rows = [_expected_header(dataset.d)]
    rows += [f"{label}," + ",".join(map(format, feat, repeat(".17g")))
             for label, feat in zip(dataset.labels.tolist(), dataset.features.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")
