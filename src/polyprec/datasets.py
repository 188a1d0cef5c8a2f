"""Dataset ingestion and synthetic problem generation.

Reads the plain-text sparse classification format (one ``label idx:val ...``
line per row, 1-based indices) into coordinate arrays, and builds
regression/classification problems whose curvature operator has an exactly
planted spectrum.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .problems import (
    CompositeObjective,
    HuberLoss,
    LogisticLoss,
    RegressionData,
    make_regression,
)

__all__ = [
    "DatasetMatrix",
    "SyntheticSpectrumSpec",
    "parse_libsvm",
    "write_libsvm",
    "standardize_columns",
    "logistic_from_dataset",
    "synth_regression",
    "synth_classification_dataset",
]


@dataclass
class DatasetMatrix:
    """Sparse dataset in coordinate form with sign labels.

    Entry ``k`` is ``val[k]`` at row ``row[k]`` and column ``col[k]``
    (0-based), in row order with strictly increasing columns inside a row.
    ``n_rows`` counts labels, so a row without entries is still a row.
    ``meta`` records any preprocessing applied.
    """

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    labels: np.ndarray
    n_features: int
    meta: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.labels.size

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_features))
        dense[self.row, self.col] = self.val
        return dense


# One well-formed feature, ``INDEX:VALUE`` with a decimal integer index; the
# search finds the first blank-delimited token that is not one.
_NUMBER = r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)"
_BAD_FEATURE = re.compile(
    rf"(?<!\S)(?![+-]?[0-9]+:{_NUMBER}(?!\S))\S+", re.ASCII | re.IGNORECASE
)


def _records(path):
    """``(line number, label text, feature text)`` of each data line of a sparse file."""
    with open(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                parts = line.split(None, 1)
                yield lineno, parts[0], parts[1] if len(parts) > 1 else ""


def _feature_pairs(text: str):
    """``(index, value)`` columns of the ``INDEX:VALUE`` tokens in ``text``.

    Returns None unless every blank-delimited token is one colon between a
    signed run of digits and one number; one numpy conversion reads them all.
    """
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    # Blanks are the ASCII whitespace numpy's text conversion skips: space, \t to \r.
    blank = np.concatenate(([True], (raw == ord(" ")) | ((raw >= 9) & (raw <= 13)), [True]))
    edges = np.flatnonzero(blank[1:] != blank[:-1])
    starts, ends = edges[::2], edges[1::2]
    colons = np.flatnonzero(raw == ord(":"))
    if colons.size != starts.size or not np.all((starts < colons) & (colons < ends - 1)):
        return None
    # +1 at a token's start, -1 at its colon: the running sum marks the indices.
    marks = np.zeros(raw.size + 1, dtype=np.int8)
    marks[starts] = 1
    marks[colons] = -1
    in_index = np.cumsum(marks[:-1], dtype=np.int8).view(bool)
    stray = in_index & ((raw < ord("0")) | (raw > ord("9")))
    stray[starts] &= (raw[starts] != ord("+")) & (raw[starts] != ord("-"))
    if stray.any():
        return None
    if not starts.size:  # numpy reads a blank-only text as [-1.0]
        return np.empty(0), np.empty(0)
    try:
        numbers = np.fromstring(text.replace(":", " "), sep=" ")
    except ValueError:
        return None
    if numbers.size != 2 * starts.size:  # older numpy stops at bad text with a warning
        return None
    return numbers[0::2], numbers[1::2]


# Indices from here up are not all held exactly by the float64 they are read into.
_INDEX_LIMIT = 2.0**53


def _increasing(index: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Whether each index exceeds its row predecessor (0 before a row's first)."""
    previous = np.concatenate(([0.0], index[:-1]))
    previous[firsts] = 0.0
    return index > previous


def _raise_first_error(path):
    """Raise the error of the first bad line, naming ``path:line`` and the bad field."""
    for lineno, label_text, text in _records(path):
        where = f"{path}:{lineno}"
        try:
            label = float(label_text)
        except ValueError as exc:
            raise ValueError(f"{where}: bad label {label_text!r}") from exc
        if not math.isfinite(label):
            raise ValueError(f"{where}: non-finite label {label_text!r}")
        bad = _BAD_FEATURE.search(text)
        good = text[: bad.start()] if bad else text
        index, value = _feature_pairs(good)
        finite = np.isfinite(value)
        wrong = np.flatnonzero((index >= _INDEX_LIMIT) | ~finite | ~_increasing(index, [0]))
        if wrong.size:
            k = wrong[0]
            if index[k] >= _INDEX_LIMIT:
                raise ValueError(f"{where}: bad feature {good.split()[k]!r}")
            if not finite[k]:
                raise ValueError(f"{where}: non-finite feature {good.split()[k]!r}")
            raise ValueError(f"{where}: feature indices must be strictly increasing")
        if bad:
            raise ValueError(f"{where}: bad feature {bad.group()!r}")
    raise ValueError(f"{path}: malformed sparse file")


def parse_libsvm(path) -> DatasetMatrix:
    """Parse a sparse classification file; malformed lines report their number.

    One pass over the lines splits off the labels; one numpy conversion reads
    every feature, and vectorized checks validate them. Only a file that fails
    a check is scanned again, line by line, to name its first bad line.
    """
    labels, features, counts = [], [], []
    for _, label_text, text in _records(path):
        try:
            labels.append(float(label_text))
        except ValueError:
            labels.append(math.nan)  # reported by the scan below
        features.append(text)
        counts.append(text.count(":"))
    if not labels:
        raise ValueError(f"{path}: empty dataset")
    labels = np.asarray(labels)
    counts = np.asarray(counts, dtype=np.intp)
    pairs = _feature_pairs("\n".join(features))
    del features  # the line texts are not needed past the joined copy
    firsts = (np.cumsum(counts) - counts)[counts > 0]
    if (
        pairs is None
        or not np.isfinite(labels).all()
        or not np.isfinite(pairs[1]).all()
        or not (_increasing(pairs[0], firsts) & (pairs[0] < _INDEX_LIMIT)).all()
    ):
        _raise_first_error(path)
    index, value = pairs
    return DatasetMatrix(
        row=np.repeat(np.arange(labels.size, dtype=np.intp), counts),
        col=index.astype(np.intp) - 1,
        val=value.copy(),
        labels=np.where(labels > 0, 1.0, -1.0),  # 0/1 sets map 0 to the negative class
        n_features=int(index.max()) if index.size else 0,
    )


def write_libsvm(path, dense_rows: np.ndarray, labels: np.ndarray):
    """Write dense rows in the sparse text format (zeros are dropped)."""
    dense_rows = np.asarray(dense_rows, dtype=float)
    with open(path, "w") as handle:
        for row, label in zip(dense_rows, labels):
            fields = [f"{int(label):+d}"]
            for j, value in enumerate(row):
                if value != 0.0:
                    fields.append(f"{j + 1}:{float(value)!r}")
            handle.write(" ".join(fields) + "\n")


def standardize_columns(dataset: DatasetMatrix) -> DatasetMatrix:
    """Scale every feature column to unit 2-norm; scales land in the metadata."""
    norms = np.sqrt(
        np.bincount(dataset.col, weights=dataset.val**2, minlength=dataset.n_features)
    )
    norms[norms == 0.0] = 1.0
    meta = dict(dataset.meta)
    meta["standardized"] = True
    meta["column_norms"] = norms
    return replace(dataset, val=dataset.val / norms[dataset.col], meta=meta)


def logistic_from_dataset(
    dataset: DatasetMatrix, standardize: bool = True
) -> CompositeObjective:
    """Binary logistic regression objective from a parsed dataset.

    Labels are folded into the rows at ingestion so the objective sees plain
    residual margins; column standardization is on by default so runs on
    different datasets are comparable.
    """
    if standardize:
        dataset = standardize_columns(dataset)
    dense = dataset.to_dense()
    folded = -dataset.labels[:, None] * dense
    data = RegressionData(rows=folded, targets=np.zeros(dataset.n_rows), loss=LogisticLoss())
    return make_regression(data)


@dataclass
class SyntheticSpectrumSpec:
    """Requested curvature spectrum ``(lam1, lam2, tail value, n)``.

    ``rows`` requests an overdetermined design with that many rows (defaults
    to n); the planted spectrum is exact either way.
    """

    lam1: float
    lam2: float
    tail: float
    n: int
    seed: int = 0
    rows: int | None = None

    def resolve(self) -> np.ndarray:
        if self.n < 2:
            raise ValueError("pattern spec needs n >= 2")
        lam = np.concatenate([[self.lam1, self.lam2], np.full(self.n - 2, self.tail)])
        lam = np.sort(lam)[::-1]
        if lam[-1] <= 0:
            raise ValueError("spectrum must be positive")
        return lam


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _design_matrix(spec: SyntheticSpectrumSpec, rng) -> np.ndarray:
    lam = spec.resolve()
    n = lam.size
    core = np.diag(np.sqrt(lam)) @ _orthogonal(rng, n).T
    m = spec.rows if spec.rows is not None else n
    if m == n:
        return core
    if m < n:
        raise ValueError("rows must be at least the dimension")
    lift, r = np.linalg.qr(rng.standard_normal((m, n)))
    lift = lift * np.sign(np.diag(r))
    return lift @ core


def synth_regression(spec: SyntheticSpectrumSpec, loss):
    """Generate a regression problem with the requested curvature spectrum.

    Returns ``(objective, truth)`` where truth records the design, planted
    coefficients, targets, and the spectrum. Huber targets come from the
    planted model plus unit noise; logistic targets are sign labels drawn
    from the planted margins with moderate noise, folded into the rows.
    """
    rng = np.random.default_rng(spec.seed)
    design = _design_matrix(spec, rng)
    m, n = design.shape
    planted = rng.standard_normal(n)
    margins = design @ planted
    if isinstance(loss, HuberLoss):
        targets = margins + rng.standard_normal(m)
        data = RegressionData(rows=design, targets=targets, loss=loss)
        labels = None
    elif isinstance(loss, LogisticLoss):
        scale = float(np.std(margins)) or 1.0
        probs = 1.0 / (1.0 + np.exp(-margins / scale))
        labels = np.where(rng.random(m) < probs, 1.0, -1.0)
        folded = -labels[:, None] * design
        data = RegressionData(rows=folded, targets=np.zeros(m), loss=loss)
        targets = np.zeros(m)
    else:
        raise ValueError(f"unsupported loss {loss!r}")
    objective = make_regression(data)
    truth = {
        "design": design,
        "planted": planted,
        "targets": targets,
        "labels": labels,
        "eigenvalues": spec.resolve(),
    }
    return objective, truth


def synth_classification_dataset(
    spec: SyntheticSpectrumSpec, flip: float = 0.2
) -> DatasetMatrix:
    """Generate a sign-labeled dataset with the requested curvature spectrum.

    Labels follow the planted margins with a fraction flipped outright, which
    keeps overdetermined instances non-separable (an interior optimum is what
    makes iteration counts to a fixed gap meaningful).
    """
    rng = np.random.default_rng(spec.seed)
    design = _design_matrix(spec, rng)
    m, _ = design.shape
    planted = rng.standard_normal(design.shape[1])
    margins = design @ planted
    labels = np.where(margins > 0, 1.0, -1.0)
    labels[rng.random(m) < flip] *= -1.0
    row, col = np.nonzero(design)
    return DatasetMatrix(
        row=row,
        col=col,
        val=design[row, col],
        labels=labels,
        n_features=design.shape[1],
        meta={"synthetic": True, "seed": spec.seed, "flip": flip},
    )
