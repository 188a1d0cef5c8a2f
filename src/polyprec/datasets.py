"""Dataset ingestion and synthetic problem generation.

Reads the plain-text sparse classification format (one ``label idx:val ...``
line per row, 1-based indices) into coordinate arrays, and builds
regression/classification problems whose curvature operator has an exactly
planted spectrum.
"""

from __future__ import annotations

import math
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


def _map_label(raw: float) -> float:
    # 0/1 labeled sets map 0 to the negative class; anything positive is +1.
    return 1.0 if raw > 0 else -1.0


def parse_libsvm(path) -> DatasetMatrix:
    """Parse a sparse classification file; malformed lines report their number."""
    row, col, val = [], [], []
    labels = []
    n_features = 0
    with open(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                raw_label = float(parts[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad label {parts[0]!r}") from exc
            if not math.isfinite(raw_label):
                raise ValueError(f"{path}:{lineno}: non-finite label {parts[0]!r}")
            last_index = 0
            for token in parts[1:]:
                try:
                    index_text, value_text = token.split(":", 1)
                    index = int(index_text)
                    value = float(value_text)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad feature {token!r}") from exc
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: non-finite feature {token!r}")
                if index <= last_index:
                    raise ValueError(
                        f"{path}:{lineno}: feature indices must be strictly increasing"
                    )
                last_index = index
                row.append(len(labels))
                col.append(index - 1)
                val.append(value)
                n_features = max(n_features, index)
            labels.append(_map_label(raw_label))
    if not labels:
        raise ValueError(f"{path}: empty dataset")
    return DatasetMatrix(
        row=np.asarray(row, dtype=np.intp),
        col=np.asarray(col, dtype=np.intp),
        val=np.asarray(val, dtype=float),
        labels=np.asarray(labels),
        n_features=n_features,
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
