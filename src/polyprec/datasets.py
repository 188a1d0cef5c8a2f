"""Dataset ingestion and synthetic problem generation.

Reads the plain-text sparse classification format (one ``label idx:val ...``
line per row, 1-based indices) block by block into compressed sparse row
arrays, and builds regression/classification problems whose curvature
operator has an exactly planted spectrum.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .operators import SpectralDecomposition
from .problems import CompositeObjective, HuberLoss, LogisticLoss, make_regression

__all__ = [
    "DatasetMatrix",
    "planted_spectrum",
    "parse_libsvm",
    "standardize_columns",
    "logistic_from_dataset",
    "synth_regression",
]


# Lines of text parsed per block, and rows scattered per block when densifying:
# ingestion's temporary memory is one block's text and arrays, not the file's.
_BLOCK_LINES = 512


@dataclass
class DatasetMatrix:
    """Sparse dataset in compressed sparse row form with sign labels.

    Row ``i`` holds the entries ``indptr[i]:indptr[i + 1]`` of ``col`` (0-based
    columns, strictly increasing inside a row) and ``val``. ``n_rows`` counts
    labels, so a row without entries is still a row. ``parse_libsvm`` fills
    each array once, in place; ``standardize_columns`` shares every array but
    ``val``, so the unscaled values live only as long as their matrix.
    """

    indptr: np.ndarray
    col: np.ndarray
    val: np.ndarray
    labels: np.ndarray
    n_features: int

    @property
    def n_rows(self) -> int:
        return self.labels.size

    def to_dense(self) -> np.ndarray:
        """The dense design, scattered one block of rows at a time."""
        dense = np.zeros((self.n_rows, self.n_features))
        for start in range(0, self.n_rows, _BLOCK_LINES):
            bounds = self.indptr[start : start + _BLOCK_LINES + 1]
            rows = np.repeat(np.arange(start, start + bounds.size - 1), np.diff(bounds))
            entries = slice(bounds[0], bounds[-1])
            dense[rows, self.col[entries]] = self.val[entries]
        return dense


# Digit runs this long are below 10**15 < 2**53: int64 reads them without
# saturating and float64 holds them exactly.
_INTEGER_DIGITS = 15

# One well-formed feature, ``INDEX:VALUE`` with a decimal integer index; the
# search finds the first blank-delimited token that is not one.
_NUMBER = r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)"
_BAD_FEATURE = re.compile(
    rf"(?<!\S)(?![+-]?[0-9]+:{_NUMBER}(?!\S))\S+", re.ASCII | re.IGNORECASE
)


def _feature_pairs(text: str):
    """``(index, value)`` columns of the ``INDEX:VALUE`` tokens in ``text``.

    Returns None unless every blank-delimited token is one colon between a
    signed run of digits and one number. One numpy conversion reads them all:
    as integers when every index and value is a short run of digits and no
    value has a sign, else as floats.
    """
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    # Blanks are the ASCII whitespace numpy's text conversion skips: space, \t to \r.
    blank = np.concatenate(([True], (raw == ord(" ")) | ((raw >= 9) & (raw <= 13)), [True]))
    edges = np.flatnonzero(blank[1:] != blank[:-1])
    starts, ends = edges[::2], edges[1::2]
    colons = np.flatnonzero(raw == ord(":"))
    if colons.size != starts.size or not np.all((starts < colons) & (colons < ends - 1)):
        return None
    digit = (raw >= ord("0")) & (raw <= ord("9"))
    signed = (raw[starts] == ord("+")) | (raw[starts] == ord("-"))
    # Non-blank non-digits besides the colons and the signs of indices; with
    # none, every index is a digit run and every value an unsigned one.
    others = np.count_nonzero(~(digit | blank[1:-1])) - colons.size - np.count_nonzero(signed)
    if others:
        # +1 at a token's start, -1 at its colon: the running sum marks the indices.
        marks = np.zeros(raw.size + 1, dtype=np.int8)
        marks[starts] = 1
        marks[colons] = -1
        in_index = np.cumsum(marks[:-1], dtype=np.int8).view(bool)
        stray = in_index & ~digit
        stray[starts] &= ~signed
        if stray.any():
            return None
    if not starts.size:  # numpy reads a blank-only text as [-1.0]
        return np.empty(0), np.empty(0)
    # Reading integers is several times faster than reading floats and gives
    # the same bits for runs of at most _INTEGER_DIGITS digits; values must be
    # unsigned, since the integer reading drops the sign of -0.
    as_integers = (
        not others
        and (colons - starts - signed).max() <= _INTEGER_DIGITS
        and (ends - colons - 1).max() <= _INTEGER_DIGITS
    )
    try:
        numbers = np.fromstring(
            text.replace(":", " "), dtype=np.int64 if as_integers else float, sep=" "
        )
    except ValueError:
        return None
    if numbers.size != 2 * starts.size:  # older numpy stops at bad text with a warning
        return None
    numbers = numbers.astype(float, copy=False)
    return numbers[0::2], numbers[1::2]


# Indices from here up are not all held exactly by the float64 they are read into.
_INDEX_LIMIT = 2.0**53


def _increasing(index: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Whether each index exceeds its row predecessor (0 before a row's first)."""
    previous = np.concatenate(([0.0], index[:-1]))
    previous[firsts] = 0.0
    return index > previous


def _raise_first_error(path, block, first_lineno: int):
    """Raise the error of a failing block's first bad line, naming ``path:line``.

    ``first_lineno`` is the number of the block's first line in the file.
    """
    for lineno, line in enumerate(block, start=first_lineno):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        parts = line.split(None, 1)
        label_text, text = parts[0], parts[1] if len(parts) > 1 else ""
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


def _parse_block(lines):
    """``(labels, feature counts, indices, values)`` of a block's data lines.

    Returns None when a check fails. List comprehensions split off the labels,
    one numpy conversion reads every feature of the block, and vectorized
    checks validate them.
    """
    lines = [
        line.split(None, 1) for line in map(str.strip, lines) if line and not line.startswith("#")
    ]
    # fromiter builds no list of Python floats or ints beside the split lines.
    try:
        labels = np.fromiter((float(parts[0]) for parts in lines), float, len(lines))
    except ValueError:
        return None
    features = [parts[1] if len(parts) > 1 else "" for parts in lines]
    counts = np.fromiter((text.count(":") for text in features), np.intp, len(features))
    pairs = _feature_pairs("\n".join(features))
    firsts = (np.cumsum(counts) - counts)[counts > 0]
    if (
        pairs is None
        or not np.isfinite(labels).all()
        or not np.isfinite(pairs[1]).all()
        or not (_increasing(pairs[0], firsts) & (pairs[0] < _INDEX_LIMIT)).all()
    ):
        return None
    return labels, counts, *pairs


@contextmanager
def open_utf8(path, newline=None):
    """``path`` opened as UTF-8 text (``newline`` as :func:`open` takes it); a
    byte that is not UTF-8 raises a ValueError naming ``path`` and the line
    that holds it."""
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            lineno = _undecodable_line(path)
            raise ValueError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None


def _undecodable_line(path) -> int:
    """Number of the first line of ``path`` that is not UTF-8, counting line
    breaks as text mode does: a line feed, a carriage return or the pair."""
    with open(path, "rb") as handle:
        # Binary lines end at line feeds only; splitlines also splits at returns.
        lines = (line for chunk in handle for line in chunk.splitlines())
        for lineno, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno


# Bytes read at a time by the pass that sizes the output arrays.
_SIZING_BYTES = 1 << 16


def _size_bounds(path) -> tuple[int, int]:
    """Upper bounds on the rows and entries of a sparse file, from one bounded pass.

    Every entry holds one colon and every row ends at a line break or at the
    end of the file, so colons in comments and lines without data over-count.
    A line break is a line feed, a carriage return or the pair; a pair split
    between two reads counts twice.
    """
    rows, entries = 1, 0
    with open(path, "rb") as handle:
        while chunk := handle.read(_SIZING_BYTES):
            data = np.frombuffer(chunk, np.uint8)
            feed, ret = data == ord("\n"), data == ord("\r")
            pairs = np.count_nonzero(ret[:-1] & feed[1:])
            rows += np.count_nonzero(feed) + np.count_nonzero(ret) - pairs
            entries += np.count_nonzero(data == ord(":"))
    return int(rows), int(entries)


def parse_libsvm(path) -> DatasetMatrix:
    """Parse a sparse classification file; malformed lines report their number.

    A first pass over the bytes bounds the rows and entries, so the output
    arrays are allocated once. The file is then read ``_BLOCK_LINES`` lines at
    a time, and each block's labels, row ends, columns and values are written
    into them. A block that fails a check is scanned again, line by line, to
    name its first bad line.
    """
    rows, entries = _size_bounds(path)
    labels = np.empty(rows)
    indptr = np.zeros(rows + 1, dtype=np.intp)
    col = np.empty(entries, dtype=np.intp)
    val = np.empty(entries)
    n_rows, lineno = 0, 1
    with open_utf8(path) as handle:
        while block := list(islice(handle, _BLOCK_LINES)):
            parsed = _parse_block(block)
            if parsed is None:
                _raise_first_error(path, block, lineno)
            block_labels, counts, index, value = parsed
            stop = n_rows + block_labels.size
            # 0/1 labeled sets map 0 to the negative class.
            labels[n_rows:stop] = np.where(block_labels > 0, 1.0, -1.0)
            np.cumsum(counts, out=indptr[n_rows + 1 : stop + 1])
            indptr[n_rows + 1 : stop + 1] += indptr[n_rows]
            written = slice(indptr[n_rows], indptr[stop])
            col[written] = index
            col[written] -= 1
            val[written] = value
            n_rows, lineno = stop, lineno + len(block)
    if not n_rows:
        raise ValueError(f"{path}: empty dataset")
    # Trim what the bounds over-counted, in place: no view of these arrays is alive.
    nnz = indptr[n_rows]
    for array, size in ((labels, n_rows), (indptr, n_rows + 1), (col, nnz), (val, nnz)):
        array.resize(size, refcheck=False)
    return DatasetMatrix(
        indptr=indptr,
        col=col,
        val=val,
        labels=labels,
        n_features=int(col.max()) + 1 if col.size else 0,
    )


def standardize_columns(dataset: DatasetMatrix) -> DatasetMatrix:
    """Scale every nonempty feature column to unit 2-norm."""
    norms = np.sqrt(
        np.bincount(dataset.col, weights=dataset.val**2, minlength=dataset.n_features)
    )
    norms[norms == 0.0] = 1.0
    return replace(dataset, val=dataset.val / norms[dataset.col])


def logistic_from_dataset(
    dataset: DatasetMatrix, standardize: bool = True
) -> CompositeObjective:
    """Binary logistic regression objective from a parsed dataset.

    Labels are folded into the rows at ingestion so the objective sees plain
    residual margins; column standardization is on by default so runs on
    different datasets are comparable.
    """
    try:
        if standardize:
            dataset = standardize_columns(dataset)  # frees val unless the caller holds it
        folded = dataset.to_dense()
    except MemoryError as exc:  # a large index parses, but its dense design cannot fit
        raise MemoryError(f"n_features={dataset.n_features} does not fit in memory") from exc
    folded *= -dataset.labels[:, None]  # in place: one dense design at a time
    return make_regression(folded, np.zeros(dataset.n_rows), LogisticLoss())


def planted_spectrum(synthetic, rows: int | None = None) -> np.ndarray:
    """The curvature spectrum a ``(lam1, lam2, tail, n)`` pattern plants, descending.

    ``rows`` requests an overdetermined design with that many rows (n when
    None, and may not be fewer); the planted spectrum is exact either way.
    """
    lam1, lam2, tail, n = synthetic
    if n < 2:
        raise ValueError("pattern spec needs n >= 2")
    lam = np.sort(np.concatenate([[lam1, lam2], np.full(n - 2, tail)], dtype=float))[::-1]
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise ValueError("spectrum must be finite and positive")
    if rows is not None and rows < n:
        raise ValueError(f"rows must be at least the dimension {n}, got {rows}")
    return lam


def _orthonormal(rng, shape) -> np.ndarray:
    """Orthonormal columns from the QR of a Gaussian draw, with R's diagonal made positive."""
    q, r = np.linalg.qr(rng.standard_normal(shape))
    return q * np.sign(np.diag(r))


def _design_matrix(lam, rows, rng) -> tuple[np.ndarray, SpectralDecomposition]:
    """A design whose Gram has the spectrum ``lam``, and that Gram's decomposition.

    The core ``diag(sqrt(lam)) @ Q.T`` has the Gram ``Q diag(lam) Q.T``. A lift
    with orthonormal columns (``rows > n``), or a sign per row, keeps it.
    """
    n = lam.size
    q = _orthonormal(rng, (n, n))
    # Row scaling gives the bits and the row-major layout of diag(sqrt(lam)) @ Q.T
    # without its O(n^3) product; the layout fixes the bits of later products.
    core = np.multiply(np.sqrt(lam)[:, None], q.T, order="C")
    spectral = SpectralDecomposition(eigenvalues=lam, eigenvectors=q)
    m = rows if rows is not None else n
    if m == n:
        return core, spectral
    return _orthonormal(rng, (m, n)) @ core, spectral


def synth_regression(synthetic, loss, seed: int = 0, rows: int | None = None) -> CompositeObjective:
    """Generate a regression problem with the curvature spectrum ``synthetic`` plants.

    Huber targets come from the planted model plus unit noise; logistic
    targets are sign labels drawn from the planted margins with moderate
    noise, folded into the rows. The curvature operator keeps the planted
    eigendecomposition, so no spectral set-up on it decomposes the Gram.
    """
    rng = np.random.default_rng(seed)
    design, spectral = _design_matrix(planted_spectrum(synthetic, rows), rows, rng)
    m, n = design.shape
    planted = rng.standard_normal(n)
    margins = design @ planted
    if isinstance(loss, HuberLoss):
        return make_regression(design, margins + rng.standard_normal(m), loss, spectral)
    elif isinstance(loss, LogisticLoss):
        scale = float(np.std(margins)) or 1.0
        probs = 1.0 / (1.0 + np.exp(-margins / scale))
        labels = np.where(rng.random(m) < probs, 1.0, -1.0)
        return make_regression(-labels[:, None] * design, np.zeros(m), loss, spectral)
    raise ValueError(f"unsupported loss {loss!r}")

