"""Differential test of the vectorized sparse-file parser against a per-token reference."""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyprec import DatasetMatrix, parse_libsvm


def _map_label(raw: float) -> float:
    # 0/1 labeled sets map 0 to the negative class; anything positive is +1.
    return 1.0 if raw > 0 else -1.0


def reference_parse_libsvm(path) -> DatasetMatrix:
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


finite = st.floats(allow_nan=False, allow_infinity=False)
blanks = st.text(alphabet=" \t", min_size=1, max_size=3)
labels = st.one_of(st.sampled_from(["0", "1", "-1", "+1"]), finite.map(repr))
values = st.one_of(
    finite.map(repr),
    finite.map(lambda v: f"{v:+.6e}"),
    st.integers(-5, 5).map(str),
)


@st.composite
def data_lines(draw):
    """One well-formed data line as its label and feature tokens."""
    indices = sorted(draw(st.sets(st.integers(1, 300), max_size=8)))
    prefix = st.sampled_from(["", "", "+", "0"])
    tokens = [f"{draw(prefix)}{i}:{draw(values)}" for i in indices]
    return [draw(labels)] + tokens


@st.composite
def sparse_files(draw):
    """Lines of a well-formed file: data lines mixed with blank and comment lines."""
    other = st.sampled_from(["", "   ", "\t", "# comment", "  #1:2 oops"])
    return draw(st.lists(st.one_of(data_lines(), other), max_size=12))


def _render(draw, lines):
    out = []
    for line in lines:
        if isinstance(line, list):
            seps = [draw(blanks) for _ in line[1:]]
            text = line[0] + "".join(s + t for s, t in zip(seps, line[1:]))
            indent, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
            out.append(indent + text + trail)
        else:
            out.append(line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(out) + draw(st.sampled_from(["", ending]))


BAD_TOKENS = ["2:oops", "1:2:3", ":4", "3:", "1.5:1", "0:1", "5:nan", "7:inf", "9:-inf", "4"]
BAD_LABELS = ["nan", "inf", "-inf", "abc"]
fuzz_tokens = st.text(alphabet="0123456789:.+-eEinfa", min_size=1, max_size=6)


@st.composite
def mutated_files(draw):
    """A well-formed file with one to three bad fields put into its data lines."""
    lines = draw(st.lists(st.one_of(data_lines(), st.just("# c")), min_size=1, max_size=10))
    if not any(isinstance(line, list) for line in lines):
        lines.append(draw(data_lines()))
    data = [i for i, line in enumerate(lines) if isinstance(line, list)]
    for _ in range(draw(st.integers(1, 3))):
        line = lines[draw(st.sampled_from(data))]
        kind = draw(st.sampled_from(["token", "fuzz", "label", "decrease"]))
        if kind == "label":
            line[0] = draw(st.sampled_from(BAD_LABELS))
        elif kind == "decrease" and len(line) > 2:
            k = draw(st.integers(1, len(line) - 2))
            line[k], line[k + 1] = line[k + 1], line[k]
        else:
            token = draw(st.sampled_from(BAD_TOKENS) if kind == "token" else fuzz_tokens)
            line.insert(draw(st.integers(1, len(line))), token)
    return lines


def _outcome(parse, path):
    try:
        ds = parse(path)
    except ValueError as exc:
        return str(exc)
    return ds


def _assert_same(path):
    expected = _outcome(reference_parse_libsvm, path)
    got = _outcome(parse_libsvm, path)
    if isinstance(expected, str):
        assert got == expected
        return
    assert isinstance(got, DatasetMatrix), got
    assert got.n_features == expected.n_features
    for name in ("row", "col", "val", "labels"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "data.txt"


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_well_formed_files_parse_bitwise_equal(sample_file, data):
    text = _render(data.draw, data.draw(sparse_files()))
    sample_file.write_bytes(text.encode())
    _assert_same(sample_file)


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_malformed_files_fail_with_the_reference_message(sample_file, data):
    text = _render(data.draw, data.draw(mutated_files()))
    sample_file.write_bytes(text.encode())
    _assert_same(sample_file)  # a fuzz token can be well formed, so either outcome is compared


@pytest.mark.parametrize(
    "line, message",
    [
        ("+1 1:1 2:oops", "bad feature '2:oops'"),
        ("+1 1:2:3", "bad feature '1:2:3'"),
        ("+1 :4", "bad feature ':4'"),
        ("+1 3:", "bad feature '3:'"),
        ("+1 1.5:1", "bad feature '1.5:1'"),
        ("+1 1e0:1", "bad feature '1e0:1'"),
        ("+1 1:2:3 4", "bad feature '1:2:3'"),
        ("+1 0:1", "feature indices must be strictly increasing"),
        ("+1 3:1 2:1", "feature indices must be strictly increasing"),
        ("+1 2:1 1:nan", "non-finite feature '1:nan'"),
        ("+1 2:1 3:inf 1:x", "non-finite feature '3:inf'"),
        ("+1 2:1 3:nan(7)", "bad feature '3:nan(7)'"),
        ("inf 1:1", "non-finite label 'inf'"),
        ("x 1:oops", "bad label 'x'"),
    ],
)
def test_bad_line_names_its_field(tmp_path, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"# header\n-1 1:0.5\n\n{line}\n+1 2:1\n")
    with pytest.raises(ValueError) as new:
        parse_libsvm(path)
    with pytest.raises(ValueError) as reference:
        reference_parse_libsvm(path)
    assert str(new.value) == str(reference.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("index", ["99999999999999999999", "9007199254740993"])
def test_index_not_read_exactly_is_a_bad_feature(tmp_path, index):
    path = tmp_path / "huge.txt"
    path.write_text(f"+1 1:1\n-1 2:1 {index}:2\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: bad feature '{index}:2'"):
        parse_libsvm(path)
