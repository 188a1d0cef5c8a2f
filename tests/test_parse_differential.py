"""Differential test of the vectorized sparse-file parser against a per-token reference."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polyprec.datasets as datasets
from polyprec import DatasetMatrix, parse_libsvm


def _map_label(raw: float) -> float:
    # 0/1 labeled sets map 0 to the negative class; anything positive is +1.
    return 1.0 if raw > 0 else -1.0


def reference_parse_libsvm(path) -> DatasetMatrix:
    """Parse a sparse classification file; malformed lines report their number."""
    indptr, col, val = [0], [], []
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
                col.append(index - 1)
                val.append(value)
                n_features = max(n_features, index)
            labels.append(_map_label(raw_label))
            indptr.append(len(col))
    if not labels:
        raise ValueError(f"{path}: empty dataset")
    return DatasetMatrix(
        indptr=np.asarray(indptr, dtype=np.intp),
        col=np.asarray(col, dtype=np.intp),
        val=np.asarray(val, dtype=float),
        labels=np.asarray(labels),
        n_features=n_features,
    )


finite = st.floats(allow_nan=False, allow_infinity=False)
blanks = st.text(alphabet=" \t", min_size=1, max_size=3)
labels = st.one_of(st.sampled_from(["0", "1", "-1", "+1"]), finite.map(repr))
# Runs of up to 15 digits are read as integers; longer runs, signs and any
# other number send the whole text to the float reading.
short_digits = st.text(alphabet="0123456789", min_size=1, max_size=15)
long_digits = st.text(alphabet="0123456789", min_size=16, max_size=20)
float_values = st.one_of(
    finite.map(repr),
    finite.map(lambda v: f"{v:+.6e}"),
    st.integers(-5, 5).map(str),
    st.sampled_from(["-0", "+0", "-0.0", "+7"]),
    long_digits,
)
values = st.one_of(float_values, short_digits)
# Zero-padding past 15 digits sends an index to the float reading.
short_prefixes = st.sampled_from(["", "", "+", "0", "+00", "0" * 12])
prefixes = st.sampled_from(["", "", "+", "0", "+00", "0" * 12, "0" * 15])
# One (values, index prefixes) pair per file, so that many files take the integer reading.
file_styles = st.sampled_from(
    [
        (values, prefixes),
        (short_digits, short_prefixes),
        (short_digits, prefixes),
        (st.one_of(short_digits, long_digits), short_prefixes),
    ]
)


@st.composite
def data_lines(draw, style=(values, prefixes)):
    """One well-formed data line as its label and feature tokens."""
    values, prefixes = style
    indices = sorted(draw(st.sets(st.integers(1, 300), max_size=8)))
    tokens = [f"{draw(prefixes)}{i}:{draw(values)}" for i in indices]
    return [draw(labels)] + tokens


@st.composite
def sparse_files(draw, style=None):
    """Lines of a well-formed file: data lines mixed with blank and comment lines."""
    style = draw(file_styles) if style is None else style
    other = st.sampled_from(["", "   ", "\t", "# comment", "  #1:2 oops"])
    return draw(st.lists(st.one_of(data_lines(style), other), max_size=12))


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
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(out) + draw(st.sampled_from(["", ending]))


BAD_TOKENS = ["2:oops", "1:2:3", ":4", "3:", "1.5:1", "0:1", "5:nan", "7:inf", "9:-inf", "4"]
BAD_LABELS = ["nan", "inf", "-inf", "abc"]
fuzz_tokens = st.text(alphabet="0123456789:.+-eEinfa", min_size=1, max_size=6)


@st.composite
def mutated_files(draw):
    """A well-formed file with one to three bad fields put into its data lines."""
    style = draw(file_styles)
    lines = draw(st.lists(st.one_of(data_lines(style), st.just("# c")), min_size=1, max_size=10))
    if not any(isinstance(line, list) for line in lines):
        lines.append(draw(data_lines(style)))
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
    _assert_bitwise_equal(got, expected)


def _assert_bitwise_equal(got, expected):
    assert isinstance(got, DatasetMatrix), got
    assert got.n_features == expected.n_features
    for name in ("indptr", "col", "val", "labels"):
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
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_float_value_in_an_integer_file(sample_file, data):
    integers = (short_digits, short_prefixes)
    lines = data.draw(sparse_files(integers))
    line = data.draw(data_lines(integers).filter(lambda line: len(line) > 1))
    k = data.draw(st.integers(1, len(line) - 1))
    line[k] = f"{line[k].split(':')[0]}:{data.draw(float_values)}"
    lines.insert(data.draw(st.integers(0, len(lines))), line)
    sample_file.write_bytes(_render(data.draw, lines).encode())
    _assert_same(sample_file)


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_malformed_files_fail_with_the_reference_message(sample_file, data):
    text = _render(data.draw, data.draw(mutated_files()))
    sample_file.write_bytes(text.encode())
    _assert_same(sample_file)  # a fuzz token can be well formed, so either outcome is compared


# Small blocks put block edges inside the generated files of at most 12 lines.
SMALL_BLOCK = 3


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_small_blocks_parse_bitwise_equal(sample_file, data):
    text = _render(data.draw, data.draw(sparse_files()))
    sample_file.write_bytes(text.encode())
    with mock.patch.object(datasets, "_BLOCK_LINES", SMALL_BLOCK):
        _assert_same(sample_file)


@given(data=st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_small_blocks_fail_with_the_reference_message(sample_file, data):
    text = _render(data.draw, data.draw(mutated_files()))
    sample_file.write_bytes(text.encode())
    with mock.patch.object(datasets, "_BLOCK_LINES", SMALL_BLOCK):
        _assert_same(sample_file)


GOOD_LINES = [f"{'+1' if i % 2 else '-1'} {i + 1}:{i}.5 {i + 3}:2" for i in range(7)]


@pytest.mark.parametrize("at", range(len(GOOD_LINES) + 1))
@pytest.mark.parametrize("edge", ["# comment", "", "+1", "-1 "])
def test_skipped_and_label_only_lines_at_block_edges(tmp_path, monkeypatch, edge, at):
    monkeypatch.setattr(datasets, "_BLOCK_LINES", SMALL_BLOCK)
    path = tmp_path / "edges.txt"
    path.write_text("\n".join(GOOD_LINES[:at] + [edge] + GOOD_LINES[at:]) + "\n")
    _assert_same(path)


@pytest.mark.parametrize(
    "lines",
    [
        ["# a", "", "# b", "+1 1:1", "-1 2:1"],  # the first block holds no row
        ["+1 1:1", "-1 2:1", "+1 3:1", "# a", "", "# b", "-1 1:2"],  # nor a middle one
        ["+1 1:1", "-1 2:1", "+1 3:1", "# a", "", "  "],  # nor the last
        ["+1", "-1", "0", "1", "+1 4:1"],  # rows with no entries across an edge
    ],
)
def test_blocks_without_rows_or_entries(tmp_path, monkeypatch, lines):
    monkeypatch.setattr(datasets, "_BLOCK_LINES", SMALL_BLOCK)
    path = tmp_path / "blocks.txt"
    path.write_text("\n".join(lines) + "\n")
    _assert_same(path)


@pytest.mark.parametrize("ending", ["\r", "\r\n"])
def test_line_break_at_the_sizing_read_edge(tmp_path, ending):
    # A line break starts at the first sizing read's last byte; a CRLF pair
    # there straddles two reads, and the sizing pass counts it as two rows.
    size, line = datasets._SIZING_BYTES, "+1 1:1 3:0.25"
    count = (size - 2) // (len(line) + len(ending))
    pad = size - 1 - count * (len(line) + len(ending))
    lines = ["#" + "x" * (pad - 1)] + [line] * count + ["-1 2:7", line]
    text = ending.join(lines) + ending
    assert text[size - 1 : size - 1 + len(ending)] == ending
    path, lf_path = tmp_path / "ending.txt", tmp_path / "lf.txt"
    path.write_bytes(text.encode())
    lf_path.write_bytes(text.replace(ending, "\n").encode())
    got, expected = parse_libsvm(path), parse_libsvm(lf_path)
    _assert_bitwise_equal(got, expected)
    rows, entries = datasets._size_bounds(path)
    assert rows >= got.n_rows and entries >= got.col.size
    lf_rows, lf_entries = datasets._size_bounds(lf_path)
    assert (rows, entries) == (lf_rows + (ending == "\r\n"), lf_entries)


@pytest.mark.parametrize("lineno", [4, 6, 7, 9])
@pytest.mark.parametrize("bad", ["x 1:1", "+1 2:oops", "+1 3:1 2:1", "+1 1:nan"])
def test_bad_line_in_a_later_block_reports_its_number(tmp_path, monkeypatch, bad, lineno):
    monkeypatch.setattr(datasets, "_BLOCK_LINES", SMALL_BLOCK)
    lines = ["+1 1:1 2:5"] * 9
    lines[lineno - 1] = bad
    path = tmp_path / "late.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: "):
        parse_libsvm(path)
    _assert_same(path)


class _SearchSpy:
    """Stands in for a compiled pattern and keeps every text it is asked to search."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.texts = []

    def search(self, text):
        self.texts.append(text)
        return self.pattern.search(text)


def test_bad_last_line_rescans_only_its_block(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_BLOCK_LINES", SMALL_BLOCK)
    spy = _SearchSpy(datasets._BAD_FEATURE)
    monkeypatch.setattr(datasets, "_BAD_FEATURE", spy)
    path = tmp_path / "long.txt"
    path.write_text("+1 1:1 2:5\n" * 200 + "-1 2:oops\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:201: bad feature '2:oops'$"):
        parse_libsvm(path)
    # Each line of the failing block is checked once; the 200 lines before it are not.
    assert 1 <= len(spy.texts) <= SMALL_BLOCK


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
        ("+1 +:5 7:1", "bad feature '+:5'"),
        ("+1 1:2 -:7", "bad feature '-:7'"),
        ("+1 1:2 3+:7", "bad feature '3+:7'"),
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
    for value in ("0.5", "5"):  # with "5", some of these files are all integer text
        path.write_text(f"# header\n-1 1:{value}\n\n{line}\n+1 2:1\n")
        with pytest.raises(ValueError) as new:
            parse_libsvm(path)
        with pytest.raises(ValueError) as reference:
            reference_parse_libsvm(path)
        assert str(new.value) == str(reference.value) == f"{path}:4: {message}"


@pytest.mark.parametrize(
    "text",
    [
        "99999999999999999999",
        "9999999999999999999",
        "999999999999999",
        "0000000000000000001",
        "-0",
        "+12",
    ],
)
def test_value_reads_as_its_float(tmp_path, text):
    path = tmp_path / "value.txt"
    path.write_text(f"+1 1:{text} 2:3\n")
    assert parse_libsvm(path).val[:1].tobytes() == np.float64(float(text)).tobytes()


@pytest.mark.parametrize("index", ["99999999999999999999", "9007199254740993"])
def test_index_not_read_exactly_is_a_bad_feature(tmp_path, index):
    path = tmp_path / "huge.txt"
    path.write_text(f"+1 1:1\n-1 2:1 {index}:2\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: bad feature '{index}:2'"):
        parse_libsvm(path)
