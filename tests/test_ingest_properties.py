"""Property tests: the ingest parsers fail only with typed errors, and the
CSV reader reads what ``csv.reader`` and ``float`` read.

Malformed schema strings, constraint files and CSV rows must raise
``DataError`` (or another ``ApsgdError`` when the syntax is valid but a value
is not, such as ``V1 = nan``), never a bare ``ValueError``, ``IndexError`` or
``StopIteration``.  Inputs are drawn from the parsers' own vocabulary, so most
examples are near misses of valid input rather than noise.
"""

import contextlib
import csv
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apsgd import ApsgdError, Constraint, DataError, ingest
from apsgd.ingest import (
    CsvSchema,
    RowSource,
    load_observations,
    parse_constraint_text,
    parse_schema,
    resolve_schema,
)

NAMES = ("V1", "V2", "a", "b")


def joined(tokens):
    """Strings made by joining tokens, mixed with arbitrary text."""
    return st.one_of(st.lists(st.sampled_from(tokens), max_size=16).map("".join), st.text())


SCHEMA_TEXT = joined(
    ["response", "features", "header", "=", ";", ",", " ", "none", "yes", "no",
     "auto", "0", "1", "-1", "7", "y", "a", "b", "x"]
)

CONSTRAINT_TEXT = joined(
    ["V1", "V2", "V0", "V9", "a", "b", "c", "_", "1", "2.5", ".5", "1e3", "1e400",
     "e", "nan", "inf", "+", "-", "*", "=", "---", "#", " ", "\n", "\t"]
)

CELL = st.one_of(
    st.sampled_from(["1", "-2.5", "1e3", "1e999", "nan", "inf", "", " ", "x", "1,", '"', "0x1"]),
    st.text(max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(SCHEMA_TEXT)
def test_schema_strings_parse_or_raise_data_error(text):
    try:
        schema = parse_schema(text)
    except DataError:
        return
    assert isinstance(schema, CsvSchema)


@settings(max_examples=500, deadline=None)
@given(CONSTRAINT_TEXT)
def test_constraint_files_parse_or_raise_typed_errors(text):
    try:
        B, b = parse_constraint_text(text, NAMES)
    except DataError:
        return
    assert B.shape == (len(b), len(NAMES))
    try:
        con = Constraint.from_equalities(B, b)
    except ApsgdError:
        return
    assert con.p == len(NAMES)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(""), SCHEMA_TEXT),
    st.lists(st.lists(CELL, max_size=5), min_size=1, max_size=6),
    st.booleans(),
)
def test_csv_rows_parse_or_raise_data_error(schema_text, rows, needs_response):
    """Any schema string bound to a file with any rows, read to the end."""
    body = "".join(",".join(row) + "\n" for row in [["y", "a", "b"]] + rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(body)
        source = RowSource(path)
        try:
            resolved = resolve_schema(source, parse_schema(schema_text))
            observations = [
                z for block in load_observations(source, resolved, needs_response) for z in block
            ]
        except DataError:
            return
    width = len(resolved.feature_indices) + needs_response
    assert all(np.shape(z) == (width,) and np.isfinite(z).all() for z in observations)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40))
def test_undecodable_bytes_raise_data_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as handle:
            handle.write(b"y,a\n1,2\n" + data)
        source = RowSource(path)
        try:
            list(load_observations(source, resolve_schema(source, CsvSchema()), True))
        except DataError:
            pass


#: Cells that the C-level parse and ``float`` read differently, or that
#: ``csv.reader`` reads in its own way: underscores, ``#``, quoted cells with
#: and without a line break or commas, an escaped quote, a quote inside or
#: after a cell, a quote left open, and the ASCII separators ``float``
#: rejects.
ODD_CELL = st.sampled_from(
    ["1_0", "#", "2#", '"1.5"', '"2,5"', '"7,8,"', '" 3"', '"4\n5"', '"\n"', '"', "1\x1c",
     "\x1f2", '"1""2"', 'a"b', '"1"2', '"1', '"1" ']
)

#: A line's text: a row of numbers with one cell replaced, a record of any
#: cells, or a blank or whitespace-only line.
ODD_LINE = st.one_of(
    st.tuples(st.integers(0, 2), ODD_CELL).map(
        lambda odd: ",".join(odd[1] if j == odd[0] else "0.5" for j in range(3))
    ),
    st.lists(st.one_of(CELL, ODD_CELL), max_size=5).map(",".join),
    st.sampled_from(["", " ", "\t", "  \x0c"]),
)

LINE_END = st.sampled_from(["\n", "\r\n"])


def ends_inside_quotes(text):
    """Whether ``text`` ends inside a quoted field of the default dialect,
    where ``csv.reader`` returns the rest of the input as that field."""
    state = "start"
    for c in text:
        if state == "quoted":
            state = "closing" if c == '"' else "quoted"
        elif c in ",\r\n":
            state = "start"
        elif c == '"' and state in ("start", "closing"):
            state = "quoted"
        else:
            state = "unquoted"
    return state == "quoted"


def csv_reference(path, resolved):
    """The selected cells of every non-empty record after the header, read
    by ``csv.reader`` and ``float`` one record at a time: an array, or the
    ``DataError`` text of the first bad record.  A last record that ends
    inside a quoted field is bad, and named by the line where it starts."""
    columns = (resolved.response_index, *resolved.feature_indices)
    width = max(columns) + 1
    rows = []
    with open(path, encoding="utf-8", newline="") as handle:
        left_open = ends_inside_quotes(handle.read())
        handle.seek(0)
        reader = csv.reader(handle)
        next(reader)
        start, records = reader.line_num + 1, []
        for record in reader:
            records.append((start, reader.line_num, record))
            start = reader.line_num + 1
    if left_open:
        start, _, _ = records.pop()
    for _, line_num, record in records:
        if not record:
            continue
        where = f"line {line_num}"
        if len(record) < width:
            return None, f"{where}: expected at least {width} columns, got {len(record)}"
        cells = [record[i] for i in columns]
        try:
            values = [float(cell) for cell in cells]
        except ValueError as exc:
            return None, f"{where}: {exc}"
        for i, cell, value in zip(columns, cells, values):
            if not math.isfinite(value):
                name = resolved.column_names[i]
                return None, f"{where}: column {name!r} is not a finite number: {cell!r}"
        rows.append(values)
    if left_open:
        return None, f"line {start}: quoted field is not closed at the end of the input"
    return np.array(rows).reshape(-1, len(columns)), None


SCHEMAS = (
    CsvSchema(), CsvSchema(features=("b", "a")), CsvSchema(response="b", features=("y",))
)


@settings(max_examples=150, deadline=None)
@example(300, [(9, '0.5,"7,8,",0.5', "\n")], "\n", 64, SCHEMAS[2])
@example(300, [(270, "0.5,1\x1c,0.5", "\r\n")], "\r\n", 3, SCHEMAS[0])
@given(
    st.integers(257, 330),
    st.lists(st.tuples(st.integers(0, 330), ODD_LINE, LINE_END), max_size=6),
    LINE_END,
    st.sampled_from([3, 64, ingest._CHUNK_LINES]),
    st.sampled_from(SCHEMAS),
)
def test_reader_matches_csv_reader_and_float(n, odd, end, chunk_lines, schema):
    """More than 256 data rows of numbers, with odd lines inserted, read in
    chunks of ``chunk_lines`` lines: the blocks hold the reference's floats
    bit for bit, or the reader raises the reference's ``DataError``.  The
    examples are a quoted comma that shifts an unselected column, and a
    separator that ``float`` rejects in an otherwise valid row."""
    lines = [(f"{i},{i / 7!r},{-2.5 * i!r}", end) for i in range(n)]
    for position, text, line_end in sorted(odd, key=lambda item: item[0]):
        lines.insert(position, (text, line_end))
    body = "y,a,b" + end + "".join(text + line_end for text, line_end in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(body)
        source = RowSource(path)
        resolved = resolve_schema(source, schema)
        want, message = csv_reference(path, resolved)
        try:
            with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines):
                blocks = list(load_observations(source, resolved, True))
        except DataError as exc:
            assert str(exc) == message
            return
        finally:
            source.close()
    assert message is None
    assert all(len(block) == 256 for block in blocks[:-1])
    got = np.concatenate(blocks) if blocks else np.empty((0, want.shape[1]))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


#: Lines that quote most of their cells, so that most chunks hold a quote:
#: a row of numbers, some quoted, with one cell replaced or none, or any
#: odd line.
QUOTED_LINE = st.one_of(
    st.tuples(
        st.lists(st.sampled_from(["0.5", '"0.5"', '"-1e3"', '" 2"', '"3" ']), min_size=3,
                 max_size=3),
        st.integers(0, 3),
        ODD_CELL,
    ).map(lambda row: ",".join(row[2] if j == row[1] else cell for j, cell in enumerate(row[0]))),
    ODD_LINE,
)


@pytest.mark.full
@settings(max_examples=1500, deadline=None, database=None)
@given(
    st.integers(257, 330),
    st.lists(st.tuples(st.integers(0, 330), QUOTED_LINE, LINE_END), min_size=1, max_size=12),
    LINE_END,
    st.sampled_from([3, 64, ingest._CHUNK_LINES]),
    st.sampled_from(SCHEMAS),
)
def test_quote_heavy_reader_matches_csv_reader_and_float(n, odd, end, chunk_lines, schema):
    """``test_reader_matches_csv_reader_and_float`` over more examples with
    more quoted lines, most of which the C-level parse unquotes."""
    test_reader_matches_csv_reader_and_float.hypothesis.inner_test(
        n, odd, end, chunk_lines, schema
    )


@pytest.mark.parametrize(
    "tail, reads",
    [('"\n10,11,12,v\n', True), ('\nw"\n10,11,12,v\n', True), ("\n\n\n", False),
     ("\n10,11,12,v\n", False)],
    ids=["closed_on_the_line", "closed_in_the_next_chunk", "open_before_blank_lines",
         "open_to_the_end"],
)
def test_a_quote_open_at_the_end_of_a_chunk_reads_as_csv_reader_does(tmp_path, tail, reads):
    """With three lines to a chunk, the first chunk's last line opens a
    quoted field in an unselected column, closed on that line, in the next
    chunk or never.  ``np.loadtxt`` would close a field left open at the end
    of the chunk, so that chunk is read by ``csv.reader``, which reads the
    record on to its end, or names the line it starts on."""
    path = str(tmp_path / "data.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write('y,a,b,note\n1,2,3,x\n4,5,6,y\n7,8,9,"z' + tail)
    with contextlib.closing(RowSource(path)) as source:
        resolved = resolve_schema(source, CsvSchema(features=("a", "b")))
        want, message = csv_reference(path, resolved)
        assert (message is None) == reads
        with mock.patch.object(ingest, "_CHUNK_LINES", 3):
            if reads:
                got = np.concatenate(list(load_observations(source, resolved, True)))
                assert got.tobytes() == want.tobytes()
            else:
                with pytest.raises(DataError) as caught:
                    list(load_observations(source, resolved, True))
                assert str(caught.value) == message
