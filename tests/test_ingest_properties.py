"""Property tests: the ingest parsers fail only with typed errors.

Malformed schema strings, constraint files and CSV rows must raise
``DataError`` (or another ``ApsgdError`` when the syntax is valid but a value
is not, such as ``V1 = nan``), never a bare ``ValueError``, ``IndexError`` or
``StopIteration``.  Inputs are drawn from the parsers' own vocabulary, so most
examples are near misses of valid input rather than noise.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from apsgd import ApsgdError, Constraint, DataError
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
