"""CSV schemas, constraint files, and the standardization passes."""

import io
import sys

import numpy as np
import pytest

from apsgd import DataError
from apsgd.ingest import (
    CsvSchema,
    RowSource,
    feature_moments,
    load_constraint,
    load_observations,
    parse_constraint_text,
    parse_schema,
    resolve_schema,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def observations(*args, **kwargs):
    """Every row of the blocks ``load_observations`` yields, in order."""
    return [z for block in load_observations(*args, **kwargs) for z in block]


@pytest.fixture
def small_csv(tmp_path):
    return write_csv(
        tmp_path / "small.csv",
        "y,a,b\n1.0,2.0,3.0\n2.0,4.0,6.0\n0.5,1.0,2.5\n",
    )


class TestSchemaParsing:
    def test_defaults(self):
        schema = parse_schema("")
        assert schema.response == 0
        assert schema.features is None
        assert schema.has_header is None

    def test_full_string(self):
        schema = parse_schema("response=RMSD;features=F1,F2,F3;header=yes")
        assert schema.response == "RMSD"
        assert schema.features == ("F1", "F2", "F3")
        assert schema.has_header is True

    def test_none_response_and_indices(self):
        schema = parse_schema("response=none;features=0,2;header=no")
        assert schema.response is None
        assert schema.features == (0, 2)
        assert schema.has_header is False

    def test_bad_key(self):
        with pytest.raises(DataError):
            parse_schema("respond=0")


class TestResolve:
    def test_header_sniffing(self, small_csv):
        resolved = resolve_schema(RowSource(small_csv), CsvSchema())
        assert resolved.has_header
        assert resolved.column_names == ("y", "a", "b")
        assert resolved.response_index == 0
        assert resolved.feature_indices == (1, 2)
        assert resolved.feature_names == ("a", "b")

    def test_headerless_gets_positional_names(self, tmp_path):
        path = write_csv(tmp_path / "plain.csv", "1,2,3\n4,5,6\n")
        resolved = resolve_schema(RowSource(path), CsvSchema())
        assert not resolved.has_header
        assert resolved.feature_names == ("V1", "V2")

    def test_response_by_name(self, small_csv):
        resolved = resolve_schema(RowSource(small_csv), CsvSchema(response="b"))
        assert resolved.response_index == 2
        assert resolved.feature_names == ("y", "a")

    def test_missing_column(self, small_csv):
        with pytest.raises(DataError, match="not found"):
            resolve_schema(RowSource(small_csv), CsvSchema(response="nope"))

    def test_response_cannot_be_feature(self, small_csv):
        with pytest.raises(DataError):
            resolve_schema(
                RowSource(small_csv), CsvSchema(response="y", features=("y", "a"))
            )


class TestObservationStream:
    def test_regression_layout(self, small_csv):
        resolved = resolve_schema(RowSource(small_csv), CsvSchema())
        obs = observations(RowSource(small_csv), resolved, True)
        np.testing.assert_allclose(obs[0], [1.0, 2.0, 3.0])
        assert len(obs) == 3

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y,a\n1.0,2.0\n1.0,oops\n")
        resolved = resolve_schema(RowSource(path), CsvSchema())
        with pytest.raises(DataError, match="line 3"):
            observations(RowSource(path), resolved, True)

    def test_short_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "short.csv", "y,a,b\n1.0,2.0,3.0\n1.0,2.0\n")
        resolved = resolve_schema(RowSource(path), CsvSchema())
        with pytest.raises(DataError, match="line 3"):
            observations(RowSource(path), resolved, True)

    def test_regression_model_needs_a_response_column(self, small_csv):
        resolved = resolve_schema(RowSource(small_csv), CsvSchema(response=None))
        with pytest.raises(
            DataError,
            match="^model needs a response column but the schema says response=none$",
        ):
            load_observations(RowSource(small_csv), resolved, True)

    def test_shuffle_is_reproducible(self, small_csv):
        resolved = resolve_schema(RowSource(small_csv), CsvSchema())
        a = load_observations(RowSource(small_csv), resolved, True, shuffle_seed=3)
        b = load_observations(RowSource(small_csv), resolved, True, shuffle_seed=3)
        c = load_observations(RowSource(small_csv), resolved, True, shuffle_seed=4)
        np.testing.assert_array_equal(np.vstack(a), np.vstack(b))
        assert not np.array_equal(np.vstack(a), np.vstack(c))


class TestReaderParity:
    """A response in a middle column and features out of file order: the
    observations equal the matching ``np.loadtxt`` columns bit for bit."""

    @pytest.fixture
    def reordered(self, tmp_path):
        table = np.random.default_rng(11).normal(size=(40, 4)) * [1.0, 3.0, 1e3, 1e-3]
        body = "a,y,b,c\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in table)
        path = write_csv(tmp_path / "middle.csv", body)
        source = RowSource(path)
        resolved = resolve_schema(source, CsvSchema(response="y", features=("c", "a")))
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        return source, resolved, loaded[:, 1], loaded[:, [3, 0]]

    def test_raw_observations(self, reordered):
        source, resolved, y, x = reordered
        obs = np.vstack(observations(source, resolved, True))
        assert obs.tobytes() == np.column_stack([y, x]).tobytes()

    def test_standardized_features_and_untouched_response(self, reordered):
        source, resolved, y, x = reordered
        with feature_moments(source, resolved) as moments:
            obs = np.vstack(observations(source, resolved, True, moments))
        assert obs.tobytes() == np.column_stack([y, (x - moments.mean) / moments.sd]).tobytes()

    def test_location_fit_yields_the_features_only(self, reordered):
        source, resolved, _, x = reordered
        obs = np.vstack(observations(source, resolved, False))
        assert obs.tobytes() == x.tobytes()


def numbered_rows(n):
    """``n`` rows of three distinct floats: row ``i`` is ``(i, 2i + 0.5, -i)``."""
    return [[float(i), 2.0 * i + 0.5, -float(i)] for i in range(n)]


def csv_body(rows, header="y,a,b\n"):
    return header + "".join(",".join(map(str, row)) + "\n" for row in rows)


class TestBlockReader:
    """The reader parses 256 rows per ``np.array`` call; its blocks, errors and
    options behave as a row-by-row parse."""

    @pytest.mark.parametrize("row", [100, 550], ids=["full_block", "last_partial_block"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (["1.0", "oops", "2.0"], "could not convert string to float: 'oops'"),
            (["1.0", "2.0", "inf"], "column 'b' is not a finite number: 'inf'"),
            (["1.0", "2.0"], "expected at least 3 columns, got 2"),
        ],
        ids=["unparsable", "non_finite", "short_row"],
    )
    @pytest.mark.parametrize("reader", ["load_observations", "feature_moments"])
    def test_bad_row_is_named_by_line(self, tmp_path, row, bad, message, reader):
        """Row ``row`` of 600 (line ``row + 2``) is bad, in the middle of the
        first full block or in the last, partial one."""
        rows = numbered_rows(600)
        rows[row] = bad
        source = RowSource(write_csv(tmp_path / "bad.csv", csv_body(rows)))
        resolved = resolve_schema(source, CsvSchema())
        read = {
            "load_observations": lambda: list(load_observations(source, resolved, True)),
            "feature_moments": lambda: feature_moments(source, resolved),
        }[reader]
        with pytest.raises(DataError) as caught:
            read()
        assert str(caught.value) == f"line {row + 2}: {message}"

    @pytest.mark.parametrize(
        "line5, line7, message",
        [
            (["1.0", "2.0", "x"], ["1.0", "2.0"], "could not convert string to float: 'x'"),
            (["1.0", "2.0"], ["1.0", "1e999", "2.0"], "expected at least 3 columns, got 2"),
        ],
        ids=["bad_cell_before_short_row", "short_row_before_bad_cell"],
    )
    def test_first_bad_row_of_a_block_is_named(self, tmp_path, line5, line7, message):
        """Of two bad rows in one block, the first is named, as a row-by-row
        parse would."""
        rows = numbered_rows(300)
        rows[3], rows[5] = line5, line7
        source = RowSource(write_csv(tmp_path / "bad.csv", csv_body(rows)))
        with pytest.raises(DataError) as caught:
            list(load_observations(source, resolve_schema(source, CsvSchema()), True))
        assert str(caught.value) == f"line 5: {message}"

    def test_blocks_hold_256_rows_and_match_the_file(self, tmp_path):
        rows = numbered_rows(600)
        source = RowSource(write_csv(tmp_path / "data.csv", csv_body(rows)))
        blocks = list(load_observations(source, resolve_schema(source, CsvSchema()), True))
        assert [len(block) for block in blocks] == [256, 256, 88]
        assert np.concatenate(blocks).tobytes() == np.array(rows).tobytes()

    def test_quoted_numeric_fields(self, tmp_path):
        body = 'y,a,note,b\n"1.5",2.0,"x, y",\" 3.0\"\n-1,"4e-3","",5\n'
        source = RowSource(write_csv(tmp_path / "quoted.csv", body))
        resolved = resolve_schema(source, CsvSchema(features=("a", "b")))
        block, = load_observations(source, resolved, True)
        np.testing.assert_array_equal(block, [[1.5, 2.0, 3.0], [-1.0, 4e-3, 5.0]])

    def test_headerless_file(self, tmp_path):
        rows = numbered_rows(300)
        source = RowSource(write_csv(tmp_path / "bare.csv", csv_body(rows, header="")))
        resolved = resolve_schema(source, CsvSchema())
        assert not resolved.has_header
        blocks = list(load_observations(source, resolved, True))
        assert [len(block) for block in blocks] == [256, 44]
        assert np.concatenate(blocks).tobytes() == np.array(rows).tobytes()

    def test_stdin_is_read_once_for_both_passes(self, tmp_path, monkeypatch):
        body = csv_body(numbered_rows(300))
        by_path = RowSource(write_csv(tmp_path / "data.csv", body))
        monkeypatch.setattr(sys, "stdin", io.StringIO(body))
        stdin = RowSource("-")
        resolved = resolve_schema(stdin, CsvSchema())
        assert resolved == resolve_schema(by_path, CsvSchema())
        moments = [feature_moments(source, resolved) for source in (stdin, by_path)]
        with moments[0], moments[1]:
            np.testing.assert_array_equal(moments[0].mean, moments[1].mean)
            np.testing.assert_array_equal(moments[0].sd, moments[1].sd)
            read = [
                np.concatenate(list(load_observations(source, resolved, True, m)))
                for source, m in zip((stdin, by_path), moments)
            ]
        assert read[0].tobytes() == read[1].tobytes()
        raw = [np.concatenate(list(load_observations(s, resolved, True))) for s in (stdin, by_path)]
        assert raw[0].tobytes() == raw[1].tobytes()

    def test_shuffle_permutes_the_rows_into_one_block(self, tmp_path):
        """The estimator cuts the permuted rows into its own blocks."""
        rows = np.array(numbered_rows(600))
        source = RowSource(write_csv(tmp_path / "data.csv", csv_body(rows.tolist())))
        resolved = resolve_schema(source, CsvSchema())
        blocks = load_observations(source, resolved, True, shuffle_seed=5)
        assert [block.shape for block in blocks] == [(600, 3)]
        order = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5))).permutation(600)
        assert np.concatenate(blocks).tobytes() == rows[order].tobytes()


class TestReplay:
    """Standardization parses the file once: the stream replays the blocks
    that ``feature_moments`` parsed, bit for bit the blocks a second parse
    would give, standardized in place."""

    @pytest.mark.parametrize("case", ["partial_last_block", "response_none", "stdin"])
    def test_replayed_blocks_equal_reparsed_ones(self, tmp_path, monkeypatch, case):
        body = csv_body(numbered_rows(600))
        source = RowSource(write_csv(tmp_path / "data.csv", body))
        schema, needs_response = CsvSchema(), True
        if case == "response_none":
            schema, needs_response = CsvSchema(response=None), False
        elif case == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(body))
            source = RowSource("-")
        resolved = resolve_schema(source, schema)
        reparsed = list(load_observations(source, resolved, needs_response))
        with feature_moments(source, resolved) as moments:
            replayed = list(load_observations(source, resolved, needs_response, moments))
        for block in reparsed:
            feats = block[:, int(needs_response):]
            feats -= moments.mean
            feats /= moments.sd
        assert [len(block) for block in replayed] == [256, 256, 88]
        assert [block.tobytes() for block in replayed] == [block.tobytes() for block in reparsed]

    def test_the_stream_pass_does_not_read_the_file(self, tmp_path):
        path = tmp_path / "data.csv"
        source = RowSource(write_csv(path, csv_body(numbered_rows(300))))
        resolved = resolve_schema(source, CsvSchema())
        with feature_moments(source, resolved) as moments:
            path.unlink()
            shuffled = load_observations(source, resolved, True, moments, shuffle_seed=2)
            assert [block.shape for block in shuffled] == [(300, 3)]
            assert sum(len(block) for block in load_observations(source, resolved, True, moments)) == 300
        assert moments.spill.closed


class TestNonFiniteCells:
    """``float`` parses nan, inf and overflowing literals; the reader rejects
    them by line and column instead of passing them to the estimator."""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999", "NaN"])
    @pytest.mark.parametrize("columns", ["y", "b", "yb"])
    @pytest.mark.parametrize("reader", ["load_observations", "feature_moments"])
    def test_cell_raises_data_error_naming_line_and_column(self, tmp_path, cell, columns, reader):
        """With two bad cells the first in parse order (response, then
        features) is named."""
        rows = [["1.0", "2.0", "3.0"], ["2.0", "4.0", "6.0"], ["0.5", "1.0", "2.5"]]
        for column in columns:
            rows[1]["yab".index(column)] = cell
        body = "y,a,b\n" + "".join(",".join(row) + "\n" for row in rows)
        source = RowSource(write_csv(tmp_path / "bad.csv", body))
        resolved = resolve_schema(source, CsvSchema())
        read = {
            "load_observations": lambda: observations(source, resolved, True),
            "feature_moments": lambda: feature_moments(source, resolved),
        }[reader]
        message = rf"^line 3: column '{columns[0]}' is not a finite number: '{cell}'$"
        with pytest.raises(DataError, match=message):
            read()

    def test_overflowing_standardization_is_rejected_by_name(self, tmp_path):
        path = write_csv(tmp_path / "big.csv", "y,a,b\n1,1e200,1\n2,-1e200,2\n3,1,4\n")
        resolved = resolve_schema(RowSource(path), CsvSchema())
        with np.errstate(over="ignore"), pytest.raises(
            DataError, match=r"too large to standardize: \['a'\]"
        ):
            feature_moments(RowSource(path), resolved)


class TestStandardization:
    def test_two_valued_column_closed_form(self, tmp_path):
        """Alternating {0, 2}: mean 1, sample sd sqrt(n/(n-1))."""
        n = 45_730
        body = "\n".join("0,1" if i % 2 == 0 else "2,1" for i in range(n))
        path = write_csv(tmp_path / "alt.csv", "x,y\n" + body + "\n")
        resolved = resolve_schema(
            RowSource(path), CsvSchema(response="y", features=("x",))
        )
        with feature_moments(RowSource(path), resolved) as moments:
            means, sds = moments.mean, moments.sd
        assert means[0] == pytest.approx(1.0, abs=1e-12)
        assert sds[0] == pytest.approx(np.sqrt(n / (n - 1.0)), rel=1e-12)
        assert sds[0] == pytest.approx(1.000011, abs=1e-6)

    def test_constant_column_is_rejected_by_name(self, tmp_path):
        path = write_csv(tmp_path / "const.csv", "y,a,b\n1,5,1\n2,5,2\n3,5,3\n")
        resolved = resolve_schema(RowSource(path), CsvSchema())
        with pytest.raises(DataError, match="'a'"):
            feature_moments(RowSource(path), resolved)

    def test_already_standardized_is_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(400)
        x = (x - x.mean()) / x.std(ddof=1)
        body = "\n".join(f"0,{float(v)!r}" for v in x)
        path = write_csv(tmp_path / "std.csv", "y,x\n" + body + "\n")
        resolved = resolve_schema(RowSource(path), CsvSchema())
        with feature_moments(RowSource(path), resolved) as moments:
            assert abs(moments.mean[0]) <= 1e-12
            assert moments.sd[0] == pytest.approx(1.0, abs=1e-12)
            obs = observations(RowSource(path), resolved, True, moments)
        np.testing.assert_allclose(np.vstack(obs)[:, 1], x, atol=1e-10)


class TestConstraintFiles:
    NAMES = ("V1", "V2", "V3", "V4")

    def test_single_zero_shorthand(self):
        B, b = parse_constraint_text("V1 = 0", self.NAMES)
        np.testing.assert_array_equal(B, [[1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(b, [0.0])

    def test_difference_shorthand(self):
        B, b = parse_constraint_text("V2-V3=0", self.NAMES)
        np.testing.assert_array_equal(B, [[0.0, 1.0, -1.0, 0.0]])

    def test_general_shorthand(self):
        B, b = parse_constraint_text("2V1 - 1.5V3 + V4 = 7", self.NAMES)
        np.testing.assert_array_equal(B, [[2.0, 0.0, -1.5, 1.0]])
        np.testing.assert_array_equal(b, [7.0])

    def test_multiple_lines(self):
        B, b = parse_constraint_text("V1=0\nV2+V3+V4=0\n", self.NAMES)
        assert B.shape == (2, 4)
        np.testing.assert_array_equal(b, [0.0, 0.0])

    def test_names_resolve_against_schema(self):
        names = ("F1", "F2", "F3")
        B, _ = parse_constraint_text("F2 = 0", names)
        np.testing.assert_array_equal(B, [[0.0, 1.0, 0.0]])
        # V-aliases address features by position even under other headers
        B, _ = parse_constraint_text("V3 = 0", names)
        np.testing.assert_array_equal(B, [[0.0, 0.0, 1.0]])

    def test_unknown_name(self):
        with pytest.raises(DataError, match="unknown coefficient"):
            parse_constraint_text("V9 = 0", self.NAMES)

    def test_matrix_format(self):
        text = "0 1 1 1\n1 0 0 0\n---\n0\n1.5\n"
        B, b = parse_constraint_text(text, self.NAMES)
        np.testing.assert_array_equal(B, [[0, 1, 1, 1], [1, 0, 0, 0]])
        np.testing.assert_array_equal(b, [0.0, 1.5])

    def test_empty_matrix_format_is_unconstrained(self):
        B, b = parse_constraint_text("---", self.NAMES)
        assert B.shape == (0, 4)
        assert b.shape == (0,)

    def test_row_width_mismatch(self):
        with pytest.raises(DataError, match="expected 4"):
            parse_constraint_text("1 0\n---\n0\n", self.NAMES)

    def test_count_mismatch(self):
        with pytest.raises(DataError, match="b entries"):
            parse_constraint_text("1 0 0 0\n---\n", self.NAMES)

    def test_load_constraint_builds_projection(self, tmp_path):
        path = tmp_path / "con.txt"
        path.write_text("V2+V3+V4 = 0\n", encoding="utf-8")
        con = load_constraint(str(path), self.NAMES)
        assert con.d == 3
        assert con.violation(np.array([5.0, 1.0, 1.0, -2.0])) <= 1e-12
