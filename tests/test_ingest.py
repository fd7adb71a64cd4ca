"""CSV schemas, constraint files, and the standardization passes."""

import numpy as np
import pytest

from apsgd import DataError
from apsgd.ingest import (
    CsvSchema,
    RowSource,
    feature_moments,
    iter_observations,
    load_constraint,
    load_observations,
    parse_constraint_text,
    parse_schema,
    resolve_schema,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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
        obs = list(iter_observations(RowSource(small_csv), resolved, True))
        np.testing.assert_allclose(obs[0], [1.0, 2.0, 3.0])
        assert len(obs) == 3

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "y,a\n1.0,2.0\n1.0,oops\n")
        resolved = resolve_schema(RowSource(path), CsvSchema())
        with pytest.raises(DataError, match="line 3"):
            list(iter_observations(RowSource(path), resolved, True))

    def test_short_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "short.csv", "y,a,b\n1.0,2.0,3.0\n1.0,2.0\n")
        resolved = resolve_schema(RowSource(path), CsvSchema())
        with pytest.raises(DataError, match="line 3"):
            list(iter_observations(RowSource(path), resolved, True))

    def test_shuffle_is_reproducible(self, small_csv):
        resolved = resolve_schema(RowSource(small_csv), CsvSchema())
        a = load_observations(RowSource(small_csv), resolved, True, shuffle_seed=3)
        b = load_observations(RowSource(small_csv), resolved, True, shuffle_seed=3)
        c = load_observations(RowSource(small_csv), resolved, True, shuffle_seed=4)
        np.testing.assert_array_equal(np.vstack(a), np.vstack(b))
        assert not np.array_equal(np.vstack(a), np.vstack(c))


class TestStandardization:
    def test_two_valued_column_closed_form(self, tmp_path):
        """Alternating {0, 2}: mean 1, sample sd sqrt(n/(n-1))."""
        n = 45_730
        body = "\n".join("0,1" if i % 2 == 0 else "2,1" for i in range(n))
        path = write_csv(tmp_path / "alt.csv", "x,y\n" + body + "\n")
        resolved = resolve_schema(
            RowSource(path), CsvSchema(response="y", features=("x",))
        )
        means, sds = feature_moments(RowSource(path), resolved)
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
        means, sds = feature_moments(RowSource(path), resolved)
        assert abs(means[0]) <= 1e-12
        assert sds[0] == pytest.approx(1.0, abs=1e-12)
        obs = list(iter_observations(RowSource(path), resolved, True, means, sds))
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
