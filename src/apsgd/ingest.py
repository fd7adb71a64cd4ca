"""CSV ingestion: schemas, constraint files, and the standardization pass.

Data files are consumed as streams; nothing here materialises a dataset
unless the caller explicitly asks for shuffling.  Standardization is a
two-pass affair by design: one pass over the file for feature means and
sample standard deviations, a second streaming pass that applies the affine
transform (the response is never touched).
"""

from __future__ import annotations

import csv
import re
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .linalg import Constraint

#: Features whose sample standard deviation falls below this (relative to
#: their mean's magnitude) are rejected as constant.
_CONSTANT_TOL = 1e-12


@dataclass(frozen=True)
class CsvSchema:
    """Which columns hold the response and the features.

    ``response`` and ``features`` entries are header names or 0-based column
    indices; ``features=None`` means every non-response column in file
    order.  ``response=None`` (schema string ``response=none``) is for the
    location model, whose observation is the feature vector itself.
    ``has_header=None`` sniffs: a first row with any non-numeric cell is a
    header.
    """

    response: str | int | None = 0
    features: tuple[str | int, ...] | None = None
    has_header: bool | None = None
    standardize: bool = False


def parse_schema(text: str, standardize: bool = False) -> CsvSchema:
    """Parse a ``--schema`` string: ``response=RMSD;features=F1,F2;header=yes``."""
    response: str | int | None = 0
    features = None
    has_header = None
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"schema entry {part!r} is not key=value")
        key, value = (s.strip() for s in part.split("=", 1))
        if key == "response":
            response = None if value.lower() == "none" else _name_or_index(value)
        elif key == "features":
            features = tuple(_name_or_index(v.strip()) for v in value.split(",") if v.strip())
        elif key == "header":
            lowered = value.lower()
            if lowered in ("yes", "true", "1"):
                has_header = True
            elif lowered in ("no", "false", "0"):
                has_header = False
            elif lowered == "auto":
                has_header = None
            else:
                raise DataError(f"schema header must be yes/no/auto, got {value!r}")
        else:
            raise DataError(
                f"unknown schema key {key!r}; valid keys are response, features, header"
            )
    return CsvSchema(
        response=response, features=features, has_header=has_header,
        standardize=standardize,
    )


def _name_or_index(token: str) -> str | int:
    try:
        return int(token)
    except ValueError:
        return token


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class RowSource:
    """Re-iterable view over a CSV file (or stdin, which is buffered once)."""

    def __init__(self, path: str):
        self.path = path
        self._stdin_cache: list[list[str]] | None = None

    def rows(self):
        """Yield ``(line_number, fields)`` pairs, 1-based line numbers."""
        try:
            yield from self._rows()
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{self.path}: not a UTF-8 CSV file: {exc}") from exc

    def _rows(self):
        if self.path == "-":
            if self._stdin_cache is None:
                self._stdin_cache = [row for row in csv.reader(sys.stdin)]
            for lineno, row in enumerate(self._stdin_cache, start=1):
                yield lineno, row
            return
        try:
            handle = open(self.path, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError(f"cannot open {self.path}: {exc}") from exc
        with handle:
            for lineno, row in enumerate(csv.reader(handle), start=1):
                yield lineno, row


@dataclass(frozen=True)
class ResolvedSchema:
    """Schema bound to a concrete file: indices, display names, header flag."""

    has_header: bool
    column_names: tuple[str, ...]
    response_index: int | None
    feature_indices: tuple[int, ...]
    feature_names: tuple[str, ...]

    @property
    def data_start_line(self) -> int:
        return 2 if self.has_header else 1


def resolve_schema(source: RowSource, schema: CsvSchema) -> ResolvedSchema:
    """Bind a schema to the file's actual columns (reads the first row)."""
    first = None
    for _, row in source.rows():
        first = row
        break
    if first is None:
        raise DataError(f"{source.path}: file is empty")
    n_cols = len(first)
    has_header = schema.has_header
    if has_header is None:
        has_header = any(not _is_float(cell) for cell in first)
    if has_header:
        column_names = tuple(cell.strip() for cell in first)
    else:
        column_names = tuple(f"col{i + 1}" for i in range(n_cols))

    def locate(ident: str | int, what: str) -> int:
        if isinstance(ident, int):
            if not 0 <= ident < n_cols:
                raise DataError(f"{what} index {ident} outside 0..{n_cols - 1}")
            return ident
        if ident in column_names:
            return column_names.index(ident)
        raise DataError(
            f"{what} column {ident!r} not found; file columns are {list(column_names)}"
        )

    response_index = (
        None if schema.response is None else locate(schema.response, "response")
    )
    if schema.features is None:
        feature_indices = tuple(
            i for i in range(n_cols) if i != response_index
        )
    else:
        feature_indices = tuple(locate(f, "feature") for f in schema.features)
    if response_index is not None and response_index in feature_indices:
        raise DataError("response column cannot also be a feature")
    if not feature_indices:
        raise DataError("no feature columns selected")
    if has_header:
        feature_names = tuple(column_names[i] for i in feature_indices)
    else:
        feature_names = tuple(f"V{j + 1}" for j in range(len(feature_indices)))
    return ResolvedSchema(
        has_header=has_header,
        column_names=column_names,
        response_index=response_index,
        feature_indices=feature_indices,
        feature_names=feature_names,
    )


def _parse_row(lineno: int, row: list[str], resolved: ResolvedSchema) -> tuple[float | None, np.ndarray]:
    needed = max(
        resolved.feature_indices
        + ((resolved.response_index,) if resolved.response_index is not None else ())
    )
    if len(row) <= needed:
        raise DataError(f"line {lineno}: expected at least {needed + 1} columns, got {len(row)}")
    try:
        feats = np.array([float(row[i]) for i in resolved.feature_indices])
        resp = (
            float(row[resolved.response_index])
            if resolved.response_index is not None
            else None
        )
    except ValueError as exc:
        raise DataError(f"line {lineno}: {exc}") from exc
    return resp, feats


def feature_moments(source: RowSource, resolved: ResolvedSchema) -> tuple[np.ndarray, np.ndarray]:
    """First pass: feature means and sample standard deviations (n-1).

    Uses a streaming mean/M2 update, so only one row lives in memory.
    Constant columns are rejected by name.
    """
    k = len(resolved.feature_indices)
    count = 0
    mean = np.zeros(k)
    m2 = np.zeros(k)
    skip_header = resolved.has_header
    for lineno, row in source.rows():
        if skip_header:
            skip_header = False
            continue
        if not row:
            continue
        _, feats = _parse_row(lineno, row, resolved)
        count += 1
        delta = feats - mean
        mean += delta / count
        m2 += delta * (feats - mean)
    if count < 2:
        raise DataError(f"{source.path}: need at least 2 data rows, got {count}")
    sd = np.sqrt(m2 / (count - 1))
    floor = _CONSTANT_TOL * np.maximum(1.0, np.abs(mean))
    constant = np.flatnonzero(sd <= floor)
    if constant.size:
        names = [resolved.feature_names[i] for i in constant]
        raise DataError(f"constant feature column(s) cannot be standardized: {names}")
    return mean, sd


def iter_observations(
    source: RowSource,
    resolved: ResolvedSchema,
    needs_response: bool,
    means: np.ndarray | None = None,
    sds: np.ndarray | None = None,
):
    """Stream observation vectors: ``(y, x...)``, or just ``x`` for location fits.

    When ``means``/``sds`` are given the features are standardized on the
    fly; the response is passed through untouched.
    """
    skip_header = resolved.has_header
    for lineno, row in source.rows():
        if skip_header:
            skip_header = False
            continue
        if not row:
            continue
        resp, feats = _parse_row(lineno, row, resolved)
        if means is not None:
            feats = (feats - means) / sds
        if needs_response:
            if resp is None:
                raise DataError(
                    "model needs a response column but the schema says response=none"
                )
            yield np.concatenate(([resp], feats))
        else:
            yield feats


def load_observations(
    source: RowSource,
    resolved: ResolvedSchema,
    needs_response: bool,
    means: np.ndarray | None = None,
    sds: np.ndarray | None = None,
    shuffle_seed: int | None = None,
):
    """Either the streaming iterator, or a reproducibly permuted list.

    Shuffling necessarily materialises the observations; the permutation is
    drawn from ``PCG64(SeedSequence(shuffle_seed))``.
    """
    stream = iter_observations(source, resolved, needs_response, means, sds)
    if shuffle_seed is None:
        return stream
    rows = list(stream)
    order = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(shuffle_seed))
    ).permutation(len(rows))
    return [rows[i] for i in order]


# -- constraint files ---------------------------------------------------------------

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)?"
    r"\s*\*?\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*"
)

_V_ALIAS_RE = re.compile(r"^V(\d+)$")


def _resolve_name(name: str, feature_names: tuple[str, ...], where: str) -> int:
    if name in feature_names:
        return feature_names.index(name)
    alias = _V_ALIAS_RE.match(name)
    if alias:
        j = int(alias.group(1))
        if 1 <= j <= len(feature_names):
            return j - 1
    raise DataError(
        f"{where}: unknown coefficient name {name!r}; known names are "
        f"{list(feature_names)} (or V1..V{len(feature_names)})"
    )


def _parse_shorthand_line(line: str, lineno: int, feature_names: tuple[str, ...]) -> tuple[np.ndarray, float]:
    where = f"constraint line {lineno}"
    if "=" not in line:
        raise DataError(f"{where}: expected '<terms> = <constant>'")
    lhs, rhs = line.split("=", 1)
    try:
        const = float(rhs.strip())
    except ValueError as exc:
        raise DataError(f"{where}: right-hand side {rhs.strip()!r} is not a number") from exc
    row = np.zeros(len(feature_names))
    pos = 0
    first = True
    while pos < len(lhs.rstrip()):
        match = _TERM_RE.match(lhs, pos)
        if not match or match.end() == pos:
            raise DataError(f"{where}: cannot parse term at {lhs[pos:].strip()!r}")
        sign = match.group("sign")
        if sign is None and not first:
            raise DataError(f"{where}: missing +/- between terms")
        coef = float(match.group("coef")) if match.group("coef") else 1.0
        if sign == "-":
            coef = -coef
        row[_resolve_name(match.group("name"), feature_names, where)] += coef
        pos = match.end()
        first = False
    if first:
        raise DataError(f"{where}: no coefficient terms before '='")
    return row, const


def parse_constraint_text(
    text: str, feature_names: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Parse a constraint file body into ``(B, b)``.

    Two formats are understood.  Shorthand: one equality per line, e.g.
    ``V1 = 0`` or ``2V2 - V3 = 1.5``, names resolving to feature columns.
    Matrix: whitespace-separated rows of ``B``, a ``---`` separator line,
    then the entries of ``b`` one per line.  A file containing only ``---``
    is the empty (unconstrained) system.
    """
    p = len(feature_names)
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise DataError("constraint file is empty (use '---' alone for no constraints)")

    if any("=" in line for _, line in lines):
        rows, consts = [], []
        for lineno, line in lines:
            row, const = _parse_shorthand_line(line, lineno, feature_names)
            rows.append(row)
            consts.append(const)
        return np.array(rows), np.array(consts)

    try:
        split = next(i for i, (_, line) in enumerate(lines) if line == "---")
    except StopIteration:
        raise DataError(
            "constraint file needs either shorthand '... = c' lines or a '---' "
            "separator between B rows and b entries"
        ) from None
    b_rows = []
    for lineno, line in lines[:split]:
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise DataError(f"constraint line {lineno}: {exc}") from exc
        if len(row) != p:
            raise DataError(
                f"constraint line {lineno}: row has {len(row)} entries, expected {p}"
            )
        b_rows.append(row)
    consts = []
    for lineno, line in lines[split + 1 :]:
        try:
            consts.append(float(line))
        except ValueError as exc:
            raise DataError(f"constraint line {lineno}: {exc}") from exc
    if len(consts) != len(b_rows):
        raise DataError(
            f"constraint file has {len(b_rows)} B rows but {len(consts)} b entries"
        )
    return np.array(b_rows).reshape(len(b_rows), p), np.array(consts)


def load_constraint(path: str, feature_names: tuple[str, ...]) -> Constraint:
    """Read a constraint file and build the projection machinery."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot open constraint file {path}: {exc}") from exc
    B, b = parse_constraint_text(text, feature_names)
    return Constraint.from_equalities(B, b)
