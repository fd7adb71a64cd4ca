"""CSV ingestion: schemas, constraint files, and the standardization pass.

Data files are consumed as streams of blocks; nothing here materialises a
dataset unless the caller explicitly asks for shuffling.  One reader serves
every pass: the selected cells of up to ``_READ_ROWS`` rows are parsed at once
into a float block, the response (if the schema has one) and then the
features.  Standardization is a two-pass affair by design, but the text is
parsed once: the first pass computes the feature means and sample standard
deviations and spills every parsed block to an unlinked temporary file, and
the second, streaming pass replays those blocks and applies the affine
transform in place (the response is never touched).
"""

from __future__ import annotations

import contextlib
import csv
import math
import operator
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .exceptions import DataError
from .linalg import Constraint

#: Features whose sample standard deviation falls below this (relative to
#: their mean's magnitude) are rejected as constant.
_CONSTANT_TOL = 1e-12

#: Data rows parsed into one float block (the estimator's block size).
_READ_ROWS = 256


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


def parse_schema(text: str) -> CsvSchema:
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
    return CsvSchema(response=response, features=features, has_header=has_header)


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
            if self.path == "-":
                if self._stdin_cache is None:
                    self._stdin_cache = [row for row in csv.reader(sys.stdin)]
                yield from enumerate(self._stdin_cache, start=1)
                return
            try:
                handle = open(self.path, "r", encoding="utf-8", newline="")
            except OSError as exc:
                raise DataError(f"cannot open {self.path}: {exc}") from exc
            with handle:
                yield from enumerate(csv.reader(handle), start=1)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{self.path}: not a UTF-8 CSV file: {exc}") from exc


@dataclass(frozen=True)
class ResolvedSchema:
    """Schema bound to a concrete file: indices, display names, header flag."""

    has_header: bool
    column_names: tuple[str, ...]
    response_index: int | None
    feature_indices: tuple[int, ...]
    feature_names: tuple[str, ...]


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


def _data_blocks(source: RowSource, resolved: ResolvedSchema):
    """Yield the data rows (header and empty lines skipped) as float blocks of
    at most ``_READ_ROWS`` rows: the response cell, if the schema has one, then
    the features.  A block with a bad cell or a short row raises the
    ``DataError`` that a row-by-row parse would raise first, naming its line
    (and column), before any of its rows is yielded."""
    columns = resolved.feature_indices
    if resolved.response_index is not None:
        columns = (resolved.response_index,) + columns
    width = max(columns) + 1
    pick = operator.itemgetter(*columns) if len(columns) > 1 else lambda row: (row[columns[0]],)
    rows = source.rows()
    if resolved.has_header:
        next(rows, None)
    lines, cells = [], []
    for lineno, row in rows:
        if not row:
            continue
        if len(row) < width:
            _parse_block(lines, cells, columns, resolved)  # a bad cell above is named first
            raise DataError(f"line {lineno}: expected at least {width} columns, got {len(row)}")
        lines.append(lineno)
        cells.append(pick(row))
        if len(cells) == _READ_ROWS:
            yield _parse_block(lines, cells, columns, resolved)
            lines, cells = [], []
    if cells:
        yield _parse_block(lines, cells, columns, resolved)


def _parse_block(lines, cells, columns, resolved: ResolvedSchema) -> np.ndarray:
    """The selected cells of a block's rows as one float array; a block that
    fails is parsed again row by row to name its first bad cell."""
    try:
        block = np.array(cells, dtype=float)
        if np.isfinite(block).all():
            return block
    except ValueError:
        pass
    values = []
    for lineno, row in zip(lines, cells):
        try:
            parsed = [float(cell) for cell in row]
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        # float() also accepts nan, inf and overflowing literals such as 1e999
        for i, cell, value in zip(columns, row, parsed):
            if not math.isfinite(value):
                raise DataError(
                    f"line {lineno}: column {resolved.column_names[i]!r} is not a "
                    f"finite number: {cell!r}"
                )
        values.append(parsed)
    return np.array(values)


@dataclass(frozen=True)
class FeatureMoments:
    """Feature means and sample standard deviations from a first pass over a
    file, with the float blocks that pass parsed.

    ``spill`` is an unlinked temporary file holding those blocks, appended
    in order with ``ndarray.tofile``, from which ``load_observations``
    replays them instead of parsing the text again.  Use the moments as a
    context manager, or call ``close``, to free it.
    """

    mean: np.ndarray
    sd: np.ndarray
    spill: BinaryIO

    def close(self) -> None:
        self.spill.close()

    def __enter__(self) -> "FeatureMoments":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _replay(self, width: int):
        """The spilled blocks in order, each read back as a new ``(n, width)`` array."""
        self.spill.seek(0)
        while (block := np.fromfile(self.spill, count=_READ_ROWS * width)).size:
            yield block.reshape(-1, width)


def feature_moments(source: RowSource, resolved: ResolvedSchema) -> FeatureMoments:
    """First pass: feature means and sample standard deviations (n-1).

    Each block's mean and sum of squared deviations are merged into the
    running ones (Chan, Golub & LeVeque 1979), so one block lives in memory
    at a time, and each parsed block is spilled for ``load_observations`` to
    replay.  Constant columns are rejected by name.  The spill file is
    closed when this raises; otherwise the caller closes the result.
    """
    k = len(resolved.feature_indices)
    lead = int(resolved.response_index is not None)
    count, mean, m2 = 0, np.zeros(k), np.zeros(k)
    with contextlib.ExitStack() as on_error:
        spill = on_error.enter_context(tempfile.TemporaryFile())
        for block in _data_blocks(source, resolved):
            block.tofile(spill)
            feats = block[:, lead:]
            n, block_mean = len(feats), feats.mean(0)
            delta = block_mean - mean
            mean += delta * (n / (count + n))
            m2 += np.square(feats - block_mean).sum(0) + delta * delta * (count * n / (count + n))
            count += n
        if count < 2:
            raise DataError(f"{source.path}: need at least 2 data rows, got {count}")
        sd = np.sqrt(m2 / (count - 1))
        overflow = np.flatnonzero(~np.isfinite(sd))
        if overflow.size:
            names = [resolved.feature_names[i] for i in overflow]
            raise DataError(f"feature column(s) too large to standardize: {names}")
        floor = _CONSTANT_TOL * np.maximum(1.0, np.abs(mean))
        constant = np.flatnonzero(sd <= floor)
        if constant.size:
            names = [resolved.feature_names[i] for i in constant]
            raise DataError(f"constant feature column(s) cannot be standardized: {names}")
        on_error.pop_all()
    return FeatureMoments(mean, sd, spill)


def load_observations(
    source: RowSource,
    resolved: ResolvedSchema,
    needs_response: bool,
    moments: FeatureMoments | None = None,
    shuffle_seed: int | None = None,
):
    """Blocks of observations: rows ``(y, x...)``, or just ``x`` for location
    fits, at most ``_READ_ROWS`` to a block unless shuffled.

    Without ``moments`` the blocks are parsed from ``source``.  With the
    ``moments`` of ``feature_moments`` they are the blocks that pass parsed,
    replayed from its spill file, and their features are standardized in
    place; the response is passed through untouched.  ``shuffle_seed``
    materialises the rows and returns them, permuted with
    ``PCG64(SeedSequence(shuffle_seed))``, as a single block.
    """
    if needs_response and resolved.response_index is None:
        raise DataError("model needs a response column but the schema says response=none")
    lead = int(resolved.response_index is not None)

    def blocks():
        if moments is None:
            read = _data_blocks(source, resolved)
        else:
            read = moments._replay(lead + len(resolved.feature_indices))
        for block in read:
            if moments is not None:
                feats = block[:, lead:]
                feats -= moments.mean
                feats /= moments.sd
            yield block if needs_response else block[:, lead:]

    if shuffle_seed is None:
        return blocks()
    read = list(blocks())
    if not read:
        return []
    rows = np.concatenate(read)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(shuffle_seed)))
    return [rows[rng.permutation(len(rows))]]


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
