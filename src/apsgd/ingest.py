"""CSV ingestion: schemas, constraint files, and the standardization pass.

Data files are consumed as streams of blocks; nothing here materialises a
dataset unless the caller explicitly asks for shuffling.  A file and stdin
are read the same way, once: ``resolve_schema`` peeks at the first record,
and the pass that follows reads on from there (reading that record's lines
again).  The lines are read ``_CHUNK_LINES`` at a time, and the selected
cells of a chunk are parsed by one C-level ``np.loadtxt`` call into floats,
the response (if the schema has one) and then the features; a chunk that
holds a quote is unquoted by the same call.  A chunk that call might read
differently from the ``csv`` module and ``float`` (a record that spans
lines, a bad or non-finite cell, a short row, a whitespace-only line, an
ASCII separator) is parsed again through ``csv.reader``, one record at a
time, which names the first bad cell by its line.  Either way the rows are
handed on in blocks of ``_BLOCK``, the estimator's block size.
Standardization is a two-pass affair by design, but the input is read once:
the first pass computes the feature means and sample standard deviations and
spills every parsed block to an unlinked temporary file, and the second,
streaming pass replays those blocks and applies the affine transform in
place (the response is never touched).
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .exceptions import DataError
from .linalg import Constraint
from .models import _BLOCK

#: Features whose sample standard deviation falls below this (relative to
#: their mean's magnitude) are rejected as constant.
_CONSTANT_TOL = 1e-12

#: Lines parsed by one ``np.loadtxt`` call.  Larger chunks were no faster.
_CHUNK_LINES = 16 * _BLOCK

#: A chunk holding one of these is parsed by ``csv.reader`` and ``float``:
#: ``np.loadtxt`` strips the ASCII separators ``\x1c``-``\x1f`` from a cell
#: as whitespace where ``float`` rejects them.
_CSV_ONLY = "\x1c\x1d\x1e\x1f"

#: The lines ``csv.reader`` reads as empty records, which ``np.loadtxt`` skips.
_BLANK_LINES = ("\n", "\r\n", "\r")


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
    """Parse a ``--schema`` string: ``response=RMSD;features=F1,F2;header=yes``,
    each key at most once."""
    response: str | int | None = 0
    features = None
    has_header = None
    seen = set()
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"schema entry {part!r} is not key=value")
        key, value = (s.strip() for s in part.split("=", 1))
        if key in seen:
            raise DataError(f"schema key {key!r} is given twice")
        seen.add(key)
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


def _opened(path: str):
    """Yields the open CSV file, or stdin for ``-``, once, and closes the
    file when it is closed itself (stdin never is)."""
    if path == "-":
        yield sys.stdin
        return
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        yield handle


def _unreadable(path: str, exc: Exception) -> DataError:
    return DataError(f"{path}: not a UTF-8 CSV file: {exc}")


def _records(path: str, lines, before: int = 0):
    """``(line_num, record)`` for each CSV record of ``lines``, where
    ``line_num`` counts the lines read up to the record's end (records may
    span lines).  Lines are read only as far as the record returned.

    A quoted field still open at the end of the input, which ``csv.reader``
    would return as the rest of the input, and a ``csv.Error`` raise
    ``DataError`` naming the line where the record starts, counted from
    ``before``, the lines read before ``lines``."""
    held, ended = [], []

    def read():
        yield from _kept(lines, held)
        ended.append(True)

    reader = csv.reader(read())
    start = 1
    try:
        for record in reader:
            if ended and _quote_left_open(held):
                raise DataError(
                    f"line {before + start}: quoted field is not closed at the end of the input"
                )
            yield reader.line_num, record
            start = reader.line_num + 1
            held.clear()
    except UnicodeDecodeError as exc:
        raise _unreadable(path, exc) from exc
    except csv.Error as exc:
        raise DataError(f"line {before + start}: {exc}") from exc


def _quote_left_open(lines) -> bool:
    """Whether the record of ``lines``, which runs to the end of the input,
    ends inside a quoted field.  A closing quote and a line end would then
    leave the record as ``csv.reader`` returns it; in any other state they
    change it, adding a character to an unquoted field, a field after a
    trailing delimiter, or an escaped quote to a closed quoted field."""
    return list(csv.reader(lines)) == list(csv.reader([*lines, '"\n']))


def _kept(lines, kept: list):
    """``lines``, each appended to ``kept`` as it is read."""
    for line in lines:
        kept.append(line)
        yield line


class RowSource:
    """One pass over a CSV file, or over stdin for ``-``.

    The input is opened at the first read and closed on ``close``, or when
    the source is dropped.  ``peek`` reads the first record and keeps its
    lines, so ``lines`` can hand them out again before the rest.
    """

    def __init__(self, path: str):
        self.path = path
        self._opened = _opened(path)
        self._rest = None
        self._head: list[str] | None = None
        self._first: list[str] | None = None

    def peek(self) -> list[str] | None:
        """The first record (``None`` for an empty input), its lines kept."""
        if self._head is None:
            self._rest = next(self._opened)
            self._head = []
            first = next(_records(self.path, _kept(self._rest, self._head)), None)
            self._first = None if first is None else first[1]
        return self._first

    def lines(self, skip_first: bool):
        """The lines not read yet, with their line ends, starting with the
        first record's unless ``skip_first``; and the number of lines before
        them.  Reading them raises ``UnicodeDecodeError`` on a non-UTF-8
        input."""
        self.peek()
        head, self._head = self._head, []
        if skip_first:
            return self._rest, len(head)
        return itertools.chain(head, self._rest), 0

    def close(self) -> None:
        self._opened.close()


@dataclass(frozen=True)
class ResolvedSchema:
    """Schema bound to a concrete file: indices, display names, header flag."""

    has_header: bool
    column_names: tuple[str, ...]
    response_index: int | None
    feature_indices: tuple[int, ...]
    feature_names: tuple[str, ...]


def resolve_schema(source: RowSource, schema: CsvSchema) -> ResolvedSchema:
    """Bind a schema to the file's actual columns (peeks at the first row)."""
    first = source.peek()
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
        for j, i in enumerate(feature_indices):
            if i in feature_indices[:j]:
                raise DataError(f"feature column {column_names[i]!r} is selected twice")
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
    ``_BLOCK`` rows, the last one partial: the response cell, if the
    schema has one, then the features.  A bad cell or a short row raises the
    ``DataError`` that a row-by-row parse would raise first, naming its line
    (and column), once the blocks above the one that holds it are yielded;
    so a caller's error on an earlier row is raised first, as when each
    block is parsed alone."""
    columns = resolved.feature_indices
    if resolved.response_index is not None:
        columns = (resolved.response_index,) + columns
    lines, before = source.lines(skip_first=resolved.has_header)
    held = np.empty((0, len(columns)))
    for chunk in _chunks(source.path, lines):
        block, read, error = _loadtxt_block(chunk, columns), len(chunk), None
        if block is None:
            block, read, error = _csv_block(source.path, chunk, lines, before, columns, resolved)
        before += read
        if len(held):
            block = np.concatenate([held, block])
        full = len(block) - len(block) % _BLOCK
        for lo in range(0, full, _BLOCK):
            yield block[lo : lo + _BLOCK]
        if error is not None:
            raise error
        held = block[full:]
    if len(held):
        yield held


def _chunks(path: str, lines):
    """Lists of up to ``_CHUNK_LINES`` lines.  An input that stops decoding
    raises ``DataError`` only after the lines before the fault have been
    yielded, so a bad cell above it is named first."""
    while True:
        chunk = []
        try:
            chunk.extend(itertools.islice(lines, _CHUNK_LINES))
        except UnicodeDecodeError as exc:
            if chunk:
                yield chunk
            raise _unreadable(path, exc) from exc
        if not chunk:
            return
        yield chunk


def _loadtxt_block(chunk, columns) -> np.ndarray | None:
    """The selected cells of a chunk of lines as floats, by one C-level
    ``np.loadtxt`` call, which unquotes cells if the chunk holds a quote;
    ``None`` where the result might differ from ``csv.reader`` and
    ``float``: a separator in the chunk, a cell that does not parse or is
    not finite, or fewer or more rows than the chunk's non-empty lines.
    ``np.loadtxt`` skips blank lines as ``csv.reader`` does and rejects
    whitespace-only lines and bare ``\r`` line breaks, so the count is a
    guard: a line read as anything but one record, such as a line of a
    record that spans lines, sends the chunk to ``csv.reader``.  The count
    misses a quote left open on the last non-empty line, which
    ``np.loadtxt`` closes silently at the end of its input; so a quoted
    chunk goes to ``csv.reader`` if that line ends inside a quote.  Any
    chunk with a line longer than the fields ``csv.reader`` accepts goes
    there too, so that an over-long cell is refused, quoted or not."""
    text = "".join(chunk)
    if any(map(text.__contains__, _CSV_ONLY)) or max(map(len, chunk)) > csv.field_size_limit():
        return None
    quoted = '"' in text
    if quoted:
        last = next(line for line in reversed(chunk) if line not in _BLANK_LINES)
        if _quote_left_open([last]):
            return None
    rows = len(chunk) - sum(map(chunk.count, _BLANK_LINES))
    if not rows:
        return np.empty((0, len(columns)))
    try:
        block = np.loadtxt(
            chunk, delimiter=",", usecols=columns, ndmin=2, comments=None,
            quotechar='"' if quoted else None,
        )
    except ValueError:
        return None
    if len(block) != rows or not np.isfinite(block).all():
        return None
    return block


def _csv_block(path, chunk, lines, before, columns, resolved: ResolvedSchema):
    """The selected cells of a chunk's records, parsed one record at a time
    by ``csv.reader`` and ``_parse_row``, the number of lines read, and the
    ``DataError`` naming the first bad cell, short row or record that
    ``_records`` cannot read, or ``None``; the cells are then those of the
    rows above it.  A record that starts in the chunk and spans lines is
    read to its end from ``lines``.  Line numbers count from ``before``,
    the lines read before the chunk."""
    values, line_num, error = [], 0, None
    try:
        for line_num, row in _records(path, itertools.chain(chunk, lines), before):
            if row:
                values.append(_parse_row(before + line_num, row, columns, resolved))
            if line_num >= len(chunk):
                break
    except DataError as exc:
        error = exc
    return np.array(values).reshape(len(values), len(columns)), line_num, error


def _parse_row(lineno, row, columns, resolved: ResolvedSchema) -> list[float]:
    """A record's selected cells as floats; ``DataError`` names a short
    record or its first bad cell."""
    if len(row) <= max(columns):
        raise DataError(
            f"line {lineno}: expected at least {max(columns) + 1} columns, got {len(row)}"
        )
    cells = [row[i] for i in columns]
    try:
        parsed = [float(cell) for cell in cells]
    except ValueError as exc:
        raise DataError(f"line {lineno}: {exc}") from exc
    # float() also accepts nan, inf and overflowing literals such as 1e999
    for i, cell, value in zip(columns, cells, parsed):
        if not math.isfinite(value):
            raise DataError(
                f"line {lineno}: column {resolved.column_names[i]!r} is not a "
                f"finite number: {cell!r}"
            )
    return parsed


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
        while (block := np.fromfile(self.spill, count=_BLOCK * width)).size:
            yield block.reshape(-1, width)


def feature_moments(source: RowSource, resolved: ResolvedSchema) -> FeatureMoments:
    """First pass: feature means and sample standard deviations (n-1).

    Each block's mean and sum of squared deviations are merged into the
    running ones (Chan, Golub & LeVeque 1979), so one block lives in memory
    at a time, and each parsed block is spilled for ``load_observations`` to
    replay.  Columns whose moments overflow, and constant columns, are
    rejected by name.  The spill file is closed when this raises;
    otherwise the caller closes the result.
    """
    k = len(resolved.feature_indices)
    lead = int(resolved.response_index is not None)
    count, mean, m2 = 0, np.zeros(k), np.zeros(k)
    # overflow leaves inf or nan in sd, which the check below names
    with np.errstate(over="ignore", invalid="ignore"), contextlib.ExitStack() as on_error:
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
    fits, at most ``_BLOCK`` to a block unless shuffled.

    Without ``moments`` the blocks are parsed from the rows ``source`` has
    not read yet, its peeked first row included.  With the
    ``moments`` of ``feature_moments`` they are the blocks that pass parsed,
    replayed from its spill file, and their features are standardized in
    place; the response is passed through untouched.  ``shuffle_seed``
    materialises the rows and returns them, permuted with
    ``PCG64(SeedSequence(shuffle_seed))``, as a single block; a negative
    seed raises ``DataError``.
    """
    if needs_response and resolved.response_index is None:
        raise DataError("model needs a response column but the schema says response=none")
    if shuffle_seed is not None and shuffle_seed < 0:
        raise DataError(f"shuffle seed must be >= 0, got {shuffle_seed}")
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
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot open constraint file {path}: {exc}") from exc
    B, b = parse_constraint_text(text, feature_names)
    return Constraint.from_equalities(B, b)
