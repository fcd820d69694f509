"""Delimited tables: the one reader and writer behind every CSV file.

A table holds ``# key=value`` metadata lines, the column row, then one
line per record. Cells use the csv module's minimal quoting, so ids may
hold commas, quotes or a leading ``#``. Floats are written with ``repr``
and ``None`` as an empty cell. ``provenance`` builds the header that
reports, series and JSON outputs carry, with its ``config_hash``.
``read_json`` is the one reader of JSON inputs and ``write_json`` the one
writer of JSON outputs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from typing import Callable, Mapping, Optional, Sequence

from . import __version__
from .errors import FormatError, InputError

#: rows written, and characters or csv records read, at a time: bound the
#: cells held as text
_CHUNK_ROWS = 1 << 15
_CHUNK_CHARS = 1 << 20


def optional_float(cell: str) -> Optional[float]:
    """Converter for a float column where an empty cell means absent."""
    return float(cell) if cell else None


def config_hash(meta: Mapping) -> str:
    """Short digest of a metadata mapping, independent of key order."""
    canonical = json.dumps(meta, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def provenance(fields: Mapping) -> dict:
    """An output's header, sorted by key: the tool version, ``fields`` as
    text, and the ``config_hash`` of both."""
    header = {"tool_version": __version__, **{str(k): str(v) for k, v in fields.items()}}
    header["config_hash"] = config_hash(header)
    return dict(sorted(header.items()))


def read_json(path):
    """The document in JSON file ``path``; FormatError, naming the file,
    when it is not JSON."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # a decode error, or bytes that are not text
            raise FormatError(f"{path}: not valid JSON ({exc})") from None


def write_json(path, doc) -> None:
    """Strict JSON: a NaN or infinity is an InputError, and no file is written."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InputError(f"{path}: result is not finite ({exc})") from None
    with open(path, "w") as f:
        f.write(text + "\n")


def _quote(cell) -> str:
    """A text cell as the csv module's minimal quoting writes it."""
    text = "" if cell is None else str(cell)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_column(convert, values) -> list:
    """The cells of one column, by the converter that reads them back:
    floats as the ``repr`` of a Python float, ``None`` as an empty cell.
    A numpy column converts to Python objects first, a chunk at a time."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    if convert is float:
        return list(map(float.__repr__, map(float, values)))
    if convert is optional_float:
        return ["" if v is None else float.__repr__(float(v)) for v in values]
    if convert is int:
        return list(map(str, values))
    quoted = {v: _quote(v) for v in set(values)}  # few distinct ids and labels
    return list(map(quoted.__getitem__, values))


def write_table(path, columns: Mapping, values: Sequence,
                meta: Optional[Mapping] = None) -> None:
    """Write the ``meta`` lines in the order given, the column row, then the
    rows of the columns ``values``: one sequence per entry of ``columns``,
    which maps each column name to the converter that reads its cells back
    (see ``read_table``)."""
    converters = list(columns.values())
    if len(values) != len(converters):
        raise ValueError(f"{len(values)} columns of values for {len(converters)} names")
    with open(path, "w", newline="") as f:
        for key, value in (meta or {}).items():
            f.write(f"# {key}={value}\n")
        f.write(",".join(map(_quote, columns)) + "\n")
        for lo in range(0, len(values[0]), _CHUNK_ROWS):
            cells = [_format_column(convert, column[lo:lo + _CHUNK_ROWS])
                     for convert, column in zip(converters, values)]
            if len(cells) == 1:  # a lone empty cell would read back as a blank line
                cells = [['""' if c == "" else c for c in cells[0]]]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _read_meta(f, path) -> tuple:
    """(meta, column row line, its line number): the ``#`` lines of an open
    table up to its column row."""
    meta = {}
    line_no = 0
    for line in f:
        line_no += 1
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif line.strip():
            return meta, line, line_no
    raise FormatError(f"{path}: no column row")


def read_meta(path) -> dict:
    """The metadata of a table, without reading its rows."""
    with open(path, newline="") as f:
        return _read_meta(f, path)[0]


def _rows(f, path, columns: Mapping, subset: bool) -> tuple:
    """(meta, csv reader at the first data row, row width, picked column
    indices, line number of the column row) of an open table."""
    meta, line, line_no = _read_meta(f, path)
    reader = csv.reader(itertools.chain([line], f))
    header = next(reader)
    names = list(columns)
    matches = set(names) <= set(header) if subset else header == names
    if not matches:
        raise FormatError(f"{path}:{line_no}: expected columns {names}, found {header}")
    return meta, reader, len(header), [header.index(name) for name in names], line_no


def _chunks(f, width: int):
    """The ``width`` columns of the data rows of the open table ``f``, a
    chunk of rows at a time; ValueError when a row is not ``width`` cells
    wide.

    Chunks of lines without a quote, carriage return, NUL or blank line
    split on commas, as the csv module would split them. From the first
    chunk that holds one on, the rest of the table goes through one csv
    reader, so a quoted cell may span lines.
    """
    commas = itertools.repeat(",")
    for lines in iter(lambda: f.readlines(_CHUNK_CHARS), []):
        text = "".join(lines)
        if '"' in text or "\r" in text or "\0" in text or "\n" in lines:
            break
        if list(map(str.count, lines, commas)).count(width - 1) != len(lines):
            raise ValueError("a row of the wrong width")
        cells = text.removesuffix("\n").replace("\n", ",").split(",")
        yield [cells[i::width] for i in range(width)]
    else:
        return
    records = filter(None, csv.reader(itertools.chain(lines, f)))  # blank lines go
    for rows in iter(lambda: list(itertools.islice(records, _CHUNK_ROWS)), []):
        if list(map(len, rows)).count(width) != len(rows):
            raise ValueError("a row of the wrong width")
        yield list(zip(*rows))


def read_table(path, columns: Mapping, *, subset: bool = False,
               check: Optional[Callable[[dict], Optional[Callable[[list], Optional[tuple]]]]]
               = None) -> tuple:
    """(meta, values) of a table: ``values`` lists one column of converted
    cells per entry of ``columns``.

    ``columns`` maps each column name to its cell converter. The column
    row must equal its keys, or with ``subset`` contain them all (other
    columns are skipped). ``#`` lines are metadata only before it.
    ``check(meta)`` is called once, after the rows are read, and may return a
    column check: it sees the converted columns and returns None, or
    ``(i, reason)`` for the first data row ``i`` it rejects. A rejected
    row fails like a bad cell: a FormatError naming its line.
    """
    with open(path, newline="") as f:
        meta, _, width, picks, _ = _rows(f, path, columns, subset)
        values = [[] for _ in picks]
        shared = [{} if convert is str else None for convert in columns.values()]
        try:
            for cells in _chunks(f, width):
                for column, i, convert, same in zip(values, picks, columns.values(), shared):
                    if same is None:
                        column.extend(map(convert, cells[i]))
                    else:  # one object per distinct text: ids repeat on many rows
                        column.extend(map(same.setdefault, cells[i], cells[i]))
        except (ValueError, csv.Error):
            pass  # the slow pass below names the line
        else:
            row_check = check(meta) if check is not None else None
            if row_check is None or row_check(values) is None:
                return meta, values
    raise _first_bad_line(path, columns, subset, check)


def _first_bad_line(path, columns: Mapping, subset: bool, check) -> FormatError:
    """The error of ``read_table`` on a table it rejects, read row by row:
    the first row that is the wrong width, holds a cell that does not
    convert, or that the column check rejects."""
    with open(path, newline="") as f:
        meta, reader, width, picks, line_no = _rows(f, path, columns, subset)
        values = [[] for _ in picks]
        lines = []
        failure = None
        try:
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != width:
                    raise ValueError(f"{len(cells)} cells, expected {width}")
                row = [convert(cells[i]) for i, convert in zip(picks, columns.values())]
                for column, value in zip(values, row):
                    column.append(value)
                lines.append(line_no + reader.line_num - 1)
        except (ValueError, csv.Error) as exc:
            failure = (line_no + reader.line_num - 1, exc)
    row_check = check(meta) if check is not None else None
    rejected = row_check(values) if row_check is not None else None
    if rejected is not None:
        failure = (lines[rejected[0]], rejected[1])
    line, reason = failure
    return FormatError(f"{path}:{line}: malformed row ({reason})")
