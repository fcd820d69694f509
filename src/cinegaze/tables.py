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
from typing import Callable, Iterable, Mapping, Optional

from . import __version__
from .errors import FormatError, InputError


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


def _cell(value):
    # csv itself writes None as an empty cell; numpy floats would otherwise
    # be written as np.float64(...)
    return repr(float(value)) if isinstance(value, float) else value


def write_table(path, columns: Iterable[str], rows: Iterable,
                meta: Optional[Mapping] = None) -> None:
    """Write the ``meta`` lines in the order given, the column row, the rows."""
    with open(path, "w", newline="") as f:
        for key, value in (meta or {}).items():
            f.write(f"# {key}={value}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)


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


def read_table(path, columns: Mapping, *, subset: bool = False,
               check: Optional[Callable[[dict], Optional[Callable[[list], None]]]] = None
               ) -> tuple:
    """(meta, rows) of a table; each row lists its converted cells.

    ``columns`` maps each column name to its cell converter. The column
    row must equal its keys, or with ``subset`` contain them all (other
    columns are skipped). ``#`` lines are metadata only before it.
    ``check(meta)`` is called once, at the column row, and may return a
    row check: it sees each converted row, and a ValueError it raises
    rejects the row like a bad cell, naming its line.
    """
    with open(path, newline="") as f:
        meta, line, line_no = _read_meta(f, path)
        reader = csv.reader(itertools.chain([line], f))
        header = next(reader)
        names = list(columns)
        matches = set(names) <= set(header) if subset else header == names
        if not matches:
            raise FormatError(f"{path}:{line_no}: expected columns {names}, found {header}")
        picks = [(header.index(name), convert) for name, convert in columns.items()]
        row_check = check(meta) if check is not None else None
        rows = []
        try:
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise ValueError(f"{len(cells)} cells, expected {len(header)}")
                row = [convert(cells[i]) for i, convert in picks]
                if row_check is not None:
                    row_check(row)
                rows.append(row)
        except (ValueError, csv.Error) as exc:
            raise FormatError(f"{path}:{line_no + reader.line_num - 1}: "
                              f"malformed row ({exc})") from None
    return meta, rows
