"""CSV ingestion and the price-to-return transform.

The one accepted format is a comma-delimited file with a header row
``date,<name1>,...,<namep>``, ISO-8601 dates, '.' decimals and one row per
trading day. Non-trading days are simply absent rows; no calendar logic is
applied. Row numbers in errors are 1-based file lines (the header is
line 1).
"""

import contextlib
import csv
import datetime
import functools
import json
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonMonotoneDates,
    NonPositivePrice,
    ParseError,
    TooFewRows,
)


@dataclass(frozen=True)
class PriceTable:
    """Strictly positive prices on strictly increasing dates."""

    dates: tuple
    prices: np.ndarray  # (N, p)
    names: tuple

    def __len__(self):
        return self.prices.shape[0]

    @property
    def p(self):
        return self.prices.shape[1]


@dataclass(frozen=True)
class ReturnTable:
    """Compound returns; row t is log(price[t+1]) - log(price[t])."""

    dates: tuple
    returns: np.ndarray  # (N - 1, p)
    names: tuple

    def __len__(self):
        return self.returns.shape[0]

    @property
    def p(self):
        return self.returns.shape[1]


def _read_table(path, columns=None, positive=False):
    """Dates, values and names of the ``columns`` (default all), converted row by row, then
    checked whole: finite, with ``positive`` above 0, on increasing dates; else the scan."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty", row=1) from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0].lower() != "date":
            raise ParseError("header must be 'date,<name1>,...,<namep>'", row=1)
        names = header[1:] if columns is None else list(columns)
        indices = (range(1, len(header)) if columns is None
                   else [1 + i for i in _column_indices(header[1:], names)])
        dates, rows = [], []
        try:
            for _, record in _data_rows(reader, len(header)):
                dates.append(datetime.date.fromisoformat(record[0].strip()))
                rows.append([float(record[col]) for col in indices])
        except (ValueError, ParseError):  # located by the scan below
            pass
        else:
            if not rows:
                raise ParseError("no data rows", row=2)
            values = np.asarray(rows, dtype=float)
            if (np.isfinite(values).all() and not (positive and (values <= 0.0).any())
                    and all(map(operator.lt, dates, dates[1:]))):
                return tuple(dates), values, tuple(names)
    _raise_first_fault(path, len(header), indices, "no fault located", dated=True,
                       finite=indices, positive=indices if positive else ())


def _raise_first_fault(path, width, columns, fallback, dated=False, finite=(), positive=()):
    """Raise the first fault of the data lines of ``path``, in file order, then column order:
    a line of another width than ``width``; with ``dated``, a bad or non-increasing date in
    column 1; a cell at ``columns`` that is not a number, at ``finite`` not a finite one, and
    at ``positive`` one not above 0 (with ``dated``, a price). Else raise ParseError(fallback)."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = [h.strip() for h in next(reader)]
        prev_date = None
        for line_no, record in _data_rows(reader, width):
            if dated:
                try:
                    date = datetime.date.fromisoformat(record[0].strip())
                except ValueError:
                    raise ParseError(f"bad date {record[0]!r}", row=line_no, col=1) from None
                if prev_date is not None and date <= prev_date:
                    raise NonMonotoneDates(f"date {date.isoformat()} does not increase past "
                                           f"{prev_date.isoformat()}", row=line_no)
                prev_date = date
            for col in columns:
                cell = record[col].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(f"bad number {cell!r}", row=line_no, col=col + 1) from None
                if col in finite and not math.isfinite(value):
                    raise ParseError(f"non-finite value {cell!r}", row=line_no, col=col + 1)
                if col in positive and not value > 0.0:
                    if dated:
                        raise NonPositivePrice(f"price {value!r} in column {header[col]!r}",
                                               row=line_no, col=col + 1)
                    raise ParseError(f"non-positive value {cell!r}", row=line_no, col=col + 1)
    raise ParseError(fallback)


def _data_rows(reader, width):
    """(line number, cells) of each non-blank row of a csv reader past the
    header; a row of another width than the header raises ParseError."""
    for line_no, record in enumerate(reader, start=2):
        if not (record and record[0].strip()) and all(not cell.strip() for cell in record):
            continue
        if len(record) != width:
            raise ParseError(f"expected {width} cells, found {len(record)}", row=line_no)
        yield line_no, record


def _column_indices(header, names):
    """Positions (first occurrences) of ``names`` in the ``header`` list."""
    for name in names:
        if name not in header:
            raise ParseError(f"column {name!r} not in header", row=1)
    return [header.index(name) for name in names]


def ingest(path, columns=None):
    """Read a price CSV into a validated :class:`PriceTable`.

    ``columns`` optionally restricts (and orders) the price columns by
    header name. A non-positive price is rejected with its 1-based file
    line and column.
    """
    return PriceTable(*_read_table(path, columns, positive=True))


def ingest_returns(path, columns=None):
    """Read a CSV of already-computed returns (values may be negative)."""
    return ReturnTable(*_read_table(path, columns))


def to_returns(prices):
    """Compound returns log(price[t+1]) - log(price[t]).

    The returned dates are those on which each return realizes (the later
    day of each pair).
    """
    if len(prices) < 2:
        raise TooFewRows("need at least two price rows to form returns")
    log_prices = np.log(prices.prices)
    returns = np.diff(log_prices, axis=0)
    return ReturnTable(
        dates=prices.dates[1:], returns=returns, names=prices.names
    )


def synthetic_dates(n, start=datetime.date(2000, 1, 3)):
    """n consecutive calendar dates for exporting simulated paths."""
    return tuple(start + datetime.timedelta(days=i) for i in range(n))


def write_observations_csv(path, values, dates=None, names=None):
    """Write observations in the ingestion schema (date plus one column
    per series); floats use shortest round-trip formatting."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, p = values.shape
    if dates is None:
        dates = synthetic_dates(n)
    if names is None:
        names = [f"series_{i + 1}" for i in range(p)]
    write_csv(path, [["date", *names]], (date.isoformat() for date in dates), values)


def write_csv(path, head, leads=(), table=()):
    """Write the rows ``head`` (the header, or any row of mixed cells) with csv.writer,
    quoted as needed, then each row of ``table``, any iterable of 1-D float arrays, as a
    line starting with the matching item of ``leads``: CRLF ends and shortest round-trip
    floats, as csv.writer writes them. Rows are read and converted one at a time."""
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(head)
        handle.writelines(f"{lead},{','.join(map(repr, row.tolist()))}\r\n"
                          for lead, row in zip(leads, table))


def write_json(path, payload):
    """Write ``payload`` as JSON with indent 2, sorted keys and a final newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_columns(path, names, finite=(), positive=()):
    """The named columns of a numeric CSV whose header needs no quoting, as
    a row-major (N, len(names)) float array; NaN cells read as NaN. A missing
    column, a line of another width than the header, a cell of ``names``
    that is not a number, or a cell of ``finite`` that is not finite or of
    ``positive`` not above 0 raises a :class:`ParseError` naming it."""
    with open(path) as handle:
        header = handle.readline().rstrip("\r\n").split(",")
    # the last column is read too, so that a truncated line fails the parse
    usecols = _column_indices(header, names) + [len(header) - 1]
    scan = functools.partial(_raise_first_fault, path, len(header), usecols,
                             finite=_column_indices(header, finite),
                             positive=_column_indices(header, positive))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data: raised below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=usecols)
    except ValueError as exc:
        scan(str(exc))
    with open(path, "rb") as handle:  # loadtxt skips cells past usecols: count them all
        commas = sum(np.count_nonzero(np.frombuffer(block, np.uint8) == ord(","))
                     for block in iter(lambda: handle.read(1 << 20), b""))
    if commas != (len(header) - 1) * (data.shape[0] + 1):
        scan("the file holds more cells than lines of the header's width")
    if not data.shape[0]:
        raise ParseError("no data rows", row=2)
    if not (np.isfinite(data[:, [names.index(name) for name in finite]]).all()
            and (data[:, [names.index(name) for name in positive]] > 0.0).all()):
        scan("no fault located")
    return data[:, :-1]


def read_end_rows(path, names):
    """:func:`read_columns` of the first and the last line only, as a (2,
    len(names)) array. The last line is read from a window of eight header
    lengths at the end of the file; a window without a whole line, or a line
    that does not parse, falls back to :func:`read_columns` itself."""
    with open(path, "rb") as handle:
        head, first = handle.readline(), handle.readline()
        handle.seek(max(handle.seek(0, 2) - 8 * len(head), 0))
        window = handle.read().rstrip().rsplit(b"\n", 1)
    with contextlib.suppress(ValueError):
        lines = (head, first, window[-1])
        header, *rows = (line.decode().rstrip("\r\n").split(",") for line in lines)
        indices = _column_indices(header, names)
        if len(window) == 2 and all(len(cells) == len(header) for cells in rows):
            return np.array([[float(cells[i]) for i in indices] for cells in rows])
    return read_columns(path, names)[[0, -1]]
