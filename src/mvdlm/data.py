"""CSV ingestion and the price-to-return transform.

The one accepted format is a comma-delimited file with a header row
``date,<name1>,...,<namep>``, ISO-8601 dates, '.' decimals and one row per
trading day. Non-trading days are simply absent rows; no calendar logic is
applied. Row numbers in errors are 1-based file lines (the header is
line 1).
"""

import csv
import datetime
import math
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


def _read_table(path, columns=None):
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
        dates = []
        rows = []
        prev_date = None
        for line_no, record in _data_rows(reader, len(header)):
            try:
                date = datetime.date.fromisoformat(record[0].strip())
            except ValueError:
                raise ParseError(f"bad date {record[0]!r}", row=line_no, col=1) from None
            if prev_date is not None and date <= prev_date:
                raise NonMonotoneDates(f"date {date.isoformat()} does not increase past "
                                       f"{prev_date.isoformat()}", row=line_no)
            prev_date = date
            try:
                values = [float(record[col]) for col in indices]
            except ValueError:
                values = None
            if values is None or not all(map(math.isfinite, values)):
                _check_cells(record, indices, line_no, finite=True)
            dates.append(date)
            rows.append(values)
    if not rows:
        raise ParseError("no data rows", row=2)
    return tuple(dates), np.asarray(rows, dtype=float), tuple(names)


def _data_rows(reader, width):
    """(line number, cells) of each non-blank row of a csv reader past the
    header; a row of another width than the header raises ParseError."""
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
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


def _check_cells(cells, indices, line_no, finite):
    """Raise a ParseError at the first cell of ``indices`` that is not a
    number (or, when ``finite``, not a finite one)."""
    for col in indices:
        cell = cells[col].strip()
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(f"bad number {cell!r}", row=line_no, col=col + 1) from None
        if finite and not math.isfinite(value):
            raise ParseError(f"non-finite value {cell!r}", row=line_no, col=col + 1)


def ingest(path, columns=None):
    """Read a price CSV into a validated :class:`PriceTable`.

    ``columns`` optionally restricts (and orders) the price columns by
    header name. Rows with non-positive prices are rejected with their
    1-based line number.
    """
    dates, values, names = _read_table(path, columns)
    bad = np.argwhere(values <= 0.0)
    if bad.size:
        i, j = bad[0]
        raise NonPositivePrice(
            f"price {values[i, j]!r} in column {names[j]!r}",
            row=int(i) + 2,
            col=int(j) + 2,
        )
    return PriceTable(dates=dates, prices=values, names=names)


def ingest_returns(path, columns=None):
    """Read a CSV of already-computed returns (values may be negative)."""
    dates, values, names = _read_table(path, columns)
    return ReturnTable(dates=dates, returns=values, names=names)


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
    """Write the rows ``head`` (the header, or any row of mixed cells) with
    csv.writer, quoted as needed, then row i of the float array ``table``
    as a line starting with ``leads[i]``: CRLF ends and shortest round-trip
    floats, as csv.writer writes them. Rows are converted one at a time so
    the file is never held whole."""
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(head)
        handle.writelines(f"{lead},{','.join(map(repr, row.tolist()))}\r\n"
                          for lead, row in zip(leads, table))


def read_columns(path, names):
    """The named columns of a numeric CSV whose header needs no quoting, as
    a column-major (N, len(names)) float array (so column sums run in
    numpy's pairwise order); NaN cells read as NaN. A missing column, a line
    of another width than the header or a cell of ``names`` that is not a
    number raises a :class:`ParseError` naming it."""
    with open(path) as handle:
        header = handle.readline().rstrip("\r\n").split(",")
    # the last column is read too, so that a truncated line fails the parse
    usecols = _column_indices(header, names) + [len(header) - 1]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data: raised below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=usecols)
        with open(path, "rb") as handle:  # loadtxt skips cells past usecols: count them all
            commas = sum(np.count_nonzero(np.frombuffer(block, np.uint8) == ord(","))
                         for block in iter(lambda: handle.read(1 << 20), b""))
        if commas != (len(header) - 1) * (data.shape[0] + 1):
            raise ValueError("the file holds more cells than lines of the header's width")
    except ValueError as exc:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            next(reader)
            for line_no, cells in _data_rows(reader, len(header)):
                _check_cells(cells, usecols, line_no, finite=False)
        raise ParseError(str(exc)) from None
    if not data.shape[0]:
        raise ParseError("no data rows", row=2)
    return np.asfortranarray(data[:, :-1])
