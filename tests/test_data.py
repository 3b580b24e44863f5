import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvdlm.data import (
    ingest,
    ingest_returns,
    synthetic_dates,
    to_returns,
    write_observations_csv,
)
from mvdlm.errors import (
    NonMonotoneDates,
    NonPositivePrice,
    ParseError,
    TooFewRows,
)


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_two_row_single_column(self, tmp_path):
        path = write(tmp_path, "date,alum\n2005-01-04,100\n2005-01-05,110\n")
        table = ingest(path)
        returns = to_returns(table)
        assert_allclose(returns.returns, [[np.log(1.1)]])
        assert_allclose(returns.returns[0, 0], 0.09531017980432486)
        assert returns.dates == (table.dates[1],)

    def test_constant_prices_zero_returns(self, tmp_path):
        rows = "".join(f"2005-01-{d:02d},50\n" for d in range(1, 8))
        table = ingest(write(tmp_path, "date,x\n" + rows))
        assert_allclose(to_returns(table).returns, np.zeros((6, 1)))

    def test_334_rows_4_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        dates = synthetic_dates(334)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, (334, 4)), axis=0))
        lines = ["date,a,b,c,d"]
        for date, row in zip(dates, prices):
            lines.append(date.isoformat() + "," + ",".join(repr(float(v)) for v in row))
        table = ingest(write(tmp_path, "\n".join(lines) + "\n"))
        assert len(table) == 334
        returns = to_returns(table)
        assert returns.returns.shape == (333, 4)

    def test_exp_cumsum_reconstructs_prices(self, tmp_path):
        rng = np.random.default_rng(1)
        prices = 10.0 * np.exp(np.cumsum(rng.normal(0, 0.05, (50, 2)), axis=0))
        lines = ["date,x,y"]
        for date, row in zip(synthetic_dates(50), prices):
            lines.append(date.isoformat() + "," + ",".join(repr(float(v)) for v in row))
        table = ingest(write(tmp_path, "\n".join(lines) + "\n"))
        returns = to_returns(table)
        rebuilt = np.exp(np.cumsum(returns.returns, axis=0))
        assert_allclose(rebuilt, table.prices[1:] / table.prices[0], rtol=1e-12)

    def test_column_selection(self, tmp_path):
        path = write(
            tmp_path, "date,a,b\n2005-01-04,1,10\n2005-01-05,2,20\n"
        )
        table = ingest(path, columns=["b"])
        assert table.names == ("b",)
        assert_allclose(table.prices, [[10.0], [20.0]])
        with pytest.raises(ParseError):
            ingest(path, columns=["missing"])


class TestIngestErrors:
    def test_parse_error_reports_location(self, tmp_path):
        path = write(tmp_path, "date,x\n2005-01-04,oops\n")
        with pytest.raises(ParseError) as err:
            ingest(path)
        assert err.value.row == 2

    def test_bad_date(self, tmp_path):
        path = write(tmp_path, "date,x\nnot-a-date,1\n")
        with pytest.raises(ParseError):
            ingest(path)

    def test_non_positive_price(self, tmp_path):
        path = write(tmp_path, "date,x\n2005-01-04,1\n2005-01-05,-2\n")
        with pytest.raises(NonPositivePrice) as err:
            ingest(path)
        assert err.value.row == 3

    def test_non_positive_price_in_a_selected_column(self, tmp_path):
        # the file line and the file column of the cell, not its place among
        # the selected columns, and the value as a Python float
        path = write(tmp_path, "date,a,b,c\n2020-01-01,1.0,2.0,3.0\n2020-01-02,1.5,-2.5,3.0\n")
        with pytest.raises(NonPositivePrice) as err:
            ingest(path, columns=["b"])
        assert (err.value.row, err.value.col) == (3, 3)
        assert str(err.value) == "price -2.5 in column 'b'"

    def test_non_positive_price_after_a_blank_line(self, tmp_path):
        path = write(tmp_path, "date,a,b\n2020-01-01,1,2\n\n2020-01-02,1,2\n2020-01-03,0,2\n")
        with pytest.raises(NonPositivePrice) as err:
            ingest(path)
        assert (err.value.row, err.value.col) == (5, 2)
        assert str(err.value) == "price 0.0 in column 'a'"

    def test_non_monotone_dates(self, tmp_path):
        path = write(tmp_path, "date,x\n2005-01-05,1\n2005-01-04,2\n")
        with pytest.raises(NonMonotoneDates) as err:
            ingest(path)
        assert err.value.row == 3

    def test_too_few_rows_for_returns(self, tmp_path):
        table = ingest(write(tmp_path, "date,x\n2005-01-04,1\n"))
        with pytest.raises(TooFewRows):
            to_returns(table)

    def test_missing_header(self, tmp_path):
        with pytest.raises(ParseError):
            ingest(write(tmp_path, "2005-01-04,1\n"))


class TestFirstFault:
    """The first fault of a file is reported, in file order, then in column
    order, whatever kind of fault comes later."""

    @pytest.mark.parametrize("lines, error, row, col, message", [
        (["2020-01-02,-1,2", "2020-01-03,1,2", "2020-01-04,x,2"],
         NonPositivePrice, 3, 2, "price -1.0 in column 'a'"),
        (["2020-01-02,-1,nan"], NonPositivePrice, 3, 2, "price -1.0 in column 'a'"),
        (["2020-01-02,1,-2", "2020-01-03,1,2,3"], NonPositivePrice, 3, 3,
         "price -2.0 in column 'b'"),
        (["2020-01-02,1,0", "2020-01-01,1,2"], NonPositivePrice, 3, 3, "price 0.0 in column 'b'"),
        (["2020-01-02,nan,-1", "2020-01-03,1"], ParseError, 3, 2, "non-finite value 'nan'"),
        (["2020-01-01,1,2", "2020-01-03,x,-1"], NonMonotoneDates, 3, None,
         "date 2020-01-01 does not increase past 2020-01-01"),
    ])
    def test_first_fault_in_file_then_column_order(self, tmp_path, lines, error, row, col,
                                                   message):
        path = write(tmp_path, "\n".join(["date,a,b", "2020-01-01,1,2", *lines]) + "\n")
        with pytest.raises(error) as err:
            ingest(path)
        assert (err.value.row, err.value.col, str(err.value)) == (row, col, message)


class TestRoundTrip:
    def test_write_ingest_byte_stable(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 0.02, (30, 3))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_observations_csv(first, values, names=["x", "y", "z"])
        table = ingest_returns(first)
        assert np.array_equal(table.returns, values)
        write_observations_csv(second, table.returns, dates=table.dates, names=table.names)
        assert first.read_bytes() == second.read_bytes()


class TestIngestCellLocation:
    """The first offending cell of a row, in column order, is reported."""

    @pytest.mark.parametrize(
        "row, message, col",
        [
            ("2005-01-05, 1 ,nan,abc", "non-finite value 'nan'", 3),
            ("2005-01-05,1,abc,inf", "bad number 'abc'", 3),
            ("2005-01-05,-inf,2,3", "non-finite value '-inf'", 2),
        ],
    )
    def test_first_bad_cell(self, tmp_path, row, message, col):
        path = write(tmp_path, f"date,a,b,c\n2005-01-04,1,2,3\n{row}\n")
        with pytest.raises(ParseError, match=message) as err:
            ingest_returns(path)
        assert (err.value.row, err.value.col) == (3, col)

    def test_padded_cells_parse(self, tmp_path):
        table = ingest_returns(write(tmp_path, "date,a,b\n2005-01-04, 1.5 ,\t-2\n"))
        assert np.array_equal(table.returns, [[1.5, -2.0]])
