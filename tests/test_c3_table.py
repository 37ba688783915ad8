"""The C3 distance table's invariants, through its three entry points: the
library's check_c3 on a raw array, check_c3 on a DistanceTable, and a CSV
file read back by `check-c3 --table`."""

import io
import math
import re
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmor import DataError, DistanceTable, ParameterError, check_c3, cli
from gpmor.fileio import read_distance_table, read_json, write_distance_table

distances = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=10.0))


@st.composite
def valid_tables(draw):
    """(modes, values) of a valid table: distinct int modes, symmetric
    non-negative entries, zero diagonal."""
    m = draw(st.integers(min_value=2, max_value=10))
    modes = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=m, max_size=m,
                          unique=True))
    upper = draw(st.lists(distances, min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2))
    values = np.zeros((m, m))
    values[np.triu_indices(m, 1)] = upper
    return tuple(modes), values + values.T


def check_c3_cli(*argv):
    """(exit code, c3 report dict or None, stderr) of one `check-c3` call."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, redirect_stderr(err):
        code = cli.main(["--out", out, "--quiet", "check-c3", *map(str, argv)])
        report = Path(out) / "c3_report.json"
        return code, read_json(report)["c3"] if report.exists() else None, err.getvalue()


@settings(max_examples=60)
@given(table=valid_tables(), threshold=st.floats(min_value=1e-3, max_value=1e6))
def test_valid_table_gives_one_record_through_every_entry_point(table, threshold):
    modes, values = table
    from_array = check_c3(values, threshold)
    from_table = check_c3(DistanceTable(modes, values), threshold)
    assert from_array.table.modes == tuple(range(len(modes)))
    assert np.array_equal(from_array.table.values, values)
    assert from_table.to_dict() == dict(from_array.to_dict(), distance_table={
        "modes": list(modes), "values": values.tolist()})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write_distance_table(path, DistanceTable(modes, values))
        code, report, _ = check_c3_cli("--table", path, "--threshold", repr(threshold))
    assert code == (0 if from_table.ok else 12)
    assert report == from_table.to_dict()


def _break(kind, modes, values, i, j, x):
    """(modes, values) with one invariant broken at rows i != j by amount x > 0."""
    modes, values = list(modes), values.copy()
    if kind == "negative":
        values[i, j] = values[j, i] = -x
    elif kind == "asymmetric":
        values[i, j] += x
    elif kind == "diagonal":
        values[i, i] = x
    elif kind == "non-finite":
        values[i, j] = values[j, i] = math.inf if x > 1.0 else math.nan
    elif kind == "duplicate-mode":
        modes[j] = modes[i]
    elif kind == "one-by-one":
        modes, values = modes[:1], np.zeros((1, 1))
    return modes, values


@settings(max_examples=60)
@given(table=valid_tables(),
       kind=st.sampled_from(["negative", "asymmetric", "diagonal", "non-finite",
                             "duplicate-mode", "one-by-one"]),
       rows=st.tuples(st.integers(min_value=0), st.integers(min_value=1)),
       x=st.floats(min_value=1e-9, max_value=10.0))
def test_broken_table_is_refused_by_every_entry_point(table, kind, rows, x):
    modes, values = table
    i = rows[0] % len(modes)
    j = (i + rows[1] % (len(modes) - 1) + 1) % len(modes)
    modes, values = _break(kind, modes, values, i, j, x)
    with pytest.raises(ParameterError):
        check_c3(DistanceTable(modes, values))
    if kind != "duplicate-mode":
        with pytest.raises(ParameterError):
            check_c3(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        header = ",".join(map(str, modes))
        path.write_text(f"# gpm-c3-table modes={header}\n"
                        + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_distance_table(path)
        code, report, err = check_c3_cli("--table", path)
    assert code == 2 and report is None
    assert str(path) in err


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
def test_threshold_must_be_positive(tmp_path, threshold):
    values = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ParameterError, match="threshold"):
        check_c3(values, threshold)
    with pytest.raises(ParameterError, match="threshold"):
        check_c3(DistanceTable((1, 2), values), threshold)
    path = tmp_path / "table.csv"
    write_distance_table(path, DistanceTable((1, 2), values))
    code, report, err = check_c3_cli("--table", path, "--threshold", repr(threshold))
    assert code == 2 and report is None and "C3 threshold must be positive" in err
    # judged before any snapshot is read: these files do not exist
    code, report, err = check_c3_cli(tmp_path / "missing_0.gpm", tmp_path / "missing_1.gpm",
                                     "--modes", "1,2", "--target", 0.5,
                                     "--threshold", repr(threshold))
    assert code == 2 and report is None and "C3 threshold must be positive" in err


def test_table_modes_must_be_ints():
    with pytest.raises(ParameterError):
        DistanceTable((1.5, 2), np.zeros((2, 2)))
