import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmzeno import _table
from qbmzeno._table import csv_text, format_e16, json_columns, write_csv
from qbmzeno.coefficients import CoefficientSeries
from qbmzeno.dynamics import LadderTrace, MeasurementMode, ShutteredComparison
from qbmzeno.spectral import ReservoirParams
from qbmzeno.zeno import ZenoScan


def per_row_csv(header, columns):
    """The per-row ``%`` writer the vectorized one replaced: the reference."""
    arrays = [np.asarray(col) for col in columns]
    text = [a.dtype.kind in "US" for a in arrays]
    row_format = ",".join("%s" if t else "%.16e" for t in text)
    cells = [a if t else a.astype(float, copy=False) for a, t in zip(arrays, text)]
    lines = [",".join(header)]
    lines.extend(row_format % row for row in zip(*cells))
    return "\n".join(lines) + "\n"


def per_cell_json(header, columns):
    """The per-cell JSON conversion that json_columns replaced: the reference."""
    def jsonable(v):
        if isinstance(v, str):
            return v
        v = float(v)
        if math.isfinite(v):
            return v
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    return {name: [jsonable(v) for v in col] for name, col in zip(header, columns)}


def assert_cells_match(values):
    values = np.asarray(values, dtype=float)
    got = [bytes(slot).replace(b"\0", b"").decode() for slot in format_e16(values)]
    want = [format(float(v), ".16e") for v in values]
    mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not mismatches, mismatches[:5]


def edge_values():
    values = [0.0, 5e-324, 1e-280, 1e280, 9.99999999999999999e22, 1234567890123456.75,
              2.0**53, 2.0**60, 1.7976931348623157e308, 2.2250738585072014e-308]
    for k in range(-323, 309):
        values.append(float(f"1e{k}"))
    neighbours = []
    for v in values:
        neighbours += [math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    values += neighbours
    values += list(np.arange(-64, 65) * 0.5) + list(np.arange(-64, 65) * 0.125)
    values += [1.5e16, 2.5e16, 0.5, 0.25, 1.25, 1.0 / 3.0]
    values += [math.inf, -math.inf, math.nan]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestFormatE16:
    def test_named_edge_cases(self):
        assert_cells_match(edge_values())

    def test_seeded_bit_patterns(self):
        bits = np.random.default_rng(20261018).integers(0, 2**64, 10**5, dtype=np.uint64)
        assert_cells_match(bits.view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_every_float(self, values):
        assert_cells_match(values)

    def test_empty(self):
        assert format_e16(np.array([])).shape == (0, 7)


class TestCsvText:
    def test_zero_rows_give_the_header_alone(self):
        assert csv_text(["t", "delta"], [np.array([]), np.array([])]) == "t,delta\n"
        assert csv_text(["tau", "regime"], [np.array([]), []]) == "tau,regime\n"
        assert csv_text([], []) == "\n"

    def test_single_column(self):
        values = np.array([1.0, -2.5, 0.0])
        assert csv_text(["v"], [values]) == per_row_csv(["v"], [values])
        assert csv_text(["name"], [["a", "", "é"]]) == "name\na\n\né\n"

    def test_mixed_text_and_numeric_columns(self):
        text = csv_text(["tau", "regime", "ratio"],
                        [np.array([0.5, 2.0]), ["QZE", "AZE"], [0.25, 3]])
        assert text == (
            "tau,regime,ratio\n"
            "5.0000000000000000e-01,QZE,2.5000000000000000e-01\n"
            "2.0000000000000000e+00,AZE,3.0000000000000000e+00\n"
        )

    def test_cells_match_format_16e(self):
        values = np.array([math.inf, -math.inf, math.nan, -0.0, 1e-300, 5e-324, 1.0 / 3.0])
        lines = csv_text(["v"], [values]).splitlines()
        assert lines[1:] == [format(v, ".16e") for v in values]
        assert lines[1:4] == ["inf", "-inf", "nan"]

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError):
            csv_text(["a", "b"], [np.ones(3), np.ones(2)])

    def test_many_blocks_match_the_per_row_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        n_rows = 3 * _table._BLOCK_CELLS // 4 + 7  # four columns: more than two blocks
        header = ["t", "label", "value", "count"]
        columns = [
            np.linspace(0.0, 1.0, n_rows),
            [("long-label" if i % 3 else "x") * (i % 4) for i in range(n_rows)],
            rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows),
            np.arange(n_rows),
        ]
        columns[2][::97] = math.nan
        assert len(list(_table.csv_blocks(header, columns))) > 3
        text = csv_text(header, columns)
        assert text == per_row_csv(header, columns)
        path = tmp_path / "table.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == text.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def result_objects():
    params = ReservoirParams(r=0.5, theta=1.0, alpha=0.1)
    times = np.array([0.0, 0.5, 1.0])
    trace = LadderTrace(times=times, populations=np.array([[1.0, 0.0], [0.75, 0.25], [0.5, 0.5]]),
                        mode=MeasurementMode.SHUTTERED, tau=0.5, n_measurements=2, initial_n=0)
    return [
        CoefficientSeries(times=times, delta=np.array([0.0, 0.1, 0.2]),
                          gamma=np.array([0.0, 0.01, 0.02]), int_delta=np.array([0.0, 1e-3, 4e-3]),
                          int_gamma=np.array([0.0, -1e-4, math.inf]), params=params),
        ZenoScan(n=0, taus=np.array([0.5, 1.0]), rate_z=np.array([0.2, 0.3]),
                 ratio=np.array([0.9, 1.2]), markov_rate=0.25, crossovers=[], params=params),
        trace,
        ShutteredComparison(times=times, shuttered=np.array([1.0, 0.9, 0.8]),
                            shuttered_ladder=np.array([1.0, 0.9, 0.8]),
                            unshuttered=np.array([1.0, 0.85, 0.7]),
                            unshuttered_extrapolated=False, trace=trace),
    ]


class TestAtomicWrites:
    @pytest.mark.parametrize("result", result_objects(), ids=lambda r: type(r).__name__)
    def test_to_csv_writes_the_table_and_leaves_no_temp_file(self, result, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("previous\n")
        result.to_csv(path)
        assert path.read_text() == csv_text(*result.table())
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["v"], [np.arange(3.0)])
        before = path.read_bytes()
        n_rows = 2 * _table._BLOCK_CELLS
        bad = np.ones(n_rows, dtype=object)
        bad[-1] = "not a number"  # raises in the last block, after others were written
        with pytest.raises(ValueError):
            write_csv(path, ["v"], [bad])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_to_csv_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"previous\n")
        populations = np.array([[1.0], [object()]], dtype=object)
        trace = LadderTrace(times=np.array([0.0, 1.0]), populations=populations,
                            mode=MeasurementMode.SHUTTERED, tau=1.0, n_measurements=1,
                            initial_n=0)
        with pytest.raises(TypeError):
            trace.to_csv(path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]

    def test_scan_sidecar_is_written_atomically(self, tmp_path, monkeypatch):
        scan = result_objects()[1]
        path = tmp_path / "scan.json"
        path.write_text("previous\n")
        scan.to_json(path)
        assert path.read_bytes() == (json.dumps(scan.metadata(), indent=2) + "\n").encode()
        assert [p.name for p in tmp_path.iterdir()] == ["scan.json"]

        def failing_replace(src, dst):
            raise OSError("rename failed")

        before = path.read_bytes()
        monkeypatch.setattr(_table.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            scan.to_json(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["scan.json"]


class TestJsonColumns:
    def test_columns_in_header_order_with_non_finite_as_strings(self):
        payload = json_columns(["tau", "ratio", "regime"],
                               [np.array([1.0, 2.0]), np.array([math.inf, math.nan]),
                                ["AZE", "Marginal"]])
        assert list(payload) == ["tau", "ratio", "regime"]
        assert payload == {"tau": [1.0, 2.0], "ratio": ["inf", "nan"],
                           "regime": ["AZE", "Marginal"]}
        json.dumps(payload, allow_nan=False)

    def test_bytes_match_the_per_cell_conversion(self):
        header = ["x", "n", "regime", "empty"]
        columns = [edge_values(), np.arange(-3, 4), ["QZE"] * 3 + ["AZE"] * 4, np.array([])]
        columns[1] = list(columns[1])
        dumped = json.dumps(json_columns(header, columns), indent=2)
        assert dumped == json.dumps(per_cell_json(header, columns), indent=2)
