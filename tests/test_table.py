import json
import math

import numpy as np

from qbmzeno._table import csv_text, json_columns


class TestCsvText:
    def test_zero_rows_give_the_header_alone(self):
        assert csv_text(["t", "delta"], [np.array([]), np.array([])]) == "t,delta\n"
        assert csv_text(["tau", "regime"], [np.array([]), []]) == "tau,regime\n"

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


class TestJsonColumns:
    def test_columns_in_header_order_with_non_finite_as_strings(self):
        payload = json_columns(["tau", "ratio", "regime"],
                               [np.array([1.0, 2.0]), np.array([math.inf, math.nan]),
                                ["AZE", "Marginal"]])
        assert list(payload) == ["tau", "ratio", "regime"]
        assert payload == {"tau": [1.0, 2.0], "ratio": ["inf", "nan"],
                           "regime": ["AZE", "Marginal"]}
        json.dumps(payload, allow_nan=False)
