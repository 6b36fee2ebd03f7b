"""The CSV format shared by every data table."""

import math
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from phasegas.cli import csv_text


def _per_value(columns, rows) -> str:
    """The format value by value: str of an int or a str, else 17 significant digits."""

    def fmt(x):
        if isinstance(x, (int, str)):
            return str(x)
        return f"{float(x):.17g}"

    return "".join(line + "\n" for line in [",".join(columns)] + [",".join(map(fmt, r)) for r in rows])


EDGE_VALUES = [
    0,
    -7,
    2**63 + 1,
    True,
    np.int64(-3),
    np.int32(12),
    np.uint64(2**64 - 1),
    "abc",
    "%d%%s",
    "",
    0.0,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    5e-324,
    sys.float_info.min / 3,
    1e300,
    -1e300,
    0.1,
    1 / 3,
    np.float64(-2.5e-17),
    np.float32(0.1),
    np.bool_(True),
]


def test_templates_equal_the_per_value_format_on_edge_values():
    columns = ("a", "b", "c")
    rows = [tuple(EDGE_VALUES[(i + j) % len(EDGE_VALUES)] for j in range(3)) for i in range(len(EDGE_VALUES))]
    rows.append([1.5, "x", 2])  # a list row, and a type sequence seen once
    assert csv_text(columns, rows) == _per_value(columns, rows)
    assert csv_text(("only",), []) == "only\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-(2**70), 2**70), st.text(alphabet="ab%,s", max_size=3)),
            st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers()),
            st.floats(width=32),
        ),
        max_size=20,
    )
)
def test_templates_equal_the_per_value_format(rows):
    assert csv_text(("x", "y", "z"), rows) == _per_value(("x", "y", "z"), rows)
