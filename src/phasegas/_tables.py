"""The one text format of every data table: CSV with 17-significant-digit floats.

Imports nothing numeric, so the command-line front end can load it before
--threads reaches the BLAS/OpenMP environment.
"""

from __future__ import annotations


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def csv_text(columns, rows) -> str:
    """A header line of `columns`, then one line per row; floats round-trip exactly."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"
