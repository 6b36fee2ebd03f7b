"""The one text format of every data table: CSV with 17-significant-digit floats.

Imports nothing numeric, so the command-line front end can load it before
--threads reaches the BLAS/OpenMP environment.
"""

from __future__ import annotations


def _template(row) -> str:
    """The %-template of a row: `str` of an int or a str, 17 significant digits of anything else."""
    return ",".join("%s" if isinstance(v, (int, str)) else "%.17g" for v in row)


def csv_text(columns, rows) -> str:
    """A header line of `columns`, then one line per row; floats round-trip exactly.

    Each row is formatted by one %-template, built once per sequence of value
    types.
    """
    templates = {}
    lines = [",".join(columns)]
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = _template(row)
        lines.append(template % row)
    return "\n".join(lines) + "\n"
