"""Correctness gate: CLI data tables against committed references and invariants.

Tolerances are the program's own, read from the op's config: ``residual_tol``
(scaled by max(1, |reference|)) for every eigenvalue, energy or series value,
and ``pair_tol`` for the +-epsilon conjugation pairing.  Invariants checked on
top of the references: the ground eigenvalue is pinned at -ebar_N for a
constant potential, and spectra at -epsilon are the conjugates of those at
+epsilon.  Data files must be byte-identical between repeated calls; the
``*_meta.json`` sidecars (timestamps, absolute paths) are excluded.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    residual_tol: float
    pair_tol: float
    ebar: float  # sector constant N (u_0 + gamma N); the ground eigenvalue is -ebar

    @classmethod
    def from_config(cls, cfg: dict) -> "Tolerances":
        params = cfg.get("params", {})
        n = params.get("n_particles", 2)
        gamma = params.get("gamma", 0.5)
        u0 = params.get("u_zero", 0.0)
        return cls(
            residual_tol=cfg.get("solver", {}).get("residual_tol", 1e-9),
            pair_tol=cfg.get("scan", {}).get("pair_tol", 1e-9),
            ebar=n * (u0 + gamma * n),
        )


def _cell(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def read_table(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    return {
        "columns": lines[0].split(","),
        "rows": [[_cell(c) for c in line.split(",")] for line in lines[1:]],
    }


def data_files(out_dir: str) -> list:
    """The csv data tables; the json meta sidecars are not data files."""
    return sorted(name for name in os.listdir(out_dir) if name.endswith(".csv"))


def read_outputs(out_dir: str) -> dict:
    """{table name: {"columns", "rows"}} for every csv data file in out_dir."""
    return {name[:-4]: read_table(os.path.join(out_dir, name)) for name in data_files(out_dir)}


def digests(out_dir: str) -> dict:
    out = {}
    for name in data_files(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def check_bytes(first: dict, now: dict) -> list:
    """Problems if a repeated call wrote different data-file bytes."""
    problems = []
    for name in sorted(set(first) | set(now)):
        if first.get(name) != now.get(name):
            problems.append(f"{name}: data bytes differ from the first call of this run")
    return problems


def multiset_error(a, b) -> float:
    """Largest distance in the optimal one-to-one matching of two complex lists."""
    from scipy.optimize import linear_sum_assignment

    if len(a) != len(b):
        return float("inf")
    if not a:
        return 0.0
    cost = [[abs(x - y) for y in b] for x in a]
    rows, cols = linear_sum_assignment(cost)
    return max(cost[r][c] for r, c in zip(rows, cols))


def _close(x: float | complex, ref: float | complex, tol: float) -> bool:
    return abs(x - ref) <= tol * max(1.0, abs(ref))


def _column(table: dict, name: str) -> list:
    i = table["columns"].index(name)
    return [row[i] for row in table["rows"]]


def _complex_column(table: dict, re: str, im: str) -> list:
    return [complex(a, b) for a, b in zip(_column(table, re), _column(table, im))]


def spectrum_values(tables: dict) -> list:
    return _complex_column(tables["spectrum"], "re", "im")


def _check_spectrum(tables, ref, tol, problems):
    eigs = spectrum_values(tables)
    ref_eigs = spectrum_values(ref)
    scale = max([1.0] + [abs(z) for z in ref_eigs])
    err = multiset_error(eigs, ref_eigs)
    if err > tol.residual_tol * scale:
        problems.append(
            f"spectrum: {len(eigs)} eigenvalues differ from the {len(ref_eigs)} "
            f"reference values by {err:.3e}"
        )
    worst = max(_column(tables["spectrum"], "residual"), default=0.0)
    if worst > tol.residual_tol:
        problems.append(f"spectrum: residual {worst:.3e} above residual_tol")
    if eigs and not _close(eigs[0], -tol.ebar, tol.residual_tol):
        problems.append(f"spectrum: ground {eigs[0]} not pinned at -ebar_N = {-tol.ebar}")


def _check_rows(name, table, ref, tol, problems, skip=()):
    if table["columns"] != ref["columns"] or len(table["rows"]) != len(ref["rows"]):
        problems.append(f"{name}: table shape differs from the reference")
        return
    for row, ref_row in zip(table["rows"], ref["rows"]):
        for col, x, r in zip(table["columns"], row, ref_row):
            if col in skip:
                continue
            if isinstance(r, str) or isinstance(x, str):
                ok = x == r
            else:
                ok = _close(x, r, tol)
            if not ok:
                problems.append(f"{name}: {col} = {x!r}, reference {r!r}")


def _check_scan(tables, ref, tol, problems):
    scan = tables["scan"]
    _check_rows("scan", scan, ref["scan"], tol.residual_tol, problems, skip=("pair_error",))
    for err in _column(scan, "pair_error"):
        if err > tol.pair_tol:
            problems.append(f"scan: pair_error {err:.3e} above pair_tol")
    plus = _complex_column(scan, "ground_re_plus", "ground_im_plus")
    minus = _complex_column(scan, "ground_re_minus", "ground_im_minus")
    for gp, gm in zip(plus, minus):
        if abs(gm - gp.conjugate()) > tol.pair_tol:
            problems.append(f"scan: ground at -eps {gm} is not conj of {gp}")
        for g in (gp, gm):
            if not _close(g, -tol.ebar, tol.residual_tol):
                problems.append(f"scan: ground {g} not pinned at -ebar_N = {-tol.ebar}")


def _check_perturb(tables, ref, tol, problems):
    _check_rows("perturb_series", tables["perturb_series"], ref["perturb_series"], tol.residual_tol, problems)
    _check_rows("perturb_scan", tables["perturb_scan"], ref["perturb_scan"], tol.residual_tol, problems)
    for g in _complex_column(tables["perturb_scan"], "direct_re", "direct_im"):
        if not _close(g, -tol.ebar, tol.residual_tol):
            problems.append(f"perturb: direct ground {g} not pinned at -ebar_N = {-tol.ebar}")


def _check_compare(tables, ref, tol, problems):
    _check_rows("compare", tables["compare"], ref["compare"], tol.residual_tol, problems)


def _check_overlaps(tables, ref, tol, problems):
    table = tables["overlaps"]
    for name, err, limit, status in table["rows"]:
        if status != "pass" or not err <= limit:
            problems.append(f"overlaps: {name} error {err!r} against tolerance {limit!r}")


_CHECKS = {
    "spectrum": (("spectrum", "spectrum_ground"), _check_spectrum),
    "scan": (("scan",), _check_scan),
    "perturb": (("perturb_series", "perturb_scan"), _check_perturb),
    "compare": (("compare",), _check_compare),
    "overlaps": (("overlaps",), _check_overlaps),
}


def check_outputs(command: str, tables: dict, ref: dict | None, tol: Tolerances) -> list:
    """Problems with one call's tables; an empty list means the call passed."""
    names, check = _CHECKS[command]
    missing = [n for n in names if n not in tables]
    if missing:
        return [f"{command}: missing table(s) {', '.join(missing)}"]
    if ref is None and command != "overlaps":
        return [f"{command}: no committed reference for this call"]
    problems: list = []
    check(tables, ref, tol, problems)
    return problems


def check_mirror(plus: dict, minus: dict, tol: Tolerances) -> list:
    """Problems if the spectrum at -epsilon is not the conjugate of the one at +epsilon."""
    err = multiset_error([z.conjugate() for z in spectrum_values(plus)], spectrum_values(minus))
    if err > tol.pair_tol:
        return [f"spectrum: +-epsilon conjugation pairing error {err:.3e} above pair_tol"]
    return []
