"""Command-line front end: overlaps | spectrum | compare | perturb | scan.

Output contract: every command writes its data tables into the output
directory in the selected format (csv or json) plus a `<command>_meta.json`
sidecar.  Data files are byte-identical across reruns of the same
configuration -- all floats are printed with 17 significant digits and
anything nondeterministic (timestamps, absolute paths) lives in the sidecar.

Exit codes: 0 all checks passed; 1 a numerical check failed (including
overlap-magnitude range overflows); 2 configuration error; 3 solver failure;
4 unexpected internal error (any other exception; its traceback goes to
stderr).

numpy and the numeric modules are imported only after --threads is applied to
the BLAS/OpenMP environment, so thread caps take effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from ._tables import csv_text
from .errors import ConfigurationError, RangeOverflowError, SolverError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_COMMANDS = ("overlaps", "spectrum", "compare", "perturb", "scan")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasegas",
        description="coherent-expansion toolkit: overlap algebra, mode-operator "
        "spectra, perturbation series, and exact-diagonalization comparisons",
    )
    parser.add_argument(
        "--config",
        help="path to the JSON run configuration (default: $PHASEGAS_CONFIG)",
    )
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    parser.add_argument(
        "--format", choices=["csv", "json"], help="table format (overrides output.format)"
    )
    parser.add_argument(
        "--threads", type=int, help="cap BLAS/OpenMP threads before numerics load"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(_COMMANDS))
    sub.add_parser("overlaps", help="overlap / projection / Gram identity suite")
    sub.add_parser("spectrum", help="assemble one operator variant and emit its spectrum")
    sub.add_parser("compare", help="Fock-oracle vs mean-field vs functional energy table")
    sub.add_parser("perturb", help="epsilon series and direct-vs-series deviation scan")
    sub.add_parser("scan", help="symmetric +-epsilon spectra with conjugation pairing check")
    return parser


def _write_table(out_dir: str, name: str, fmt: str, columns, rows) -> str:
    """Write a table deterministically; rows are sequences aligned with columns."""
    path = os.path.join(out_dir, f"{name}.{fmt}")
    if fmt == "csv":
        text = csv_text(columns, rows)
    else:
        text = json.dumps(
            {"columns": list(columns), "rows": [list(r) for r in rows]},
            indent=1,
        ) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _write_meta(out_dir: str, command: str, cfg_source: str, fmt: str, files) -> None:
    import time

    meta = {
        "command": command,
        "config": os.path.abspath(cfg_source),
        "format": fmt,
        "files": list(files),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "version": _package_version(),
    }
    path = os.path.join(out_dir, f"{command}_meta.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")


def _package_version() -> str:
    from . import __version__

    return __version__


# -- command bodies (numerics imported lazily) ----------------------------------


def _cmd_overlaps(cfg, out_dir: str, fmt: str) -> int:
    import math

    import numpy as np

    from . import coherent
    from .lattice import ModeLattice

    ov = cfg.overlaps
    for key in ("n_fields", "grid_m", "mq", "n_project"):
        if ov[key] < 1:
            raise ConfigurationError(f"config: overlaps.{key} must be >= 1")
    lattice = ModeLattice(
        d=1, box_len=cfg.lattice_cfg["box_len"], m_per_dim=cfg.lattice_cfg["m_per_dim"]
    )
    rng = np.random.default_rng(ov["seed"])
    m = ov["grid_m"]
    fields = [
        coherent.CoherentField(lattice, cfg.r, rng.uniform(-np.pi, np.pi, size=m))
        for _ in range(ov["n_fields"])
    ]
    # a reduced magnitude keeps |G| <= 4 so projection identities sit in the
    # float-exact window of the quadrature
    r_proj = 0.99 * math.sqrt(4.0 / lattice.volume)
    proj_fields = [
        coherent.CoherentField(lattice, r_proj, rng.uniform(-np.pi, np.pi, size=m))
        for _ in range(8)
    ]

    checks = []

    err = 0.0
    for a, b in zip(fields, fields[1:]):
        g_amp = coherent.exponent_g(a, b)
        g_ker = coherent.phase_kernel_exponent(a, b)
        v = coherent.overlap(a, b).value
        ref = np.exp(g_amp)
        err = max(err, abs(v - ref) / abs(ref), abs(np.exp(g_ker) - ref) / abs(ref))
    checks.append(("overlap_vs_kernel", err, 1e-12))

    err = 0.0
    for a, b in zip(fields, fields[1:]):
        v = coherent.overlap(a, b).value
        w = coherent.overlap(b, a).value
        err = max(err, abs(v - np.conj(w)) / abs(v))
    checks.append(("hermitian_symmetry", err, 1e-14))

    err = 0.0
    for a, b in zip(proj_fields, proj_fields[1:]):
        for n in range(ov["n_project"] + 1):
            quad = coherent.number_overlap_quadrature(a, b, n, ov["mq"])
            closed = coherent.number_overlap_closed(a, b, n)
            err = max(err, abs(quad - closed))
    checks.append(("projection_quadrature_vs_closed", err, 1e-12))

    err = 0.0
    a, b = proj_fields[0], proj_fields[1]
    for n_bra in range(4):
        for n_ket in range(4):
            if n_bra == n_ket:
                continue
            err = max(err, abs(coherent.cross_sector_quadrature(a, b, n_bra, n_ket, ov["mq"])))
    checks.append(("cross_sector_orthogonality", err, 1e-12))

    gram = coherent.kernel_gram(proj_fields)
    eig = np.linalg.eigvalsh(gram)
    norm = np.linalg.norm(gram, 2)
    err = max(0.0, -float(eig[0])) / norm
    checks.append(("gram_positivity", err, 1e-10))

    vac = coherent.CoherentField(lattice, 0.0, np.zeros(m))
    checks.append(("vacuum_overlap_is_one", abs(coherent.overlap(vac, vac).value - 1.0), 1e-15))
    zero = coherent.number_overlap_quadrature(vac, vac, 0, ov["mq"])
    checks.append(("projection_n0_is_one", abs(zero - 1.0), 1e-15))

    rows = [
        (name, e, tol, "pass" if e <= tol else "FAIL") for name, e, tol in checks
    ]
    files = [_write_table(out_dir, "overlaps", fmt, ("check", "max_error", "tolerance", "status"), rows)]
    _write_meta(out_dir, "overlaps", cfg.source, fmt, files)
    return sum(1 for r in rows if r[3] == "FAIL")


def _assemble_variant(cfg, lattice, params):
    """The configured variant: one parameter substitution into `operator.assemble`."""
    from dataclasses import replace

    import numpy as np

    from .operator import assemble, scaled_params

    variant = cfg.solver["variant"]
    if variant == "weak":
        # no drift and no potential but u_0, which stays in the offset -ebar_N
        if params.u_k is not None:
            params = replace(params, u_k=np.where(np.arange(params.u_k.size) == 0, params.u_k, 0.0))
        return assemble(params, cfg.basis(lattice)).at(0.0)
    if variant == "scaled":
        params = scaled_params(params)
        return assemble(params, cfg.basis(lattice, gamma=params.gamma)).at(params.epsilon)
    return assemble(params, cfg.basis(lattice)).at(params.epsilon)


def _cmd_spectrum(cfg, out_dir: str, fmt: str) -> int:
    from .spectral import solve

    lattice = cfg.lattice()
    params = cfg.params(lattice)
    op = _assemble_variant(cfg, lattice, params)
    solver = cfg.solver
    spectrum = solve(op, solver["count"], method=solver["method"], residual_tol=solver["residual_tol"])
    rows = [(i, v.real, v.imag, r) for i, (v, r) in enumerate(zip(spectrum.values, spectrum.residuals))]
    files = [_write_table(out_dir, "spectrum", fmt, ("index", "re", "im", "residual"), rows)]
    # only the ground pair is expanded to full-length vectors
    ground = spectrum.pair(0).right_vector
    grows = [(i, c.real, c.imag) for i, c in enumerate(ground)]
    files.append(_write_table(out_dir, "spectrum_ground", fmt, ("index", "re", "im"), grows))
    _write_meta(out_dir, "spectrum", cfg.source, fmt, files)
    return 0


def _cmd_compare(cfg, out_dir: str, fmt: str) -> int:
    from .fock import COMPARISON_COLUMNS, mean_field_comparison

    lattice = cfg.lattice()
    rows = mean_field_comparison(
        lattice,
        cfg.params_cfg["n_particles"],
        cfg.compare["couplings"],
        hbar2_over_2m=cfg.hbar2_over_2m,
        n_max=cfg.compare["n_max"],
    )
    table = [tuple(r[c] for c in COMPARISON_COLUMNS) for r in rows]
    files = [_write_table(out_dir, "compare", fmt, COMPARISON_COLUMNS, table)]
    _write_meta(out_dir, "compare", cfg.source, fmt, files)
    return 0


def _cmd_perturb(cfg, out_dir: str, fmt: str) -> int:
    from .operator import assemble
    from .spectral import perturbation_series, solve

    lattice = cfg.lattice()
    params = cfg.params(lattice)
    affine = assemble(params, cfg.basis(lattice))
    method, tol = cfg.solver["method"], cfg.solver["residual_tol"]
    # the series needs every pair of L0, so it is dense whatever the method
    series = perturbation_series(affine.at(0.0), affine.l1, cfg.perturb["max_order"], residual_tol=tol)
    srows = [(j, c.real, c.imag) for j, c in enumerate(series.orders)]
    files = [_write_table(out_dir, "perturb_series", fmt, ("order", "re", "im"), srows)]

    drows = []
    for eps in cfg.perturb["eps_grid"]:
        direct = complex(solve(affine.at(eps), 1, method=method, residual_tol=tol).values[0])
        model = series.evaluate(eps)
        drows.append((eps, direct.real, direct.imag, model.real, model.imag, abs(direct - model)))
    files.append(
        _write_table(
            out_dir,
            "perturb_scan",
            fmt,
            ("epsilon", "direct_re", "direct_im", "model_re", "model_im", "abs_dev"),
            drows,
        )
    )
    _write_meta(out_dir, "perturb", cfg.source, fmt, files)

    failures = 0
    constant_potential = params.u_k is None or all(
        params.u_at(i) == 0 for i in lattice.nonzero_indices()
    )
    if constant_potential and len(series.orders) > 1 and abs(series.orders[1]) > 1e-12:
        print(
            f"perturb: first-order coefficient {abs(series.orders[1]):.3e} "
            "exceeds 1e-12 for a constant potential",
            file=sys.stderr,
        )
        failures += 1
    return failures


def _cmd_scan(cfg, out_dir: str, fmt: str) -> int:
    import numpy as np

    from .operator import assemble
    from .spectral import multiset_match_error, solve

    lattice = cfg.lattice()
    params = cfg.params(lattice)
    affine = assemble(params, cfg.basis(lattice))
    rows = []
    failures = 0
    tol = cfg.solver["residual_tol"]
    for eps in cfg.scan["eps_grid"]:
        # full spectra are needed for the multiset pairing, so this is dense-only;
        # only the (validated) eigenvalues are read, so no pair is expanded
        plus, minus = affine.at(eps), affine.at(-eps)
        sp = solve(plus, None, residual_tol=tol)
        # a second solve of the same real form would return the same values
        sm = sp if sp.shares_form(minus) else solve(minus, None, residual_tol=tol)
        pair_err = multiset_match_error(np.conj(sp.values), sm.values)
        gp, gm = complex(sp.values[0]), complex(sm.values[0])
        rows.append((eps, gp.real, gp.imag, gm.real, gm.imag, pair_err))
        if pair_err > cfg.scan["pair_tol"]:
            failures += 1
    files = [
        _write_table(
            out_dir,
            "scan",
            fmt,
            ("epsilon", "ground_re_plus", "ground_im_plus", "ground_re_minus", "ground_im_minus", "pair_error"),
            rows,
        )
    ]
    _write_meta(out_dir, "scan", cfg.source, fmt, files)
    if failures:
        print(
            f"scan: {failures} epsilon value(s) violate conjugation pairing "
            f"beyond {cfg.scan['pair_tol']:.1e}",
            file=sys.stderr,
        )
    return failures


_HANDLERS = {
    "overlaps": _cmd_overlaps,
    "spectrum": _cmd_spectrum,
    "compare": _cmd_compare,
    "perturb": _cmd_perturb,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("configuration error: --threads must be >= 1", file=sys.stderr)
            return 2
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    cfg_path = args.config or os.environ.get("PHASEGAS_CONFIG")
    try:
        if not cfg_path:
            raise ConfigurationError(
                "no configuration given: pass --config PATH or set PHASEGAS_CONFIG"
            )
        from . import config as config_mod

        cfg = config_mod.load_config(cfg_path)
        out_dir = args.out or cfg.output["dir"]
        fmt = args.format or cfg.output["format"]
        os.makedirs(out_dir, exist_ok=True)
        failures = _HANDLERS[args.command](cfg, out_dir, fmt)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RangeOverflowError as exc:
        print(f"numerical range failure: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except Exception:
        # a defect, not a verdict on the run: keep it apart from exit code 1
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
