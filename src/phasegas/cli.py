"""Command-line front end: overlaps | spectrum | compare | perturb | scan.

Run contract: a command returns its tables (name, columns and rows, all
defined in its body here) and failure count, and `main` alone writes output.
It creates the output directory before the command runs and, once the
command has returned, writes each table in the selected format (csv or json),
then a `<command>_meta.json` sidecar listing them, so a command that raises
writes no data file.  Every file goes to a temporary file first and all are
moved into place, the sidecar last, only once all are written, so a failed
write leaves the output directory as it was.  Only after that does it remove
the other-format twin of each table written (`compare.csv` beside a new
`compare.json`), and only a twin that the earlier sidecar of the same command
lists, so it never removes a file it did not write.  Data files are byte-identical
across reruns of the same configuration -- CSV floats carry 17 significant
digits, JSON floats Python's shortest round-trip repr -- and anything
nondeterministic (timestamps, absolute paths) lives in the sidecar.

Exit codes: 0 all checks passed; 1 a numerical check failed (including
overlap-magnitude range overflows); 2 configuration error, an output
directory that cannot be created or written included; 3 solver failure;
4 unexpected internal error (any other exception; its traceback goes to
stderr).

numpy and the numeric modules are imported only after --threads is applied to
the BLAS/OpenMP environment, so thread caps take effect.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import sys
import traceback

from .errors import ConfigurationError, RangeOverflowError, SolverError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
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
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


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


def _table_text(fmt: str, columns, rows) -> str:
    """A table in the selected format; rows are sequences aligned with columns."""
    if fmt == "csv":
        return csv_text(columns, rows)
    return json.dumps({"columns": list(columns), "rows": [list(r) for r in rows]}, indent=1) + "\n"


def _meta_text(command: str, cfg_source: str, fmt: str, files) -> str:
    import time

    from . import __version__

    meta = {
        "command": command,
        "config": os.path.abspath(cfg_source),
        "format": fmt,
        "files": list(files),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "version": __version__,
    }
    return json.dumps(meta, indent=1) + "\n"


def _write_all(files) -> None:
    """Write every (path, text) of `files`, or leave the directory as it was.

    A path that is a directory is refused before anything is written.  Each
    text goes to a new temporary file beside its path, and the temporaries
    are moved into place, in order, only once all are written.  On an
    OSError every temporary left is removed and the error is raised.
    """
    for path, _ in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    staged = []
    try:
        for path, text in files:
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "x", encoding="ascii") as fh:
                staged.append(tmp)
                fh.write(text)
        for tmp, (path, _) in zip(staged, files):
            os.replace(tmp, path)
    except OSError:
        for tmp in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _listed_names(meta_path) -> set:
    """Basenames an earlier sidecar lists; none if it is missing, unreadable or malformed."""
    if not os.path.isfile(meta_path):
        return set()
    try:
        with open(meta_path, encoding="ascii") as fh:
            files = json.load(fh)["files"]
    except (OSError, ValueError, LookupError, TypeError):
        return set()
    if not isinstance(files, list):
        return set()
    return {os.path.basename(f) for f in files if isinstance(f, str)}


# -- command bodies (numerics imported lazily) ----------------------------------


def _worst(*errors):
    """The largest error, or NaN if any is NaN: max() keeps its first argument against a NaN."""
    return math.nan if any(e != e for e in errors) else max(errors)


def _cmd_overlaps(cfg):
    import numpy as np

    from . import coherent
    from .lattice import STATE_LIMIT

    ov = cfg.overlaps
    # a seed below 0 is refused by numpy, and one field pairs with nothing
    for key, least in (("seed", 0), ("n_fields", 2), ("grid_m", 1), ("mq", 1), ("n_project", 1)):
        if ov[key] < least:
            raise ConfigurationError(f"config: overlaps.{key} must be >= {least}")
    lattice = cfg.lattice()
    # the lattice guard keeps d small enough for this power whenever m_per_dim > 1
    if ov["grid_m"] ** lattice.d > STATE_LIMIT:
        raise ConfigurationError(
            f"config: a phase grid of overlaps.grid_m ** d = {ov['grid_m']}^{lattice.d} points "
            f"exceeds the {STATE_LIMIT} state guard"
        )
    rng = np.random.default_rng(ov["seed"])
    grid = (ov["grid_m"],) * lattice.d
    fields = [
        coherent.CoherentField(lattice, cfg.r, rng.uniform(-np.pi, np.pi, size=grid))
        for _ in range(ov["n_fields"])
    ]
    # a reduced magnitude keeps |G| <= 4 so projection identities sit in the
    # float-exact window of the quadrature
    r_proj = 0.99 * math.sqrt(4.0 / lattice.volume)
    proj_fields = [
        coherent.CoherentField(lattice, r_proj, rng.uniform(-np.pi, np.pi, size=grid))
        for _ in range(8)
    ]

    checks = []

    err = 0.0
    for a, b in zip(fields, fields[1:]):
        g_amp = coherent.exponent_g(a, b)
        g_ker = coherent.phase_kernel_exponent(a, b)
        v = coherent.overlap(a, b).value
        ref = np.exp(g_amp)
        err = _worst(err, abs(v - ref) / abs(ref), abs(np.exp(g_ker) - ref) / abs(ref))
    checks.append(("overlap_vs_kernel", err, 1e-12))

    err = 0.0
    for a, b in zip(fields, fields[1:]):
        v = coherent.overlap(a, b).value
        w = coherent.overlap(b, a).value
        err = _worst(err, abs(v - np.conj(w)) / abs(v))
    checks.append(("hermitian_symmetry", err, 1e-14))

    err = 0.0
    for a, b in zip(proj_fields, proj_fields[1:]):
        for n in range(ov["n_project"] + 1):
            quad = coherent.number_overlap_quadrature(a, b, n, ov["mq"])
            closed = coherent.number_overlap_closed(a, b, n)
            err = _worst(err, abs(quad - closed))
    checks.append(("projection_quadrature_vs_closed", err, 1e-12))

    err = 0.0
    a, b = proj_fields[0], proj_fields[1]
    for n_bra in range(4):
        for n_ket in range(4):
            if n_bra == n_ket:
                continue
            err = _worst(err, abs(coherent.cross_sector_quadrature(a, b, n_bra, n_ket, ov["mq"])))
    checks.append(("cross_sector_orthogonality", err, 1e-12))

    gram = coherent.kernel_gram(proj_fields)
    eig = np.linalg.eigvalsh(gram)
    norm = np.linalg.norm(gram, 2)
    err = _worst(0.0, -float(eig[0])) / norm
    checks.append(("gram_positivity", err, 1e-10))

    vac = coherent.CoherentField(lattice, 0.0, np.zeros(grid))
    checks.append(("vacuum_overlap_is_one", abs(coherent.overlap(vac, vac).value - 1.0), 1e-15))
    zero = coherent.number_overlap_quadrature(vac, vac, 0, ov["mq"])
    checks.append(("projection_n0_is_one", abs(zero - 1.0), 1e-15))

    rows = [
        (name, e, tol, "pass" if e <= tol else "FAIL") for name, e, tol in checks
    ]
    columns = ("check", "max_error", "tolerance", "status")
    return [("overlaps", columns, rows)], sum(1 for r in rows if r[3] == "FAIL")


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


def _cmd_spectrum(cfg):
    from .spectral import solve

    lattice = cfg.lattice()
    params = cfg.params(lattice)
    op = _assemble_variant(cfg, lattice, params)
    solver = cfg.solver
    spectrum = solve(op, solver["count"], method=solver["method"], residual_tol=solver["residual_tol"])
    # only the ground pair is expanded to full-length vectors
    ground = spectrum.pair(0).right_vector
    rows = [(i, v.real, v.imag, r) for i, (v, r) in enumerate(zip(spectrum.values, spectrum.residuals))]
    grows = [(i, c.real, c.imag) for i, c in enumerate(ground)]
    return [
        ("spectrum", ("index", "re", "im", "residual"), rows),
        ("spectrum_ground", ("index", "re", "im"), grows),
    ], 0


def _cmd_compare(cfg):
    from .fock import mean_field_comparison

    lattice = cfg.lattice()
    rows = mean_field_comparison(
        lattice,
        cfg.params_cfg["n_particles"],
        cfg.compare["couplings"],
        hbar2_over_2m=cfg.hbar2_over_2m,
        n_max=cfg.compare["n_max"],
    )
    columns = (
        "coupling",
        "oracle_epp",
        "oracle_normal_epp",
        "condensate_epp",
        "prediction_epp",
        "functional_epp",
        "abs_dev",
        "rel_dev",
    )
    return [("compare", columns, [tuple(r[c] for c in columns) for r in rows])], 0


def _cmd_perturb(cfg):
    from .operator import assemble
    from .spectral import perturbation_series, solve

    lattice = cfg.lattice()
    params = cfg.params(lattice)
    affine = assemble(params, cfg.basis(lattice))
    method, tol = cfg.solver["method"], cfg.solver["residual_tol"]
    # the series needs every pair of L0, so it is dense whatever the method
    series = perturbation_series(affine.at(0.0), affine.l1, cfg.perturb["max_order"], residual_tol=tol)

    drows = []
    for eps in cfg.perturb["eps_grid"]:
        direct = complex(solve(affine.at(eps), 1, method=method, residual_tol=tol).values[0])
        model = series.evaluate(eps)
        drows.append((eps, direct.real, direct.imag, model.real, model.imag, abs(direct - model)))

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
    srows = [(j, c.real, c.imag) for j, c in enumerate(series.orders)]
    return [
        ("perturb_series", ("order", "re", "im"), srows),
        ("perturb_scan", ("epsilon", "direct_re", "direct_im", "model_re", "model_im", "abs_dev"), drows),
    ], failures


def _cmd_scan(cfg):
    import numpy as np

    from .operator import assemble, conjugate_params
    from .spectral import multiset_match_error, solve

    lattice = cfg.lattice()
    params = cfg.params(lattice)
    basis = cfg.basis(lattice)
    affine = assemble(params, basis)
    # conj L(eps, u) = L(-eps, -u), and without a potential beyond u_0 -u is u
    mirror = affine
    if params.u_k is not None and params.u_k[1:].any():
        mirror = assemble(conjugate_params(params), basis)
    rows = []
    failures = 0
    tol = cfg.solver["residual_tol"]
    for eps in cfg.scan["eps_grid"]:
        # full spectra are needed for the multiset pairing, so this is dense-only;
        # only the (validated) eigenvalues are read, so no pair is expanded
        plus, minus = affine.at(eps), mirror.at(-eps)
        sp = solve(plus, None, residual_tol=tol)
        # a second solve of the same real form would return the same values
        sm = sp if sp.shares_form(minus) else solve(minus, None, residual_tol=tol)
        pair_err = multiset_match_error(np.conj(sp.values), sm.values)
        gp, gm = complex(sp.values[0]), complex(sm.values[0])
        rows.append((eps, gp.real, gp.imag, gm.real, gm.imag, pair_err))
        if pair_err > cfg.scan["pair_tol"]:
            failures += 1
    if failures:
        print(
            f"scan: {failures} epsilon value(s) violate conjugation pairing "
            f"beyond {cfg.scan['pair_tol']:.1e}",
            file=sys.stderr,
        )
    columns = ("epsilon", "ground_re_plus", "ground_im_plus", "ground_re_minus", "ground_im_minus", "pair_error")
    return [("scan", columns, rows)], failures


# name -> (body, help); the body returns ([(table name, columns, rows)] in file
# order, failure count)
_COMMANDS = {
    "overlaps": (_cmd_overlaps, "overlap / projection / Gram identity suite"),
    "spectrum": (_cmd_spectrum, "assemble one operator variant and emit its spectrum"),
    "compare": (_cmd_compare, "Fock-oracle vs mean-field vs functional energy table"),
    "perturb": (_cmd_perturb, "epsilon series and direct-vs-series deviation scan"),
    "scan": (_cmd_scan, "symmetric +-epsilon spectra with conjugation pairing check"),
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
        # an unusable output directory is refused before the command runs
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create output directory: {exc}") from None
        tables, failures = _COMMANDS[args.command][0](cfg)
        files = [
            (os.path.join(out_dir, f"{name}.{fmt}"), _table_text(fmt, columns, rows))
            for name, columns, rows in tables
        ]
        meta = _meta_text(args.command, cfg.source, fmt, [path for path, _ in files])
        meta_path = os.path.join(out_dir, f"{args.command}_meta.json")
        earlier = _listed_names(meta_path)
        try:
            # the sidecar goes last, so it is never in place before a table it lists
            _write_all(files + [(meta_path, meta)])
        except OSError as exc:
            raise ConfigurationError(f"cannot write to the output directory: {exc}") from None
        # a table the earlier run wrote in the other format is stale now
        other = "json" if fmt == "csv" else "csv"
        for name, _, _ in tables:
            if f"{name}.{other}" in earlier:
                with contextlib.suppress(OSError):
                    os.remove(os.path.join(out_dir, f"{name}.{other}"))
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
