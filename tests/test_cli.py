"""Command-line driver: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasegas
import phasegas.cli as cli
from phasegas.cli import main


def _write_config(tmp_path, name="run.json", **overrides):
    data = {
        "schema_version": 1,
        "lattice": {"m_per_dim": 5},
        "params": {"gamma": 0.5, "n_particles": 2, "epsilon": 0.2},
        "basis": {"n_max": 2},
        "overlaps": {"n_fields": 12, "grid_m": 10, "mq": 32, "n_project": 4},
        "scan": {"eps_grid": [0.1, 0.2]},
        "perturb": {"max_order": 2, "eps_grid": [0.05, 0.1]},
        "compare": {"couplings": [0.5, 0.05], "n_max": 2},
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            data.setdefault(key, {}).update(val)
        else:
            data[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_spectrum_runs_and_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1), "spectrum"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "spectrum"]) == 0
    for name in ("spectrum.csv", "spectrum_ground.csv"):
        d1 = (out1 / name).read_bytes()
        d2 = (out2 / name).read_bytes()
        assert d1 == d2
    meta = json.loads((out1 / "spectrum_meta.json").read_text())
    assert meta["command"] == "spectrum"
    assert meta["format"] == "csv"
    header = (out1 / "spectrum.csv").read_text().splitlines()[0]
    assert header == "index,re,im,residual"


def test_spectrum_json_format(tmp_path):
    cfg = _write_config(tmp_path, output={"format": "json"})
    out = tmp_path / "j"
    assert main(["--config", cfg, "--out", str(out), "spectrum"]) == 0
    data = json.loads((out / "spectrum.json").read_text())
    assert data["columns"] == ["index", "re", "im", "residual"]
    ground = data["rows"][0]
    assert ground[1] == -2.0  # -ebar for gamma = 0.5, N = 2


def test_scaled_variant_spectrum_builds_its_basis_at_the_effective_gamma(tmp_path):
    # kappa^(1 - 2p) != 1 moves the diffusion coefficient, so the basis must be
    # variance-matched to gamma * kappa^(1 - 2p), not to params.gamma
    kappa, p_exp = 0.04, 0.3
    cfg = _write_config(
        tmp_path,
        params={"kappa": kappa, "p_exp": p_exp},
        solver={"variant": "scaled", "count": 4},
    )
    out = tmp_path / "sc"
    assert main(["--config", cfg, "--out", str(out), "spectrum"]) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    gamma_eff = 0.5 * kappa ** (1.0 - 2.0 * p_exp)
    ground = float(rows[0].split(",")[1])
    assert abs(ground - (-2 * gamma_eff * 2)) <= 1e-12  # -ebar_N = -N gamma_eff N


def test_overlaps_suite_passes(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "ov"
    assert main(["--config", cfg, "--out", str(out), "overlaps"]) == 0
    lines = (out / "overlaps.csv").read_text().strip().splitlines()
    assert lines[0] == "check,max_error,tolerance,status"
    assert len(lines) > 5
    assert all(line.endswith("pass") for line in lines[1:])


def test_scan_checks_conjugation(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sc"
    assert main(["--config", cfg, "--out", str(out), "scan"]) == 0
    lines = (out / "scan.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 epsilon rows
    for line in lines[1:]:
        # sign flip conjugates the matrix entrywise, and L(eps) and L(-eps)
        # share one real form, so the paired spectra are the same array
        assert float(line.split(",")[5]) == 0.0


_DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_scan_solves_each_shared_real_form_once(tmp_path, monkeypatch):
    import phasegas.spectral as spectral
    from phasegas.config import load_config
    from phasegas.spectral import connected_blocks

    solves = _count_calls(monkeypatch, spectral, "solve")
    eigs = _count_calls(monkeypatch, spectral.sla, "eig")
    eighs = _count_calls(monkeypatch, spectral.sla, "eigh")
    assert main(["--config", str(_DEMO_CONFIG), "--out", str(tmp_path), "scan"]) == 0
    eps_grid = load_config(str(_DEMO_CONFIG)).scan["eps_grid"]
    # one solve per epsilon, of L(+eps), and one LAPACK call (eig or eigh) per block of it
    assert len(solves) == len(eps_grid)
    blocks = sum(sum(b.size > 1 for b in connected_blocks(op.matrix)) for op in solves)
    assert len(eigs) + len(eighs) == blocks
    for line in (tmp_path / "scan.csv").read_text().strip().splitlines()[1:]:
        fields = line.split(",")
        assert fields[1:3] == fields[3:5] and float(fields[5]) == 0.0


def test_scan_forms_each_real_form_once(tmp_path, monkeypatch):
    import phasegas.spectral as spectral

    forms = _count_calls(monkeypatch, spectral, "_real_form")
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "sc"), "scan"]) == 0
    # L(+eps) once in its solve, L(-eps) once in `Spectrum.shares_form`
    assert len(forms) == 2 * 2


def test_cli_imports_no_private_spectral_name():
    import ast

    tree = ast.parse(Path(cli.__file__).read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "spectral"
        for alias in node.names
    ]
    assert names and not [name for name in names if name.startswith("_")]


def test_scan_without_a_shared_real_form_solves_both_and_fails(tmp_path, monkeypatch, capsys):
    from types import SimpleNamespace

    import phasegas.operator as operator
    import phasegas.spectral as spectral

    assemble = operator.assemble

    def broken(params, basis):
        affine = assemble(params, basis)
        # L(-eps) no longer conjugates L(eps)
        return SimpleNamespace(at=lambda eps: affine.at(1.01 * eps if eps < 0 else eps))

    monkeypatch.setattr(operator, "assemble", broken)
    solves = _count_calls(monkeypatch, spectral, "solve")
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "sc"), "scan"]) == 1
    assert len(solves) == 4  # both signs of both epsilon values
    lines = (tmp_path / "sc" / "scan.csv").read_text().strip().splitlines()
    assert all(float(line.split(",")[5]) > 1e-9 for line in lines[1:])
    assert "violate conjugation pairing" in capsys.readouterr().err


def test_failed_numerical_check_is_exit_one(tmp_path):
    # a two-point phase quadrature cannot resolve the particle sectors, so
    # the projection identity check fails and the run reports exit code 1
    cfg = _write_config(tmp_path, name="coarse.json", overlaps={"mq": 2})
    out = tmp_path / "ov1"
    assert main(["--config", cfg, "--out", str(out), "overlaps"]) == 1
    lines = (out / "overlaps.csv").read_text().strip().splitlines()
    assert any(line.endswith("FAIL") for line in lines[1:])


def test_unexpected_exception_is_exit_four(tmp_path, monkeypatch, capsys):
    def broken(cfg, out_dir, fmt):
        raise RuntimeError("handler defect")

    monkeypatch.setitem(cli._HANDLERS, "spectrum", broken)
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "x"), "spectrum"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: handler defect" in err


def test_perturb_outputs_series_and_scan(tmp_path):
    cfg = _write_config(tmp_path, basis={"n_max": 3})
    out = tmp_path / "pt"
    assert main(["--config", cfg, "--out", str(out), "perturb"]) == 0
    series = (out / "perturb_series.csv").read_text().strip().splitlines()
    assert series[0] == "order,re,im"
    assert len(series) == 4  # orders 0..2
    assert float(series[2].split(",")[1]) == 0.0  # first order vanishes
    scan = (out / "perturb_scan.csv").read_text().strip().splitlines()
    assert scan[0] == "epsilon,direct_re,direct_im,model_re,model_im,abs_dev"
    for line in scan[1:]:
        assert float(line.split(",")[5]) <= 1e-12  # pinned eigenvalue


def test_perturb_degenerate_gap_exits_three(tmp_path):
    # a near-continuum box length collapses the ladder gap below the
    # degeneracy guard, which must abort rather than emit bad coefficients
    cfg = _write_config(
        tmp_path, name="deg.json", lattice={"m_per_dim": 5, "box_len": 6.283185307179586e5}
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "dg"), "perturb"]) == 3


def test_perturb_honours_the_solver_residual_tolerance(tmp_path, capsys):
    # with a potential L0 has multi-state blocks, whose residuals are not exactly 0
    cfg = _write_config(
        tmp_path,
        name="tight.json",
        params={"u_k": [0.0, 0.3, 0.3, -0.2, -0.2]},
        solver={"residual_tol": 1e-300},
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "t"), "perturb"]) == 3
    assert "exceeds tolerance 1.0e-300" in capsys.readouterr().err


def test_perturb_with_arpack_matches_the_dense_run(tmp_path, monkeypatch):
    import phasegas.spectral as spectral

    data = json.loads(_DEMO_CONFIG.read_text())
    dense = tmp_path / "dense"
    assert main(["--config", str(_DEMO_CONFIG), "--out", str(dense), "perturb"]) == 0
    data["solver"] = {"method": "arpack"}
    cfg = tmp_path / "arpack.json"
    cfg.write_text(json.dumps(data))
    eigs = _count_calls(monkeypatch, spectral.spla, "eigs")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "arpack"), "perturb"]) == 0
    assert eigs
    for name in ("perturb_series.csv", "perturb_scan.csv"):
        assert (tmp_path / "arpack" / name).read_bytes() == (dense / name).read_bytes()


def test_box_whose_k_squared_underflows_is_exit_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, name="huge.json", lattice={"box_len": 1e308})
    assert main(["--config", cfg, "--out", str(tmp_path / "h"), "spectrum"]) == 2
    assert "must be finite and positive" in capsys.readouterr().err


def test_compare_table(tmp_path):
    cfg = _write_config(tmp_path, lattice={"m_per_dim": 3}, params={"n_particles": 3})
    out = tmp_path / "cmp"
    assert main(["--config", cfg, "--out", str(out), "compare"]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert lines[0].startswith("coupling,oracle_epp,")
    assert len(lines) == 3


def test_compare_caps_the_largest_block_not_the_total_dimension(tmp_path, capsys):
    # at d = 2, m = 3 the functional side's weak operator has dimension
    # 6561, above the dense cap, but every one of its blocks is 1x1
    path = tmp_path / "d2.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "lattice": {"d": 2, "m_per_dim": 3},
                "params": {"gamma": 0.5, "n_particles": 2},
                "compare": {"couplings": [1.0]},
            }
        )
    )
    assert main(["--config", str(path), "--out", str(tmp_path / "o"), "compare"]) == 0, (
        capsys.readouterr().err
    )
    lines = (tmp_path / "o" / "compare.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_missing_config_is_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PHASEGAS_CONFIG", raising=False)
    assert main(["spectrum"]) == 2
    assert "configuration" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "none.json"), "spectrum"]) == 2


def test_invalid_config_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "solver": {"method": "qr"}}))
    assert main(["--config", str(bad), "spectrum"]) == 2
    assert "solver.method" in capsys.readouterr().err


def test_config_from_environment(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    monkeypatch.setenv("PHASEGAS_CONFIG", cfg)
    out = tmp_path / "env"
    assert main(["--out", str(out), "spectrum"]) == 0
    assert (out / "spectrum.csv").exists()


def test_threads_flag_sets_environment(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "t"), "--threads", "2", "spectrum"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert main(["--config", cfg, "--threads", "0", "spectrum"]) == 2


def test_cli_commands_do_not_load_scipy_optimize(tmp_path):
    # scipy's assignment solver costs a third of a second of start-up; the
    # demo spectra pair without it, so no subcommand may import it
    config = Path(__file__).resolve().parents[1] / "demos" / "config_example.json"
    script = (
        "import sys\n"
        "from phasegas.cli import main\n"
        "for command in ('spectrum', 'compare', 'perturb', 'scan'):\n"
        f"    assert main(['--config', {str(config)!r}, '--out', {str(tmp_path)!r}, command]) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(phasegas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_weak_variant_keeps_u0_and_drops_the_rest_of_the_potential(tmp_path):
    u_k = [0.0, 0.3, 0.3, -0.2, -0.2]
    cfg = _write_config(
        tmp_path, params={"u_zero": -1.5, "u_k": u_k}, solver={"variant": "weak"}
    )
    out = tmp_path / "weak"
    assert main(["--config", cfg, "--out", str(out), "spectrum"]) == 0
    rows = [line.split(",") for line in (out / "spectrum.csv").read_text().splitlines()[1:]]
    # -ebar_N = -N (u_0 + gamma N), and with no drift and no u_{k != 0} the
    # operator is the diagonal ladder, so every eigenvalue is real
    assert float(rows[0][1]) == -2 * (-1.5 + 0.5 * 2)
    assert all(float(row[2]) == 0.0 for row in rows)


def test_scan_and_perturb_assemble_once_and_compare_never_builds_l1(tmp_path, monkeypatch):
    import phasegas.operator as operator
    from phasegas.config import load_config

    cfg = load_config(str(_DEMO_CONFIG))
    for command, expected in (
        ("scan", 2),
        ("perturb", 2),
        ("compare", len(cfg.compare["couplings"])),
    ):
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, operator, "_materialize")
            assert main(["--config", str(_DEMO_CONFIG), "--out", str(tmp_path), command]) == 0
        # L0 and L1 once per run, whatever the length of the epsilon grid;
        # compare reads only L(0), once per coupling
        assert len(calls) == expected, command


def test_table_functions_equal_the_cli_csv_files(tmp_path):
    from phasegas.fock import COMPARISON_COLUMNS, comparison_table, mean_field_comparison
    from phasegas.hermite import HermiteBasis
    from phasegas.lattice import ModeLattice
    from phasegas.operator import assemble
    from phasegas.params import ModelParams
    from phasegas.spectral import eigen_spectrum, perturbation_series, series_table, spectrum_table

    lat = ModeLattice(d=1, m_per_dim=5)
    affine = assemble(ModelParams(gamma=0.5, n_particles=2), HermiteBasis(lat, 0.5, 2))
    pairs = eigen_spectrum(affine.at(0.3))
    series = perturbation_series(affine.at(0.0), affine.l1, 3)
    comparison = mean_field_comparison(lat, 2, [0.5, 0.05])
    cases = [
        (
            spectrum_table(pairs),
            ("index", "re", "im", "residual"),
            [(i, p.eigenvalue.real, p.eigenvalue.imag, p.residual) for i, p in enumerate(pairs)],
        ),
        (
            series_table(series),
            ("order", "re", "im"),
            [(j, c.real, c.imag) for j, c in enumerate(series.orders)],
        ),
        (
            comparison_table(comparison),
            COMPARISON_COLUMNS,
            [tuple(r[c] for c in COMPARISON_COLUMNS) for r in comparison],
        ),
    ]
    for n, (text, columns, rows) in enumerate(cases):
        path = cli._write_table(str(tmp_path), f"table{n}", "csv", columns, rows)
        assert Path(path).read_text() == text


def test_spectrum_expands_only_the_ground_pair(tmp_path):
    import tracemalloc

    # dim 7^4 = 2401 at epsilon = 0: every block is 1x1, so expanding every
    # pair to its two full-length vectors would take 2 D^2 16 B
    cfg = _write_config(tmp_path, params={"epsilon": 0.0}, basis={"n_max": 6})
    dim = 7**4
    tracemalloc.start()
    try:
        assert main(["--config", cfg, "--out", str(tmp_path / "big"), "spectrum"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * dim**2 * 16
    lines = (tmp_path / "big" / "spectrum.csv").read_text().splitlines()
    assert len(lines) == dim + 1
