"""Command-line driver: outputs, determinism, exit codes."""

import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
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


def test_overlaps_runs_on_the_configured_lattice_dimension(tmp_path, monkeypatch):
    from phasegas import coherent

    grids = []
    field = coherent.CoherentField

    def spy(lattice, r, phi):
        grids.append((lattice.d, np.shape(phi)))
        return field(lattice, r, phi)

    monkeypatch.setattr(coherent, "CoherentField", spy)
    cfg = _write_config(tmp_path, lattice={"d": 2, "m_per_dim": 3}, overlaps={"n_fields": 5})
    out = tmp_path / "ov2"
    assert main(["--config", cfg, "--out", str(out), "overlaps"]) == 0
    # the random fields, the projection fields and the vacuum
    assert len(grids) == 5 + 8 + 1
    assert set(grids) == {(2, (10, 10))}
    lines = (out / "overlaps.csv").read_text().strip().splitlines()
    assert len(lines) == 8 and all(line.endswith("pass") for line in lines[1:])


def test_spectrum_arpack_with_count_up_to_the_dimension(tmp_path):
    # m = 3, n_max = 2: dim 9, and count dim - 1 or dim solves every block densely
    dense_cfg = _write_config(tmp_path, "dense.json", lattice={"m_per_dim": 3}, solver={"count": 9})
    assert main(["--config", dense_cfg, "--out", str(tmp_path / "dense"), "spectrum"]) == 0
    for count in (8, 9):
        cfg = _write_config(
            tmp_path, f"arpack{count}.json", lattice={"m_per_dim": 3},
            solver={"method": "arpack", "count": count},
        )
        out = tmp_path / f"arpack{count}"
        assert main(["--config", cfg, "--out", str(out), "spectrum"]) == 0
        dense_rows = (tmp_path / "dense" / "spectrum.csv").read_text().splitlines()
        assert (out / "spectrum.csv").read_text().splitlines() == dense_rows[: count + 1]


def test_u_zero_and_u_k0_both_set_is_exit_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, params={"u_zero": -1.5, "u_k": [0.5, 0.0, 0.0, 0.0, 0.0]})
    assert main(["--config", cfg, "--out", str(tmp_path / "both"), "spectrum"]) == 2
    assert "u_zero and params.u_k[0]" in capsys.readouterr().err


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
    pairs, certify = [], spectral._translation_partners
    monkeypatch.setattr(spectral, "_translation_partners", lambda *a: pairs.append(certify(*a)) or pairs[-1])
    assert main(["--config", str(_DEMO_CONFIG), "--out", str(tmp_path), "scan"]) == 0
    eps_grid = load_config(str(_DEMO_CONFIG)).scan["eps_grid"]
    # one solve per epsilon, of L(+eps), and one LAPACK call (eig or eigh) per
    # block of it, less one per certified translation pair
    assert len(solves) == len(eps_grid) == len(pairs)
    assert all(len(p) == 1 for p in pairs)
    blocks = sum(sum(b.size > 1 for b in connected_blocks(op.matrix)) for op in solves)
    assert len(eigs) + len(eighs) == blocks - len(pairs)
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


def test_scan_with_a_potential_pairs_with_the_conjugate_potential(tmp_path, monkeypatch):
    # conj L(eps, u) = L(-eps, -u): with u_k != 0 the scan pairs L(eps, u)
    # with L(-eps, -u), which shares its real form, so it passes with one
    # solve per epsilon and a pairing error of exactly 0
    import phasegas.spectral as spectral

    solves = _count_calls(monkeypatch, spectral, "solve")
    cfg = _write_config(
        tmp_path,
        params={"u_k": [0.1, 0.3, 0.3, -0.2, -0.2]},
        basis={"n_max": 3},
        scan={"eps_grid": [0.1, 0.2, 0.3]},
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "sc"), "scan"]) == 0
    assert len(solves) == 3
    lines = (tmp_path / "sc" / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,ground_re_plus,ground_im_plus,ground_re_minus,ground_im_minus,pair_error"
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1:3] == fields[3:5] and float(fields[5]) == 0.0


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
    # an overlap past exp(709) is a range failure: exit 1, and no table
    cfg = _write_config(tmp_path, name="wide.json", params={"r": 1000.0})
    out = tmp_path / "ov2"
    assert main(["--config", cfg, "--out", str(out), "overlaps"]) == 1
    assert os.listdir(out) == []


@pytest.mark.parametrize("seed", range(1, 7))
def test_an_overlap_error_that_cannot_be_evaluated_fails(tmp_path, seed):
    # at r = 60 on three modes exp(G) underflows to 0 for a strongly negative
    # Re G, so the relative errors are 0/0; a NaN error fails its check
    # (max() would keep the error before it); seed 3's one pair overflows
    # instead, a range failure that writes no table
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "lattice": {"d": 1, "m_per_dim": 3},
        "params": {"r": 60},
        "overlaps": {"n_fields": 2, "seed": seed},
    }))
    out = tmp_path / "ov"
    with np.errstate(invalid="ignore"):
        status = main(["--config", str(cfg), "--out", str(out), "--format", "json", "overlaps"])
    assert status == 1
    if seed == 3:
        assert os.listdir(out) == []
        return
    text = (out / "overlaps.json").read_text()
    rows = {row[0]: row[1:] for row in json.loads(text)["rows"]}
    for check in ("overlap_vs_kernel", "hermitian_symmetry"):
        assert np.isnan(rows[check][0]) and rows[check][2] == "FAIL"
    assert '"overlap_vs_kernel",\n   NaN,' in text


def test_unexpected_exception_is_exit_four(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise RuntimeError("handler defect")

    monkeypatch.setitem(cli._COMMANDS, "spectrum", (broken, "spectrum"))
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "--out", str(tmp_path / "x"), "spectrum"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: handler defect" in err


def test_an_out_that_names_a_file_is_exit_two(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "--out", cfg, "spectrum"]) == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_a_failed_direct_solve_writes_no_data_file(tmp_path, monkeypatch, capsys):
    # the series is complete before the direct ground solves; the run still
    # writes neither its table nor a sidecar
    import phasegas.spectral as spectral
    from phasegas.errors import SolverError

    solve = spectral.solve

    def fails_the_ground(op, count=None, **kwargs):
        if count == 1:
            raise SolverError("forced direct-solve failure")
        return solve(op, count, **kwargs)

    monkeypatch.setattr(spectral, "solve", fails_the_ground)
    cfg = _write_config(tmp_path)
    out = tmp_path / "pt"
    assert main(["--config", cfg, "--out", str(out), "perturb"]) == 3
    assert "forced direct-solve failure" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_arpack_failure_is_exit_three(tmp_path, monkeypatch, capsys):
    import phasegas.spectral as spectral

    def fails(*args, **kwargs):
        raise spectral.spla.ArpackError(-9)

    monkeypatch.setattr(spectral.spla, "eigs", fails)
    cfg = _write_config(tmp_path, basis={"n_max": 3}, solver={"method": "arpack", "count": 4})
    out = tmp_path / "ar"
    assert main(["--config", cfg, "--out", str(out), "spectrum"]) == 3
    assert "iterative eigensolver failed" in capsys.readouterr().err
    assert os.listdir(out) == []


def _listing(directory):
    """Every entry of a directory: a file's bytes, or None for a subdirectory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in directory.iterdir()}


def test_a_directory_at_a_table_path_leaves_the_output_directory_as_it_was(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sp"
    (out / "spectrum_ground.csv").mkdir(parents=True)
    (out / "spectrum.csv").write_text("an earlier run\n")
    before = _listing(out)
    assert main(["--config", cfg, "--out", str(out), "spectrum"]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert _listing(out) == before
    assert os.listdir(out / "spectrum_ground.csv") == []


def test_an_oserror_on_the_second_write_leaves_the_output_directory_as_it_was(tmp_path, monkeypatch, capsys):
    opened = []

    def fails_the_second(path, *args, **kwargs):
        opened.append(path)
        if len(opened) == 2:
            raise OSError(errno.ENOSPC, "forced write failure", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", fails_the_second, raising=False)
    cfg = _write_config(tmp_path)
    out = tmp_path / "sp"
    out.mkdir()
    (out / "spectrum.csv").write_text("an earlier run\n")
    before = _listing(out)
    assert main(["--config", cfg, "--out", str(out), "spectrum"]) == 2
    assert "forced write failure" in capsys.readouterr().err
    assert len(opened) == 2
    assert _listing(out) == before


def _compare_in(cfg, out, fmt):
    return main(["--config", cfg, "--out", str(out), "--format", fmt, "compare"])


def test_a_rerun_in_the_other_format_removes_the_table_its_sidecar_listed(tmp_path):
    cfg = _write_config(tmp_path, lattice={"m_per_dim": 3})
    out = tmp_path / "cmp"
    assert _compare_in(cfg, out, "csv") == 0
    assert _compare_in(cfg, out, "json") == 0
    assert sorted(os.listdir(out)) == ["compare.json", "compare_meta.json"]
    assert _compare_in(cfg, out, "csv") == 0
    assert sorted(os.listdir(out)) == ["compare.csv", "compare_meta.json"]


@pytest.mark.parametrize(
    "sidecar",
    [
        None,
        b"not json",
        b"\xff\xfe",
        b"[]",
        b'{"files": 3}',
        b'{"files": "compare.csv"}',
        b'{"format": "csv"}',
        b'{"files": ["spectrum.csv", "compare.json"]}',
    ],
)
def test_a_table_no_readable_sidecar_lists_is_kept(tmp_path, sidecar):
    cfg = _write_config(tmp_path, lattice={"m_per_dim": 3})
    out = tmp_path / "cmp"
    out.mkdir()
    (out / "compare.csv").write_text("the user's own table\n")
    if sidecar is not None:
        (out / "compare_meta.json").write_bytes(sidecar)
    assert _compare_in(cfg, out, "json") == 0
    assert (out / "compare.csv").read_text() == "the user's own table\n"
    assert sorted(os.listdir(out)) == ["compare.csv", "compare.json", "compare_meta.json"]


def test_a_failed_write_removes_no_earlier_table(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path, lattice={"m_per_dim": 3})
    out = tmp_path / "cmp"
    assert _compare_in(cfg, out, "csv") == 0
    before = _listing(out)

    def fails_on_a_temporary(path, *args, **kwargs):
        if str(path).endswith(".tmp"):
            raise OSError(errno.ENOSPC, "forced write failure", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", fails_on_a_temporary, raising=False)
    assert _compare_in(cfg, out, "json") == 2
    assert "forced write failure" in capsys.readouterr().err
    assert _listing(out) == before


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_sidecar_lists_exactly_the_files_written(tmp_path, fmt):
    tables = {
        "overlaps": ["overlaps"],
        "spectrum": ["spectrum", "spectrum_ground"],
        "compare": ["compare"],
        "perturb": ["perturb_series", "perturb_scan"],
        "scan": ["scan"],
    }
    cfg = _write_config(tmp_path, lattice={"m_per_dim": 3})
    for command, names in tables.items():
        out = str(tmp_path / command)
        assert main(["--config", cfg, "--out", out, "--format", fmt, command]) == 0
        meta = json.loads(Path(out, f"{command}_meta.json").read_text())
        assert list(meta) == ["command", "config", "format", "files", "timestamp", "version"]
        assert meta["files"] == [os.path.join(out, f"{name}.{fmt}") for name in names]
        assert sorted(os.listdir(out)) == sorted([f"{command}_meta.json"] + [f"{n}.{fmt}" for n in names])


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


def test_compare_caps_the_largest_block_not_the_total_dimension(tmp_path, capsys, monkeypatch):
    # at m = 7, N = 5 the oracle's sector has 462 states in 31 momentum blocks,
    # the largest of 32: the dense cap is read against that block alone
    import phasegas.fock as fock

    cfg = _write_config(
        tmp_path, lattice={"d": 1, "m_per_dim": 7}, params={"n_particles": 5},
        compare={"couplings": [1.0]},
    )
    monkeypatch.setattr(fock, "DENSE_DIM_LIMIT", 32)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "compare"]) == 0, (
        capsys.readouterr().err
    )
    monkeypatch.setattr(fock, "DENSE_DIM_LIMIT", 31)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "compare"]) == 2
    assert "largest block 32 of dimension 462" in capsys.readouterr().err


def test_compare_at_couplings_near_the_float_range_raises_no_overflow(tmp_path, capsys):
    # the oracle's residual check is taken on H / max|H_ij|, so no norm overflows
    cfg = _write_config(
        tmp_path, lattice={"d": 1, "m_per_dim": 3}, params={"n_particles": 3},
        compare={"couplings": [1e300, 1e200]},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "compare"]) == 0, (
            capsys.readouterr().err
        )


def test_compare_refuses_a_weak_basis_past_the_state_guard_before_the_oracle(
    tmp_path, capsys, monkeypatch
):
    # 1201 modes: a Fock sector of 1201 states, but a weak basis of 3^1201
    import phasegas.fock as fock

    monkeypatch.setattr(fock, "enumerate_basis", lambda *a: pytest.fail("the oracle ran"))
    cfg = _write_config(tmp_path, lattice={"d": 1, "m_per_dim": 1201}, params={"n_particles": 1})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "compare"]) == 2
    assert "state guard" in capsys.readouterr().err


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
    for data, message in [
        ({"schema_version": 1, "output": {"dir": 3}}, "output.dir must be a string"),
        ({"schema_version": 1, "solver": ["dense"]}, "section solver must be an object"),
        ({"schema_version": 1, "scan": {"eps_grid": 0.1}}, "scan.eps_grid must be a non-empty list"),
        ([1], "top level must be a JSON object"),
    ]:
        bad.write_text(json.dumps(data))
        assert main(["--config", str(bad), "--out", str(tmp_path / "o"), "scan"]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("overlaps", [{"seed": -1}, {"n_fields": 1}])
def test_overlaps_refuses_a_negative_seed_and_a_single_field(tmp_path, capsys, overlaps):
    # numpy refuses a negative seed, and one field leaves the pairwise checks
    # with no pair to check: neither may reach the suite
    cfg = _write_config(tmp_path, overlaps=overlaps)
    out = tmp_path / "ov"
    assert main(["--config", cfg, "--out", str(out), "overlaps"]) == 2
    assert f"overlaps.{next(iter(overlaps))}" in capsys.readouterr().err
    assert not (out / "overlaps.csv").exists()


def test_a_basis_past_the_state_guard_is_exit_two(tmp_path, capsys):
    # d = 2, m = 5, n_max = 3: 4^24 states, refused before anything is allocated
    cfg = _write_config(tmp_path, lattice={"d": 2, "m_per_dim": 5}, basis={"n_max": 3})
    assert main(["--config", cfg, "--out", str(tmp_path / "big"), "spectrum"]) == 2
    assert "state guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides",
    [
        # 999^3 modes, and 3^(10^9), whose power is never formed (a unit box
        # keeps the volume finite)
        ("spectrum", {"lattice": {"d": 3, "m_per_dim": 999}}),
        ("overlaps", {"lattice": {"d": 10**9, "m_per_dim": 3, "box_len": 1.0}}),
        # a phase grid of 1415^2 points on a 9-mode lattice
        ("overlaps", {"lattice": {"d": 2, "m_per_dim": 3}, "overlaps": {"grid_m": 1415}}),
    ],
    ids=["modes", "huge-d", "phase-grid"],
)
def test_a_lattice_or_phase_grid_past_the_state_guard_is_exit_two(tmp_path, capsys, command, overrides):
    # refused before the modes are listed or a field is drawn
    cfg = _write_config(tmp_path, **overrides)
    assert main(["--config", cfg, "--out", str(tmp_path / "big"), command]) == 2
    assert "state guard" in capsys.readouterr().err
    assert os.listdir(tmp_path / "big") == []


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

    for command, expected in (("scan", 2), ("perturb", 2), ("compare", 0)):
        with monkeypatch.context() as patch:
            calls = _count_calls(patch, operator, "_materialize")
            assert main(["--config", str(_DEMO_CONFIG), "--out", str(tmp_path), command]) == 0
        # L0 and L1 once per run, whatever the length of the epsilon grid;
        # compare's functional column is the closed form -ebar_N, so no operator
        assert len(calls) == expected, command


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


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    import argparse

    help_text = cli._build_parser.__wrapped__().format_help()
    prog, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **k: prog.append(k.get("prog")) or init(self, *a, **k)
    )
    cli._build_parser.cache_clear()
    cfg = _write_config(tmp_path)
    for _ in range(2):
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "spectrum"]) == 0
    # one parser and its five subcommand parsers, for both calls
    assert prog.count("phasegas") == 1 and len(prog) == 6
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_help:
            main(["--help"])
        assert exit_help.value.code == 0 and capsys.readouterr().out == help_text
        with pytest.raises(SystemExit) as exit_usage:
            main(["--config", cfg, "no-such-command"])
        assert exit_usage.value.code == 2
        assert main(["--threads", "0", "--config", cfg, "spectrum"]) == 2
    assert len(prog) == 6


def test_scan_with_a_potential_assembles_the_partner_family(tmp_path, monkeypatch):
    # the conjugate partner L(-eps, -u) is a family of its own: L0 and L1 of
    # each (the CI potential config).  L1 does not depend on the potential,
    # so a partner that takes the first family's L1 writes the same bytes
    import phasegas.operator as operator

    cfg = tmp_path / "potential.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "lattice": {"d": 1, "m_per_dim": 5},
        "params": {"gamma": 0.5, "n_particles": 2, "epsilon": 0.2, "u_k": [0.0, 0.3, 0.3, -0.2, -0.2]},
        "basis": {"n_max": 3},
    }))
    original = operator.assemble
    families = []

    def sharing(params, basis):
        family = original(params, basis)
        if families:
            family.__dict__["l1"] = families[0].l1
        families.append(family)
        return family

    tables = []
    for shared in (False, True):
        with monkeypatch.context() as patch:
            if shared:
                patch.setattr(operator, "assemble", sharing)
            calls = _count_calls(patch, operator, "_materialize")
            assert main(["--config", str(cfg), "--out", str(tmp_path / str(shared)), "scan"]) == 0
        assert len(calls) == (3 if shared else 4)
        tables.append((tmp_path / str(shared) / "scan.csv").read_bytes())
    assert len(families) == 2 and tables[0] == tables[1]
