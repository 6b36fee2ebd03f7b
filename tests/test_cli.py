"""Command-line driver: outputs, determinism, exit codes."""

import json
import os

import pytest

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
        # sign flip conjugates the matrix entrywise, so the paired spectra
        # agree to rounding and the mismatch column stays at the noise floor
        assert float(line.split(",")[5]) < 1e-12


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


def test_compare_table(tmp_path):
    cfg = _write_config(tmp_path, lattice={"m_per_dim": 3}, params={"n_particles": 3})
    out = tmp_path / "cmp"
    assert main(["--config", cfg, "--out", str(out), "compare"]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert lines[0].startswith("coupling,oracle_epp,")
    assert len(lines) == 3


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
