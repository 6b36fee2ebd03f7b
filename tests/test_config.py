"""Run-configuration schema: defaults, validation messages, builders."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasegas.config import SCHEMA_VERSION, load_config, parse_config
from phasegas.errors import ConfigurationError, PhasegasError
from phasegas.lattice import ModeLattice


def test_defaults_from_minimal_config():
    cfg = parse_config({"schema_version": 1})
    assert cfg.lattice_cfg["m_per_dim"] == 5
    assert cfg.params_cfg["gamma"] == 0.5
    assert cfg.solver["method"] == "dense"
    assert cfg.output["format"] == "csv"
    lat = cfg.lattice()
    assert lat.num_modes == 5
    par = cfg.params(lat)
    assert par.gamma == 0.5 and par.u_k is None
    bas = cfg.basis(lat)
    assert bas.dim == (cfg.basis_cfg["n_max"] + 1) ** 4


def test_schema_version_required():
    with pytest.raises(ConfigurationError, match="schema_version"):
        parse_config({})
    with pytest.raises(ConfigurationError, match="schema_version"):
        parse_config({"schema_version": SCHEMA_VERSION + 1})


def test_unknown_section_and_key():
    with pytest.raises(ConfigurationError, match="unknown section"):
        parse_config({"schema_version": 1, "nope": {}})
    with pytest.raises(ConfigurationError, match="solver.methods"):
        parse_config({"schema_version": 1, "solver": {"methods": "dense"}})


def test_type_and_choice_validation():
    with pytest.raises(ConfigurationError, match="params.gamma"):
        parse_config({"schema_version": 1, "params": {"gamma": "big"}})
    with pytest.raises(ConfigurationError, match="params.gamma"):
        parse_config({"schema_version": 1, "params": {"gamma": True}})
    with pytest.raises(ConfigurationError, match="params.gamma"):
        parse_config({"schema_version": 1, "params": {"gamma": float("nan")}})
    with pytest.raises(ConfigurationError, match="lattice.m_per_dim"):
        parse_config({"schema_version": 1, "lattice": {"m_per_dim": 2.5}})
    with pytest.raises(ConfigurationError, match="output.format"):
        parse_config({"schema_version": 1, "output": {"format": "yaml"}})
    with pytest.raises(ConfigurationError, match="solver.method"):
        parse_config({"schema_version": 1, "solver": {"method": "qr"}})


def test_potential_construction():
    cfg = parse_config(
        {"schema_version": 1, "params": {"u_zero": -1.5}}
    )
    lat = cfg.lattice()
    par = cfg.params(lat)
    assert par.u_k is not None
    assert par.u_zero == -1.5
    assert all(par.u_at(i) == 0.0 for i in lat.nonzero_indices())

    cfg2 = parse_config(
        {
            "schema_version": 1,
            "params": {"u_k": [0.0, 0.1, 0.1, 0.2, 0.2]},
        }
    )
    par2 = cfg2.params(lat)
    assert par2.u_at(1) == 0.1 and par2.u_at(3) == 0.2

    with pytest.raises(ConfigurationError, match="u_k"):
        parse_config(
            {"schema_version": 1, "params": {"u_k": [0.0, 0.1]}}
        ).params(lat)


def test_u_zero_and_u_k0_may_not_both_be_set():
    lat = ModeLattice(d=1, m_per_dim=3)
    # either one alone sets u_0
    only_zero = parse_config({"schema_version": 1, "params": {"u_zero": -1.5, "u_k": [0.0, 0.0, 0.0]}})
    assert only_zero.params(lat).u_zero == -1.5
    only_k = parse_config({"schema_version": 1, "params": {"u_zero": 0.0, "u_k": [0.5, 0.0, 0.0]}})
    assert only_k.params(lat).u_zero == 0.5
    both = parse_config({"schema_version": 1, "params": {"u_zero": -1.5, "u_k": [0.5, 0.0, 0.0]}})
    with pytest.raises(ConfigurationError, match=r"u_zero and params.u_k\[0\]"):
        both.params(lat)


def test_gamma_k_length_checked():
    cfg = parse_config(
        {"schema_version": 1, "params": {"gamma_k": [0.5, 0.5, 0.5]}}
    )
    with pytest.raises(ConfigurationError, match="gamma_k"):
        cfg.params(cfg.lattice())


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "lattice": {"m_per_dim": 3},
                "params": {"gamma": 0.8, "epsilon": 0.1},
                "output": {"format": "json"},
            }
        )
    )
    cfg = load_config(str(path))
    assert cfg.source == str(path)
    assert cfg.lattice().num_modes == 3
    assert cfg.params_cfg["epsilon"] == 0.1
    assert cfg.output["format"] == "json"


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(str(bad))


def test_sections_are_read_only():
    cfg = parse_config({"schema_version": 1})
    with pytest.raises(TypeError):
        cfg.solver["method"] = "arpack"


def test_lattice_rejects_a_box_whose_geometry_overflows():
    for d, box_len in ((1, 1e-300), (2, 1e200)):
        with pytest.raises(ConfigurationError, match="overflows"):
            ModeLattice(d=d, box_len=box_len, m_per_dim=3)
    # nor may its sizes be anything but integers: a bool is not one
    for d, m in ((1.5, 3), ("1", 3), (True, 3), (1, 5.0), (1, False)):
        with pytest.raises(ConfigurationError, match="integers"):
            ModeLattice(d=d, m_per_dim=m)
    assert ModeLattice(d=np.int64(1), m_per_dim=np.int32(3)).num_modes == 3


# every finite float, subnormals and the extremes included
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
    st.integers(-(10**6), 10**6),
)
_NUM_KEYS = {
    "lattice": ("box_len",),
    "params": ("gamma", "epsilon", "u_zero", "kappa", "p_exp", "q_exp", "r", "hbar2_over_2m"),
}
# integer keys stay small: the lattice enumerates m_per_dim^d modes
_INT_KEYS = {
    "lattice": {"d": (0, 3), "m_per_dim": (-1, 9)},
    "params": {"n_particles": (-3, 10**6)},
    "basis": {"n_max": (-2, 12)},
}


@st.composite
def _configs(draw):
    data = {"schema_version": 1}
    for section, keys in _NUM_KEYS.items():
        for key in keys:
            if draw(st.booleans()):
                data.setdefault(section, {})[key] = draw(_NUMBERS)
    for section, keys in _INT_KEYS.items():
        for key, (lo, hi) in keys.items():
            if draw(st.booleans()):
                data.setdefault(section, {})[key] = draw(st.integers(lo, hi))
    for key in ("u_k", "gamma_k"):
        if draw(st.booleans()):
            # lengths that match the common lattices (m_per_dim 1, 3, 5, 9 at d = 1)
            size = draw(st.sampled_from([1, 3, 5, 9]))
            data.setdefault("params", {})[key] = draw(st.lists(_NUMBERS, min_size=size, max_size=size))
    return data


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=_configs())
def test_config_builders_raise_only_phasegas_errors(data):
    try:
        cfg = parse_config(data)
        lattice = cfg.lattice()
    except PhasegasError:
        return
    for build in (cfg.params, cfg.basis):
        try:
            build(lattice)
        except PhasegasError:
            pass
