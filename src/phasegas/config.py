"""Run configuration: a strict, versioned JSON schema with key-path-precise errors.

Every physical parameter is validated at load time (positivity, parity,
shapes); unknown sections or keys are rejected rather than ignored so a typo
cannot silently fall back to a default.  The loaded object is immutable and
provides builders for the domain types used by the CLI commands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError
from .hermite import HermiteBasis
from .lattice import TAU, ModeLattice
from .params import ModelParams

SCHEMA_VERSION = 1

# key -> (kind, default); kinds: int, num, str:<choices>, numlist, numlist?, int?
_SCHEMA = {
    "lattice": {
        "d": ("int", 1),
        "box_len": ("num", TAU),
        "m_per_dim": ("int", 5),
    },
    "params": {
        "gamma": ("num", 0.5),
        "n_particles": ("int", 2),
        # default below the truncation-instability regime of small bases; raise
        # n_max before pushing epsilon toward 1
        "epsilon": ("num", 0.2),
        "u_zero": ("num", 0.0),
        "u_k": ("numlist?", None),
        "gamma_k": ("numlist?", None),
        "kappa": ("num", 1.0),
        "p_exp": ("num", 0.5),
        "q_exp": ("num", 0.5),
        "r": ("num", 1.0),
        "hbar2_over_2m": ("num", 1.0),
    },
    "basis": {
        "n_max": ("int", 4),
    },
    "solver": {
        "method": ("str:dense|arpack", "dense"),
        "count": ("int?", None),
        "residual_tol": ("num", 1e-9),
        "variant": ("str:weak|full|scaled", "full"),
    },
    "output": {
        "dir": ("str", "."),
        "format": ("str:csv|json", "csv"),
    },
    "overlaps": {
        "seed": ("int", 20260816),
        "n_fields": ("int", 100),
        "grid_m": ("int", 16),
        "mq": ("int", 64),
        "n_project": ("int", 8),
    },
    "perturb": {
        "max_order": ("int", 2),
        "eps_grid": ("numlist", (0.05, 0.1, 0.2, 0.4)),
    },
    "scan": {
        "eps_grid": ("numlist", (0.1, 0.2, 0.3)),
        "pair_tol": ("num", 1e-9),
    },
    "compare": {
        "couplings": ("numlist", (0.1, 0.01, 0.001)),
        "n_max": ("int", 2),
    },
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_value(path: str, kind: str, value):
    if kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigurationError(f"config: {path} must be an integer, got {value!r}")
        return value
    if kind == "int?":
        if value is None:
            return None
        return _check_value(path, "int", value)
    if kind == "num":
        if not _is_number(value):
            raise ConfigurationError(f"config: {path} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigurationError(f"config: {path} must be finite, got {value!r}")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigurationError(f"config: {path} must be a string, got {value!r}")
        return value
    if kind.startswith("str:"):
        choices = kind[4:].split("|")
        if not isinstance(value, str) or value not in choices:
            raise ConfigurationError(
                f"config: {path} must be one of {choices}, got {value!r}"
            )
        return value
    if kind in ("numlist", "numlist?"):
        if value is None and kind.endswith("?"):
            return None
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigurationError(
                f"config: {path} must be a non-empty list of numbers, got {value!r}"
            )
        out = []
        for i, item in enumerate(value):
            out.append(_check_value(f"{path}[{i}]", "num", item))
        return tuple(out)
    raise AssertionError(f"unknown schema kind {kind}")


def _validate_section(name: str, given: dict) -> dict:
    schema = _SCHEMA[name]
    if not isinstance(given, dict):
        raise ConfigurationError(f"config: section {name} must be an object")
    for key in given:
        if key not in schema:
            raise ConfigurationError(f"config: unknown key {name}.{key}")
    out = {}
    for key, (kind, default) in schema.items():
        if key in given:
            out[key] = _check_value(f"{name}.{key}", kind, given[key])
        else:
            out[key] = default
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; sections are read-only mappings."""

    lattice_cfg: MappingProxyType
    params_cfg: MappingProxyType
    basis_cfg: MappingProxyType
    solver: MappingProxyType
    output: MappingProxyType
    overlaps: MappingProxyType
    perturb: MappingProxyType
    scan: MappingProxyType
    compare: MappingProxyType
    source: str

    def lattice(self) -> ModeLattice:
        c = self.lattice_cfg
        return ModeLattice(d=c["d"], box_len=c["box_len"], m_per_dim=c["m_per_dim"])

    def params(self, lattice: ModeLattice) -> ModelParams:
        c = self.params_cfg
        n_modes = lattice.num_modes
        u_k = None
        if c["u_k"] is not None:
            if len(c["u_k"]) != n_modes:
                raise ConfigurationError(
                    f"config: params.u_k has {len(c['u_k'])} entries, "
                    f"lattice carries {n_modes} modes"
                )
            u_k = np.array(c["u_k"], dtype=complex)
            if c["u_zero"] != 0.0:
                if u_k[0] != 0.0:
                    raise ConfigurationError(
                        "config: params.u_zero and params.u_k[0] both set the k = 0 "
                        "potential; set one of them"
                    )
                u_k[0] = c["u_zero"]
        elif c["u_zero"] != 0.0:
            u_k = np.zeros(n_modes, dtype=complex)
            u_k[0] = c["u_zero"]
        gamma_k = None
        if c["gamma_k"] is not None:
            if len(c["gamma_k"]) != n_modes:
                raise ConfigurationError(
                    f"config: params.gamma_k has {len(c['gamma_k'])} entries, "
                    f"lattice carries {n_modes} modes"
                )
            gamma_k = np.array(c["gamma_k"], dtype=float)
        params = ModelParams(
            gamma=c["gamma"],
            n_particles=c["n_particles"],
            u_k=u_k,
            gamma_k=gamma_k,
            epsilon=c["epsilon"],
            kappa=c["kappa"],
            p_exp=c["p_exp"],
            q_exp=c["q_exp"],
        )
        params.validate_against(lattice)
        return params

    def basis(self, lattice: ModeLattice, gamma: float | None = None) -> HermiteBasis:
        g = self.params_cfg["gamma"] if gamma is None else gamma
        return HermiteBasis(lattice, g, self.basis_cfg["n_max"])

    @property
    def r(self) -> float:
        return self.params_cfg["r"]

    @property
    def hbar2_over_2m(self) -> float:
        return self.params_cfg["hbar2_over_2m"]


def parse_config(data: dict, source: str = "<memory>") -> RunConfig:
    """Validate a parsed JSON object against the schema and freeze it."""
    if not isinstance(data, dict):
        raise ConfigurationError("config: top level must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"config: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    for key in data:
        if key != "schema_version" and key not in _SCHEMA:
            raise ConfigurationError(f"config: unknown section {key!r}")
    sections = {
        name: MappingProxyType(_validate_section(name, data.get(name, {})))
        for name in _SCHEMA
    }
    return RunConfig(
        lattice_cfg=sections["lattice"],
        params_cfg=sections["params"],
        basis_cfg=sections["basis"],
        solver=sections["solver"],
        output=sections["output"],
        overlaps=sections["overlaps"],
        perturb=sections["perturb"],
        scan=sections["scan"],
        compare=sections["compare"],
        source=source,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"config: cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config: {path} is not valid JSON: {exc}")
    return parse_config(data, source=path)
