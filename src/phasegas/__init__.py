"""phasegas: coherent-state expansion toolkit for a weakly interacting Bose gas.

Subpackages are imported lazily so that `import phasegas` stays cheap and the
command-line entry point can configure threading before numpy loads.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # lattice
    "ModeLattice": "lattice",
    "TAU": "lattice",
    # coherent-state algebra
    "CoherentField": "coherent",
    "OverlapResult": "coherent",
    "exponent_g": "coherent",
    "phase_kernel_exponent": "coherent",
    "overlap": "coherent",
    "number_overlap_closed": "coherent",
    "number_overlap_quadrature": "coherent",
    "cross_sector_quadrature": "coherent",
    "aliasing_tail": "coherent",
    "kernel_gram": "coherent",
    # model parameters
    "ModelParams": "params",
    # Hermite ladder basis
    "HermiteBasis": "hermite",
    "gaussian_expansion_1d": "hermite",
    # operator assembly
    "OperatorMatrix": "operator",
    "AffineOperator": "operator",
    "assemble": "operator",
    "scaled_params": "operator",
    "gaussian_ground_coeffs": "operator",
    "drift_term": "operator",
    "export_triplets": "operator",
    "load_triplets": "operator",
    # spectra and perturbation series
    "EigenPair": "spectral",
    "connected_blocks": "spectral",
    "PerturbationSeries": "spectral",
    "Spectrum": "spectral",
    "solve": "spectral",
    "calibrate_mu": "spectral",
    "energy_from_eigenvalue": "spectral",
    "perturbation_series": "spectral",
    "multiset_match_error": "spectral",
    # Fock-space oracle
    "FockBasis": "fock",
    "FockHamiltonian": "fock",
    "enumerate_basis": "fock",
    "shift_operator": "fock",
    "build_hamiltonian": "fock",
    "ground_pair": "fock",
    "condensate_expectation": "fock",
    "mean_field_comparison": "fock",
    # configuration
    "RunConfig": "config",
    "load_config": "config",
    "parse_config": "config",
    # errors
    "PhasegasError": "errors",
    "ConfigurationError": "errors",
    "RangeOverflowError": "errors",
    "SolverError": "errors",
    "TruncationWarning": "errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
