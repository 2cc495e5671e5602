"""Entanglement measures and teleportation fidelities for GHZ/W-mixture channels.

Four ingredients: dense one-to-four-qubit linear algebra (`qcore`),
closed-form measures including the piecewise mixture tangle
(`entanglement`), convex-roof measures (`convexroof`: a linear program on
the Bloch sphere at rank <= 2, a decomposition-search upper bound above), a teleportation simulator with explicit circuit
unitaries (`teleport`), and the decohered W state example (`noisychan`).

Importing the package loads none of them: each exported name is looked up
in its module on use (PEP 562), so a program loads only the modules whose
names it uses.
"""

import importlib

__version__ = "0.1.0"

# Each module and the names the package exports from it.
_MODULE_EXPORTS = {
    "convexroof": (
        "Ensemble",
        "RoofBound",
        "RoofConfig",
        "minimize_roof",
        "numerical_rank",
        "optimal_ghzw_ensemble",
        "roof_rank2",
    ),
    "entanglement": (
        "c_abc_mixture",
        "channel_mixture_stack",
        "channel_mixture_state",
        "concurrence_pure2",
        "concurrence_wootters",
        "cut_concurrences",
        "eof_from_concurrence",
        "ghzw_pure_tangle",
        "ghzw_superposition",
        "groverian_from_concurrence",
        "monogamy_residual",
        "pairwise_concurrences",
        "reduced_concurrences_qc",
        "three_tangle_ghzw",
        "three_tangle_pure",
    ),
    "noisychan": ("ChannelReport", "NoiseParams", "channel_report", "epsilon_x_w", "noise_params"),
    "qcore": (
        "ComplexMatrix",
        "DensityMatrix",
        "DensityReport",
        "DensityValidationError",
        "PureState",
        "density_report",
        "ghz_state",
        "hermitian_eigensystem",
        "kron",
        "load_state_file",
        "partial_trace",
        "random_density_matrix",
        "random_pure_state",
        "save_state_file",
        "validate_density",
        "w_state",
    ),
    "teleport": (
        "CriticalValues",
        "SchemeKind",
        "TeleportReport",
        "TeleportScheme",
        "avg_fidelity",
        "avg_fidelity_closed",
        "critical_values",
        "fidelity_ghz_closed",
        "fidelity_w_closed",
        "input_state",
        "receiver_channel",
        "scheme_unitary",
        "teleport_output",
    ),
    "tolerances": ("TOLERANCES", "Tolerances"),
}

_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Not cached here: the value is always the defining module's current one.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
