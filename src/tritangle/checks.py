"""Invariant checks, each measured once for ``validate``, the acceptance tests and ``scripts/roof_audit.py``.

A measurement returns its worst deviation from the closed form or the
identity it checks; its inputs (states, seeds, solvers) are arguments.
The bands below are the ones the ``validate`` suites hold them to, and
:data:`SUITES` runs those suites by name.  The acceptance tests call the
same measurements against their own literal bounds, so a band loosened
here loosens no acceptance criterion.
"""

from __future__ import annotations

import math

import numpy as np

from .convexroof import RoofConfig, minimize_roof, optimal_ghzw_ensemble, roof_rank2
from .entanglement import (
    GhzwMixtureParams,
    channel_mixture_state,
    concurrence_pure2,
    concurrence_wootters,
    monogamy_residual,
    three_tangle_ghzw,
    three_tangle_pure,
)
from .noisychan import epsilon_x_w, zero_tangle_ensemble
from .qcore import DensityMatrix, PureState, random_pure_state
from .teleport import (
    SchemeKind,
    avg_fidelity,
    avg_fidelity_closed,
    avg_fidelity_entanglement,
    fidelity_ghz_closed,
    fidelity_w_closed,
    scheme_unitary,
    teleport_output,
    unitarity_deviation,
)

# Bands of the validate checks: a deviation passes at or below its bound,
# a gap (bound - closed form) inside its (low, high) pair.
UNITARITY_BAND = 1e-12
FIDELITY_GRID_BAND = 1e-10
QUADRATURE_BAND = 1e-9
ENTANGLEMENT_FIDELITY_BAND = 1e-12
MONOGAMY_BAND = 1e-9
RESIDUAL_BAND = 1e-8
BELL_BAND = 1e-6
WERNER_BAND = (-1e-9, 5e-3)
ZERO_REGION_BAND = 1e-4
LP_BAND = (-1e-10, 1e-8)
NOISY_RECONSTRUCTION_BAND = 1e-12
ZERO_ENSEMBLE_BAND = 1e-10
# The search's gap to the mixture tangle, as acceptance criterion 7 bounds
# it; scripts/roof_audit.py holds the search and the LP to it on a p grid.
MIXTURE_BAND = (-1e-6, 5e-3)


def unitarity_gap(kind) -> float:
    """Largest entry of |U U^dag - I| for a scheme's circuit unitary."""
    return unitarity_deviation(scheme_unitary(kind).unitary)


def fidelity_grid_gap(kind) -> float:
    """Worst |simulated - closed-form| fidelity of a scheme on a 17 x 9 x 11 (theta, phi, p) grid."""
    scheme = scheme_unitary(kind)
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 17):
        for phi in np.linspace(0.0, 2.0 * math.pi, 9):
            for p in np.linspace(0.0, 1.0, 11):
                closed = fidelity_ghz_closed(theta, p) if scheme.kind is SchemeKind.GHZ else fidelity_w_closed(p)
                worst = max(worst, abs(teleport_output(scheme, theta, phi, p).fidelity - closed))
    return worst


def average_fidelity_gap(average) -> float:
    """Worst |average(scheme, p) - closed-form average fidelity| over both schemes at 11 p in [0, 1].

    average is avg_fidelity (the quadrature) or avg_fidelity_entanglement,
    called once per scheme on all 11 weights.
    """
    ps = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for kind in SchemeKind:
        closed = [avg_fidelity_closed(kind, p) for p in ps]
        worst = max(worst, float(np.abs(average(scheme_unitary(kind), ps) - closed).max()))
    return worst


def monogamy_extremes(n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Over n random pure three-qubit states: the largest negated monogamy residual
    C_AC^2 + C_BC^2 - C_C(AB)^2 (at most 0 by monogamy) and the largest
    |monogamy residual - tangle|."""
    worst_gap = -math.inf
    worst_residual = 0.0
    for _ in range(n):
        psi = random_pure_state(3, rng)
        residual = monogamy_residual(psi)
        worst_gap = max(worst_gap, -residual)
        worst_residual = max(worst_residual, abs(residual - three_tangle_pure(psi)))
    return worst_gap, worst_residual


def mixture_gaps(solve, ps) -> list[tuple[float, float]]:
    """(bound, bound - closed-form tangle) of a roof solver on the GHZ/W mixture at each p.

    solve maps a state to a result with an upper_bound, as
    minimize_roof and roof_rank2 return.
    """
    out = []
    for p in ps:
        bound = solve(channel_mixture_state(p)).upper_bound
        out.append((bound, bound - three_tangle_ghzw(p)))
    return out


def wootters_gaps(solve, states) -> list[float]:
    """bound - Wootters concurrence of a roof solver (as for mixture_gaps) on each two-qubit state."""
    return [solve(rho).upper_bound - concurrence_wootters(rho) for rho in states]


def ensemble_extremes(cases) -> tuple[float, float]:
    """Over (ensemble, state) pairs: the worst reconstruction error and the largest member tangle."""
    worst_recon = worst_member = 0.0
    for ens, rho in cases:
        worst_recon = max(worst_recon, ens.reconstruction_error(rho))
        worst_member = max(worst_member, max(three_tangle_pure(psi) for _, psi in ens.members))
    return worst_recon, worst_member


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _unitarity(seed: int) -> list[dict]:
    checks = []
    for kind in SchemeKind:
        dev = unitarity_gap(kind)
        checks.append(_check(f"unitarity_{kind.value}", dev <= UNITARITY_BAND, f"max deviation {dev:.3e}"))
    return checks


def _fidelity(seed: int) -> list[dict]:
    checks = []
    for kind in SchemeKind:
        worst = fidelity_grid_gap(kind)
        detail = f"max |numeric - closed| {worst:.3e}"
        checks.append(_check(f"fidelity_{kind.value}_grid", worst <= FIDELITY_GRID_BAND, detail))
    quadrature, exact = average_fidelity_gap(avg_fidelity), average_fidelity_gap(avg_fidelity_entanglement)
    checks.append(_check("avg_fidelity_quadrature", quadrature <= QUADRATURE_BAND, f"max deviation {quadrature:.3e}"))
    detail = f"max |(2 F_e + 1)/3 - closed| {exact:.3e}"
    checks.append(_check("avg_fidelity_entanglement", exact <= ENTANGLEMENT_FIDELITY_BAND, detail))
    return checks


def _monogamy(seed: int) -> list[dict]:
    worst_gap, worst_residual = monogamy_extremes(1000, np.random.default_rng(seed))
    return [
        _check("monogamy_inequality", worst_gap <= MONOGAMY_BAND, f"max violation {worst_gap:.3e}"),
        _check("residual_equals_tangle", worst_residual <= RESIDUAL_BAND, f"max mismatch {worst_residual:.3e}"),
    ]


def _roof(seed: int) -> list[dict]:
    def search(measure, **budget):
        return lambda rho: minimize_roof(rho, measure, RoofConfig(seed=seed, **budget))

    checks = []
    bell = PureState.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)]).density()
    bound = search(concurrence_pure2, restarts=2)(bell).upper_bound
    checks.append(_check("roof_bell", abs(bound - 1.0) <= BELL_BAND, f"bound {bound:.8f}"))

    w_mix = 0.8
    werner = DensityMatrix(2, w_mix * bell.matrix + (1.0 - w_mix) * np.eye(4) / 4.0)
    (gap,) = wootters_gaps(search(concurrence_pure2, restarts=2), [werner])
    checks.append(_check("roof_werner", WERNER_BAND[0] <= gap <= WERNER_BAND[1], f"bound - closed = {gap:+.3e}"))

    ((bound, _),) = mixture_gaps(search(three_tangle_pure, restarts=4, ensemble_size=4), [0.5])
    checks.append(_check("roof_mixture_zero_region", bound <= ZERO_REGION_BAND, f"bound {bound:.3e}"))

    # The LP against the closed forms: the mixture tangle at criterion 7's
    # points, and Wootters on the Werner state's rank-2 analogue (its noise
    # one product state instead of I/4, since the LP needs rank <= 2).
    ps = (0.3, 0.65, 0.7, 0.9)
    lp_gaps = mixture_gaps(lambda rho: roof_rank2(rho, three_tangle_pure), ps)
    gaps = [(f"p={p}", gap) for p, (_, gap) in zip(ps, lp_gaps)]
    product = np.zeros((4, 4))
    product[1, 1] = 1.0
    rank2 = DensityMatrix(2, w_mix * bell.matrix + (1.0 - w_mix) * product)
    (gap,) = wootters_gaps(lambda rho: roof_rank2(rho, concurrence_pure2), [rank2])
    gaps.append(("two-qubit", gap))
    passed = all(LP_BAND[0] <= gap <= LP_BAND[1] for _, gap in gaps)
    checks.append(_check("roof_rank2_lp", passed, "LP - closed: " + ", ".join(f"{n} {gap:+.3e}" for n, gap in gaps)))

    # The decohered W state's bit-flip ensemble: it must rebuild the state
    # with every member's tangle exactly zero.
    worst_recon, worst_tangle = ensemble_extremes(
        (zero_tangle_ensemble(kt), epsilon_x_w(kt)) for kt in (0.0, 0.1, 0.5, 2.0, 10.0)
    )
    passed = worst_recon <= NOISY_RECONSTRUCTION_BAND and worst_tangle == 0.0
    detail = f"max reconstruction error {worst_recon:.3e}, max member tangle {worst_tangle:.3e}"
    checks.append(_check("noisy_zero_ensemble", passed, detail))

    p0 = GhzwMixtureParams.standard().p0
    _, worst = ensemble_extremes((optimal_ghzw_ensemble(p), channel_mixture_state(p)) for p in (0.0, 0.2, 0.4, p0))
    checks.append(_check("zero_tangle_ensembles", worst <= ZERO_ENSEMBLE_BAND, f"max member tangle {worst:.3e}"))
    return checks


# The validate suites by name, in the order ``validate all`` runs them.
# Each maps the seed to its checks, {"name", "passed", "detail"} each.
SUITES = {
    "unitarity": _unitarity,
    "fidelity": _fidelity,
    "monogamy": _monogamy,
    "roof": _roof,
}
