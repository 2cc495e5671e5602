"""Decohered W state after a bit-flip-type reservoir coupling.

The state depends on the dimensionless product kappa*t of coupling rate
and exposure time only through the three decaying exponentials
e^{-2kt}, e^{-4kt}, e^{-6kt}, collected into

    alpha_1 = 1 + e^{-2kt} + e^{-4kt} + e^{-6kt}
    alpha_2 = 1 + e^{-2kt} - e^{-4kt} - e^{-6kt}
    alpha_3 = 1 - e^{-2kt} - e^{-4kt} + e^{-6kt}
    alpha_4 = 1 - e^{-2kt} + e^{-4kt} - e^{-6kt}
    beta_pm = 1 +- e^{-6kt}

which obey alpha_1+alpha_2+alpha_3+alpha_4 = 4 and beta_+ + beta_- = 2;
those two identities make the assembled matrix trace exactly one.  The
matrix itself is real symmetric with every entry a single alpha/beta
symbol times a factor from {1, sqrt2, 2}, all over 16, and it reduces to
the pure W projector at kt = 0.

The channel flips each qubit independently with probability
(1 - e^{-2kt})/2, so the state is a mixture of bit-flipped W states
(:func:`zero_tangle_ensemble`).  Each of them is a local unitary image of
W and has tangle zero, so the three-party tangle of the state is exactly
zero at every kt.  The pairwise concurrences of its two-qubit reductions
are exact as well (closed-form spin-flip eigenvalues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexroof import Ensemble
from .entanglement import pairwise_concurrences, three_tangle_pure
from .qcore import DensityMatrix, DensityReport, PureState, density_report, w_state
from .tolerances import TOLERANCES


@dataclass(frozen=True)
class NoiseParams:
    """Exponential moments of the decoherence channel at a given kappa*t."""

    kappa_t: float
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    beta_plus: float
    beta_minus: float

    def __post_init__(self):
        # Written as not (x >= 0) so that NaN fails too.
        if not (self.kappa_t >= 0.0):
            raise ValueError(f"kappa_t must be >= 0, got {self.kappa_t!r}")
        alphas = (self.alpha1, self.alpha2, self.alpha3, self.alpha4)
        if not all(x >= 0.0 for x in (*alphas, self.beta_plus, self.beta_minus)):
            raise ValueError("alpha and beta coefficients must be non-negative")
        if abs(sum(alphas) - 4.0) > 1e-12:
            raise ValueError(f"alpha sum {sum(alphas)!r} differs from 4")
        if abs(self.beta_plus + self.beta_minus - 2.0) > 1e-12:
            raise ValueError(f"beta sum {self.beta_plus + self.beta_minus!r} differs from 2")


def noise_params(kappa_t: float) -> NoiseParams:
    """Evaluate the alpha/beta coefficients at kappa*t >= 0."""
    kt = float(kappa_t)
    if not (kt >= 0.0):
        raise ValueError(f"kappa_t must be >= 0, got {kt!r}")
    e2 = math.exp(-2.0 * kt)
    e4 = math.exp(-4.0 * kt)
    e6 = math.exp(-6.0 * kt)
    return NoiseParams(
        kappa_t=kt,
        alpha1=1.0 + e2 + e4 + e6,
        alpha2=1.0 + e2 - e4 - e6,
        alpha3=1.0 - e2 - e4 + e6,
        alpha4=1.0 - e2 + e4 - e6,
        beta_plus=1.0 + e6,
        beta_minus=1.0 - e6,
    )


_RT2 = math.sqrt(2.0)

# Upper triangle of the 8x8 matrix as (row, col, symbol, factor), 1-based;
# mirrored by symmetry, every entry divided by 16.  Keeping the symbolic
# keys (rather than baked numbers) lets the coefficient identities be
# tested on the pattern itself.
_ENTRIES = [
    (1, 1, "alpha2", 2.0),
    (2, 2, "alpha1", 2.0),
    (3, 3, "beta_plus", 2.0),
    (4, 4, "beta_minus", 2.0),
    (5, 5, "beta_plus", 2.0),
    (6, 6, "beta_minus", 2.0),
    (7, 7, "alpha4", 2.0),
    (8, 8, "alpha3", 2.0),
    (1, 4, "alpha2", _RT2),
    (1, 6, "alpha2", _RT2),
    (1, 7, "alpha2", 1.0),
    (2, 3, "alpha1", _RT2),
    (2, 5, "alpha1", _RT2),
    (2, 8, "alpha3", 1.0),
    (3, 5, "alpha1", 1.0),
    (3, 8, "alpha3", _RT2),
    (4, 6, "alpha4", 1.0),
    (4, 7, "alpha4", _RT2),
    (5, 8, "alpha3", _RT2),
    (6, 7, "alpha4", _RT2),
]


def epsilon_x_w(kappa_t: float) -> DensityMatrix:
    """The decohered W state at kappa*t, assembled from the symbol table."""
    params = noise_params(kappa_t)
    coeff = {
        "alpha1": params.alpha1,
        "alpha2": params.alpha2,
        "alpha3": params.alpha3,
        "alpha4": params.alpha4,
        "beta_plus": params.beta_plus,
        "beta_minus": params.beta_minus,
    }
    m = np.zeros((8, 8))
    for row, col, symbol, factor in _ENTRIES:
        value = factor * coeff[symbol] / 16.0
        m[row - 1, col - 1] = value
        m[col - 1, row - 1] = value
    return DensityMatrix(3, m.astype(complex))


def zero_tangle_ensemble(kappa_t: float) -> Ensemble:
    """Decomposition of the decohered W state into states of zero tangle.

    epsilon_x_w(kt) = sum_s q^(3-|s|) (1-q)^|s| X^s|W><W|X^s over the bit
    flips s in {0,1}^3, with q = (1 + e^{-2kt})/2: each qubit is flipped
    independently with probability 1 - q.  Every member is a local
    unitary image of W, so its tangle is zero.  Members of zero weight
    are dropped (kt = 0 gives W alone).  The ensemble is checked to
    reconstruct the state and every member's tangle to be zero.
    """
    kt = noise_params(kappa_t).kappa_t
    return _checked_zero_ensemble(kt, epsilon_x_w(kt))


def _checked_zero_ensemble(kt: float, rho: DensityMatrix) -> Ensemble:
    # The bit-flip ensemble at a validated kt, checked against rho, the
    # decohered state at the same kt.
    flip = -0.5 * math.expm1(-2.0 * kt)
    w = w_state().amplitudes
    members = []
    for s in range(8):
        ones = bin(s).count("1")
        weight = (1.0 - flip) ** (3 - ones) * flip**ones
        if weight > 0.0:
            members.append((weight, PureState(3, w[np.arange(8) ^ s])))
    ens = Ensemble(tuple(members))
    err = ens.reconstruction_error(rho)
    if err > TOLERANCES.reconstruction_atol:
        raise ValueError(f"ensemble fails to reconstruct the decohered state: error {err:.3e}")
    if any(three_tangle_pure(psi) != 0.0 for _, psi in ens.members):
        raise ValueError("a bit-flipped W state has nonzero tangle")
    return ens


@dataclass(frozen=True)
class ChannelReport:
    """Entanglement summary of the decohered state at one kappa*t.

    The pairwise concurrences are exact, and so is the tangle: it is zero
    at every kappa*t, the average over :func:`zero_tangle_ensemble`.  It
    keeps the name tangle_upper_bound, with tangle_bound_converged True,
    since zero is also a bound; tangle_exact says that it is attained.
    """

    kappa_t: float
    params: NoiseParams
    density: DensityReport
    matches_pure_w: bool
    concurrence_ab: float
    concurrence_ac: float
    concurrence_bc: float
    tangle_upper_bound: float
    tangle_bound_converged: bool
    tangle_exact: bool


def channel_report(kappa_t: float) -> ChannelReport:
    """Full per-kappa*t report: validation, exact pair concurrences, exact tangle."""
    rho = epsilon_x_w(kappa_t)
    params = noise_params(kappa_t)
    report = density_report(rho.matrix)
    w_proj = np.outer(w_state().amplitudes, w_state().amplitudes.conj())
    matches = bool(np.abs(rho.matrix - w_proj).max() <= 1e-12)
    c_ab, c_ac, c_bc = pairwise_concurrences(rho)
    tangle = _checked_zero_ensemble(params.kappa_t, rho).average(three_tangle_pure)
    return ChannelReport(
        kappa_t=float(kappa_t),
        params=params,
        density=report,
        matches_pure_w=matches,
        concurrence_ab=c_ab,
        concurrence_ac=c_ac,
        concurrence_bc=c_bc,
        tangle_upper_bound=tangle,
        tangle_bound_converged=True,
        tangle_exact=True,
    )
