"""Closed-form entanglement measures for two and three qubits.

Covers pure and mixed two-qubit concurrence, entanglement of formation,
the Grover-search based measure, the three-party tangle of pure states,
and the piecewise tangle of the paper's channel, the rank-2 mixture of
the balanced GHZ state with the W state (|100> + |010> + sqrt2|001>)/2,
together with that mixture's reduced concurrences.  Its break points are
the constants P0, P1 and T1.
Every measure returns a float in [0, 1]: a value outside by at most
``measure_clamp`` is clamped to the bound, and one further out raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .qcore import (
    DensityMatrix,
    PureState,
    _check_density,
    _trace_out,
    ghz_state,
    kron,
    partial_trace,
    validate_density,
    w_state,
)
from .tolerances import TOLERANCES

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP_4 = kron(_SIGMA_Y, _SIGMA_Y)


def _unit_value(v, name: str) -> float:
    # A measure value as a float in [0, 1]: values in [-measure_clamp, 0)
    # are clamped to 0 and values in (1, 1 + measure_clamp] to 1; anything
    # further outside raises.
    v = float(v)
    tol = TOLERANCES.measure_clamp
    if -tol <= v < 0.0:
        v = 0.0
    elif 1.0 < v <= 1.0 + tol:
        v = 1.0
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} value {v!r} outside [0, 1]")
    return v


def concurrence_pure2(psi: PureState) -> float:
    """Concurrence of a two-qubit pure state: 2|a00*a11 - a01*a10|."""
    if psi.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit state, got {psi.num_qubits} qubits")
    return _unit_value(_CONCURRENCE_FORM.score(_concurrence_form(psi.amplitudes[np.newaxis, :]), None)[0], "concurrence")


def concurrence_wootters(rho) -> float:
    """Concurrence of a two-qubit mixed state.

    The spin-flip spectrum l_1 >= ... >= l_4 (the square roots of the
    eigenvalues of rho (sy x sy) conj(rho) (sy x sy)) is obtained as the
    singular values of F^T (sy x sy) F, where F is the eigenvector matrix
    of rho scaled column-wise by the root eigenvalues (rho = F F^dag).
    The two routes agree exactly, but the singular values of the small
    matrix carry no sqrt-of-roundoff noise, so rank-deficient inputs
    (pure states, two-state mixtures) come out accurate to ~1e-13 where
    the eigenvalue route loses ~1e-8.  Returns max(0, l1 - l2 - l3 - l4).
    """
    rho = validate_density(rho)
    if rho.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit density matrix, got {rho.num_qubits} qubits")
    return _wootters(rho.matrix[np.newaxis])[0]


def _wootters(m: np.ndarray) -> tuple[float, ...]:
    # The Wootters concurrence of each matrix of a checked stack (k, 4, 4)
    # of two-qubit density matrices, by the route of concurrence_wootters.
    # numpy runs eigh, the products and svd matrix by matrix over the stack,
    # so each value is bit for bit that of the matrix alone.
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().swapaxes(-1, -2)))
    factors = vecs[..., ::-1] * np.sqrt(np.clip(vals[..., ::-1], 0.0, None))[..., np.newaxis, :]
    lam = np.linalg.svd(factors.swapaxes(-1, -2) @ _SPIN_FLIP_4 @ factors, compute_uv=False)
    return tuple(_unit_value(max(0.0, sv[0] - sv[1] - sv[2] - sv[3]), "concurrence") for sv in lam)


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_concurrence(c) -> float:
    """Entanglement of formation h((1 + sqrt(1 - c^2))/2), h the binary entropy."""
    cv = _unit_value(c, "concurrence")
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - cv * cv)))
    return _unit_value(_binary_entropy(x), "eof")


def groverian_from_concurrence(c) -> float:
    """Grover-search based measure sqrt((1 - sqrt(1 - c^2))/2)."""
    cv = _unit_value(c, "concurrence")
    inner = 1.0 - math.sqrt(max(0.0, 1.0 - cv * cv))
    return _unit_value(math.sqrt(max(0.0, inner) / 2.0), "groverian")


def _tangle_form(w: np.ndarray) -> np.ndarray:
    # Signed hyperdeterminant d1 - 2 d2 + 4 d3 on raw (not necessarily
    # normalized) rows; homogeneous of degree 4 in the amplitudes.  With the
    # complementary pair products P, Q, S, T, d1 is their sum of squares and
    # d2 the sum of their six cross products, so d1 - 2 d2 = (P + Q - S - T)^2 - 4 (PQ + ST).
    a000, a001, a010, a011, a100, a101, a110, a111 = (w[:, k] for k in range(8))
    p = a000 * a111
    q = a011 * a100
    s = a101 * a010
    t = a110 * a001
    u = p + q - s - t
    d3 = (a000 * a011) * (a110 * a101) + (a111 * a100) * (a001 * a010)
    return u * u - 4.0 * (p * q + s * t) + 4.0 * d3


def three_tangle_pure(psi: PureState) -> float:
    """Three-party tangle of a pure three-qubit state.

    4|d1 - 2 d2 + 4 d3| where d1 sums the squared products of amplitudes
    on complementary index pairs, d2 the six cross products of those
    pairs, and d3 the two "diagonal-free" quartic products (evaluated in
    the factored form of :func:`_tangle_form`).  Zero on product and
    W-type states, one on the balanced GHZ state.
    """
    if psi.num_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {psi.num_qubits} qubits")
    return _unit_value(_TANGLE_FORM.score(_tangle_form(psi.amplitudes[np.newaxis, :]), None)[0], "three_tangle")


def _cut_concurrence(rho: DensityMatrix, lone: int) -> float:
    # 2 sqrt(det rho_lone): a pure three-qubit rho's concurrence across the cut that leaves qubit lone alone.
    r = partial_trace(rho, [q for q in (1, 2, 3) if q != lone]).matrix
    det = float(np.real(r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]))
    return _unit_value(2.0 * math.sqrt(max(0.0, det)), "cut_concurrence")


def cut_concurrences(psi: PureState) -> tuple[float, float, float]:
    """Concurrences 2 sqrt(det rho_lone) of a pure three-qubit state across AB|C, AC|B and BC|A, in that order."""
    if psi.num_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {psi.num_qubits} qubits")
    rho = psi.density()
    return tuple(_cut_concurrence(rho, lone) for lone in (3, 2, 1))


def pairwise_concurrences(rho) -> tuple[float, float, float]:
    """Wootters concurrences of a three-qubit state's two-qubit reductions, in (AB, AC, BC) order.

    The three reductions are checked as density matrices in one pass.
    """
    rho = validate_density(rho)
    if rho.num_qubits != 3:
        raise ValueError(f"expected a 3-qubit density matrix, got {rho.num_qubits} qubits")
    pairs = np.stack([_trace_out(rho.matrix, 3, [q]) for q in (3, 2, 1)])
    _check_density(pairs, 2, TOLERANCES, stacked=True, label=lambda i: f"reduction {('AB', 'AC', 'BC')[i]}")
    return _wootters(pairs)


def monogamy_residual(psi: PureState) -> float:
    """Gap of the pairwise-distribution inequality for the AB|C cut.

    Returns C^2_(AB)C - C^2_AC - C^2_BC with the pairwise terms from the
    mixed-state concurrence of the two-qubit reductions.  Equals the
    tangle for pure states up to numerical noise; may dip a hair below
    zero from eigenvalue roundoff.
    """
    if psi.num_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {psi.num_qubits} qubits")
    rho = psi.density()
    c_cut = _cut_concurrence(rho, 3)
    _, c_ac, c_bc = pairwise_concurrences(rho)
    return c_cut * c_cut - c_ac * c_ac - c_bc * c_bc


# --- GHZ/W mixtures ---------------------------------------------------------


def _signed_middle(p: float, s: float) -> float:
    # p^2 - sqrt(p (1-p)^3) s: the middle branch of the mixture's tangle,
    # before the absolute value.
    return p * p - math.sqrt(p * (1.0 - p) ** 3) * s


# The paper's channel mixes the balanced GHZ state a|000> + b|111> with the
# W state c|001> + d|010> + f|100> = (|100> + |010> + sqrt2|001>)/2.  Its
# interference strength s = 4cdf/(a^2 b) is 2 and its GHZ member's tangle 1.
_S = 2.0
_GHZ, _W = ghz_state().amplitudes, w_state().amplitudes
_GHZ_PROJ, _W_PROJ = (np.outer(v, v.conj()) for v in (_GHZ, _W))
_GHZ_PROJ.flags.writeable = _W_PROJ.flags.writeable = False
_S23 = float(np.cbrt(_S * _S))
# The weight where the mixture's tangle leaves zero, the convexification
# point, and the tangle there.
P0 = _S23 / (1.0 + _S23)
P1 = 0.5 + 0.5 / math.sqrt(1.0 + _S * _S)
T1 = abs(_signed_middle(P1, _S))


def _check_unit_interval(p, name: str = "p"):
    """p as a float, or an array p as a float array; every entry must lie in [0, 1]."""
    if isinstance(p, float) or not np.ndim(p):
        p = float(p)
        bad = () if 0.0 <= p <= 1.0 else (p,)
    else:
        p = np.asarray(p, dtype=float)
        bad = p[~((p >= 0.0) & (p <= 1.0))]  # NaN is bad too
    if len(bad):
        raise ValueError(f"{name} must lie in [0, 1], got {float(bad[0])!r}")
    return p


def _check_finite(x, name: str) -> float:
    """x as a float; it must be finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def ghzw_superposition(p: float, phi: float = 0.0) -> PureState:
    """sqrt(p)|GHZ> - sqrt(1-p) e^{i phi}|W> for the paper's GHZ and W states."""
    p = _check_unit_interval(p)
    phi = _check_finite(phi, "phi")
    return PureState(3, math.sqrt(p) * _GHZ - math.sqrt(1.0 - p) * np.exp(1j * phi) * _W)


def ghzw_pure_tangle(p: float, phi: float = 0.0) -> float:
    """Tangle of the superposition in closed form.

    |p^2 - sqrt(p (1-p)^3) s e^{3 i phi}| with s = 2; the relative phase
    enters only through its third harmonic, so the zero set consists of
    the W axis and three lines at phi = 2 pi n / 3.
    """
    p = _check_unit_interval(p)
    phi = _check_finite(phi, "phi")
    return abs(_signed_middle(p, _S * np.exp(3j * phi)))


def three_tangle_ghzw(p: float) -> float:
    """Tangle of the weighted mixture p |GHZ><GHZ| + (1-p) |W><W|.

    Piecewise in the mixing weight: identically zero up to P0, the
    superposition value |p^2 - 2 sqrt(p (1-p)^3)| between P0 and P1, then
    the straight segment joining (P1, T1) to (1, 1).  Continuous at both
    break points.
    """
    p = _check_unit_interval(p)
    if p <= P0:
        return 0.0
    if p <= P1:
        return _unit_value(abs(_signed_middle(p, _S)), "three_tangle")
    return _unit_value((p - P1) / (1.0 - P1) + (1.0 - p) / (1.0 - P1) * T1, "three_tangle")


def reduced_concurrences_qc(p: float) -> tuple[float, float, float]:
    """Pairwise concurrences of the channel mixture's two-qubit reductions.

    C_AB = max(0, (1 - p - 2 sqrt(p))/2), positive only below 3 - 2 sqrt(2);
    C_AC = C_BC = max(0, ((1 - p) - sqrt(p (1 + p)))/sqrt(2)), positive only
    below 1/3.  Returned in (AB, AC, BC) order.
    """
    p = _check_unit_interval(p)
    c_ab = _unit_value(max(0.0, 0.5 * (1.0 - p - 2.0 * math.sqrt(p))), "concurrence")
    c_pair = _unit_value(max(0.0, (1.0 - p - math.sqrt(p * (1.0 + p))) / math.sqrt(2.0)), "concurrence")
    return c_ab, c_pair, c_pair


def c_abc_mixture(p: float) -> float:
    """The AB|C cut concurrence of the channel mixture.

    sqrt(C^2_AC + C^2_BC + tau3(p)).  Equals 1 at both endpoints and
    vanishes identically on [1/3, P0] where every contribution is zero.
    """
    p = _check_unit_interval(p)
    _, c_ac, c_bc = reduced_concurrences_qc(p)
    return _unit_value(math.sqrt(c_ac**2 + c_bc**2 + three_tangle_ghzw(p)), "cut_concurrence")


def _mixture_matrix(p) -> np.ndarray:
    # The mixture for a float p, or the stack (P, 8, 8) of them for a 1-D p.
    p = _check_unit_interval(p)
    if isinstance(p, np.ndarray):
        p = p[..., None, None]
    return p * _GHZ_PROJ + (1.0 - p) * _W_PROJ


def channel_mixture_state(p: float) -> DensityMatrix:
    """The paper's channel: the rank-2 mixture p |GHZ><GHZ| + (1-p) |W><W|."""
    return DensityMatrix(3, _mixture_matrix(p))


def channel_mixture_stack(p) -> np.ndarray:
    """The mixtures of :func:`channel_mixture_state` at each weight of a 1-D p, as a (P, 8, 8) stack.

    Every member is checked as a density matrix, as the single state is.
    """
    stack = _mixture_matrix(np.atleast_1d(p))
    _check_density(stack, 3, TOLERANCES, stacked=True)
    stack.flags.writeable = False
    return stack


def _concurrence_form(w: np.ndarray) -> np.ndarray:
    return w[:, 0] * w[:, 3] - w[:, 1] * w[:, 2]


@dataclass(frozen=True)
class RoofForm:
    """The signed polynomial behind a pure-state measure, for the roof search.

    form maps rows of unnormalized amplitudes to complex values and is
    homogeneous of the given degree.  A row w with weight |w|^2 contributes
    scale * |form(w)| / |w|^(degree - 2) to the roof objective, which is
    weight * measure(w / |w|): at degree 4 that divides by the weight.

    Along two rows the form is a binary form of the same degree,
    form(x wj + y wk) = sum_n h_n x^(d-n) y^n (:meth:`pair_coefficients`).
    """

    form: Callable[[np.ndarray], np.ndarray]
    degree: int
    scale: float
    # Roots of unity w^k, k = 0..d, and the inverse of their Vandermonde
    # matrix V[k, n] = w^(k n), which is conj(V) / (d + 1).
    _roots: np.ndarray = field(init=False, repr=False, compare=False)
    _inverse_dft: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.degree not in (2, 4):
            raise ValueError(f"roof form degree must be 2 or 4, the degrees the pair scan builds, got {self.degree!r}")
        k = np.arange(self.degree + 1)
        angle = 2.0 * np.pi / (self.degree + 1)
        object.__setattr__(self, "_roots", np.exp(1j * angle * k))
        object.__setattr__(self, "_inverse_dft", np.exp(-1j * angle * np.outer(k, k)) / (self.degree + 1))

    def contrib(self, rows: np.ndarray) -> np.ndarray:
        """Contribution of each row to the roof objective: weight * measure."""
        return self.score(self.form(rows), np.sum(rows.real**2 + rows.imag**2, axis=1))

    def score(self, values: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
        """Contributions of rows with these form values and weights.

        At degree 4 the contribution divides by the weight, and a row whose
        weight is at most ``weight_drop``, a row an ensemble would drop,
        contributes zero.  ``weights=None`` means unit weights: the
        contribution is then the scaled modulus.
        """
        raw = np.abs(values)
        raw *= self.scale
        if weights is None or self.degree != 4:
            return raw
        return np.divide(raw, weights, out=np.zeros(raw.shape), where=weights > TOLERANCES.weight_drop)

    def pair_coefficients(self, wj: np.ndarray, wk: np.ndarray) -> np.ndarray:
        """Coefficients h_0..h_d of form(x wj + y wk) = sum_n h_n x^(d-n) y^n.

        h_0 = form(wj) and h_d = form(wk) exactly.  The middle ones come
        from the form at y = t w^k (an inverse DFT), less the two end terms,
        with t = |wj| / |wk| so that each carries an error relative to its
        own scale |wj|^(d-n) |wk|^n; a zero row gives exact zeros.

        Takes (B, dim) stacks of B pairs and gives (B, d + 1), with all
        B (d + 3) form values in one call.
        """
        d = self.degree
        ends = np.stack((wj, wk), axis=1)
        parts = ends.view(np.float64)
        sq = np.sum(parts * parts, axis=2)
        t = np.sqrt(np.divide(sq[:, 0], sq[:, 1], out=np.ones(sq.shape[0]), where=sq.all(axis=1)))
        y = t[:, np.newaxis] * self._roots
        rows = np.concatenate((ends, ends[:, :1] + y[:, :, np.newaxis] * ends[:, 1:]), axis=1)
        values = self.form(rows.reshape(-1, rows.shape[2])).reshape(-1, d + 3)
        # One (d+1) x (d+1) product per pair, so each pair's coefficients
        # do not depend on how many pairs are stacked with it.
        samples = values[:, 2:] - values[:, :1] - values[:, 1:2] * y**d
        h = (self._inverse_dft @ samples[:, :, np.newaxis])[:, :, 0]
        h /= t[:, np.newaxis] ** np.arange(d + 1)
        h[:, 0], h[:, d] = values[:, 0], values[:, 1]
        return h


_CONCURRENCE_FORM = RoofForm(_concurrence_form, degree=2, scale=2.0)
_TANGLE_FORM = RoofForm(_tangle_form, degree=4, scale=4.0)

concurrence_pure2.roof_form = _CONCURRENCE_FORM
concurrence_pure2.roof_contrib = _CONCURRENCE_FORM.contrib
concurrence_pure2.roof_contrib_dim = 4
three_tangle_pure.roof_form = _TANGLE_FORM
three_tangle_pure.roof_contrib = _TANGLE_FORM.contrib
three_tangle_pure.roof_contrib_dim = 8
