"""Closed-form entanglement measures for two and three qubits.

Covers pure and mixed two-qubit concurrence, entanglement of formation,
the Grover-search based measure, the three-party tangle of pure states,
and the piecewise tangle of rank-2 mixtures of a GHZ-type with a W-type
state, together with the reduced concurrences of the standard mixture.
Every measure returns a float in [0, 1]: a value outside by at most
``measure_clamp`` is clamped to the bound, and one further out raises.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .qcore import (
    DensityMatrix,
    PureState,
    _check_density,
    hermitian_eigensystem,
    kron,
    partial_trace,
    validate_density,
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
    a = psi.amplitudes
    return _unit_value(2.0 * abs(a[0] * a[3] - a[1] * a[2]), "concurrence")


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
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho)
    if rho.num_qubits != 2:
        raise ValueError(f"expected a 2-qubit density matrix, got {rho.num_qubits} qubits")
    vals, vecs = hermitian_eigensystem(rho.matrix)
    factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    lam = np.linalg.svd(factor.T @ _SPIN_FLIP_4 @ factor, compute_uv=False)
    return _unit_value(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), "concurrence")


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


def _tangle_raw(w: np.ndarray) -> np.ndarray:
    return 4.0 * np.abs(_tangle_form(w))


def three_tangle_pure(psi: PureState) -> float:
    """Three-party tangle of a pure three-qubit state.

    4|d1 - 2 d2 + 4 d3| where d1 sums the squared products of amplitudes
    on complementary index pairs, d2 the six cross products of those
    pairs, and d3 the two "diagonal-free" quartic products (evaluated in
    the factored form of :func:`_tangle_raw`).  Zero on product and
    W-type states, one on the balanced GHZ state.
    """
    if psi.num_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {psi.num_qubits} qubits")
    return _unit_value(_tangle_raw(psi.amplitudes[np.newaxis, :])[0], "three_tangle")


class Cut(Enum):
    """Bipartitions of three qubits: the label right of | is the lone qubit."""

    AB_C = "AB|C"
    AC_B = "AC|B"
    BC_A = "BC|A"

    @property
    def lone_qubit(self) -> int:
        return {"AB|C": 3, "AC|B": 2, "BC|A": 1}[self.value]


def cut_concurrence_pure(psi: PureState, cut: Cut) -> float:
    """Concurrence across a 2-vs-1 cut: 2 sqrt(det rho_lone)."""
    if psi.num_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {psi.num_qubits} qubits")
    lone = cut.lone_qubit
    traced = [q for q in (1, 2, 3) if q != lone]
    r = partial_trace(psi.density(), traced).matrix
    det = float(np.real(r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]))
    return _unit_value(2.0 * math.sqrt(max(0.0, det)), "cut_concurrence")


def pairwise_concurrences(rho) -> tuple[float, float, float]:
    """Wootters concurrences of a three-qubit state's two-qubit reductions, in (AB, AC, BC) order."""
    return tuple(concurrence_wootters(partial_trace(rho, [q])) for q in (3, 2, 1))


def monogamy_residual(psi: PureState) -> float:
    """Gap of the pairwise-distribution inequality for the AB|C cut.

    Returns C^2_(AB)C - C^2_AC - C^2_BC with the pairwise terms from the
    mixed-state concurrence of the two-qubit reductions.  Equals the
    tangle for pure states up to numerical noise; may dip a hair below
    zero from eigenvalue roundoff.
    """
    if psi.num_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {psi.num_qubits} qubits")
    c_cut = cut_concurrence_pure(psi, Cut.AB_C)
    _, c_ac, c_bc = pairwise_concurrences(psi.density())
    return c_cut * c_cut - c_ac * c_ac - c_bc * c_bc


# --- GHZ/W mixtures ---------------------------------------------------------


def _signed_middle(p: float, s: float) -> float:
    # p^2 - sqrt(p (1-p)^3) s: the middle branch of the mixture's tangle, in
    # units of tau3_ghz and before the absolute value.
    return p * p - math.sqrt(p * (1.0 - p) ** 3) * s


@dataclass(frozen=True)
class GhzwMixtureParams:
    """Amplitudes of the two rank-2 mixture components, plus derived scales.

    The GHZ-type component is a|000> + b|111> and the W-type component
    c|001> + d|010> + f|100>.  Derived: s = 4cdf/(a^2 b), the GHZ-member
    tangle tau3_ghz = 4 a^2 b^2, the zero-tangle boundary p0, the
    convexification point p1, and the tangle value t1 at p1.
    """

    a: float
    b: float
    c: float
    d: float
    f: float
    s: float
    tau3_ghz: float
    p0: float
    p1: float
    t1: float

    @classmethod
    @functools.cache
    def standard(cls) -> "GhzwMixtureParams":
        """Balanced GHZ with the (1/sqrt2, 1/2, 1/2) W component; s = 2 exactly.

        Derived once, on the first call; every call returns that instance.
        """
        rt2 = 1.0 / math.sqrt(2.0)
        s = 2.0
        return _with_break_points(rt2, rt2, rt2, 0.5, 0.5, s, 1.0, float(np.cbrt(s * s)))


def _with_break_points(a, b, c, d, f, s, tau3_ghz, s23) -> GhzwMixtureParams:
    # The parameters with their break points, from s and s23 = s^(2/3):
    # p0, the convexification point p1 (never below p0) and t1 at p1.
    p0 = s23 / (1.0 + s23)
    p1 = max(p0, 0.5 + 0.5 / math.sqrt(1.0 + s * s))
    t1 = tau3_ghz * abs(_signed_middle(p1, s))
    return GhzwMixtureParams(a, b, c, d, f, s, tau3_ghz, p0, p1, t1)


def ghzw_params(a: float, b: float, c: float, d: float, f: float) -> GhzwMixtureParams:
    """Build mixture parameters from the five component amplitudes.

    Requires a^2 + b^2 = 1 and c^2 + d^2 + f^2 = 1; raises if a^2 b
    vanishes (the scale s is undefined there).
    """
    tol = TOLERANCES.norm_atol
    if abs(a * a + b * b - 1.0) > tol:
        raise ValueError(f"a^2 + b^2 = {a * a + b * b!r}, expected 1")
    if abs(c * c + d * d + f * f - 1.0) > tol:
        raise ValueError(f"c^2 + d^2 + f^2 = {c * c + d * d + f * f!r}, expected 1")
    denom = a * a * b
    if abs(denom) <= 1e-12:
        raise ValueError("a^2 * b = 0: the scale s = 4cdf/(a^2 b) is undefined")
    s = 4.0 * c * d * f / denom
    return _with_break_points(a, b, c, d, f, s, 4.0 * (a * b) ** 2, float(np.cbrt(s) ** 2))


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


def ghzw_superposition(p: float, phi: float = 0.0, params: GhzwMixtureParams | None = None) -> PureState:
    """sqrt(p)|GHZ-type> - sqrt(1-p) e^{i phi}|W-type> for the given amplitudes."""
    p = _check_unit_interval(p)
    g = params or GhzwMixtureParams.standard()
    amps = np.zeros(8, dtype=complex)
    amps[0] = math.sqrt(p) * g.a
    amps[7] = math.sqrt(p) * g.b
    wfac = -math.sqrt(1.0 - p) * np.exp(1j * phi)
    amps[1] = wfac * g.c
    amps[2] = wfac * g.d
    amps[4] = wfac * g.f
    return PureState(3, amps)


def ghzw_pure_tangle(p: float, phi: float = 0.0, params: GhzwMixtureParams | None = None) -> float:
    """Tangle of the superposition in closed form.

    tau3_ghz * |p^2 - sqrt(p (1-p)^3) s e^{3 i phi}|; the relative phase
    enters only through its third harmonic, so the zero set consists of
    the W-type axis and three lines at phi = 2 pi n / 3.
    """
    p = _check_unit_interval(p)
    g = params or GhzwMixtureParams.standard()
    return g.tau3_ghz * abs(_signed_middle(p, g.s * np.exp(3j * phi)))


def three_tangle_ghzw(p: float, params: GhzwMixtureParams | None = None) -> float:
    """Tangle of the weighted mixture p (GHZ-type) + (1-p) (W-type).

    Piecewise in the mixing weight: identically zero up to p0, the
    superposition value tau3_ghz |p^2 - sqrt(p (1-p)^3) s| between p0
    and p1, then the straight segment joining (p1, t1) to (1, tau3_ghz).
    Continuous at both break points.
    """
    p = _check_unit_interval(p)
    g = params or GhzwMixtureParams.standard()
    if p <= g.p0:
        return 0.0
    if p <= g.p1:
        return _unit_value(g.tau3_ghz * abs(_signed_middle(p, g.s)), "three_tangle")
    mid = _signed_middle(g.p1, g.s)
    val = g.tau3_ghz * ((p - g.p1) / (1.0 - g.p1) + (1.0 - p) / (1.0 - g.p1) * mid)
    return _unit_value(val, "three_tangle")


def reduced_concurrences_qc(p: float) -> tuple[float, float, float]:
    """Pairwise concurrences of the standard mixture's two-qubit reductions.

    C_AB = max(0, (1 - p - 2 sqrt(p))/2), positive only below 3 - 2 sqrt(2);
    C_AC = C_BC = max(0, ((1 - p) - sqrt(p (1 + p)))/sqrt(2)), positive only
    below 1/3.  Returned in (AB, AC, BC) order.
    """
    p = _check_unit_interval(p)
    c_ab = _unit_value(max(0.0, 0.5 * (1.0 - p - 2.0 * math.sqrt(p))), "concurrence")
    c_pair = _unit_value(max(0.0, (1.0 - p - math.sqrt(p * (1.0 + p))) / math.sqrt(2.0)), "concurrence")
    return c_ab, c_pair, c_pair


def c_abc_mixture(p: float) -> float:
    """Cut concurrence of the standard mixture across AB|C.

    sqrt(C^2_AC + C^2_BC + tau3(p)).  Equals 1 at both endpoints and
    vanishes identically on [1/3, p0] where every contribution is zero.
    """
    p = _check_unit_interval(p)
    _, c_ac, c_bc = reduced_concurrences_qc(p)
    return _unit_value(math.sqrt(c_ac**2 + c_bc**2 + three_tangle_ghzw(p)), "cut_concurrence")


def _mixture_matrix(p, params: GhzwMixtureParams | None) -> np.ndarray:
    # The mixture for a float p, or the stack (P, 8, 8) of them for a 1-D p.
    p = _check_unit_interval(p)
    g = params or GhzwMixtureParams.standard()
    ghz_vec = np.zeros(8, dtype=complex)
    ghz_vec[0], ghz_vec[7] = g.a, g.b
    w_vec = np.zeros(8, dtype=complex)
    w_vec[1], w_vec[2], w_vec[4] = g.c, g.d, g.f
    if isinstance(p, np.ndarray):
        p = p[..., None, None]
    return p * np.outer(ghz_vec, ghz_vec.conj()) + (1.0 - p) * np.outer(w_vec, w_vec.conj())


def channel_mixture_state(p: float, params: GhzwMixtureParams | None = None) -> DensityMatrix:
    """Rank-2 mixture p |GHZ-type><GHZ-type| + (1-p) |W-type><W-type|."""
    return DensityMatrix(3, _mixture_matrix(p, params))


def channel_mixture_stack(p, params: GhzwMixtureParams | None = None) -> np.ndarray:
    """The mixtures of :func:`channel_mixture_state` at each weight of a 1-D p, as a (P, 8, 8) stack.

    Every member is checked as a density matrix, as the single state is.
    """
    stack = _mixture_matrix(np.atleast_1d(p), params)
    _check_density(stack, 3, TOLERANCES, stacked=True)
    stack.flags.writeable = False
    return stack


# Fast per-member evaluators for the decomposition optimizer.  Both exploit
# homogeneity: on a subnormalized vector with weight = |w|^2, the raw
# concurrence expression is already weight * C(normalized), and the raw
# quartic tangle is weight^2 * tau(normalized).


def _concurrence_form(w: np.ndarray) -> np.ndarray:
    return w[:, 0] * w[:, 3] - w[:, 1] * w[:, 2]


@dataclass(frozen=True)
class RoofForm:
    """The signed polynomial behind a pure-state measure, for the roof search.

    form maps rows of unnormalized amplitudes to complex values and is
    homogeneous of the given degree.  A row w with weight |w|^2 contributes
    scale * |form(w)| to the roof objective, divided by the weight when
    per_weight is set; either way that is weight * measure(w / |w|).

    Along two rows the form is a binary form of the same degree,
    form(x wj + y wk) = sum_n h_n x^(d-n) y^n (:meth:`pair_coefficients`).
    """

    form: Callable[[np.ndarray], np.ndarray]
    degree: int
    scale: float
    per_weight: bool
    # Roots of unity w^k, k = 0..d, and the inverse of their Vandermonde
    # matrix V[k, n] = w^(k n), which is conj(V) / (d + 1).
    _roots: np.ndarray = field(init=False, repr=False, compare=False)
    _inverse_dft: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = np.arange(self.degree + 1)
        angle = 2.0 * np.pi / (self.degree + 1)
        object.__setattr__(self, "_roots", np.exp(1j * angle * k))
        object.__setattr__(self, "_inverse_dft", np.exp(-1j * angle * np.outer(k, k)) / (self.degree + 1))

    def contrib(self, rows: np.ndarray) -> np.ndarray:
        """Contribution of each row to the roof objective: weight * measure."""
        return self.score(self.form(rows), np.sum(rows.real**2 + rows.imag**2, axis=1))

    def score(self, values: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
        """Contributions of rows with these form values and weights.

        A row whose weight is at most 1e-12 contributes zero when the
        contribution divides by the weight.  ``weights=None`` means unit
        weights: the contribution is then the scaled modulus.
        """
        raw = np.abs(values)
        raw *= self.scale
        if weights is None or not self.per_weight:
            return raw
        return np.divide(raw, weights, out=np.zeros(raw.shape), where=weights > 1e-12)

    def pair_coefficients(self, wj: np.ndarray, wk: np.ndarray) -> np.ndarray:
        """Coefficients h_0..h_d of form(x wj + y wk) = sum_n h_n x^(d-n) y^n.

        h_0 = form(wj) and h_d = form(wk) exactly.  The middle ones come
        from the form at y = t w^k (an inverse DFT), less the two end terms,
        with t = |wj| / |wk| so that each carries an error relative to its
        own scale |wj|^(d-n) |wk|^n; a zero row gives exact zeros.

        Rows of shape (dim,) give shape (d + 1,); (B, dim) stacks of B pairs
        give (B, d + 1), with all B (d + 3) form values in one call.
        """
        d = self.degree
        single = np.ndim(wj) == 1
        ends = np.stack((np.atleast_2d(wj), np.atleast_2d(wk)), axis=1)
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
        return h[0] if single else h


_CONCURRENCE_FORM = RoofForm(_concurrence_form, degree=2, scale=2.0, per_weight=False)
_TANGLE_FORM = RoofForm(_tangle_form, degree=4, scale=4.0, per_weight=True)
_tangle_contrib = _TANGLE_FORM.contrib

concurrence_pure2.roof_form = _CONCURRENCE_FORM
concurrence_pure2.roof_contrib = _CONCURRENCE_FORM.contrib
concurrence_pure2.roof_contrib_dim = 4
three_tangle_pure.roof_form = _TANGLE_FORM
three_tangle_pure.roof_contrib = _tangle_contrib
three_tangle_pure.roof_contrib_dim = 8
