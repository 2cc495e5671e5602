"""Direct numerical search over pure-state decompositions of a mixed state.

Any size-m decomposition of a rank-r density matrix arises from an m x r
matrix with orthonormal columns applied to the scaled eigenvectors, so the
search space is the isometry manifold.  The optimizer walks it with
incremental two-row rotations: for a pair of decomposition members it
scans a rotation angle and relative phase on a coarse-to-fine grid,
keeps the best move, and sweeps over all pairs in random order until a
full sweep stops paying.  For measures given as a signed polynomial
(the tangle, the two-qubit concurrence) the scan scores its grid from the
pair's polynomial coefficients and 2 x 2 Gram matrix, without rotating rows.

Measures whose pure-state value vanishes on curved families (the
three-party tangle above all) produce a landscape where the summed
objective has spurious valleys.  Each restart therefore descends twice:
first on the sum of squared member contributions, whose smooth minimum
sits on the same zero set, then on the true weighted sum.  Multiple
restarts (one seeded from the eigendecomposition itself, the rest from
Haar-random isometries) guard against the remaining local minima.

Everything here is an upper bound on the true convex roof; agreement
with a closed form, never the search alone, is the validation signal.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .entanglement import GhzwMixtureParams, channel_mixture_state, ghzw_superposition
from .qcore import DensityMatrix, PureState, hermitian_eigensystem, validate_density
from .tolerances import get_default

_CONFIG_KEYS = ("restarts", "ensemble_size", "seed", "max_iters", "improve_tol")


@dataclass(frozen=True)
class RoofConfig:
    """Search budget and seeding for :func:`minimize_roof`."""

    restarts: int = 8
    ensemble_size: Optional[int] = None
    max_iters: int = 500
    seed: int = 42
    improve_tol: float = 1e-10

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.improve_tol > 0.0):
            raise ValueError("improve_tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @classmethod
    def from_mapping(cls, data: Mapping) -> "RoofConfig":
        unknown = set(data) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown roof config keys: {sorted(unknown)}")
        return cls(**{k: data[k] for k in _CONFIG_KEYS if k in data})

    @classmethod
    def from_json(cls, text: str) -> "RoofConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("roof config JSON must be an object")
        return cls.from_mapping(data)


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure-state decomposition; weights sum to one."""

    members: tuple

    def __post_init__(self):
        tols = get_default()
        members = tuple((float(w), psi) for w, psi in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        n = members[0][1].num_qubits
        total = 0.0
        for w, psi in members:
            if not isinstance(psi, PureState) or psi.num_qubits != n:
                raise ValueError("ensemble members must be pure states on the same qubits")
            if not (0.0 < w <= 1.0 + tols.weight_sum_atol):
                raise ValueError(f"member weight {w!r} outside (0, 1]")
            total += w
        if abs(total - 1.0) > tols.weight_sum_atol:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def num_qubits(self) -> int:
        return self.members[0][1].num_qubits

    def reconstruct(self) -> np.ndarray:
        dim = 2**self.num_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for w, psi in self.members:
            out += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return out

    def average(self, measure: Callable[[PureState], float]) -> float:
        return float(sum(w * float(measure(psi)) for w, psi in self.members))


@dataclass(frozen=True)
class RoofResult:
    upper_bound: float
    best_ensemble: Ensemble
    restarts_used: int
    converged: bool


def _rank_factor(rho: DensityMatrix):
    # Rows of the returned factor are scaled eigenvectors: rho = C^T conj(C).
    tols = get_default()
    vals, vecs = hermitian_eigensystem(rho.matrix)
    r = int(np.sum(vals > tols.rank_cutoff))
    if r == 0:
        raise ValueError("density matrix has no eigenvalue above the rank cutoff")
    factor = (vecs[:, :r] * np.sqrt(np.clip(vals[:r], 0.0, None))).T
    return r, factor


def _ensemble_from_rows(rho: DensityMatrix, rows: np.ndarray) -> Ensemble:
    tols = get_default()
    weights = np.sum(np.abs(rows) ** 2, axis=1)
    members = []
    for j in range(rows.shape[0]):
        w = float(weights[j])
        if w > tols.weight_drop:
            members.append((w, PureState(rho.num_qubits, rows[j] / math.sqrt(w))))
    ens = Ensemble(tuple(members))
    err = float(np.abs(ens.reconstruct() - rho.matrix).max())
    if err > tols.reconstruction_atol:
        raise ValueError(f"decomposition fails to reconstruct the state: error {err:.3e}")
    return ens


def ensemble_from_mixing(rho, mixing) -> Ensemble:
    """Decomposition induced by an m x r column-orthonormal mixing matrix.

    r must match the numerical rank of rho; members with negligible
    weight are dropped.
    """
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho)
    tols = get_default()
    r, factor = _rank_factor(rho)
    m = np.atleast_2d(np.asarray(mixing, dtype=complex))
    if m.shape[1] != r or m.shape[0] < r:
        raise ValueError(f"mixing must be m x {r} with m >= {r}, got {m.shape}")
    gram_err = float(np.abs(m.conj().T @ m - np.eye(r)).max())
    if gram_err > tols.mixing_orthonormal_atol:
        raise ValueError(f"mixing columns not orthonormal: deviation {gram_err:.3e}")
    return _ensemble_from_rows(rho, m @ factor)


def _generic_contrib(num_qubits: int, measure) -> Callable[[np.ndarray], np.ndarray]:
    drop = get_default().weight_drop

    def contrib(rows: np.ndarray) -> np.ndarray:
        weights = np.sum(np.abs(rows) ** 2, axis=1)
        out = np.zeros(rows.shape[0])
        for j, w in enumerate(weights):
            if w > drop:
                psi = PureState(num_qubits, rows[j] / math.sqrt(w))
                out[j] = w * float(measure(psi))
        return out

    return contrib


def _scan_levels() -> tuple:
    # (theta, phi) offsets of the coarse-to-fine schedule: a 17 x 17 grid
    # over the full rotation, then six 9 x 9 grids, each spanning one cell
    # of the previous level around its best point.
    levels = []
    span_t, span_p = math.pi / 2, math.pi
    points = 17
    for _ in range(7):
        levels.append((np.linspace(-span_t, span_t, points), np.linspace(-span_p, span_p, points)))
        span_t /= points - 1
        span_p /= points - 1
        points = 9
    return tuple(levels)


_SCAN_LEVELS = _scan_levels()


def _form_levels(d: int) -> tuple:
    # Tables that score a binary form of even degree d on every scan level.
    # The monomials x^(d-n) y^n are products of d/2 entries of (x^2, x y, y^2):
    # factor f of monomial n is entry min(2, max(0, n - 2 f)).  Per level:
    # the theta offsets times i, e^{i n phi} at the phi offsets (d+1, Gp),
    # and e^{i phi} (Gp,) for the row weights.
    n = np.arange(d + 1)
    factors = tuple(np.minimum(2, np.maximum(0, n - 2 * f)) for f in range(d // 2))
    levels = tuple(
        (th_off, ph_off, 1j * th_off, np.exp(1j * np.outer(n, ph_off)), np.exp(1j * ph_off))
        for th_off, ph_off in _SCAN_LEVELS
    )
    return n, factors, levels


_FORM_LEVELS = {d: _form_levels(d) for d in (2, 4)}


def _rotation_stack(th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    # Coefficients of both rotated rows for every (theta, phi) on the grid
    # th x ph (theta-major), stacked as a (2G, 2) array: row g maps the pair
    # (wj, wk) to the new row j, row G + g to the new row k.
    c = np.repeat(np.cos(th), ph.size)
    se = np.outer(np.sin(th), np.exp(1j * ph)).ravel()
    g = c.size
    rot = np.empty((2 * g, 2), dtype=complex)
    rot[:g, 0] = c
    rot[:g, 1] = se
    rot[g:, 0] = -se.conj()
    rot[g:, 1] = c
    return rot


def _pair_minimize(wj, wk, contrib, squared: bool):
    # Coarse-to-fine scan of the two-row rotation (theta, phi); the center
    # point (0, 0) is always a candidate, so the move never loses ground.
    # Each level rotates both rows at every grid point in one product and
    # scores all of them in one kernel call.  Used for measures without a
    # form, and as the reference for _pair_minimize_form.
    def combine(cj, ck):
        return cj * cj + ck * ck if squared else cj + ck

    pair = np.stack([wj, wk])
    cj, ck = contrib(pair)
    best = (float(combine(cj, ck)), 0.0, 0.0)
    for th_off, ph_off in _SCAN_LEVELS:
        th = best[1] + th_off
        ph = best[2] + ph_off
        scores = contrib(_rotation_stack(th, ph) @ pair)
        g = scores.size // 2
        vals = combine(scores[:g], scores[g:])
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (float(vals[i]), float(th[i // ph.size]), float(ph[i % ph.size]))
    return best


def _form_scorer(form, h, gaa: float, gbb: float, gab: complex):
    # Scores both rows of a pair, rotated to every (theta, phi) of a scan
    # level around (th0, ph0), from the pair's form coefficients h and its
    # Gram matrix [[gaa, gab], [conj(gab), gbb]]; rows are never rotated.
    # score(level, th0, ph0) returns a (2 Gt, Gp) array: row j's
    # contributions, then row k's.  Row j is c wj + s e^{i phi} wk and row k
    # is -s e^{-i phi} wj + c wk, so their forms are sum_n h_n e^{i n phi}
    # x^(d-n) y^n at (x, y) = (c, s) and (-s, c), up to a unit phase, and
    # their weights are x^2 gaa + 2 x y Re(gab e^{i phi}) + y^2 gbb.  The
    # monomials are products of cos and sin of theta themselves, so a row of
    # small weight keeps its relative precision (sums of e^{i k theta} would not).
    n, factors, _ = _FORM_LEVELS[form.degree]
    gab2 = 2.0 * gab

    def score(level, th0: float, ph0: float) -> np.ndarray:
        _, _, i_th, phases, turn_p = level
        e = np.exp(1j * th0 + i_th)
        xy = np.concatenate((e, 1j * e)).view(np.float64).reshape(-1, 2)
        quad = xy.take((0, 0, 1), axis=1) * xy.take((0, 1, 1), axis=1)
        mono = quad.take(factors[0], axis=1)
        for f in factors[1:]:
            mono = mono * quad.take(f, axis=1)
        values = mono @ ((h * np.exp(1j * ph0 * n))[:, np.newaxis] * phases)
        if not form.per_weight:
            return form.score(values, None)
        gram = np.empty((3, phases.shape[1]))
        gram[0] = gaa
        gram[1] = (gab2 * cmath.exp(1j * ph0) * turn_p).real
        gram[2] = gbb
        return form.score(values, quad @ gram)

    return score


def _pair_minimize_form(wj, wk, form, squared: bool):
    # The scan of _pair_minimize on the same grid, scored by _form_scorer.
    pair = np.stack([wj, wk])
    weights = np.sum(pair.real**2 + pair.imag**2, axis=1)
    h = form.pair_coefficients(wj, wk)
    # h_0 and h_d are form(wj) and form(wk), so this is form.contrib(pair).
    cj, ck = form.score(h[[0, -1]], weights)
    best = (float(cj * cj + ck * ck if squared else cj + ck), 0.0, 0.0)
    score = _form_scorer(form, h, float(weights[0]), float(weights[1]), complex(np.vdot(wj, wk)))
    for level in _FORM_LEVELS[form.degree][2]:
        th_off, ph_off = level[0], level[1]
        th0, ph0 = best[1], best[2]
        scores = score(level, th0, ph0)
        if squared:
            scores = scores * scores
        g = th_off.size
        vals = scores[:g] + scores[g:]
        i = int(vals.argmin())
        v = float(vals.flat[i])
        if v < best[0]:
            best = (v, th0 + float(th_off[i // ph_off.size]), ph0 + float(ph_off[i % ph_off.size]))
    return best


def _apply_pair(rows: np.ndarray, j: int, k: int, th: float, ph: float) -> None:
    c, s, e = math.cos(th), math.sin(th), np.exp(1j * ph)
    new_j = c * rows[j] + s * e * rows[k]
    rows[k] = -s * np.conj(e) * rows[j] + c * rows[k]
    rows[j] = new_j


def _descend(rows, pairs, contrib, form, rng, squared, max_iters, improve_tol):
    # Pair scans run on the measure's form when it has one; the per-sweep
    # totals always go through contrib.
    def scan(wj, wk):
        if form is not None:
            return _pair_minimize_form(wj, wk, form, squared)
        return _pair_minimize(wj, wk, contrib, squared)

    def total() -> float:
        c = contrib(rows)
        return float(np.sum(c * c) if squared else np.sum(c))

    order = list(pairs)
    val = total()
    converged = False
    for _ in range(max_iters):
        prev = val
        rng.shuffle(order)
        for j, k in order:
            _, th, ph = scan(rows[j], rows[k])
            if th != 0.0 or ph != 0.0:
                _apply_pair(rows, j, k, th, ph)
        val = total()
        if prev - val < improve_tol:
            converged = True
            break
    return val, converged


def _haar_isometry(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr)
    q = q * (d / np.abs(d))
    return q[:, :r]


def minimize_roof(rho, measure, cfg: RoofConfig | None = None) -> RoofResult:
    """Upper bound on the convex roof of a pure-state measure.

    measure maps a PureState to a value (float or float-convertible); a
    vectorized fast path is used when the callable carries roof_contrib /
    roof_contrib_dim attributes matching the state dimension, and its pair
    scans are scored from the measure's polynomial when it also carries a
    roof_form (an entanglement.RoofForm).  Deterministic for a fixed config.
    """
    cfg = cfg or RoofConfig()
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho)
    r, factor = _rank_factor(rho)
    m = cfg.ensemble_size if cfg.ensemble_size is not None else r + 2
    if m < r:
        raise ValueError(f"ensemble_size {m} is below the state rank {r}")

    fast = getattr(measure, "roof_contrib", None)
    form = None
    if fast is not None and getattr(measure, "roof_contrib_dim", None) == rho.dim:
        contrib = fast
        form = getattr(measure, "roof_form", None)
    else:
        contrib = _generic_contrib(rho.num_qubits, measure)

    pairs = [(j, k) for j in range(m - 1) for k in range(j + 1, m)]
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_obj = math.inf
    best_rows = None
    best_converged = False
    for t in range(cfg.restarts):
        rng = np.random.default_rng(children[t])
        if t == 0:
            mix = np.zeros((m, r), dtype=complex)
            mix[:r, :r] = np.eye(r)
        else:
            mix = _haar_isometry(m, r, rng)
        rows = mix @ factor
        _descend(rows, pairs, contrib, form, rng, True, cfg.max_iters, cfg.improve_tol)
        obj, converged = _descend(rows, pairs, contrib, form, rng, False, cfg.max_iters, cfg.improve_tol)
        if obj < best_obj:
            best_obj, best_rows, best_converged = obj, rows, converged

    ensemble = _ensemble_from_rows(rho, best_rows)
    upper = ensemble.average(measure)
    return RoofResult(upper, ensemble, cfg.restarts, best_converged)


def optimal_ghzw_ensemble(p: float, params: GhzwMixtureParams | None = None) -> Ensemble:
    """Zero-tangle decomposition of the GHZ/W mixture for p below p0.

    Spreads weight p/(3 p0) over the three tangle-free superpositions at
    relative phases 2 pi n / 3 and the rest on the W-type member; every
    member has vanishing tangle and the mixture is reproduced exactly.
    """
    g = params or GhzwMixtureParams.standard()
    p = float(p)
    if not (0.0 <= p <= g.p0 + 1e-12):
        raise ValueError(f"p must lie in [0, p0 = {g.p0:.6f}], got {p!r}")
    p = min(p, g.p0)
    drop = get_default().weight_drop
    members = []
    w_branch = p / (3.0 * g.p0)
    for n in range(3):
        if w_branch > drop:
            members.append((w_branch, ghzw_superposition(g.p0, 2.0 * math.pi * n / 3.0, g)))
    w_rest = 1.0 - p / g.p0
    if w_rest > drop:
        amps = np.zeros(8, dtype=complex)
        amps[1], amps[2], amps[4] = g.c, g.d, g.f
        members.append((w_rest, PureState(3, amps)))
    ens = Ensemble(tuple(members))
    target = channel_mixture_state(p, g).matrix
    err = float(np.abs(ens.reconstruct() - target).max())
    if err > 1e-10:
        raise ValueError(f"ensemble fails to reproduce the mixture: error {err:.3e}")
    return ens
