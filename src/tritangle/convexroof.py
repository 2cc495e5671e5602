"""Convex roofs: a decomposition search, and a linear program at rank 2.

The search (:func:`minimize_roof`) works at any rank.

Any size-m decomposition of a rank-r density matrix arises from an m x r
matrix with orthonormal columns applied to the scaled eigenvectors, so the
search space is the isometry manifold.  The optimizer walks it with
incremental two-row rotations: for a pair of decomposition members it
scans a rotation angle and relative phase on a coarse-to-fine grid and
keeps the best move.  A sweep visits every pair once, in the rounds of a
random round-robin schedule (the circle method on a random relabelling
of the members, its rounds in random order), so the pairs of one round
share no member and move independently; sweeps repeat until one stops
paying.  The measure is given as a signed polynomial (the tangle, the
two-qubit concurrence), so the scan scores its grid from the pair's
polynomial coefficients and 2 x 2 Gram matrix, without rotating rows.

Measures whose pure-state value vanishes on curved families (the
three-party tangle above all) produce a landscape where the summed
objective has spurious valleys.  Each restart therefore descends twice:
first on the sum of squared member contributions, whose smooth minimum
sits on the same zero set, then on the true weighted sum.  Multiple
restarts, each from a Haar-random isometry, guard against the remaining
local minima (the eigendecomposition is no start: on the GHZ/W mixture it
is a stationary point that a restart never leaves).  The
restarts run in lockstep: round k of every restart still descending is
scored in one stacked scan, all restarts finish the squared phase before
any starts the plain one, and a restart that has converged waits, so
each restart's sequence depends only on its own seed.

At rank <= 2 the roof is solved instead by :func:`roof_rank2`.  The pure
states in the range form a Bloch sphere, and the roof at the state is the
convex envelope of the measure there (Lohmayer et al., PRL 97, 260502
(2006); Osterloh, Siewert and Uhlmann, PRA 77, 032310 (2008)): a linear
program with 4 equality rows over points of the sphere, solved by a dense
revised simplex on a grid seeded with the measure's zeros, with cutting
planes at the local minima of the measure less the dual plane.  Its basic
solution is a decomposition of at most 4 members.

Everything here is an upper bound on the true convex roof, the average of
the measure over an explicit decomposition; agreement with a closed form,
never one method alone, is the validation signal.  The search stays the
tests' independent oracle for the LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .entanglement import GhzwMixtureParams, channel_mixture_state, ghzw_superposition
from .qcore import DensityMatrix, PureState, hermitian_eigensystem, validate_density
from .tolerances import TOLERANCES


@dataclass(frozen=True)
class RoofConfig:
    """Search budget and seeding for :func:`minimize_roof`."""

    restarts: int = 8
    ensemble_size: Optional[int] = None
    max_iters: int = 500
    seed: int = 42

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure-state decomposition; weights sum to one."""

    members: tuple

    def __post_init__(self):
        atol = TOLERANCES.weight_sum_atol
        members = tuple((float(w), psi) for w, psi in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        n = members[0][1].num_qubits
        total = 0.0
        for w, psi in members:
            if not isinstance(psi, PureState) or psi.num_qubits != n:
                raise ValueError("ensemble members must be pure states on the same qubits")
            if not (0.0 < w <= 1.0 + atol):
                raise ValueError(f"member weight {w!r} outside (0, 1]")
            total += w
        if abs(total - 1.0) > atol:
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

    def reconstruction_error(self, rho: DensityMatrix) -> float:
        """Largest entry of |reconstruct() - rho|."""
        return float(np.abs(self.reconstruct() - rho.matrix).max())

    def average(self, measure: Callable[[PureState], float]) -> float:
        return float(sum(w * measure(psi) for w, psi in self.members))


@dataclass(frozen=True)
class RoofResult:
    upper_bound: float
    best_ensemble: Ensemble
    restarts_used: int
    converged: bool
    # Each restart's final objective and convergence flag, in restart
    # order; best_ensemble comes from the first restart of least objective.
    restart_objectives: tuple
    restart_converged: tuple


def _rank_factor(rho: DensityMatrix):
    # Rows of the returned factor are scaled eigenvectors: rho = C^T conj(C).
    vals, vecs = hermitian_eigensystem(rho.matrix)
    r = int(np.sum(vals > TOLERANCES.rank_cutoff))
    if r == 0:
        raise ValueError("density matrix has no eigenvalue above the rank cutoff")
    factor = (vecs[:, :r] * np.sqrt(np.clip(vals[:r], 0.0, None))).T
    return r, factor


def _ensemble_from_rows(rho: DensityMatrix, rows: np.ndarray) -> Ensemble:
    weights = np.sum(np.abs(rows) ** 2, axis=1)
    members = []
    for j in range(rows.shape[0]):
        w = float(weights[j])
        if w > TOLERANCES.weight_drop:
            members.append((w, PureState(rho.num_qubits, rows[j] / math.sqrt(w))))
    ens = Ensemble(tuple(members))
    err = ens.reconstruction_error(rho)
    if err > TOLERANCES.reconstruction_atol:
        raise ValueError(f"decomposition fails to reconstruct the state: error {err:.3e}")
    return ens


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
    # the theta and phi offsets, the theta offsets times i, e^{i n phi} at
    # the phi offsets (d+1, Gp), e^{i phi} (Gp,) for the row weights, and
    # the (theta, phi) offsets of each flat (theta-major) grid index (2, G).
    n = np.arange(d + 1)
    factors = tuple(np.minimum(2, np.maximum(0, n - 2 * f)) for f in range(d // 2))
    levels = tuple(
        (
            th_off,
            ph_off,
            1j * th_off,
            np.exp(1j * np.outer(n, ph_off)),
            np.exp(1j * ph_off),
            np.stack((np.repeat(th_off, ph_off.size), np.tile(ph_off, th_off.size))),
        )
        for th_off, ph_off in _SCAN_LEVELS
    )
    return 1j * n, factors, levels


_FORM_LEVELS = {d: _form_levels(d) for d in (2, 4)}

# Pairs per stacked scan call.  A grid level's temporaries take about 10 KB
# per pair on the 17 x 17 level, so a chunk of 64 keeps each below 1 MB
# whatever the budget (1000 restarts of 64 members would stack 32000 pairs
# in one round); the default budgets stack at most a few pairs per round.
_SCAN_CHUNK = 64


def _pair_terms(form, wj, wk):
    # What the form scan needs of B pairs, stacked (B, dim): the form
    # coefficients h (B, d+1), the row weights |wj|^2 and |wk|^2 (B, 2, 1),
    # and twice the overlap <wj|wk> (B,).
    # The weights are summed as form.contrib sums them, row by row.
    ends = np.stack((wj, wk), axis=1)
    weights = np.sum(ends.real**2 + ends.imag**2, axis=2)
    gab2 = 2.0 * np.einsum("bi,bi->b", wj.conj(), wk)
    return form.pair_coefficients(wj, wk), weights[:, :, np.newaxis], gab2


# (x, y) of row j is (c, s), the parts of e^{i theta}; of row k it is
# (-s, c), the parts of i e^{i theta}.
_ROW_TURNS = np.array([1.0, 1.0j])[:, np.newaxis, np.newaxis]


def _level_scores(form, level, terms, th0: np.ndarray, ph0: np.ndarray) -> np.ndarray:
    # Scores both rows of B pairs, each rotated to every (theta, phi) of a
    # scan level around its own center (th0[b], ph0[b]), from the pairs'
    # form coefficients and Gram terms; rows are never rotated.  Returns a
    # (2, B, Gt, Gp) array: row j's contributions, then row k's.  Row j is
    # c wj + s e^{i phi} wk and row k is -s e^{-i phi} wj + c wk, so their
    # forms are sum_n h_n e^{i n phi} x^(d-n) y^n at (x, y) = (c, s) and
    # (-s, c), up to a unit phase, and their weights are
    # x^2 gaa + 2 x y Re(gab e^{i phi}) + y^2 gbb.  The monomials are
    # products of cos and sin of theta themselves, so a row of small weight
    # keeps its relative precision (sums of e^{i k theta} would not).
    i_n, factors, _ = _FORM_LEVELS[form.degree]
    i_th, phases, turn_p = level[2:5]
    h, weights, gab2 = terms
    e = np.exp((1j * th0)[:, np.newaxis] + i_th)
    xy = (e * _ROW_TURNS).view(np.float64).reshape(2, e.shape[0], -1, 2)
    quad = xy.take((0, 0, 1), axis=3) * xy.take((0, 1, 1), axis=3)
    mono = quad.take(factors[0], axis=3)
    for f in factors[1:]:
        mono = mono * quad.take(f, axis=3)
    # mono is real, so its product with the coefficients' (re, im) pairs is
    # the complex product, read back as complex values.
    turn = np.exp(ph0[:, np.newaxis] * i_n)
    coef = (h * turn)[:, :, np.newaxis] * phases
    values = (mono @ coef.view(np.float64)).view(np.complex128)
    if not form.per_weight:
        return form.score(values, None)
    gram = np.empty((e.shape[0], 3, turn_p.size))
    gram[:, ::2] = weights
    gram[:, 1] = ((gab2 * turn[:, 1])[:, np.newaxis] * turn_p).real
    return form.score(values, quad @ gram)


def _form_scan(wj, wk, form, squared: bool):
    # Coarse-to-fine scan of the two-row rotation (theta, phi) for B pairs
    # at once, stacked (B, dim), each level scored by _level_scores; the
    # center (0, 0) is always a candidate, so a move never loses ground.
    # Returns the best objective and its (theta, phi) per pair, each (B,).
    terms = _pair_terms(form, wj, wk)
    h, weights, _ = terms
    # h_0 and h_d are form(wj) and form(wk), so this is form.contrib of the pair.
    start = form.score(h[:, ::form.degree], weights[:, :, 0])
    if squared:
        start = start * start
    best = start[:, 0] + start[:, 1]
    pick = np.arange(best.size)
    center = np.zeros((2, best.size))
    for level in _FORM_LEVELS[form.degree][2]:
        scores = _level_scores(form, level, terms, center[0], center[1])
        if squared:
            scores *= scores
        vals = (scores[0] + scores[1]).reshape(best.size, -1)
        i = vals.argmin(axis=1)
        v = vals[pick, i]
        better = v < best
        best = np.where(better, v, best)
        center = np.where(better, center + level[5][:, i], center)
    return best, center[0], center[1]


def _apply_pairs(rows: np.ndarray, t, j, k, th, ph) -> None:
    # Rotates the pairs (rows[t, j], rows[t, k]) by their (theta, phi) moves,
    # all at once; the pairs must be disjoint.
    c = np.cos(th)[:, np.newaxis]
    se = (np.sin(th) * np.exp(1j * ph))[:, np.newaxis]
    wj, wk = rows[t, j], rows[t, k]
    rows[t, j] = c * wj + se * wk
    rows[t, k] = c * wk - se.conj() * wj


def _round_robin(m: int) -> np.ndarray:
    # Circle method: every pair of m members exactly once, in rounds of
    # disjoint pairs; m - 1 rounds of m/2 pairs for even m, and for odd m a
    # phantom member gives m rounds in which one member sits out.
    n = m + m % 2
    rounds = []
    for r in range(n - 1):
        pairs = [(r, n - 1)] + [((r + i) % (n - 1), (r - i) % (n - 1)) for i in range(1, n // 2)]
        rounds.append([pair for pair in pairs if max(pair) < m])
    return np.array(rounds, dtype=np.intp).reshape(max(n - 1, 1), m // 2, 2)


# A restart stops, converged, once a sweep lowers its objective by less.
_IMPROVE_TOL = 1e-10


def _lockstep(rows, rngs, table, form, total, squared, max_iters):
    # Descends every restart at once.  A sweep of a restart runs its rng's
    # round-robin schedule: the table's rounds in a random order, on a
    # random relabelling of the members.  Round k of every active restart
    # is scored in one stacked scan and moved in one update; a restart
    # whose sweep stopped paying waits, so its own sequence does not depend
    # on the others.  Returns each restart's objective and convergence.
    restarts, m = rows.shape[:2]
    vals = np.array([total(rows[t], squared) for t in range(restarts)])
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for _ in range(max_iters):
        draws = [(rngs[t].permutation(m), rngs[t].permutation(len(table))) for t in active]
        labels = np.array([perm for perm, _ in draws])
        orders = np.array([order for _, order in draws])
        owner = np.repeat(active, table.shape[1])
        relabel = np.arange(active.size)[:, np.newaxis, np.newaxis]
        for rnd in orders.T:
            j, k = labels[relabel, table[rnd]].reshape(-1, 2).T
            for lo in range(0, owner.size, _SCAN_CHUNK):
                c = slice(lo, lo + _SCAN_CHUNK)
                t = owner[c]
                _, th, ph = _form_scan(rows[t, j[c]], rows[t, k[c]], form, squared)
                _apply_pairs(rows, t, j[c], k[c], th, ph)
        prev = vals[active]
        vals[active] = [total(rows[t], squared) for t in active]
        stopped = prev - vals[active] < _IMPROVE_TOL
        converged[active[stopped]] = True
        active = active[~stopped]
        if active.size == 0:
            break
    return vals, converged


def _roof_form(measure, rho: DensityMatrix, caller: str):
    # The measure's RoofForm on rho's dimension, which both roof routines need.
    form = getattr(measure, "roof_form", None)
    if form is None or getattr(measure, "roof_contrib_dim", None) != rho.dim:
        raise ValueError(f"{caller} needs a measure with a roof form on dimension {rho.dim}")
    return form


def _haar_isometry(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, rr = np.linalg.qr(z)
    d = np.diagonal(rr)
    q = q * (d / np.abs(d))
    return q[:, :r]


def minimize_roof(rho, measure, cfg: RoofConfig | None = None) -> RoofResult:
    """Upper bound on the convex roof of a pure-state measure.

    measure maps a PureState to a value and must carry a roof_form (an
    entanglement.RoofForm), which scores the pair scans, and a roof_contrib
    kernel, which sums each sweep, on the state dimension roof_contrib_dim,
    as three_tangle_pure and concurrence_pure2 do; any other measure raises
    ValueError, as in :func:`roof_rank2`.  Deterministic for a fixed config.
    """
    cfg = cfg or RoofConfig()
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho)
    r, factor = _rank_factor(rho)
    m = cfg.ensemble_size if cfg.ensemble_size is not None else r + 2
    if m < r:
        raise ValueError(f"ensemble_size {m} is below the state rank {r}")
    form = _roof_form(measure, rho, "minimize_roof")

    # Pair scans run on the measure's form; the per-sweep totals go through
    # its roof_contrib kernel, one restart at a time.
    def total(rows, squared) -> float:
        c = measure.roof_contrib(rows)
        return float(np.sum(c * c) if squared else np.sum(c))

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    rngs = [np.random.default_rng(child) for child in children]
    rows = np.empty((cfg.restarts, m, factor.shape[1]), dtype=complex)
    for t, rng in enumerate(rngs):
        rows[t] = _haar_isometry(m, r, rng) @ factor
    table = _round_robin(m)
    _lockstep(rows, rngs, table, form, total, True, cfg.max_iters)
    objs, converged = _lockstep(rows, rngs, table, form, total, False, cfg.max_iters)

    best = int(np.argmin(objs))
    ensemble = _ensemble_from_rows(rho, rows[best])
    upper = ensemble.average(measure)
    return RoofResult(
        upper,
        ensemble,
        cfg.restarts,
        bool(converged[best]),
        tuple(float(v) for v in objs),
        tuple(bool(c) for c in converged),
    )


# --- rank 2: the roof as a linear program on the Bloch sphere ---------------

# Polar angles 0..pi (both poles included) by azimuths 0..2 pi (periodic):
# the columns that every LP starts from.  Temporaries stay near 1 MB.
_LP_GRID = (61, 120)
# Cutting-plane rounds, and grid minima of tau - l refined in each round.
_LP_ROUNDS = 10
_LP_CUTS = 8
# Simplex pivots per solve, and the reduced cost (and violation of the dual
# plane) that counts as negative.
_LP_PIVOTS = 200
_LP_TOL = 1e-12
# Depth below the dual plane that makes a cut.  Weights sum to one, so with
# no point of the sphere deeper than this the bound is within it of the roof.
_LP_DEPTH = 1e-10
# Local refinement of a cut: 9 x 9 offsets spanning one grid cell around the
# best point so far, shrinking fourfold per level, to steps of about 5e-8 rad
# (one row per level).
_LP_REFINE = np.linspace(-1.0, 1.0, 9) / 4.0 ** np.arange(10)[:, np.newaxis]
# Stencils a refinement may score beyond one per level.  A center whose best
# point lands on the border of its stencil steps back a level instead of on,
# so it follows a narrow valley of tau - l past the 4/3 cell that shrinking
# stencils alone reach.
_LP_WALK = 8
# The border of the 9 x 9 stencil, in its flat order.
_LP_BORDER = np.pad(np.zeros((7, 7), dtype=bool), 1, constant_values=True).ravel()
# Offsets, in patch widths, of the columns added around a cut.  A patch
# spans the cut's distance to the nearest member, so it straddles the contact
# point of the dual plane between them at a quarter of that distance (one
# column per cut would only halve the distance per round).
_LP_PATCH = np.linspace(-1.0, 1.0, 9)


@dataclass(frozen=True)
class Rank2Roof:
    """Convex roof of a state of rank <= 2, from :func:`roof_rank2`.

    upper_bound is ensemble.average(measure).  converged is True when the
    last cutting round found no point of the sphere more than 1e-10 below
    the dual plane (the bound is then within 1e-10 of the roof), False when
    the rounds (or a solve's pivots) ran out first.
    """

    upper_bound: float
    ensemble: Ensemble
    converged: bool
    rounds: int
    pivots: int


def numerical_rank(rho) -> int:
    """Rank as the roof routines count it: eigenvalues above rank_cutoff."""
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho)
    return _rank_factor(rho)[0]


def _sphere_values(form, h: np.ndarray, th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    # The measure at Bloch angles (th, ph), broadcast together: the unit
    # vector cos(th/2) e1 + e^{i ph} sin(th/2) e2 has form value
    # sum_n h_n cos^(d-n)(th/2) sin^n(th/2) e^{i n ph}.
    n = np.arange(form.degree + 1)
    c = np.cos(0.5 * th)[..., np.newaxis]
    s = np.sin(0.5 * th)[..., np.newaxis]
    mono = c ** (form.degree - n) * s**n
    values = np.einsum("...n,...n->...", mono * h, np.exp(1j * ph[..., np.newaxis] * n))
    return form.score(values, None)


def _bloch_columns(th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    # LP columns (1, n) for the Bloch vectors n at angles (th, ph): (4, N).
    st = np.sin(th)
    return np.stack((np.ones(th.shape), st * np.cos(ph), st * np.sin(ph), np.cos(th)))


def _simplex(a, c, b, basis):
    # Dense revised simplex for min c.x subject to a x = b, x >= 0, from the
    # feasible basis given (updated in place); Dantzig's entering rule.
    # Returns the basic solution, the dual solution, the pivots taken and
    # whether optimality was reached within _LP_PIVOTS.
    for pivots in range(_LP_PIVOTS + 1):
        ab = a[:, basis]
        x = np.linalg.solve(ab, b)
        y = np.linalg.solve(ab.T, c[basis])
        reduced = c - y @ a
        j = int(np.argmin(reduced))
        if reduced[j] >= -_LP_TOL or pivots == _LP_PIVOTS:
            return x, y, pivots, bool(reduced[j] >= -_LP_TOL)
        # a's first row is all ones, so the direction sums to one and has a
        # positive entry: the feasible set is bounded.
        u = np.linalg.solve(ab, a[:, j])
        ratios = np.full(u.shape, np.inf)
        pos = u > _LP_TOL
        ratios[pos] = np.maximum(x[pos], 0.0) / u[pos]
        basis[int(np.argmin(ratios))] = j


def _basic_weights(ab: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    # The basic solution x with no negative weight.  In a nearly singular
    # basis (columns a hair apart) rounding can split a weight into a
    # negative and a positive part; such columns leave, and the rest are
    # refitted to ab w = b by least squares, until no weight is negative.
    w = x
    while (w < 0.0).any():
        keep = w > 0.0
        w = np.zeros(x.shape)
        w[keep] = np.linalg.lstsq(ab[:, keep], b, rcond=None)[0]
    return w


def _grid_minima(f: np.ndarray) -> np.ndarray:
    # Flat indices of the points of the (theta, phi) grid that are no larger
    # than their eight neighbours (phi periodic), smallest first; a pole row
    # is one point, so only its first entry counts.  Framed by +inf rows
    # beyond the poles and the wrapped phi columns, each of the eight
    # neighbours is a shifted slice of one array.
    gt, gp = f.shape
    ext = np.full((gt + 2, gp + 2), np.inf)
    ext[1:-1, 1:-1] = f
    ext[1:-1, [0, -1]] = f[:, [-1, 0]]
    low = np.ones(f.shape, dtype=bool)
    for dt in range(3):
        for dp in range(3):
            if dt != 1 or dp != 1:
                low &= f <= ext[dt : dt + gt, dp : dp + gp]
    low[0, 1:] = low[-1, 1:] = False
    idx = np.flatnonzero(low)
    return idx[np.argsort(f.ravel()[idx], kind="stable")]


def _stencil(th: np.ndarray, ph: np.ndarray, width, offsets: np.ndarray):
    # The points (th + width o, ph + width o') for every pair of offsets
    # (o, o'), around each of K centers, width a scalar or one per center:
    # two (K, offsets.size^2) arrays.
    w = np.broadcast_to(width, th.shape)[:, np.newaxis, np.newaxis]
    t, p = np.broadcast_arrays(
        th[:, np.newaxis, np.newaxis] + w * offsets[:, np.newaxis],
        ph[:, np.newaxis, np.newaxis] + w * offsets,
    )
    return t.reshape(th.size, -1), p.reshape(th.size, -1)


def _plane_gap_table(form, h: np.ndarray, y: np.ndarray, th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    # tau - l, with l(n) = y.(1, n), at every (th[k, i], ph[k, j]): a (K, a, b)
    # table from the (K, a) polar and (K, b) azimuthal tables of K centers.
    # Both are separable: the form value is sum_n (h_n c^(d-n) s^n) e^{i n ph},
    # one product of a theta table and a phi table, and l is
    # y0 + y3 cos th + sin th (y1 cos ph + y2 sin ph), an outer sum.
    n = np.arange(form.degree + 1)
    c = np.cos(0.5 * th)
    s = np.sin(0.5 * th)
    mono = c[..., np.newaxis] ** (form.degree - n) * s[..., np.newaxis] ** n * h
    turn = np.exp(1j * ph)
    tau = form.score(mono @ turn[:, np.newaxis] ** n[:, np.newaxis], None)
    tilt = ((y[1] - 1j * y[2]) * turn).real
    polar = y[0] + y[3] * (c * c - s * s)
    return tau - polar[:, :, np.newaxis] - (2.0 * s * c)[:, :, np.newaxis] * tilt[:, np.newaxis]


def _refine(f, th: np.ndarray, ph: np.ndarray, cell: float):
    # Coarse-to-fine search for a local minimum of f around each start
    # point; the center is always a candidate, so f never rises.  f scores
    # the product of each center's polar and azimuthal offsets, (K, 9, 9),
    # read in the flat order i 9 + j of the 9 x 9 stencil (theta-major).
    # Each center keeps its own level of _LP_REFINE: it goes one level finer
    # after a stencil, or one coarser after a move to the stencil's border,
    # and is done past the finest level or when the stencils run out.
    best = f(th[:, np.newaxis], ph[:, np.newaxis])[:, 0, 0]
    pick = np.arange(th.size)
    levels, size = _LP_REFINE.shape
    level = np.zeros(th.size, dtype=int)
    for _ in range(levels + _LP_WALK):
        if level.min() >= levels:
            break
        offsets = cell * _LP_REFINE[np.minimum(level, levels - 1)]
        t = th[:, np.newaxis] + offsets
        p = ph[:, np.newaxis] + offsets
        vals = f(t, p).reshape(th.size, -1)
        i = vals.argmin(axis=1)
        low = vals[pick, i]
        better = (low < best) & (level < levels)
        best = np.where(better, low, best)
        th = np.where(better, t[pick, i // size], th)
        ph = np.where(better, p[pick, i % size], ph)
        level = np.where(better & _LP_BORDER[i], np.maximum(level - 1, 0), level + 1)
    return th, ph, best


def roof_rank2(rho, measure) -> Rank2Roof:
    """Convex roof of a pure-state measure at a state of rank <= 2, by LP.

    The pure states in the range of rho = l1 |e1><e1| + l2 |e2><e2| are the
    points n of a Bloch sphere, and a decomposition is a set of points with
    weights x_i >= 0 and sum_i x_i (1, n_i) = (1, 0, 0, (l1 - l2)/(l1 + l2)).
    So the roof is the linear program min sum_i x_i tau(n_i) over such
    points; its basic solution is a decomposition of at most 4 members.
    The measure must carry a roof_form (an entanglement.RoofForm) for the
    state dimension; tau is read off the form's pair coefficients of
    (e1, e2).  The columns are a 61 x 120 grid plus the zeros of tau (the
    roots of the pair polynomial, which a grid misses).  With the dual
    plane l(n) = y.(1, n), each cutting round refines the lowest local
    minima of tau - l on the grid, and the members (where tau - l is zero),
    and adds those more than 1e-10 below l as columns, until none is
    (converged) or 10 rounds have run.

    The returned ensemble is checked to reconstruct rho, and its average
    of measure is the upper bound, as for :func:`minimize_roof`.  Rank 1
    returns the state itself.  Raises ValueError above rank 2.
    """
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho)
    form = _roof_form(measure, rho, "roof_rank2")
    r, factor = _rank_factor(rho)
    if r > 2:
        raise ValueError(f"roof_rank2 needs a state of rank <= 2, got rank {r}")
    if r == 1:
        ensemble = _ensemble_from_rows(rho, factor)
        return Rank2Roof(ensemble.average(measure), ensemble, True, 0, 0)

    lam = np.sum(np.abs(factor) ** 2, axis=1)
    e1, e2 = factor / np.sqrt(lam)[:, np.newaxis]
    h = form.pair_coefficients(e1, e2)

    def tau(th, ph):
        return _sphere_values(form, h, th, ph)

    gt, gp = _LP_GRID
    grid_th = np.linspace(0.0, math.pi, gt)
    grid_ph = np.linspace(0.0, 2.0 * math.pi, gp, endpoint=False)
    # Zeros of tau: the roots z = y/x of sum_n h_n z^n at the angles
    # (2 atan|z|, arg z); a missing root (h_d = 0) is the south pole, a grid
    # point.  Coefficients below eps of the largest count as zero, which
    # moves tau by at most d eps of its scale and keeps the roots finite.
    coef = h[::-1] / max(float(np.abs(h).max()), np.finfo(float).tiny)
    coef[np.abs(coef) < np.finfo(float).eps] = 0.0
    z = np.roots(coef)
    root_th, root_ph = 2.0 * np.arctan(np.abs(z)), np.angle(z)
    th = np.concatenate((np.repeat(grid_th, gp), root_th))
    ph = np.concatenate((np.tile(grid_ph, gt), root_ph))
    a = _bloch_columns(th, ph)
    # The grid is scored as a product of a theta table and a phi table.
    c = np.concatenate((tau(grid_th[:, np.newaxis], grid_ph).ravel(), tau(root_th, root_ph)))
    b = np.array([1.0, 0.0, 0.0, (lam[0] - lam[1]) / (lam[0] + lam[1])])
    # North pole, south pole and the equator at phi = 0 and pi/2: the
    # eigendecomposition, plus two members of zero weight.
    basis = np.array([0, (gt - 1) * gp, (gt // 2) * gp, (gt // 2) * gp + gp // 4])

    # The grid is square: pi/60 in both angles.
    cell = grid_th[1]

    def cuts(y, support):
        # Points below the plane l(n) = y.(1, n): the lowest local minima of
        # tau - l on the grid and the members (a dip of tau - l between two
        # close members is narrower than a grid cell), refined, each with
        # the width of its patch, its distance to the nearest member
        # (support columns), at most one cell; a cut within the patch of a
        # lower one is dropped.  None if a column is below the plane (y is
        # then no dual solution).
        reduced = c - y @ a
        if reduced.min() < -_LP_TOL:
            return None
        start = np.concatenate((_grid_minima(reduced[: gt * gp].reshape(gt, gp))[:_LP_CUTS], support))
        cut_th, cut_ph, f = _refine(lambda t, p: _plane_gap_table(form, h, y, t, p), th[start], ph[start], cell)
        n = _bloch_columns(cut_th, cut_ph)[1:]
        near = np.linalg.norm(n[:, :, np.newaxis] - a[1:, support][:, np.newaxis], axis=0).min(axis=1)
        width = np.minimum(near, cell)
        keep = []
        for i in np.argsort(f):
            if f[i] < -_LP_DEPTH and all(np.linalg.norm(n[:, i] - n[:, k]) > width[k] for k in keep):
                keep.append(i)
        return cut_th[keep], cut_ph[keep], width[keep]

    pivots = 0
    converged = False
    for rounds in range(1, _LP_ROUNDS + 1):
        x, y, steps, optimal = _simplex(a, c, b, basis)
        pivots += steps
        if not optimal:
            break
        support = basis[x > _LP_TOL]
        new = cuts(y, support)
        if new[0].size and support.size < basis.size:
            # A degenerate basis leaves the dual free along its zero-weight
            # columns, and the simplex's plane is tilted to touch tau there;
            # the least-norm plane through the members alone may be below
            # tau everywhere (a separable range, say).
            # Least norm: y = A g^-1 c over the member columns A, with
            # g = A^T A lifted by eps of its trace so that it is never singular.
            at = a[:, support]
            g = at.T @ at
            g[np.diag_indices_from(g)] += np.finfo(float).eps * np.trace(g)
            flat = cuts(at @ np.linalg.solve(g, c[support]), support)
            if flat is not None and not flat[0].size:
                new = flat
        if not new[0].size:
            converged = True
            break
        new_th, new_ph = (v.ravel() for v in _stencil(*new, _LP_PATCH))
        th = np.concatenate((th, new_th))
        ph = np.concatenate((ph, new_ph))
        a = np.concatenate((a, _bloch_columns(new_th, new_ph)), axis=1)
        c = np.concatenate((c, tau(new_th, new_ph)))
    else:
        x, _, steps, _ = _simplex(a, c, b, basis)
        pivots += steps

    half = 0.5 * th[basis]
    members = np.cos(half)[:, np.newaxis] * e1 + (np.exp(1j * ph[basis]) * np.sin(half))[:, np.newaxis] * e2
    rows = np.sqrt(_basic_weights(a[:, basis], b, x))[:, np.newaxis] * members
    ensemble = _ensemble_from_rows(rho, rows)
    return Rank2Roof(ensemble.average(measure), ensemble, converged, rounds, pivots)


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
    drop = TOLERANCES.weight_drop
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
    err = ens.reconstruction_error(channel_mixture_state(p, g))
    if err > 1e-10:
        raise ValueError(f"ensemble fails to reproduce the mixture: error {err:.3e}")
    return ens
