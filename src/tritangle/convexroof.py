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
binary form and 2 x 2 Gram matrix, without rotating rows, through the
one evaluator that also scores the rank-2 linear program below.

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
solution is a decomposition of at most 4 members.  Cutting rounds alone
close in on a contact point of the dual plane only linearly, so after each
solve Newton steps on the optimality conditions move the members to the
contact points themselves (the local reduction step of semi-infinite
programming; Hettich and Kortanek, SIAM Rev. 35, 380 (1993)).  The
polished points are only added as columns: the simplex and the cut search
still decide the bound and the stopping flag.

Both return a :class:`RoofBound`: an upper bound on the true convex roof,
the average of the measure over an explicit decomposition, which is exact
only at rank 1, where the state is its own only decomposition.  Elsewhere
agreement with a closed form, never one method alone, is the validation
signal.  The search stays the tests' independent oracle for the LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from .entanglement import P0, channel_mixture_state, ghzw_superposition
from .qcore import DensityMatrix, PureState, hermitian_eigensystem, validate_density, w_state
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
        # Every member is a PureState before any num_qubits is read.
        if not all(isinstance(psi, PureState) for _, psi in members) or len({psi.num_qubits for _, psi in members}) > 1:
            raise ValueError("ensemble members must be pure states on the same qubits")
        total = 0.0
        for w, psi in members:
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

    def checked(self, rho: DensityMatrix, atol: float = TOLERANCES.reconstruction_atol) -> "Ensemble":
        """This ensemble, once its reconstruction error against rho is at most atol; raises otherwise."""
        err = self.reconstruction_error(rho)
        if not err <= atol:  # NaN fails too
            raise ValueError(f"ensemble fails to reconstruct the state: error {err:.3e}")
        return self

    def average(self, measure: Callable[[PureState], float]) -> float:
        return float(sum(w * measure(psi) for w, psi in self.members))


@dataclass(frozen=True)
class RoofBound:
    """A convex roof's value over an explicit decomposition, and how far to trust it.

    upper_bound is best_ensemble.average(measure), never below the roof.
    exact is True only where it is the roof by construction: at rank 1
    (counted against rank_cutoff, as :func:`numerical_rank` counts it) and
    for the decohered W state's bit-flip ensemble.  converged is the
    solver's own stopping flag (for :func:`minimize_roof`, that both
    phases of the best restart stopped before max_iters), and
    restarts_used the number of search restarts (0 when no search ran).
    stats holds the solver's counters:
    restart_objectives and restart_converged (each restart's final
    objective and flag, in restart order; best_ensemble comes from the
    first restart of least objective) for :func:`minimize_roof`; for
    :func:`roof_rank2`, the cutting rounds, the simplex pivots, the
    polished points added as columns (polished) and the Newton steps the
    polish took (newton_steps).
    """

    upper_bound: float
    best_ensemble: Ensemble
    converged: bool
    exact: bool
    restarts_used: int
    stats: dict


def _rank_factor(rho: DensityMatrix):
    # Rows of the returned factor are scaled eigenvectors: rho = C^T conj(C).
    vals, vecs = hermitian_eigensystem(rho)
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
    return Ensemble(tuple(members)).checked(rho)


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


# i n for the powers n = 0..4 of e^{i phi}; the factors of (x^2, x y, y^2)
# in (x, y), and of the quartic monomials x^(4-n) y^n in (x^2, x y, y^2).
_I_N = 1j * np.arange(5)
_QUADRATIC = (np.array([0, 0, 1]), np.array([0, 1, 1]))
_QUARTIC = (np.array([0, 1, 2, 2, 2]), np.array([0, 0, 0, 1, 2]))


def _turns(ph: np.ndarray) -> np.ndarray:
    # e^{i n phi}, n = 0..4, at every phi of a (..., b) table: (..., 5, b).
    return np.exp(ph[..., np.newaxis, :] * _I_N[:, np.newaxis])


# Per scan level: the theta offsets times i, e^{i n phi} at the phi offsets
# (5, Gp), and the (theta, phi) offsets of each flat (theta-major) grid
# index (2, G).
_SCAN_TABLES = tuple(
    (1j * th_off, _turns(ph_off), np.stack((np.repeat(th_off, ph_off.size), np.tile(ph_off, th_off.size))))
    for th_off, ph_off in _SCAN_LEVELS
)


def _binary_form(xy: np.ndarray, turns: np.ndarray, h: np.ndarray, gram) -> tuple:
    # The form values sum_n h_n e^{i n phi} x^(d-n) y^n (degree d = 2 or 4)
    # and the Gram quadratic x^2 gaa + x y Re(gab2 e^{i phi}) + y^2 gbb of
    # gram = (gaa, gbb, gab2), on the product of K (x, y) and K phi tables:
    # xy is real (..., K, a, 2), turns holds e^{i n phi}, (K, 5, b) or
    # (5, b), h is (K, d+1) or (d+1,), and the Gram terms broadcast against
    # (K, b); both results are (..., K, a, b).  The monomials are products
    # of x^2, x y and y^2 themselves, so a point of small weight keeps its
    # relative precision (sums of e^{i k theta} would not).
    gaa, gbb, gab2 = gram
    quad = xy.take(_QUADRATIC[0], axis=-1) * xy.take(_QUADRATIC[1], axis=-1)
    mono = quad if h.shape[-1] == 3 else quad.take(_QUARTIC[0], axis=-1) * quad.take(_QUARTIC[1], axis=-1)
    # mono is real, so its product with the coefficients' (re, im) pairs is
    # the complex product, read back as complex values.
    coef = h[..., np.newaxis] * turns[..., : h.shape[-1], :]
    values = (mono @ coef.view(np.float64)).view(np.complex128)
    tilt = (gab2 * turns[..., 1, :]).real
    planes = np.empty((tilt.shape[0], 3, tilt.shape[1]))
    planes[:, 0] = gaa
    planes[:, 1] = tilt
    planes[:, 2] = gbb
    return values, quad @ planes


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


def _form_scan(wj, wk, form, squared: bool):
    # Coarse-to-fine scan of the two-row rotation (theta, phi) for B pairs
    # at once, stacked (B, dim); the center (0, 0) is always a candidate, so
    # a move never loses ground.  Returns the best objective and its
    # (theta, phi) per pair, each (B,).  Rows are never rotated: row j,
    # c wj + s e^{i phi} wk, and row k, -s e^{-i phi} wj + c wk, are scored
    # by _binary_form at (x, y) = (c, s) and its antipode (-s, c), up to a
    # unit phase, with the phase of each level's center folded into h and
    # the overlap, so that the level's own e^{i n phi} table serves.
    h, weights, gab2 = _pair_terms(form, wj, wk)
    # h_0 and h_d are form(wj) and form(wk), so this is form.contrib of the pair.
    start = form.score(h[:, ::form.degree], weights[:, :, 0])
    if squared:
        start = start * start
    best = start[:, 0] + start[:, 1]
    pick = np.arange(best.size)
    center = np.zeros((2, best.size))
    gaa, gbb = weights[:, 0], weights[:, 1]
    i_n = _I_N[: form.degree + 1]
    for i_th, turns, offsets in _SCAN_TABLES:
        e = np.exp((1j * center[0])[:, np.newaxis] + i_th)
        xy = (e * _ROW_TURNS).view(np.float64).reshape(2, best.size, -1, 2)
        turn = np.exp(center[1][:, np.newaxis] * i_n)
        values, quad = _binary_form(xy, turns, h * turn, (gaa, gbb, (gab2 * turn[:, 1])[:, np.newaxis]))
        scores = form.score(values, quad)
        if squared:
            scores *= scores
        vals = (scores[0] + scores[1]).reshape(best.size, -1)
        i = vals.argmin(axis=1)
        v = vals[pick, i]
        better = v < best
        best = np.where(better, v, best)
        center = np.where(better, center + offsets[:, i], center)
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


def minimize_roof(rho, measure, cfg: RoofConfig | None = None) -> RoofBound:
    """Upper bound on the convex roof of a pure-state measure.

    measure maps a PureState to a value and must carry a roof_form (an
    entanglement.RoofForm), whose binary form along a pair scores the pair
    scans through the evaluator that :func:`roof_rank2` uses, and a roof_contrib
    kernel, which sums each sweep, on the state dimension roof_contrib_dim,
    as three_tangle_pure and concurrence_pure2 do; any other measure raises
    ValueError, as in :func:`roof_rank2`.  Deterministic for a fixed config.
    """
    cfg = cfg or RoofConfig()
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
    _, squared_converged = _lockstep(rows, rngs, table, form, total, True, cfg.max_iters)
    objs, plain_converged = _lockstep(rows, rngs, table, form, total, False, cfg.max_iters)
    converged = squared_converged & plain_converged

    best = int(np.argmin(objs))
    ensemble = _ensemble_from_rows(rho, rows[best])
    stats = {"restart_objectives": tuple(float(v) for v in objs), "restart_converged": tuple(bool(c) for c in converged)}
    return RoofBound(ensemble.average(measure), ensemble, bool(converged[best]), r == 1, cfg.restarts, stats)


# --- rank 2: the roof as a linear program on the Bloch sphere ---------------

# Polar angles 0..pi (both poles included) by azimuths 0..2 pi (periodic):
# the columns that every LP starts from.  Temporaries stay near 1 MB.
_LP_GRID = (61, 120)
# Cutting-plane rounds, and grid minima of tau - l refined in each round.
# Unpolished, the deepest cut shrinks only about 4x per round and about 1%
# of random rank-2 states need 11-13 rounds; polished, 785 of the 1100
# three-qubit states of seeds 0-1099 need 1 round, and the slowest 10-12.
_LP_ROUNDS = 16
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
# (one row per level).  The widest level, in patch widths, also places the
# 9 x 9 columns added around a cut.  A patch spans the cut's distance to the
# nearest member, so it straddles the contact point of the dual plane
# between them at a quarter of that distance (one column per cut would only
# halve the distance per round).
_LP_REFINE = np.linspace(-1.0, 1.0, 9) / 4.0 ** np.arange(10)[:, np.newaxis]
# Stencils a refinement may score beyond one per level.  A center whose best
# point lands on the border of its stencil steps back a level instead of on,
# so it follows a narrow valley of tau - l past the 4/3 cell that shrinking
# stencils alone reach.
_LP_WALK = 8
# The border of the 9 x 9 stencil, in its flat order.
_LP_BORDER = np.pad(np.zeros((7, 7), dtype=bool), 1, constant_values=True).ravel()


def numerical_rank(rho) -> int:
    """Rank as the roof routines count it: eigenvalues above rank_cutoff."""
    rho = validate_density(rho)
    return _rank_factor(rho)[0]


def _bloch_columns(th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    # LP columns (1, n) for the Bloch vectors n at angles (th, ph): (4, N).
    st = np.sin(th)
    return np.stack((np.ones(th.shape), st * np.cos(ph), st * np.sin(ph), np.cos(th)))


@cache
def _sphere_grid() -> tuple:
    # The _LP_GRID axes, the angles of every grid point (theta-major) and
    # their LP columns, read-only: built on first use, not at import.
    gt, gp = _LP_GRID
    axes = (np.linspace(0.0, math.pi, gt), np.linspace(0.0, 2.0 * math.pi, gp, endpoint=False))
    points = (np.repeat(axes[0], gp), np.tile(axes[1], gt))
    grid = (*axes, *points, _bloch_columns(*points))
    for table in grid:
        table.flags.writeable = False
    return grid


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


def _plane_gap_table(form, h: np.ndarray, y: np.ndarray, th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    # tau - l, with l(n) = y.(1, n), at every (th[k, i], ph[k, j]): a (K, a, b)
    # table from the (K, a) polar and (K, b) azimuthal tables of K centers.
    # The point is cos(th/2) e1 + e^{i ph} sin(th/2) e2, so tau is the pair's
    # binary form at (x, y) = (cos th/2, sin th/2), and l, which is
    # y0 + y3 cos th + sin th (y1 cos ph + y2 sin ph), is the quadratic of
    # the Gram triple (y0 + y3, y0 - y3, 2 (y1 - i y2)).
    xy = np.stack((np.cos(0.5 * th), np.sin(0.5 * th)), axis=-1)
    values, plane = _binary_form(xy, _turns(ph), h, (y[0] + y[3], y[0] - y[3], 2.0 * (y[1] - 1j * y[2])))
    return form.score(values, None) - plane


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


# Newton polish of the LP's contact points (the local reduction step of
# semi-infinite programming): the stencil step (rad) of the central
# differences, the Newton steps per solve, and the residual that counts as
# solved.  A member is free to move when tau there is above the floor (tau =
# |form| is not smooth at its zeros) and it is more than a grid cell from a
# pole (where phi is no coordinate); members within _POLISH_MERGE cells of
# each other approximate one contact point.
_POLISH_EPS = 1e-4
_POLISH_STEPS = 8
_POLISH_TOL = 1e-10
_POLISH_FLOOR = 1e-6
_POLISH_MERGE = 3.0
# Central differences on the 3 x 3 stencil (theta-major) around a point:
# d/dth, d/dph, d2/dth2, d2/dph2 and d2/dth dph, as rows of 9 weights.
_D1 = np.array([-0.5, 0.0, 0.5]) / _POLISH_EPS
_D2 = np.array([1.0, -2.0, 1.0]) / _POLISH_EPS**2
_MID = np.array([0.0, 1.0, 0.0])
_STENCIL = np.stack([np.outer(p, q).ravel() for p, q in ((_D1, _MID), (_MID, _D1), (_D2, _MID), (_MID, _D2), (_D1, _D1))])


def _kkt_newton(form, h, b, y, fixed, fixed_tau, wx, u):
    # Newton steps on the optimality conditions of the LP, from the dual
    # plane y: sum_i x_i (1, n_i) = b, f(n_i) = 0 at every member and
    # grad f(n_i) = 0 at every free one, with f = tau - y.(1, n).  The
    # unknowns are y, the weights wx (fixed members first) and the angles u
    # (K, 2) of the K free members; fixed holds the other members' columns
    # and fixed_tau their tau.  f and its derivatives come from one 3 x 3
    # stencil per free member and step.  Returns the solved (y, u), or None
    # if a step is singular or does not shrink the residual, the steps run
    # out, or a free member ends at no local minimum of f; and the steps.
    nf = u.shape[0]
    m = fixed.shape[1] + nf
    cols = np.concatenate((fixed, _bloch_columns(u[:, 0], u[:, 1])), axis=1)
    # The unknowns' index of each free member's two angles, (K, 2).
    ang = 4 + m + 2 * np.arange(nf)[:, np.newaxis] + np.arange(2)
    jac = np.zeros((4 + m + 2 * nf, 4 + m + 2 * nf))
    dn = np.zeros((4, nf, 2))
    offsets = _POLISH_EPS * np.arange(-1.0, 2.0)
    last = np.inf
    for step in range(1, _POLISH_STEPS + 1):
        f = _plane_gap_table(form, h, y, u[:, :1] + offsets, u[:, 1:] + offsets)
        d = f.reshape(nf, 9) @ _STENCIL.T
        res = np.concatenate((cols @ wx - b, fixed_tau - y @ fixed, f[:, 1, 1], d[:, :2].ravel()))
        worst = np.abs(res).max()
        if worst <= _POLISH_TOL:
            minimum = (d[:, 2] > 0.0) & (d[:, 2] * d[:, 3] > d[:, 4] ** 2)
            return ((y, u) if minimum.all() else None), step
        if not worst < last:
            return None, step
        last = worst
        # dn: the derivatives of each free column (1, n) in its two angles.
        st, ct, sp, cp = np.sin(u[:, 0]), np.cos(u[:, 0]), np.sin(u[:, 1]), np.cos(u[:, 1])
        dn[1:, :, 0] = ct * cp, ct * sp, -st
        dn[1:3, :, 1] = -st * sp, st * cp
        jac[:4, 4 : 4 + m] = cols
        jac[:4, ang] = wx[m - nf :, np.newaxis] * dn
        jac[4 : 4 + m, :4] = -cols.T
        jac[4 + m - nf + np.arange(nf)[:, np.newaxis], ang] = d[:, :2]
        jac[ang, :4] = -dn.transpose(1, 2, 0)
        jac[ang[:, :, np.newaxis], ang[:, np.newaxis, :]] = d[:, [2, 4, 4, 3]].reshape(nf, 2, 2)
        try:
            dz = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None, step
        y = y + dz[:4]
        wx = wx + dz[4 : 4 + m]
        u = u + dz[4 + m :].reshape(nf, 2)
        cols[1:, m - nf :] = _bloch_columns(u[:, 0], u[:, 1])[1:]
    return None, _POLISH_STEPS


def _polish(form, h, b, y, a, c, th, ph, basis, x, cell):
    # The LP's contact points, polished from its basic solution x and dual
    # plane y.  The members are the basic columns of positive weight, and
    # those of zero weight that are held fixed (at a pole or a zero of tau,
    # where a column is already exact).  Free members within _POLISH_MERGE
    # cells of a heavier one merge into one, at the direction of their
    # weighted-mean Bloch vector with the summed weight.  Where the solved
    # plane cuts an LP column by more than _LP_DEPTH, Newton runs once more
    # with that column as a member of weight 0.  Returns the angles of the
    # polished free members that are no member already (within 1e-8) and
    # the solved plane, or None when the polish cannot run; and the steps.
    smooth = (c > _POLISH_FLOOR) & (np.minimum(th, math.pi - th) > cell)
    keep = (x > _LP_TOL) | ~smooth[basis]
    members, x = basis[keep], x[keep]
    free = smooth[members]
    if not free.any():
        return None, 0
    n = a[1:, members]
    groups = []
    for i in np.flatnonzero(free)[np.argsort(-x[free], kind="stable")]:
        for g in groups:
            if np.linalg.norm(n[:, i] - n[:, g[0]]) < _POLISH_MERGE * cell:
                g.append(i)
                break
        else:
            groups.append([i])
    mean = np.array([n[:, g] @ x[g] for g in groups]).T
    u = np.stack((np.arctan2(np.hypot(mean[0], mean[1]), mean[2]), np.arctan2(mean[1], mean[0])), axis=1)
    fixed = members[~free]
    wx = np.concatenate((x[~free], [x[g].sum() for g in groups]))
    solved, steps = _kkt_newton(form, h, b, y, a[:, fixed], c[fixed], wx, u)
    if solved is None:
        return None, steps
    gap = c - solved[0] @ a
    j = int(np.argmin(gap))
    if gap[j] < -_LP_DEPTH:
        if smooth[j]:
            u = np.vstack((u, [th[j], ph[j]]))
            wx = np.append(wx, 0.0)
        else:
            wx = np.insert(wx, fixed.size, 0.0)
            fixed = np.append(fixed, j)
        again, more = _kkt_newton(form, h, b, y, a[:, fixed], c[fixed], wx, u)
        steps += more
        solved = again or solved
    y, u = solved
    near = np.linalg.norm(_bloch_columns(u[:, 0], u[:, 1])[1:, :, np.newaxis] - n[:, np.newaxis], axis=0).min(axis=1)
    moved = near > 1e-8
    return (u[moved, 0], u[moved, 1], y), steps


def roof_rank2(rho, measure) -> RoofBound:
    """Convex roof of a pure-state measure at a state of rank <= 2, by LP.

    The pure states in the range of rho = l1 |e1><e1| + l2 |e2><e2| are the
    points n of a Bloch sphere, and a decomposition is a set of points with
    weights x_i >= 0 and sum_i x_i (1, n_i) = (1, 0, 0, (l1 - l2)/(l1 + l2)).
    So the roof is the linear program min sum_i x_i tau(n_i) over such
    points; its basic solution is a decomposition of at most 4 members.
    The measure must carry a roof_form (an entanglement.RoofForm) for the
    state dimension; tau is read off the form's pair coefficients of
    (e1, e2).  The columns are a 61 x 120 grid plus the zeros of tau (the
    roots of the pair polynomial, polished by Newton steps, which a grid
    misses).  With the dual plane l(n) = y.(1, n), each cutting round
    refines the lowest local minima of tau - l on the grid, and the members
    (where tau - l is zero), and adds those more than 1e-10 below l as
    columns, until none is (converged) or 16 rounds, or a solve's pivots,
    have run out.  Before the cuts, the members are polished: Newton steps
    on the optimality conditions (sum_i x_i (1, n_i) = b, tau - l = 0 at
    each member, and its gradient 0 where tau is smooth) in l, the weights
    and the members' angles, with derivatives from 3 x 3 stencils of
    tau - l.  The solved points are added as columns and the LP solved
    again; where the basis is degenerate, the cut search also tries the
    solved plane.  This stops once a polish adds no column the LP uses.
    converged is the cut search's flag, not a certificate:
    the search looks only near grid minima and members, down to steps of
    about 5e-8 rad, so a dip of tau - l narrower than that can escape it
    and leave the bound more than 1e-10 above the roof.

    The returned ensemble is checked to reconstruct rho, and its average
    of measure is the upper bound, as for :func:`minimize_roof`.  Rank 1
    returns the state itself, exact.  Raises ValueError above rank 2.
    """
    rho = validate_density(rho)
    form = _roof_form(measure, rho, "roof_rank2")
    r, factor = _rank_factor(rho)
    if r > 2:
        raise ValueError(f"roof_rank2 needs a state of rank <= 2, got rank {r}")
    if r == 1:
        ensemble = _ensemble_from_rows(rho, factor)
        stats = {"rounds": 0, "pivots": 0, "polished": 0, "newton_steps": 0}
        return RoofBound(ensemble.average(measure), ensemble, True, True, 0, stats)

    lam = np.sum(np.abs(factor) ** 2, axis=1)
    e1, e2 = factor / np.sqrt(lam)[:, np.newaxis]
    h = form.pair_coefficients(e1[np.newaxis], e2[np.newaxis])[0]
    zero = np.zeros(4)

    def tau(th, ph):
        # tau on K polar (K, a) by azimuthal (K, b) tables, flattened
        # theta-major: the gap to the zero plane.
        return _plane_gap_table(form, h, zero, th, ph).ravel()

    gt, gp = _LP_GRID
    grid_th, grid_ph, point_th, point_ph, grid_cols = _sphere_grid()
    # Zeros of tau: the roots z = y/x of sum_n h_n z^n at the angles
    # (2 atan|z|, arg z); a missing root (h_d = 0) is the south pole, a grid
    # point.  Coefficients below eps of the largest count as zero, which
    # moves tau by at most d eps of its scale and keeps the roots finite.
    # Each root is then polished by Newton steps on the unzeroed polynomial
    # (where its derivative is nonzero): np.roots alone can leave tau at
    # 1e-6 at a root (local-unitary images of the GHZ/W mixture).  The
    # polish does not make the cutoff redundant: on the mixture below P0,
    # h_d is roundoff (6e-33 of the largest at p = 0.55), and np.roots of
    # the unzeroed polynomial then puts one root near 1e32 and the other
    # three some 60 times too far out, beyond three Newton steps; the
    # bound rises up to 1.9e-8 above the closed form for p in [0.50, 0.61].
    full = h[::-1] / max(float(np.abs(h).max()), np.finfo(float).tiny)
    slope = np.polyder(full)
    z = np.roots(np.where(np.abs(full) < np.finfo(float).eps, 0.0, full))
    for _ in range(3):
        dp = np.polyval(slope, z)
        z = z - np.divide(np.polyval(full, z), dp, out=np.zeros(z.shape, complex), where=dp != 0)
    root_th, root_ph = 2.0 * np.arctan(np.abs(z)), np.angle(z)
    th = np.concatenate((point_th, root_th))
    ph = np.concatenate((point_ph, root_ph))
    a = np.concatenate((grid_cols, _bloch_columns(root_th, root_ph)), axis=1)
    # The grid is one 61 x 120 table, each root a 1 x 1 one.
    c = np.concatenate(
        (tau(grid_th[np.newaxis], grid_ph[np.newaxis]), tau(root_th[:, np.newaxis], root_ph[:, np.newaxis]))
    )
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
        # lower one is dropped.  Returns the patches' (K, 9) polar and
        # azimuthal tables, or None if a column is below the plane (y is
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
        offsets = width[keep, np.newaxis] * _LP_REFINE[0]
        return cut_th[keep, np.newaxis] + offsets, cut_ph[keep, np.newaxis] + offsets

    def extend(new_th, new_ph, new_c):
        # Appends columns at the angles given, whose tau is new_c.
        nonlocal th, ph, a, c
        th = np.concatenate((th, new_th))
        ph = np.concatenate((ph, new_ph))
        a = np.concatenate((a, _bloch_columns(new_th, new_ph)), axis=1)
        c = np.concatenate((c, new_c))

    pivots = polished = newton = 0
    # The polish runs after each solve until one whose points the re-solved
    # LP leaves unused; a polish that cannot run is tried again next round.
    polish = True
    converged = False
    for rounds in range(1, _LP_ROUNDS + 1):
        x, y, steps, optimal = _simplex(a, c, b, basis)
        pivots += steps
        tangent = None
        if optimal and polish:
            found, steps = _polish(form, h, b, y, a, c, th, ph, basis, x, cell)
            newton += steps
            if found is not None:
                pol_th, pol_ph, tangent = found
                polish = False
                if pol_th.size:
                    first = th.size
                    polished += pol_th.size
                    extend(pol_th, pol_ph, tau(pol_th[:, np.newaxis], pol_ph[:, np.newaxis]))
                    x, y, steps, optimal = _simplex(a, c, b, basis)
                    pivots += steps
                    polish = bool((basis[x > _LP_TOL] >= first).any())
        if not optimal:
            break
        support = basis[x > _LP_TOL]
        new = cuts(y, support)
        if new[0].size and support.size < basis.size and tangent is not None:
            # A degenerate basis leaves the dual free along its zero-weight
            # columns, and the simplex's plane is tilted to touch tau there.
            # The plane through the members nearest the polish's solved
            # plane t is tried instead: y = t + A g^-1 (c - A^T t) over the
            # member columns A, with g = A^T A lifted by eps of its trace so
            # that it is never singular.
            at = a[:, support]
            g = at.T @ at
            g[np.diag_indices_from(g)] += np.finfo(float).eps * np.trace(g)
            flat = cuts(tangent + at @ np.linalg.solve(g, c[support] - tangent @ at), support)
            if flat is not None and not flat[0].size:
                new = flat
        if not new[0].size:
            converged = True
            break
        size = _LP_REFINE.shape[1]
        extend(np.repeat(new[0], size, axis=1).ravel(), np.tile(new[1], size).ravel(), tau(*new))
    else:
        x, _, steps, _ = _simplex(a, c, b, basis)
        pivots += steps

    half = 0.5 * th[basis]
    members = np.cos(half)[:, np.newaxis] * e1 + (np.exp(1j * ph[basis]) * np.sin(half))[:, np.newaxis] * e2
    rows = np.sqrt(_basic_weights(a[:, basis], b, x))[:, np.newaxis] * members
    ensemble = _ensemble_from_rows(rho, rows)
    stats = {"rounds": rounds, "pivots": pivots, "polished": polished, "newton_steps": newton}
    return RoofBound(ensemble.average(measure), ensemble, converged, False, 0, stats)


def optimal_ghzw_ensemble(p: float) -> Ensemble:
    """Zero-tangle decomposition of the GHZ/W mixture for p below P0.

    Spreads weight p/(3 P0) over the three tangle-free superpositions at
    relative phases 2 pi n / 3 and the rest on the W member; every
    member has vanishing tangle and the mixture is reproduced exactly.
    """
    p = float(p)
    # Roundoff past P0 (a P0 taken by another route) is moved onto P0; no Tolerances field bounds a weight.
    if not (0.0 <= p <= P0 + 1e-12):
        raise ValueError(f"p must lie in [0, p0 = {P0:.6f}], got {p!r}")
    p = min(p, P0)
    drop = TOLERANCES.weight_drop
    members = []
    w_branch = p / (3.0 * P0)
    for n in range(3):
        if w_branch > drop:
            members.append((w_branch, ghzw_superposition(P0, 2.0 * math.pi * n / 3.0)))
    w_rest = 1.0 - p / P0
    if w_rest > drop:
        members.append((w_rest, w_state()))
    # Exact, so held ten times tighter than the reconstruction_atol a searched ensemble gets.
    return Ensemble(tuple(members)).checked(channel_mixture_state(p), atol=1e-10)
