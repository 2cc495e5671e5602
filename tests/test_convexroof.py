"""Convex-roof search: configs, decompositions, and optimizer bounds.

The optimizer only ever produces upper bounds, so every assertion here is
one-sided unless a closed form pins the exact value.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tritangle.convexroof as convexroof
from tritangle.checks import MIXTURE_BAND
from tritangle.convexroof import (
    _LP_DEPTH,
    _LP_REFINE,
    _SCAN_LEVELS,
    _SCAN_TABLES,
    Ensemble,
    RoofConfig,
    _apply_pairs,
    _binary_form,
    _bloch_columns,
    _form_scan,
    _grid_minima,
    _pair_terms,
    _plane_gap_table,
    _refine,
    _round_robin,
    minimize_roof,
    numerical_rank,
    optimal_ghzw_ensemble,
    roof_rank2,
)
from tritangle.entanglement import (
    P0,
    P1,
    channel_mixture_state,
    concurrence_pure2,
    concurrence_wootters,
    three_tangle_ghzw,
    three_tangle_pure,
)
from tritangle.qcore import DensityMatrix, PureState, ghz_state, random_density_matrix
from tritangle.tolerances import TOLERANCES

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def bell_density():
    amps = np.zeros(4)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    return PureState(2, amps).density()


def werner(w):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    return DensityMatrix(2, w * np.outer(phi, phi) + (1 - w) * np.eye(4) / 4)


class TestRoofConfig:
    def test_defaults(self):
        cfg = RoofConfig()
        assert cfg.restarts == 8
        assert cfg.ensemble_size is None
        assert cfg.seed == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"ensemble_size": 0},
            {"max_iters": 0},
            {"ensemble_size": -2},
            {"seed": -1},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            RoofConfig(**kwargs)


class TestEnsemble:
    def test_reconstruct_and_average(self):
        up = PureState.from_amplitudes([1.0, 0.0])
        down = PureState.from_amplitudes([0.0, 1.0])
        ens = Ensemble(((0.25, up), (0.75, down)))
        assert ens.size == 2
        assert ens.num_qubits == 1
        assert np.allclose(ens.reconstruct(), np.diag([0.25, 0.75]), atol=1e-15)
        assert ens.average(lambda psi: abs(psi.amplitudes[1]) ** 2) == 0.75

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ensemble(())

    def test_rejects_bad_weight_sum(self):
        up = PureState.from_amplitudes([1.0, 0.0])
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((0.25, up), (0.25, up)))

    def test_rejects_zero_weight(self):
        up = PureState.from_amplitudes([1.0, 0.0])
        down = PureState.from_amplitudes([0.0, 1.0])
        with pytest.raises(ValueError):
            Ensemble(((0.0, up), (1.0, down)))

    def test_rejects_mismatched_sizes(self):
        up = PureState.from_amplitudes([1.0, 0.0])
        bell = PureState.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        with pytest.raises(ValueError, match="same qubits"):
            Ensemble(((0.5, up), (0.5, bell)))

    def test_rejects_a_member_that_is_no_pure_state(self):
        up = PureState.from_amplitudes([1.0, 0.0])
        for members in (((1.0, "x"),), ((0.5, up), (0.5, "x"))):
            with pytest.raises(ValueError, match="pure states"):
                Ensemble(members)

    def test_checked_passes_the_state_it_rebuilds_and_no_other(self):
        up = PureState.from_amplitudes([1.0, 0.0])
        down = PureState.from_amplitudes([0.0, 1.0])
        ens = Ensemble(((0.25, up), (0.75, down)))
        assert ens.checked(DensityMatrix(1, np.diag([0.25, 0.75]))) is ens
        with pytest.raises(ValueError, match="fails to reconstruct the state"):
            ens.checked(up.density())
        with pytest.raises(ValueError, match="fails to reconstruct the state"):
            ens.checked(up.density(), atol=math.nan)


class TestMinimizeRoof:
    def test_pure_state_is_fixed_point(self):
        res = minimize_roof(bell_density(), concurrence_pure2, RoofConfig(restarts=2))
        assert res.upper_bound == pytest.approx(1.0, abs=1e-6)
        assert res.converged

    def test_rejects_ensemble_below_rank(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        with pytest.raises(ValueError, match="rank"):
            minimize_roof(rho, concurrence_pure2, RoofConfig(ensemble_size=1))

    @pytest.mark.parametrize("w,expected", [(0.8, 0.7), (0.2, 0.0)])
    def test_werner_concurrence_bracket(self, w, expected):
        res = minimize_roof(werner(w), concurrence_pure2, RoofConfig(restarts=2))
        gap = res.upper_bound - expected
        assert -1e-9 <= gap < 5e-3

    def test_mixture_tangle_below_onset(self):
        rho = channel_mixture_state(0.5)
        cfg = RoofConfig(restarts=4, ensemble_size=4)
        res = minimize_roof(rho, three_tangle_pure, cfg)
        assert res.upper_bound <= 1e-4

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_first_restart_is_not_the_eigendecomposition(self, p):
        # The eigen-ensemble of the mixture below p0 (tangle exactly p) is a
        # stationary point of the descent; a single restart must leave it.
        res = minimize_roof(channel_mixture_state(p), three_tangle_pure, RoofConfig(restarts=1, max_iters=200))
        assert res.upper_bound <= 1e-4

    def test_deterministic_for_fixed_config(self):
        cfg = RoofConfig(restarts=1, max_iters=60)
        a = minimize_roof(werner(0.6), concurrence_pure2, cfg)
        b = minimize_roof(werner(0.6), concurrence_pure2, cfg)
        assert a.upper_bound == b.upper_bound
        for (wa, pa), (wb, pb) in zip(a.best_ensemble.members, b.best_ensemble.members):
            assert wa == wb
            assert np.array_equal(pa.amplitudes, pb.amplitudes)

    def test_converged_needs_both_phases(self):
        # At 30 sweeps the squared phase of both restarts on this rank-3
        # state (the golden rank3.json) stops at the cap, while the plain
        # phase that follows stops by itself: the bound has not converged.
        rho = random_density_matrix(3, 3, np.random.default_rng(2))
        res = minimize_roof(rho, three_tangle_pure, RoofConfig(restarts=2, max_iters=30, seed=42))
        assert not res.converged and res.stats["restart_converged"] == (False, False)

    def test_bound_matches_ensemble_average(self):
        res = minimize_roof(werner(0.7), concurrence_pure2, RoofConfig(restarts=1))
        avg = res.best_ensemble.average(concurrence_pure2)
        assert abs(res.upper_bound - avg) < 1e-12
        assert res.restarts_used == 1


class TestOptimalGhzwEnsemble:
    def test_w_end_is_single_member(self):
        ens = optimal_ghzw_ensemble(0.0)
        assert ens.size == 1
        w, psi = ens.members[0]
        assert w == pytest.approx(1.0, abs=1e-12)
        assert three_tangle_pure(psi) <= 1e-12

    def test_onset_point_is_three_phases(self):
        ens = optimal_ghzw_ensemble(P0)
        assert ens.size == 3
        assert all(w == pytest.approx(1 / 3, abs=1e-12) for w, _ in ens.members)

    def test_interior_weights(self):
        ens = optimal_ghzw_ensemble(0.3)
        weights = sorted(w for w, _ in ens.members)
        assert weights[0] == pytest.approx(0.16299605249474367, abs=1e-12)
        assert weights[1] == weights[0] == weights[2]
        assert weights[3] == pytest.approx(0.511011842515769, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.4, 0.6135117904356906])
    def test_members_are_tangle_free_and_reconstruct(self, p):
        ens = optimal_ghzw_ensemble(p)
        for _, psi in ens.members:
            assert three_tangle_pure(psi) <= 1e-10
        target = channel_mixture_state(p).matrix
        assert np.abs(ens.reconstruct() - target).max() <= 1e-10

    def test_rejects_p_above_onset(self):
        with pytest.raises(ValueError, match="p0"):
            optimal_ghzw_ensemble(0.7)


def apply_move(pair, th, ph):
    # The pair after one move, through the search's own update.
    rows = pair[np.newaxis].copy()
    _apply_pairs(rows, np.array([0]), np.array([0]), np.array([1]), np.array([th]), np.array([ph]))
    return rows[0]


def rotation_stack(th, ph):
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


def pair_minimize(wj, wk, contrib, squared):
    # The reference for _form_scan: the same coarse-to-fine scan of one
    # pair, which rotates both rows at every grid point of a level in one
    # product and scores them with the measure's kernel.
    def combine(cj, ck):
        return cj * cj + ck * ck if squared else cj + ck

    pair = np.stack([wj, wk])
    cj, ck = contrib(pair)
    best = (float(combine(cj, ck)), 0.0, 0.0)
    for th_off, ph_off in _SCAN_LEVELS:
        th = best[1] + th_off
        ph = best[2] + ph_off
        scores = contrib(rotation_stack(th, ph) @ pair)
        g = scores.size // 2
        vals = combine(scores[:g], scores[g:])
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (float(vals[i]), float(th[i // ph.size]), float(ph[i % ph.size]))
    return best


class TestPairScan:
    """The two-row scan: fixed grid offsets, stacked rotations, monotone moves."""

    @staticmethod
    def linspace_schedule(th0, ph0):
        # The schedule as a loop of linspace calls around a fixed center.
        span_t, span_p, points = math.pi / 2, math.pi, 17
        for _ in range(7):
            yield th0 + np.linspace(-span_t, span_t, points), ph0 + np.linspace(-span_p, span_p, points)
            span_t /= points - 1
            span_p /= points - 1
            points = 9

    @staticmethod
    def random_pair(rng, dim):
        return rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))

    def test_level_sizes(self):
        assert [(t.size, p.size) for t, p in _SCAN_LEVELS] == [(17, 17)] + [(9, 9)] * 6

    @pytest.mark.parametrize("th0,ph0", [(0.0, 0.0), (0.3712, -2.9), (-1.2, 1.0e-3)])
    def test_offsets_reproduce_linspace_bitwise(self, th0, ph0):
        for (th_off, ph_off), (th, ph) in zip(_SCAN_LEVELS, self.linspace_schedule(th0, ph0)):
            assert np.array_equal(th0 + th_off, th)
            assert np.array_equal(ph0 + ph_off, ph)

    def test_flat_offsets_follow_the_grid(self):
        # Flat index i of a level is theta offset i // Gp and phi offset i % Gp.
        for (th_off, ph_off), (i_th, turns, offsets) in zip(_SCAN_LEVELS, _SCAN_TABLES, strict=True):
            i = np.arange(th_off.size * ph_off.size)
            assert np.array_equal(offsets, [th_off[i // ph_off.size], ph_off[i % ph_off.size]])
            assert np.array_equal(i_th, 1j * th_off)
            assert np.array_equal(turns, np.exp(1j * np.outer(np.arange(5), ph_off)))

    def test_stacked_rotation_matches_apply_pair(self):
        rng = np.random.default_rng(5)
        pair = self.random_pair(rng, 8)
        for th_off, ph_off in _SCAN_LEVELS:
            th, ph = 0.41 + th_off, -1.3 + ph_off
            rows = rotation_stack(th, ph) @ pair
            g = th.size * ph.size
            assert rows.shape == (2 * g, 8)
            for i in rng.choice(g, size=10, replace=False):
                moved = apply_move(pair, float(th[i // ph.size]), float(ph[i % ph.size]))
                assert np.abs(rows[i] - moved[0]).max() <= 1e-15
                assert np.abs(rows[g + i] - moved[1]).max() <= 1e-15

    def test_apply_pairs_moves_disjoint_pairs_of_every_restart(self):
        # One update moves each listed pair as a lone move would, and
        # leaves every other row untouched.
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(3, 5, 4)) + 1j * rng.normal(size=(3, 5, 4))
        t, j, k = np.array([0, 0, 2]), np.array([1, 4, 3]), np.array([3, 0, 2])
        th, ph = rng.uniform(-1.5, 1.5, 3), rng.uniform(-3, 3, 3)
        moved = rows.copy()
        _apply_pairs(moved, t, j, k, th, ph)
        touched = np.zeros(rows.shape[:2], dtype=bool)
        for b in range(3):
            want = apply_move(rows[t[b], [j[b], k[b]]], th[b], ph[b])
            assert np.array_equal(moved[t[b], [j[b], k[b]]], want)
            touched[t[b], [j[b], k[b]]] = True
        assert np.array_equal(moved[~touched], rows[~touched])

    @given(seeds, st.booleans(), st.sampled_from([concurrence_pure2, three_tangle_pure]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_start(self, seed, squared, measure, use_form):
        contrib = measure.roof_contrib
        pair = self.random_pair(np.random.default_rng(seed), measure.roof_contrib_dim)

        def objective(rows):
            c = contrib(rows)
            return float(np.sum(c * c) if squared else np.sum(c))

        start = objective(pair)
        if use_form:
            vals, ths, phs = _form_scan(pair[:1], pair[1:], measure.roof_form, squared)
            val, th, ph = float(vals[0]), float(ths[0]), float(phs[0])
        else:
            val, th, ph = pair_minimize(pair[0], pair[1], contrib, squared)
        assert val <= start
        assert objective(apply_move(pair, th, ph)) == pytest.approx(val, rel=1e-9, abs=1e-12)


class TestRoundRobin:
    """Sweep schedules: every pair once, in rounds of disjoint pairs."""

    @pytest.mark.parametrize("m", range(1, 12))
    def test_every_pair_once_in_disjoint_rounds(self, m):
        table = _round_robin(m)
        rounds = m - 1 if m % 2 == 0 else m
        assert table.shape == (max(rounds, 1), m // 2, 2)
        seen = set()
        for rnd in table:
            members = rnd.ravel().tolist()
            assert len(set(members)) == len(members)
            seen.update(frozenset(pair) for pair in rnd.tolist())
        assert len(seen) == m * (m - 1) // 2 == table.shape[0] * table.shape[1]
        assert all(len(pair) == 2 and max(pair) < m for pair in seen)


class TestFormScan:
    """The pair scan scored from form coefficients, against rotated rows."""

    MEASURES = [three_tangle_pure, concurrence_pure2]

    @staticmethod
    def pair_with_unit_weight(rng, dim):
        pair = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        return pair / np.linalg.norm(pair)

    @staticmethod
    def rotated_scores(pair, contrib, th, ph):
        return contrib(rotation_stack(th, ph) @ pair).reshape(2, th.size, ph.size)

    @staticmethod
    def level_scores(form, pairs, level, th0, ph0):
        # Both rows of each pair rotated to every point of a scan level
        # around its own center (th0[b], ph0[b]), scored by the one
        # evaluator as the scan calls it: row j at (x, y) = (c, s), row k at
        # (-s, c), the center's phases folded into h and the overlap.
        i_th, turns, _ = level
        h, weights, gab2 = _pair_terms(form, pairs[:, 0], pairs[:, 1])
        e = np.exp(1j * th0[:, np.newaxis] + i_th)
        xy = np.stack((e, 1j * e)).view(np.float64).reshape(2, *e.shape, 2)
        turn = np.exp(1j * np.multiply.outer(ph0, np.arange(form.degree + 1)))
        gram = (weights[:, 0], weights[:, 1], (gab2 * turn[:, 1])[:, np.newaxis])
        return form.score(*_binary_form(xy, turns, h * turn, gram))

    def assert_scores_match(self, pairs, measure, centers):
        # All pairs are scored in one stack, each at its own center.
        form = measure.roof_form
        for (th_off, ph_off), level in zip(_SCAN_LEVELS, _SCAN_TABLES, strict=True):
            for shift in range(len(centers)):
                th0, ph0 = np.array([centers[(b + shift) % len(centers)] for b in range(len(pairs))]).T
                got = self.level_scores(form, pairs, level, th0, ph0)
                assert got.shape == (2, len(pairs), th_off.size, ph_off.size)
                for b, pair in enumerate(pairs):
                    want = self.rotated_scores(pair, measure.roof_contrib, th0[b] + th_off, ph0[b] + ph_off)
                    assert np.all(np.abs(got[:, b] - want) <= 1e-12 * np.abs(want) + 1e-15)

    @pytest.mark.parametrize("measure", MEASURES, ids=["tangle", "concurrence"])
    def test_every_grid_score_matches_rotated_rows(self, measure):
        rng = np.random.default_rng(31)
        centers = [(0.0, 0.0), (0.41, -1.3), (-1.2, 2.9), (1.5707963267948966, 0.5)]
        pairs = np.stack([self.pair_with_unit_weight(rng, measure.roof_contrib_dim) for _ in range(20)])
        self.assert_scores_match(pairs, measure, centers)

    @pytest.mark.parametrize("measure", MEASURES, ids=["tangle", "concurrence"])
    def test_zero_weight_row(self, measure):
        # Row k is zero: at theta = 0 it contributes nothing, and the scan
        # can only move weight into it.
        pair = self.pair_with_unit_weight(np.random.default_rng(32), measure.roof_contrib_dim)
        pair[1] = 0.0
        self.assert_scores_match(pair[np.newaxis], measure, [(0.0, 0.0), (0.41, -1.3)])
        start = self.level_scores(measure.roof_form, pair[np.newaxis], _SCAN_TABLES[0], np.zeros(1), np.zeros(1))
        assert np.all(start[1, 0, 8] == 0.0)

    @pytest.mark.parametrize("measure", MEASURES, ids=["tangle", "concurrence"])
    @pytest.mark.parametrize("squared", [True, False], ids=["squared", "linear"])
    def test_scan_matches_rotation_scan(self, measure, squared):
        # Ties between grid points may split the two scans into different
        # basins; on random pairs nearly all land on the same value.
        rng = np.random.default_rng(33)
        pairs = np.stack([self.pair_with_unit_weight(rng, measure.roof_contrib_dim) for _ in range(100)])
        got, _, _ = _form_scan(pairs[:, 0], pairs[:, 1], measure.roof_form, squared)
        same = 0
        for pair, val in zip(pairs, got):
            ref = pair_minimize(pair[0], pair[1], measure.roof_contrib, squared)
            same += abs(val - ref[0]) <= 1e-12 * max(ref[0], 1e-300)
        assert same >= 95

    @pytest.mark.parametrize("measure", MEASURES, ids=["tangle", "concurrence"])
    @pytest.mark.parametrize("squared", [True, False], ids=["squared", "linear"])
    def test_stacked_slices_match_lone_scans(self, measure, squared):
        # Each pair of a stack scans as it would alone: coefficients, Gram
        # terms and grid scores are per pair, so the batch shares nothing.
        rng = np.random.default_rng(35)
        pairs = np.stack([self.pair_with_unit_weight(rng, measure.roof_contrib_dim) for _ in range(9)])
        pairs[4, 1] = 0.0
        stacked = _form_scan(pairs[:, 0], pairs[:, 1], measure.roof_form, squared)
        for b, pair in enumerate(pairs):
            lone = _form_scan(pair[:1], pair[1:], measure.roof_form, squared)
            assert stacked[0][b] == pytest.approx(lone[0][0], rel=1e-12, abs=0.0)
            assert (stacked[1][b], stacked[2][b]) == pytest.approx((lone[1][0], lone[2][0]), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("measure", MEASURES, ids=["tangle", "concurrence"])
    @pytest.mark.parametrize("squared", [True, False], ids=["squared", "linear"])
    def test_start_is_the_pair_objective(self, measure, squared, monkeypatch):
        # With no grid levels the scan returns its start: the objective of
        # the unrotated pair, bitwise as the per-sweep totals compute it.
        monkeypatch.setattr(convexroof, "_SCAN_TABLES", ())
        rng = np.random.default_rng(34)
        pairs, starts = [], []
        for scale in (1.0, 0.3, 1e-3, 0.0):
            pair = self.pair_with_unit_weight(rng, measure.roof_contrib_dim)
            pair[1] *= scale
            c = measure.roof_contrib(pair)
            pairs.append(pair)
            starts.append(float(np.sum(c * c) if squared else np.sum(c)))
        pairs = np.stack(pairs)
        vals, th, ph = _form_scan(pairs[:, 0], pairs[:, 1], measure.roof_form, squared)
        assert vals.tolist() == starts
        assert not th.any() and not ph.any()

    def test_rows_are_never_rotated(self):
        # The form scan calls the measure's kernel only for the per-sweep
        # totals, on whole ensembles.
        sizes = []
        kernel = concurrence_pure2.roof_contrib

        def measure(psi):
            return concurrence_pure2(psi)

        def counted(rows):
            sizes.append(rows.shape[0])
            return kernel(rows)

        measure.roof_form = concurrence_pure2.roof_form
        measure.roof_contrib = counted
        measure.roof_contrib_dim = 4
        res = minimize_roof(werner(0.8), measure, RoofConfig(restarts=2, ensemble_size=5))
        assert sizes and set(sizes) == {5}
        assert -1e-9 <= res.upper_bound - 0.7 < 5e-3


class TestLockstep:
    """Restarts descend together; each keeps its own sequence."""

    @pytest.mark.parametrize("p,seed", [(0.3, 1), (0.8, 42)])
    def test_restart_sequence_does_not_depend_on_the_others(self, p, seed):
        # At these inputs the third restart still descends after one of the
        # first two has converged (at p = 0.3 in both phases, at p = 0.8 in
        # the plain one), so a converged restart that kept sweeping would
        # show here.
        rho = channel_mixture_state(p)
        two = minimize_roof(rho, three_tangle_pure, RoofConfig(restarts=2, max_iters=200, seed=seed))
        three = minimize_roof(rho, three_tangle_pure, RoofConfig(restarts=3, max_iters=200, seed=seed))
        for key in ("restart_objectives", "restart_converged"):
            assert three.stats[key][:2] == two.stats[key]

    @pytest.mark.parametrize(
        "rho,measure", [(werner(0.7), concurrence_pure2), (channel_mixture_state(0.8), three_tangle_pure)]
    )
    def test_result_reports_every_restart(self, rho, measure):
        cfg = RoofConfig(restarts=3, max_iters=100)
        res = minimize_roof(rho, measure, cfg)
        objectives, converged = res.stats["restart_objectives"], res.stats["restart_converged"]
        assert len(objectives) == len(converged) == 3 == res.restarts_used
        best = int(np.argmin(objectives))
        assert res.converged == converged[best]
        assert res.upper_bound == pytest.approx(min(objectives), rel=1e-12, abs=0.0)
        assert res.upper_bound == pytest.approx(res.best_ensemble.average(measure), rel=1e-12, abs=0.0)

    def test_stacked_calls_are_chunked(self, monkeypatch):
        # However many pairs a round holds (restarts x members / 2), one
        # stacked scan takes at most _SCAN_CHUNK of them; a small chunk
        # stands in for the cap on a budget far past it.
        sizes = []
        real_form_scan = convexroof._form_scan

        def form_scan(wj, wk, form, squared):
            sizes.append(wj.shape[0])
            return real_form_scan(wj, wk, form, squared)

        rho = channel_mixture_state(0.8)
        cfg = RoofConfig(restarts=4, ensemble_size=6, max_iters=2)
        whole = minimize_roof(rho, three_tangle_pure, cfg)
        monkeypatch.setattr(convexroof, "_form_scan", form_scan)
        monkeypatch.setattr(convexroof, "_SCAN_CHUNK", 5)
        chunked = minimize_roof(rho, three_tangle_pure, cfg)
        assert sizes and max(sizes) == 5 and min(sizes) >= 1
        assert chunked.stats["restart_objectives"] == whole.stats["restart_objectives"]


def basis_mixture(num_qubits, weights):
    # Diagonal state sum_k weights[k] |k><k|: its eigenvectors are exact
    # basis vectors, so the pair coefficients are exact.
    m = np.zeros((2**num_qubits, 2**num_qubits))
    for k, w in weights.items():
        m[k, k] = w
    return DensityMatrix(num_qubits, m)


MEASURES = {2: concurrence_pure2, 3: three_tangle_pure}


class TestRoofRank2:
    """The rank-2 roof as an LP: a real ensemble, checked against closed forms."""

    def assert_valid(self, rho, res, measure):
        assert res.best_ensemble.size <= 4
        assert res.best_ensemble.reconstruction_error(rho) <= TOLERANCES.reconstruction_atol
        assert res.upper_bound == res.best_ensemble.average(measure)
        assert res.restarts_used == 0

    def test_mixture_matches_closed_form_on_every_branch(self):
        # The polish puts the members on the contact points, so the bound is
        # the closed form to roundoff on every branch, and a mixture on the
        # linear branch takes one round, the curved branch at most four.
        ps = np.linspace(0.02, 0.95, 50)
        assert (ps < P0).sum() >= 10 and ((ps > P0) & (ps < P1)).sum() >= 5 and (ps > P1).sum() >= 10
        for p in ps:
            rho = channel_mixture_state(p)
            res = roof_rank2(rho, three_tangle_pure)
            self.assert_valid(rho, res, three_tangle_pure)
            gap = res.upper_bound - three_tangle_ghzw(p)
            assert abs(gap) <= 1e-12, (p, gap)
            assert res.converged, p
            if p > P1:
                assert res.stats["rounds"] == 1, (p, res.stats)
            elif p > P0:
                assert res.stats["rounds"] <= 4, (p, res.stats)

    def test_polish_only_saves_rounds(self, monkeypatch):
        # With the polish adding nothing, the LP is the plain cutting-plane
        # loop: its bounds agree within the cut depth, and it takes as many
        # rounds or more (on mixtures of every branch, state by state; on
        # random states in total, since a few take a round more polished).
        mixtures = [channel_mixture_state(p) for p in np.linspace(0.05, 0.95, 10)]
        randoms = [random_density_matrix(3, 2, np.random.default_rng(seed)) for seed in range(40)]
        polished = [roof_rank2(rho, three_tangle_pure) for rho in mixtures + randoms]
        monkeypatch.setattr(convexroof, "_polish", lambda *args: (None, 0))
        plain = [roof_rank2(rho, three_tangle_pure) for rho in mixtures + randoms]
        for on, off in zip(polished, plain):
            assert on.converged and off.converged
            assert abs(on.upper_bound - off.upper_bound) <= _LP_DEPTH
            assert off.stats["polished"] == off.stats["newton_steps"] == 0
        for on, off in zip(polished[: len(mixtures)], plain):
            assert off.stats["rounds"] >= on.stats["rounds"]
        rounds = [sum(res.stats["rounds"] for res in results[len(mixtures) :]) for results in (polished, plain)]
        assert rounds[0] < rounds[1], rounds

    def test_rank_one_is_the_state_itself(self):
        psi = PureState(3, (ghz_state().amplitudes + np.eye(8)[1]) / math.sqrt(2.0))
        rho = psi.density()
        res = roof_rank2(rho, three_tangle_pure)
        self.assert_valid(rho, res, three_tangle_pure)
        assert res.best_ensemble.size == 1 and res.converged
        assert res.stats == {"rounds": 0, "pivots": 0, "polished": 0, "newton_steps": 0}
        assert res.upper_bound == pytest.approx(three_tangle_pure(psi), abs=1e-14)

    def test_equal_eigenvalues(self):
        rho = channel_mixture_state(0.5)
        res = roof_rank2(rho, three_tangle_pure)
        self.assert_valid(rho, res, three_tangle_pure)
        assert 0.0 <= res.upper_bound <= 1e-12
        bell = bell_density().matrix
        flip = np.zeros((4, 4))
        flip[1, 2] = flip[2, 1] = flip[1, 1] = flip[2, 2] = 0.5
        rho2 = DensityMatrix(2, 0.5 * bell + 0.5 * flip)
        res = roof_rank2(rho2, concurrence_pure2)
        self.assert_valid(rho2, res, concurrence_pure2)
        assert res.upper_bound == pytest.approx(concurrence_wootters(rho2), abs=1e-12)

    @pytest.mark.parametrize("num_qubits,weights", [(3, {0: 0.7, 7: 0.3}), (2, {0: 0.7, 3: 0.3})])
    def test_root_at_the_pole(self, num_qubits, weights):
        # Range |0..0>, |1..1>: the pair polynomial's end coefficients are
        # form(|0..0>) = form(|1..1>) = 0, so its leading coefficient vanishes
        # and one root is at the pole; the roof is 0.
        rho = basis_mixture(num_qubits, weights)
        measure = MEASURES[num_qubits]
        h = measure.roof_form.pair_coefficients(np.eye(2**num_qubits)[:1], np.eye(2**num_qubits)[-1:])[0]
        assert h[-1] == 0.0 and h[0] == 0.0 and np.abs(h).max() > 0.0
        res = roof_rank2(rho, measure)
        self.assert_valid(rho, res, measure)
        assert res.upper_bound <= 1e-15 and res.converged

    def test_form_identically_zero_on_the_range(self):
        rho = basis_mixture(3, {0: 0.6, 1: 0.4})
        e = np.eye(8)
        assert not np.any(three_tangle_pure.roof_form.pair_coefficients(e[:1], e[1:2]))
        res = roof_rank2(rho, three_tangle_pure)
        self.assert_valid(rho, res, three_tangle_pure)
        assert res.upper_bound == 0.0 and res.converged and res.stats["rounds"] == 1

    @pytest.mark.parametrize("w", [0.8, 0.2])
    def test_rejects_rank_above_two(self, w):
        with pytest.raises(ValueError, match="rank <= 2, got rank 4"):
            roof_rank2(werner(w), concurrence_pure2)
        assert numerical_rank(werner(w)) == 4

    @pytest.mark.parametrize("solve", [roof_rank2, minimize_roof])
    def test_rejects_measure_without_form(self, solve):
        with pytest.raises(ValueError, match=f"{solve.__name__} needs a measure with a roof form on dimension 8"):
            solve(channel_mixture_state(0.7), lambda psi: 0.0)
        with pytest.raises(ValueError, match="roof form on dimension 8"):
            solve(channel_mixture_state(0.7), concurrence_pure2)
        # A plain callable, even one that wraps a measure with a form.
        with pytest.raises(ValueError, match="roof form on dimension 4"):
            solve(werner(0.8), lambda psi: concurrence_pure2(psi))

    def test_round_cap_is_not_convergence(self, monkeypatch):
        # A random state that takes 8 rounds (a mixture takes at most 4).
        rho = random_density_matrix(3, 2, np.random.default_rng(561))
        full = roof_rank2(rho, three_tangle_pure)
        assert full.converged and full.stats["rounds"] > 1
        monkeypatch.setattr(convexroof, "_LP_ROUNDS", 1)
        res = roof_rank2(rho, three_tangle_pure)
        self.assert_valid(rho, res, three_tangle_pure)
        assert not res.converged and res.stats["rounds"] == 1
        assert res.upper_bound >= full.upper_bound - _LP_DEPTH

    @pytest.mark.parametrize("seed", [40, 108])
    def test_states_slow_without_the_polish_converge_in_two_rounds(self, seed):
        # Unpolished cutting rounds converge only linearly, and these random
        # states took 11 of them each; polished, they take 2.
        rho = random_density_matrix(3, 2, np.random.default_rng(seed))
        res = roof_rank2(rho, three_tangle_pure)
        self.assert_valid(rho, res, three_tangle_pure)
        assert res.converged and res.stats["rounds"] <= 2

    def test_pivot_cap_is_not_convergence(self, monkeypatch):
        monkeypatch.setattr(convexroof, "_LP_PIVOTS", 1)
        rho = channel_mixture_state(0.7)
        res = roof_rank2(rho, three_tangle_pure)
        self.assert_valid(rho, res, three_tangle_pure)
        assert not res.converged and res.stats["pivots"] == 1

    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, num_qubits=st.sampled_from([2, 3]), rank=st.sampled_from([1, 2]))
    # Three-qubit states whose deepest cut is near no grid minimum: within a
    # cell of a member (2**31 - 1, 8996), more than one stencil along a
    # narrow valley of tau - l (103), or between two close members (561).
    @example(seed=2**31 - 1, num_qubits=3, rank=2)
    @example(seed=8996, num_qubits=3, rank=2)
    @example(seed=103, num_qubits=3, rank=2)
    @example(seed=561, num_qubits=3, rank=2)
    def test_random_states_against_the_oracles(self, seed, num_qubits, rank):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(num_qubits, rank, rng)
        measure = MEASURES[num_qubits]
        res = roof_rank2(rho, measure)
        self.assert_valid(rho, res, measure)
        if num_qubits == 2:
            gap = res.upper_bound - concurrence_wootters(rho)
            assert -1e-12 <= gap <= 1e-8
        else:
            # The search at the budget of `measures`.
            search = minimize_roof(rho, measure, RoofConfig(restarts=2, max_iters=200, seed=seed % 1000))
            assert res.upper_bound <= search.upper_bound + 1e-8


def local_image(rho, rng, permute):
    # U rho U^dagger for a Haar-random local unitary U = U_1 x ... x U_n,
    # after a random permutation of the qubits when permute is set.
    n = rho.num_qubits
    m = rho.matrix
    if permute:
        perm = rng.permutation(n)
        m = m.reshape((2,) * 2 * n).transpose(np.concatenate((perm, n + perm))).reshape(2**n, 2**n)
    u = np.ones((1, 1))
    for _ in range(n):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    return DensityMatrix(n, u @ m @ u.conj().T)


class TestLocalImages:
    """The LP's bound does not depend on the local frame, as the roof does not."""

    def test_mixture_images_match_the_closed_form(self):
        # Below P0 the tangle is exactly 0 and every image's roots must be
        # found to full precision; a converged bound is within the cut depth.
        rng = np.random.default_rng(1)
        ps = np.concatenate((np.linspace(0.05, P0, 12), np.linspace(P0 + 0.01, 0.95, 12)))
        misses = []
        for p in ps:
            rho = channel_mixture_state(p)
            for k in range(6):
                res = roof_rank2(local_image(rho, rng, permute=k % 2 == 1), three_tangle_pure)
                gap = res.upper_bound - three_tangle_ghzw(p)
                if res.converged and abs(gap) > _LP_DEPTH:
                    misses.append((float(p), k, gap))
        assert misses == []

    def test_search_on_mixture_images_stays_in_the_band(self):
        # The search too: its gap to the closed form on an image of the
        # mixture lies in the band that criterion 7 sets for the mixture.
        rng = np.random.default_rng(3)
        lo, hi = MIXTURE_BAND
        for p, permute in [(0.3, False), (0.7, True)]:
            image = local_image(channel_mixture_state(p), rng, permute)
            res = minimize_roof(image, three_tangle_pure, RoofConfig(restarts=4, ensemble_size=4))
            assert lo <= res.upper_bound - three_tangle_ghzw(p) <= hi, p

    @pytest.mark.parametrize("num_qubits,seeds", [(3, range(8)), (2, range(100, 104))])
    def test_random_state_images_agree(self, num_qubits, seeds):
        rng = np.random.default_rng(2)
        measure = MEASURES[num_qubits]
        for seed in seeds:
            rho = random_density_matrix(num_qubits, 2, np.random.default_rng(seed))
            bounds = [roof_rank2(rho, measure)]
            bounds += [roof_rank2(local_image(rho, rng, permute=False), measure) for _ in range(3)]
            values = [b.upper_bound for b in bounds if b.converged]
            assert len(values) >= 2, seed
            assert max(values) - min(values) <= 2 * _LP_DEPTH, (seed, values)


class TestSphereGrid:
    """The LP's sphere grid is built once, on first use, and shared read-only."""

    def test_grid_is_the_linspace_grid_read_only(self):
        gt, gp = convexroof._LP_GRID
        grid_th = np.linspace(0.0, math.pi, gt)
        grid_ph = np.linspace(0.0, 2.0 * math.pi, gp, endpoint=False)
        th, ph = np.repeat(grid_th, gp), np.tile(grid_ph, gt)
        tables = convexroof._sphere_grid()
        assert convexroof._sphere_grid() is tables
        for table, expected in zip(tables, (grid_th, grid_ph, th, ph, _bloch_columns(th, ph))):
            assert np.array_equal(table, expected) and not table.flags.writeable

    def test_import_does_not_build_the_grid(self):
        src = os.path.dirname(os.path.dirname(convexroof.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        probe = "import tritangle.cli, tritangle.convexroof as c; print(c._sphere_grid.cache_info().currsize)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60, check=True
        )
        assert result.stdout.strip() == "0"


class TestExact:
    """A bound is labelled exact only at rank 1, where the state is its own only decomposition."""

    def test_rank_one_is_exact_for_both_solvers(self):
        psi = PureState(3, (ghz_state().amplitudes + np.eye(8)[1]) / math.sqrt(2.0))
        lp = roof_rank2(psi.density(), three_tangle_pure)
        search = minimize_roof(psi.density(), three_tangle_pure, RoofConfig(restarts=1, max_iters=5))
        assert lp.exact and search.exact
        assert (lp.restarts_used, search.restarts_used) == (0, 1)
        assert search.upper_bound == pytest.approx(three_tangle_pure(psi), abs=1e-14)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_higher_rank_is_a_bound(self, rank):
        rho = random_density_matrix(3, rank, np.random.default_rng(rank))
        assert numerical_rank(rho) == rank
        search = minimize_roof(rho, three_tangle_pure, RoofConfig(restarts=1, max_iters=5))
        assert not search.exact
        if rank == 2:
            assert not roof_rank2(rho, three_tangle_pure).exact


def per_point_gap(form, e1, e2, y, th, ph):
    # tau - l scored point by point, the reference for the tables: tau is
    # form.contrib of the unit vector cos(th/2) e1 + e^{i ph} sin(th/2) e2.
    rows = np.cos(0.5 * th)[:, np.newaxis] * e1 + (np.exp(1j * ph) * np.sin(0.5 * th))[:, np.newaxis] * e2
    return form.contrib(rows) - np.tensordot(y, _bloch_columns(th, ph), axes=1)


class TestRefineTables:
    """The LP's cut refinement scores each 9 x 9 stencil as a product of angle tables."""

    CELL = math.pi / 60

    def draw(self, measure, seed):
        # A random orthonormal pair (e1, e2) with its form coefficients, a
        # random plane and centers, two of them at the poles.
        rng = np.random.default_rng(seed)
        dim = measure.roof_contrib_dim
        e1, e2 = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))[0].T
        h = measure.roof_form.pair_coefficients(e1[np.newaxis], e2[np.newaxis])[0]
        y = rng.normal(size=4)
        th = np.concatenate(([0.0, math.pi], rng.uniform(0.0, math.pi, 6)))
        ph = rng.uniform(0.0, 2.0 * math.pi, 8)
        return measure.roof_form, (e1, e2), h, y, th, ph

    @pytest.mark.parametrize("measure", [concurrence_pure2, three_tangle_pure], ids=["degree2", "degree4"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_entry_matches_per_point_scoring(self, measure, seed):
        form, pair, h, y, th, ph = self.draw(measure, seed)
        for offsets in _LP_REFINE:
            t_tab = th[:, np.newaxis] + self.CELL * offsets
            p_tab = ph[:, np.newaxis] + self.CELL * offsets
            # Flat stencil index i 9 + j is (theta offset i, phi offset j).
            t = np.repeat(t_tab, offsets.size, axis=1).ravel()
            p = np.tile(p_tab, offsets.size).ravel()
            table = _plane_gap_table(form, h, y, t_tab, p_tab)
            assert table.shape == (th.size, offsets.size, offsets.size)
            err = np.abs(table.ravel() - per_point_gap(form, *pair, y, t, p)).max()
            assert err <= 1e-14, err
        # The middle row of the widest level sits on the poles.
        assert (th[:2, np.newaxis] + self.CELL * _LP_REFINE[0])[:, 4].tolist() == [0.0, math.pi]

    @pytest.mark.parametrize("measure", [concurrence_pure2, three_tangle_pure], ids=["degree2", "degree4"])
    def test_refine_never_rises_and_reports_its_points(self, measure):
        form, pair, h, y, th, ph = self.draw(measure, 3)
        start = _plane_gap_table(form, h, y, th[:, np.newaxis], ph[:, np.newaxis])[:, 0, 0]
        cut_th, cut_ph, best = _refine(lambda t, p: _plane_gap_table(form, h, y, t, p), th, ph, self.CELL)
        assert (best <= start).all()
        # The same point scored as a (K, 1) table rounds its form sum in
        # another order than in the 9 x 9 stencil, by a few ulps.
        again = _plane_gap_table(form, h, y, cut_th[:, np.newaxis], cut_ph[:, np.newaxis])[:, 0, 0]
        assert np.abs(best - again).max() <= 2e-15
        assert np.abs(best - per_point_gap(form, *pair, y, cut_th, cut_ph)).max() <= 1e-14

    def test_refine_walks_past_its_first_stencil(self):
        # A bowl three cells from the start, where shrinking stencils alone
        # reach 4/3 of a cell: moves to the stencil's border keep it wide.
        t0, p0 = 1.0 + 3.0 * self.CELL, 2.0 - 3.0 * self.CELL

        def bowl(t, p):
            return (t[:, :, np.newaxis] - t0) ** 2 + (p[:, np.newaxis, :] - p0) ** 2

        th, ph, best = _refine(bowl, np.array([1.0, t0]), np.array([2.0, p0]), self.CELL)
        assert np.abs(th - t0).max() <= 1e-7 and np.abs(ph - p0).max() <= 1e-7
        assert best.max() <= 1e-14


def grid_minima_by_roll(f):
    # The reference: the eight neighbours from a +inf-padded copy, each
    # phi shift an np.roll (phi periodic).
    padded = np.pad(f, ((1, 1), (0, 0)), constant_values=np.inf)
    low = np.ones(f.shape, dtype=bool)
    for dt in (-1, 0, 1):
        rows = padded[1 + dt : padded.shape[0] - 1 + dt]
        for dp in (-1, 0, 1):
            if dt or dp:
                low &= f <= np.roll(rows, dp, axis=1)
    low[0, 1:] = low[-1, 1:] = False
    idx = np.flatnonzero(low)
    return idx[np.argsort(f.ravel()[idx], kind="stable")]


class TestGridMinima:
    """Local minima of the LP's (theta, phi) grid, against the pad-and-roll reference."""

    @staticmethod
    def grids():
        rng = np.random.default_rng(23)
        for shape in [(61, 120), (7, 5), (3, 1), (4, 2), (2, 3)]:
            yield rng.normal(size=shape)
            # Ties and flat plateaus: few distinct values.
            yield rng.integers(0, 3, size=shape).astype(float)
        yield np.zeros((5, 6))
        # Minima on the pole rows and in the first and last phi columns,
        # which are neighbours across phi = 0 = 2 pi.
        f = rng.uniform(1.0, 2.0, size=(9, 12))
        f[0, :] = f[-1, :] = 0.5
        f[4, 0] = f[6, -1] = f[2, 0] = f[2, -1] = 0.0
        yield f
        yield np.where(np.arange(12) % 11 == 0, 0.0, 1.0)[np.newaxis, :] + np.zeros((9, 1))

    def test_matches_the_reference(self):
        for f in self.grids():
            assert np.array_equal(_grid_minima(f), grid_minima_by_roll(f)), f.shape

    def test_wrapped_phi_neighbours(self):
        # Of two points adjacent across phi = 0, only the lower is a minimum.
        f = np.random.default_rng(24).uniform(1.0, 2.0, size=(5, 8))
        f[2, 0], f[2, -1] = 0.2, 0.1
        got = _grid_minima(f)
        assert got[0] == 2 * 8 + 7
        assert 2 * 8 not in got
