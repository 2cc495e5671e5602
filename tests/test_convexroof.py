"""Convex-roof search: configs, decompositions, and optimizer bounds.

The optimizer only ever produces upper bounds, so every assertion here is
one-sided unless a closed form pins the exact value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle.convexroof import (
    _SCAN_LEVELS,
    Ensemble,
    RoofConfig,
    _apply_pair,
    _pair_minimize,
    _rotation_stack,
    ensemble_from_mixing,
    minimize_roof,
    optimal_ghzw_ensemble,
)
from tritangle.entanglement import (
    GhzwMixtureParams,
    channel_mixture_state,
    concurrence_pure2,
    three_tangle_pure,
)
from tritangle.qcore import DensityMatrix, PureState, random_density_matrix

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def bell_density():
    amps = np.zeros(4)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    return PureState(2, amps).density()


def werner(w):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    return DensityMatrix(2, w * np.outer(phi, phi) + (1 - w) * np.eye(4) / 4)


def haar_isometry(m, r, rng):
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, rr = np.linalg.qr(g)
    d = np.diagonal(rr)
    return (q * (d / np.abs(d)))[:, :r]


class TestRoofConfig:
    def test_defaults(self):
        cfg = RoofConfig()
        assert cfg.restarts == 8
        assert cfg.ensemble_size is None
        assert cfg.seed == 42

    def test_from_mapping_partial(self):
        cfg = RoofConfig.from_mapping({"restarts": 3, "seed": 7})
        assert cfg.restarts == 3
        assert cfg.seed == 7
        assert cfg.max_iters == 500

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            RoofConfig.from_mapping({"restarts": 3, "iterations": 9})

    def test_from_json(self):
        cfg = RoofConfig.from_json('{"restarts": 2, "ensemble_size": 4}')
        assert cfg.restarts == 2
        assert cfg.ensemble_size == 4

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError):
            RoofConfig.from_json("[1, 2]")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"ensemble_size": 0},
            {"max_iters": 0},
            {"improve_tol": 0.0},
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


class TestEnsembleFromMixing:
    def test_pure_state_identity(self):
        ens = ensemble_from_mixing(bell_density(), [[1.0]])
        assert ens.size == 1
        w, psi = ens.members[0]
        assert w == pytest.approx(1.0, abs=1e-12)
        assert abs(float(concurrence_pure2(psi)) - 1.0) < 1e-9

    def test_maximally_mixed_identity_mixing(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        ens = ensemble_from_mixing(rho, np.eye(2))
        assert ens.size == 2
        assert all(w == pytest.approx(0.5, abs=1e-12) for w, _ in ens.members)

    def test_hadamard_rebalances_rank_two_state(self):
        rho = channel_mixture_state(0.4)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        ens = ensemble_from_mixing(rho, h)
        assert ens.size == 2
        assert np.abs(ens.reconstruct() - rho.matrix).max() < 1e-10

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="mixing"):
            ensemble_from_mixing(channel_mixture_state(0.4), np.eye(3))

    def test_rejects_non_orthonormal(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            ensemble_from_mixing(channel_mixture_state(0.4), m)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_any_isometry_reconstructs(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(2, 2, rng)
        mix = haar_isometry(4, 2, rng)
        ens = ensemble_from_mixing(rho, mix)
        assert np.abs(ens.reconstruct() - rho.matrix).max() < 1e-9


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

    def test_deterministic_for_fixed_config(self):
        cfg = RoofConfig(restarts=1, max_iters=60)
        a = minimize_roof(werner(0.6), concurrence_pure2, cfg)
        b = minimize_roof(werner(0.6), concurrence_pure2, cfg)
        assert a.upper_bound == b.upper_bound
        for (wa, pa), (wb, pb) in zip(a.best_ensemble.members, b.best_ensemble.members):
            assert wa == wb
            assert np.array_equal(pa.amplitudes, pb.amplitudes)

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
        assert float(three_tangle_pure(psi)) <= 1e-12

    def test_onset_point_is_three_phases(self):
        g = GhzwMixtureParams.standard()
        ens = optimal_ghzw_ensemble(g.p0)
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
            assert float(three_tangle_pure(psi)) <= 1e-10
        target = channel_mixture_state(p).matrix
        assert np.abs(ens.reconstruct() - target).max() <= 1e-10

    def test_rejects_p_above_onset(self):
        with pytest.raises(ValueError, match="p0"):
            optimal_ghzw_ensemble(0.7)


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

    def test_stacked_rotation_matches_apply_pair(self):
        rng = np.random.default_rng(5)
        pair = self.random_pair(rng, 8)
        for th_off, ph_off in _SCAN_LEVELS:
            th, ph = 0.41 + th_off, -1.3 + ph_off
            rows = _rotation_stack(th, ph) @ pair
            g = th.size * ph.size
            assert rows.shape == (2 * g, 8)
            for i in rng.choice(g, size=10, replace=False):
                moved = pair.copy()
                _apply_pair(moved, 0, 1, float(th[i // ph.size]), float(ph[i % ph.size]))
                assert np.abs(rows[i] - moved[0]).max() <= 1e-15
                assert np.abs(rows[g + i] - moved[1]).max() <= 1e-15

    @given(seeds, st.booleans(), st.sampled_from([concurrence_pure2, three_tangle_pure]))
    @settings(max_examples=30, deadline=None)
    def test_never_worse_than_start(self, seed, squared, measure):
        contrib = measure.roof_contrib
        pair = self.random_pair(np.random.default_rng(seed), measure.roof_contrib_dim)

        def objective(rows):
            c = contrib(rows)
            return float(np.sum(c * c) if squared else np.sum(c))

        start = objective(pair)
        val, th, ph = _pair_minimize(pair[0], pair[1], contrib, squared)
        assert val <= start
        moved = pair.copy()
        _apply_pair(moved, 0, 1, th, ph)
        assert objective(moved) == pytest.approx(val, rel=1e-9, abs=1e-12)
