"""Decohered W-state channel: coefficient identities, state validity, decay, zero tangle."""

import dataclasses
import math

import numpy as np
import pytest

from tritangle import noisychan
from tritangle.convexroof import RoofConfig, minimize_roof
from tritangle.entanglement import concurrence_wootters, three_tangle_pure
from tritangle.noisychan import NoiseParams, channel_report, epsilon_x_w, noise_params, zero_tangle_ensemble
from tritangle.qcore import partial_trace, w_state


class TestNoiseParams:
    def test_no_decay_limit(self):
        np0 = noise_params(0.0)
        assert np0.alpha1 == 4.0
        assert np0.alpha2 == np0.alpha3 == np0.alpha4 == 0.0
        assert np0.beta_plus == 2.0
        assert np0.beta_minus == 0.0

    def test_full_decay_limit(self):
        npinf = noise_params(20.0)
        for value in (
            npinf.alpha1,
            npinf.alpha2,
            npinf.alpha3,
            npinf.alpha4,
            npinf.beta_plus,
            npinf.beta_minus,
        ):
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_frozen_point(self):
        assert noise_params(0.5).alpha1 == pytest.approx(1.553001792775919, abs=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            noise_params(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="kappa_t"):
            noise_params(math.nan)
        good = noise_params(0.5)
        fields = dict(vars(good))
        with pytest.raises(ValueError, match="kappa_t"):
            NoiseParams(**{**fields, "kappa_t": math.nan})
        for name in ("alpha1", "alpha4", "beta_plus", "beta_minus"):
            with pytest.raises(ValueError, match="non-negative"):
                NoiseParams(**{**fields, name: math.nan})

    def test_sum_rules(self, rng):
        for kt in rng.uniform(0.0, 5.0, size=20):
            params = noise_params(kt)
            alphas = (params.alpha1, params.alpha2, params.alpha3, params.alpha4)
            assert abs(sum(alphas) - 4.0) < 1e-13
            assert abs(params.beta_plus + params.beta_minus - 2.0) < 1e-13
            assert all(a >= 0.0 for a in alphas)
            assert params.beta_minus >= 0.0

    def test_every_tiny_and_large_time_is_accepted(self):
        # Expanded as 1 - e^{-2kt} - e^{-4kt} + e^{-6kt}, alpha3 rounded to
        # -1.1e-16 at kt = 2.29e-11 and at five more of these times.
        kts = np.concatenate([np.linspace(0.0, 40.0, 4001), np.geomspace(1e-300, 1e3, 3000)])
        for kt in kts:
            params = noise_params(float(kt))
            alphas = (params.alpha1, params.alpha2, params.alpha3, params.alpha4)
            assert min(*alphas, params.beta_plus, params.beta_minus) >= 0.0
            assert abs(sum(alphas) - 4.0) <= 8.9e-16
        assert noise_params(2.293260995490296e-11).alpha3 >= 0.0


class TestChannelOutput:
    def test_zero_time_is_pure_w(self):
        amps = w_state().amplitudes
        projector = np.outer(amps, amps.conj())
        assert np.abs(epsilon_x_w(0.0).matrix - projector).max() <= 1e-12

    @pytest.mark.parametrize("kt", [0.0, 0.1, 0.5, 1.0, 2.0, 10.0])
    def test_output_is_valid_density(self, kt):
        rho = epsilon_x_w(kt)
        m = rho.matrix
        assert np.abs(m.imag).max() == 0.0
        assert np.abs(m - m.T).max() == 0.0

    def test_trace_stays_exact(self, rng):
        for kt in rng.uniform(0.0, 5.0, size=20):
            assert abs(np.trace(epsilon_x_w(kt).matrix).real - 1.0) <= 1e-13

    def test_long_time_spectrum(self):
        vals = np.linalg.eigvalsh(epsilon_x_w(10.0).matrix)
        assert vals.min() >= -1e-12
        assert vals.max() <= 1.0


class TestEntanglementDecay:
    def _pairwise(self, kt):
        m = epsilon_x_w(kt).matrix
        return (
            concurrence_wootters(partial_trace(m, [3])),
            concurrence_wootters(partial_trace(m, [2])),
        )

    def test_monotone_decay(self):
        grid = [0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5]
        ab_vals = []
        ac_vals = []
        for kt in grid:
            c_ab, c_ac = self._pairwise(kt)
            ab_vals.append(c_ab)
            ac_vals.append(c_ac)
        for vals in (ab_vals, ac_vals):
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-9

    def test_nearest_pair_outlives_distant_pair(self):
        # the AB pair loses its concurrence earlier than AC/BC
        c_ab, c_ac = self._pairwise(0.25)
        assert c_ab == 0.0
        assert c_ac > 0.05

    def test_regression_anchor(self):
        c_ab, c_ac = self._pairwise(0.1)
        assert c_ab == pytest.approx(0.13049119512782856, abs=1e-12)
        assert c_ac == pytest.approx(0.32861593938850836, abs=1e-12)


class TestZeroTangleEnsemble:
    KAPPA_TS = [0.0, 1e-12, *np.linspace(0.0, 3.0, 301), 10.0, 40.0, 400.0]

    def test_reconstructs_with_zero_member_tangles(self):
        for kt in self.KAPPA_TS:
            ens = zero_tangle_ensemble(kt)
            assert np.abs(ens.reconstruct() - epsilon_x_w(kt).matrix).max() <= 1e-15, kt
            assert sum(w for w, _ in ens.members) == pytest.approx(1.0, abs=1e-15)
            assert all(three_tangle_pure(psi) == 0.0 for _, psi in ens.members), kt
            assert ens.average(three_tangle_pure) == 0.0

    def test_zero_time_is_w_alone(self):
        ens = zero_tangle_ensemble(0.0)
        assert ens.size == 1
        weight, psi = ens.members[0]
        assert weight == 1.0
        assert np.array_equal(psi.amplitudes, w_state().amplitudes)

    def test_every_flip_has_weight_after_zero_time(self):
        ens = zero_tangle_ensemble(1e-12)
        assert ens.size == 8
        assert ens.members[0][0] == pytest.approx(1.0, abs=1e-11)

    def test_rejects_bad_time(self):
        for kt in (-0.1, math.nan):
            with pytest.raises(ValueError, match="kappa_t"):
                zero_tangle_ensemble(kt)

    @pytest.mark.parametrize("kt", [0.05, 0.5, 2.0])
    def test_search_oracle_finds_a_near_zero_bound(self, kt):
        # The decomposition search, independent of the bit-flip ensemble,
        # must bound the tangle from above by a small number, never below 0.
        res = minimize_roof(epsilon_x_w(kt), three_tangle_pure, RoofConfig(restarts=1, max_iters=30))
        assert 0.0 <= res.upper_bound <= 1e-4


class TestChannelReport:
    def test_builds_the_state_once(self, monkeypatch):
        # One noise_params evaluation and one assembly of the state per report.
        calls, evaluated = [], []
        build, evaluate = noisychan._assemble, noisychan.noise_params

        def counted(params):
            calls.append(params.kappa_t)
            return build(params)

        def counted_params(kappa_t):
            evaluated.append(kappa_t)
            return evaluate(kappa_t)

        monkeypatch.setattr(noisychan, "_assemble", counted)
        monkeypatch.setattr(noisychan, "noise_params", counted_params)
        for kt in (0.0, 0.7, 2.5):
            calls.clear()
            evaluated.clear()
            rep = channel_report(kt)
            assert rep.tangle.exact
            assert calls == [kt]
            assert evaluated == [kt]
            # The report carries noise_params' coefficients, bit for bit.
            assert [x.hex() for x in dataclasses.astuple(rep.params)] == [
                x.hex() for x in dataclasses.astuple(noise_params(kt))
            ]
        # The public ensemble still checks against the state it builds.
        calls.clear()
        zero_tangle_ensemble(0.7)
        assert calls == [0.7]

    def test_zero_time_report(self):
        rep = channel_report(0.0)
        assert rep.matches_pure_w
        assert rep.concurrence_ab == pytest.approx(0.5, abs=1e-9)
        assert rep.concurrence_ac == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert rep.concurrence_bc == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert rep.tangle.upper_bound == 0.0
        assert rep.tangle.converged
        assert rep.tangle.exact

    def test_decohered_report(self):
        rep = channel_report(0.5)
        assert not rep.matches_pure_w
        assert rep.concurrence_ab == 0.0
        assert rep.concurrence_ac == 0.0
        assert rep.concurrence_bc == 0.0
        assert rep.kappa_t == 0.5
        assert rep.params.kappa_t == 0.5
        assert rep.tangle.upper_bound == 0.0
        assert rep.tangle.exact
        # All eight bit flips carry weight once kt > 0; no search ran.
        assert rep.tangle.best_ensemble.size == 8 and rep.tangle.restarts_used == 0
