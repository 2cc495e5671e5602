"""Entanglement measures: pairwise, tripartite, and the channel mixture curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle.entanglement import (
    Cut,
    GhzwMixtureParams,
    MeasureKind,
    MeasureValue,
    c_abc_mixture,
    channel_mixture_stack,
    channel_mixture_state,
    concurrence_pure2,
    concurrence_wootters,
    cut_concurrence_pure,
    eof_from_concurrence,
    ghzw_params,
    ghzw_pure_tangle,
    ghzw_superposition,
    groverian_from_concurrence,
    monogamy_residual,
    reduced_concurrences_qc,
    three_tangle_ghzw,
    three_tangle_pure,
    _tangle_contrib,
    _tangle_form,
    _tangle_raw,
)
from tritangle.qcore import (
    DensityMatrix,
    PureState,
    ghz_state,
    partial_trace,
    random_pure_state,
    w_state,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

P0 = 0.6135117904356906
P1 = 0.7236067977499789
T1 = 0.2763932022500209


def bell_state():
    return PureState.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])


def werner(w):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    return DensityMatrix(2, w * np.outer(phi, phi) + (1 - w) * np.eye(4) / 4)


def haar_unitary(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


class TestMeasureValue:
    def test_clamps_negative_noise(self):
        assert MeasureValue(-1e-13, MeasureKind.CONCURRENCE).value == 0.0

    def test_clamps_above_one(self):
        assert MeasureValue(1 + 5e-13, MeasureKind.CONCURRENCE).value == 1.0

    def test_rejects_far_negative(self):
        with pytest.raises(ValueError):
            MeasureValue(-1e-6, MeasureKind.CONCURRENCE)

    def test_rejects_far_above_one(self):
        with pytest.raises(ValueError):
            MeasureValue(1.1, MeasureKind.THREE_TANGLE)

    def test_float_conversion(self):
        assert float(MeasureValue(0.5, MeasureKind.EOF)) == 0.5


class TestPairwiseConcurrence:
    def test_product_state_zero(self):
        psi = PureState.from_amplitudes([1, 0, 0, 0])
        assert float(concurrence_pure2(psi)) == 0.0

    def test_bell_is_maximal(self):
        assert float(concurrence_pure2(bell_state())) == pytest.approx(1.0, abs=1e-15)

    def test_wootters_on_bell(self):
        assert float(concurrence_wootters(bell_state().density())) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("w", [0.0, 0.2, 1 / 3, 0.4, 0.6, 0.8, 1.0])
    def test_werner_line(self, w):
        expected = max(0.0, (3 * w - 1) / 2)
        assert float(concurrence_wootters(werner(w))) == pytest.approx(expected, abs=1e-12)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_mixed_route_matches_pure_formula(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure_state(2, rng)
        direct = float(concurrence_pure2(psi))
        via_wootters = float(concurrence_wootters(psi.density()))
        assert abs(direct - via_wootters) < 1e-12

    def test_eof_endpoints(self):
        assert float(eof_from_concurrence(0.0)) == 0.0
        assert float(eof_from_concurrence(1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_eof_frozen_point(self):
        assert float(eof_from_concurrence(0.6)) == pytest.approx(
            0.4689955935892811, abs=1e-12
        )

    def test_groverian_frozen_point(self):
        assert float(groverian_from_concurrence(0.6)) == pytest.approx(
            0.31622776601683783, abs=1e-12
        )

    def test_groverian_bell(self):
        assert float(groverian_from_concurrence(1.0)) == pytest.approx(
            0.7071067811, abs=1e-9
        )

    def test_monotone_maps_reject_out_of_range(self):
        with pytest.raises(ValueError):
            eof_from_concurrence(1.5)
        with pytest.raises(ValueError):
            groverian_from_concurrence(-0.5)

    def test_accepts_measure_value_input(self):
        c = concurrence_pure2(bell_state())
        assert float(eof_from_concurrence(c)) == pytest.approx(1.0, abs=1e-12)


class TestThreeTangle:
    def test_ghz_maximal(self):
        assert float(three_tangle_pure(ghz_state())) == pytest.approx(1.0, abs=1e-14)

    def test_w_class_vanishes(self):
        assert float(three_tangle_pure(w_state())) <= 1e-10

    def test_product_state_vanishes(self):
        amps = np.zeros(8)
        amps[0] = 1.0
        assert float(three_tangle_pure(PureState(3, amps))) <= 1e-14

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure_state(3, rng)
        u = haar_unitary(2, rng)
        for v, w in ((u, np.eye(2)), (np.eye(2), u)):
            full = np.kron(np.kron(v, w), haar_unitary(2, rng))
            rotated = PureState(3, full @ psi.amplitudes)
            assert abs(
                float(three_tangle_pure(rotated)) - float(three_tangle_pure(psi))
            ) < 1e-9

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_monogamy_residual_equals_tangle(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure_state(3, rng)
        residual = monogamy_residual(psi)
        assert residual >= -1e-9
        assert abs(residual - float(three_tangle_pure(psi))) < 1e-8

    def test_cut_concurrence_ghz(self):
        for cut in Cut:
            assert float(cut_concurrence_pure(ghz_state(), cut)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_cut_concurrence_w(self):
        # lone LSB keeps the 1/sqrt(2) amplitude balanced against the rest
        assert float(cut_concurrence_pure(w_state(), Cut.AB_C)) == pytest.approx(
            1.0, abs=1e-12
        )
        for cut in (Cut.AC_B, Cut.BC_A):
            assert float(cut_concurrence_pure(w_state(), cut)) == pytest.approx(
                math.sqrt(3) / 2, abs=1e-12
            )


def expanded_tangle_raw(w):
    # The hyperdeterminant written out term by term: 4|d1 - 2 d2 + 4 d3|.
    a000, a001, a010, a011, a100, a101, a110, a111 = (w[:, k] for k in range(8))
    d1 = a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3)


class TestTangleKernel:
    def random_rows(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))
        return w / np.linalg.norm(w, axis=1, keepdims=True)

    def test_matches_expanded_hyperdeterminant(self):
        w = self.random_rows(1000, 11)
        assert np.abs(_tangle_raw(w) - expanded_tangle_raw(w)).max() <= 1e-14

    def test_ghz_and_w_rows(self):
        rows = np.stack([ghz_state().amplitudes, w_state().amplitudes])
        assert _tangle_raw(rows)[0] == pytest.approx(1.0, abs=1e-14)
        assert _tangle_raw(rows)[1] <= 1e-15

    def test_homogeneous_of_degree_four(self):
        w = self.random_rows(200, 12)
        lam = 0.7 * np.exp(0.3j)
        assert np.allclose(_tangle_raw(lam * w), abs(lam) ** 4 * _tangle_raw(w), rtol=1e-13, atol=0.0)

    def test_contrib_is_weight_times_tangle(self):
        w = self.random_rows(50, 13) * np.linspace(0.1, 2.0, 50)[:, None]
        weights = np.sum(np.abs(w) ** 2, axis=1)
        expected = [wt * float(three_tangle_pure(PureState(3, row / math.sqrt(wt)))) for wt, row in zip(weights, w)]
        assert np.allclose(_tangle_contrib(w), expected, rtol=1e-12, atol=0.0)

    def test_contrib_of_negligible_row_is_zero(self):
        w = np.zeros((2, 8), dtype=complex)
        w[1, 0] = 1e-7
        assert np.array_equal(_tangle_contrib(w), [0.0, 0.0])


class TestRoofForm:
    """The signed form behind each roof measure and its pair coefficients."""

    MEASURES = [three_tangle_pure, concurrence_pure2]

    @staticmethod
    def random_pair(measure, rng):
        dim = measure.roof_contrib_dim
        return rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))

    def test_attributes(self):
        assert (three_tangle_pure.roof_form.degree, three_tangle_pure.roof_form.scale) == (4, 4.0)
        assert three_tangle_pure.roof_form.per_weight
        assert (concurrence_pure2.roof_form.degree, concurrence_pure2.roof_form.scale) == (2, 2.0)
        assert not concurrence_pure2.roof_form.per_weight

    def test_raw_tangle_is_scaled_form(self):
        w = TestTangleKernel().random_rows(100, 14)
        assert np.array_equal(_tangle_raw(w), 4.0 * np.abs(_tangle_form(w)))

    @pytest.mark.parametrize("measure", MEASURES, ids=["tangle", "concurrence"])
    def test_roof_contrib_is_weight_times_measure(self, measure):
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(30, measure.roof_contrib_dim)) + 1j * rng.normal(size=(30, measure.roof_contrib_dim))
        n = measure.roof_contrib_dim.bit_length() - 1
        weights = np.sum(np.abs(rows) ** 2, axis=1)
        expected = [wt * float(measure(PureState(n, row / math.sqrt(wt)))) for wt, row in zip(weights, rows)]
        assert np.allclose(measure.roof_contrib(rows), expected, rtol=1e-12, atol=0.0)
        assert np.array_equal(measure.roof_contrib(rows), measure.roof_form.contrib(rows))

    @pytest.mark.parametrize("measure", MEASURES, ids=["tangle", "concurrence"])
    def test_score_without_weights_is_unit_weights(self, measure):
        rng = np.random.default_rng(18)
        values = rng.normal(size=(40, 7)) + 1j * rng.normal(size=(40, 7))
        values[rng.random(values.shape) < 0.2] = 0.0
        form = measure.roof_form
        got = form.score(values, None)
        assert got.tobytes() == form.score(values, np.ones(values.shape)).tobytes()
        assert (got == 0.0).any()
        assert np.array_equal(got, form.scale * np.abs(values))

    @pytest.mark.parametrize("measure", MEASURES, ids=["tangle", "concurrence"])
    def test_pair_coefficients_reproduce_the_form(self, measure):
        form = measure.roof_form
        d = form.degree
        rng = np.random.default_rng(16)
        for _ in range(200):
            wj, wk = self.random_pair(measure, rng)
            x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
            h = form.pair_coefficients(wj, wk)
            assert h.shape == (d + 1,)
            direct = form.form((x * wj + y * wk)[np.newaxis, :])[0]
            poly = sum(h[n] * x ** (d - n) * y**n for n in range(d + 1))
            assert abs(poly - direct) <= 1e-12 * abs(direct)

    @pytest.mark.parametrize("measure", MEASURES, ids=["tangle", "concurrence"])
    def test_pair_coefficients_end_terms(self, measure):
        # h_0 = form(wj) and h_d = form(wk); a zero row leaves one term.
        form = measure.roof_form
        wj, wk = self.random_pair(measure, np.random.default_rng(17))
        h = form.pair_coefficients(wj, wk)
        ends = form.form(np.stack([wj, wk]))
        assert abs(h[0] - ends[0]) <= 1e-13 * abs(ends[0])
        assert abs(h[-1] - ends[1]) <= 1e-13 * abs(ends[1])
        h = form.pair_coefficients(wj, np.zeros_like(wk))
        assert abs(h[0] - ends[0]) <= 1e-13 * abs(ends[0])
        assert np.abs(h[1:]).max() <= 1e-13 * abs(ends[0])


class TestMixtureFamily:
    def test_standard_parameters(self):
        g = GhzwMixtureParams.standard()
        assert g.s == 2.0
        assert g.tau3_ghz == 1.0
        assert g.p0 == pytest.approx(P0, abs=1e-12)
        assert g.p1 == pytest.approx(P1, abs=1e-12)
        assert g.t1 == pytest.approx(T1, abs=1e-12)
        assert GhzwMixtureParams.standard() is g

    def test_mixture_tangle_values_are_pinned(self):
        # Bit patterns of the standard mixture's tangle, taken before its
        # branches shared one helper; a change in the order of the
        # arithmetic shows up here.
        g = GhzwMixtureParams.standard()
        assert g.p1.hex() == "0x1.727c9716ffb76p-1"
        assert g.t1.hex() == "0x1.1b06d1d200911p-2"
        pinned = {
            g.p0: "0x0.0p+0",
            g.p1: "0x1.1b06d1d200911p-2",
            0.7: "0x1.b869c0d48174ep-3",
            0.9: "0x1.79f4e7a7b3578p-1",
            1.0: "0x1.0000000000000p+0",
        }
        for p, bits in pinned.items():
            assert float(three_tangle_ghzw(p)).hex() == bits
        h = ghzw_params(0.6, 0.8, 0.6, 0.48, 0.64)
        assert h.p1.hex() == "0x1.5d254ee2b3618p-1"
        assert h.t1.hex() == "0x1.43db275e29b1cp-4"
        assert float(three_tangle_ghzw(0.95, h)).hex() == "0x1.940c6cc145052p-1"

    def test_params_factory_matches_standard(self):
        r2 = 1 / math.sqrt(2)
        g = ghzw_params(r2, r2, r2, 0.5, 0.5)
        std = GhzwMixtureParams.standard()
        assert g.s == pytest.approx(std.s, abs=1e-12)
        assert g.p0 == pytest.approx(std.p0, abs=1e-12)

    def test_params_factory_unit_interference(self):
        # a, b, c chosen so the interference strength lands exactly at 1,
        # which pushes the tangle onset down to p = 1/2
        a = b = 1 / math.sqrt(2)
        c = 0.5
        df = a * a * b / (4 * c)
        ssum = math.sqrt(0.75 + 2 * df)
        disc = math.sqrt(ssum * ssum - 4 * df)
        d, f = (ssum + disc) / 2, (ssum - disc) / 2
        g = ghzw_params(a, b, c, d, f)
        assert g.s == pytest.approx(1.0, abs=1e-12)
        assert g.p0 == pytest.approx(0.5, abs=1e-12)

    def test_params_factory_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ghzw_params(1.0, 1.0, 1 / math.sqrt(2), 0.5, 0.5)

    def test_superposition_endpoints(self):
        assert float(three_tangle_pure(ghzw_superposition(1.0))) == pytest.approx(
            1.0, abs=1e-12
        )
        assert float(three_tangle_pure(ghzw_superposition(0.0))) <= 1e-10

    def test_superposition_tangle_vanishes_at_onset(self):
        assert float(three_tangle_pure(ghzw_superposition(P0))) <= 1e-10

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_pure_tangle_closed_form(self, p, phi):
        state = ghzw_superposition(p, phi)
        assert abs(
            float(three_tangle_pure(state)) - ghzw_pure_tangle(p, phi)
        ) < 1e-9

    def test_mixture_tangle_zero_plateau(self):
        for p in (0.0, 0.2, 0.4, 0.6, P0):
            assert float(three_tangle_ghzw(p)) == 0.0

    def test_mixture_tangle_frozen_point(self):
        assert float(three_tangle_ghzw(0.7)) == pytest.approx(
            0.21504545830264948, abs=1e-12
        )

    def test_mixture_tangle_endpoint(self):
        assert float(three_tangle_ghzw(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_tangle_knot_values(self):
        assert float(three_tangle_ghzw(P0)) == pytest.approx(0.0, abs=1e-12)
        assert float(three_tangle_ghzw(P1)) == pytest.approx(T1, abs=1e-12)

    def test_mixture_tangle_continuous_at_knots(self):
        eps = 1e-8
        for knot in (P0, P1):
            below = float(three_tangle_ghzw(knot - eps))
            above = float(three_tangle_ghzw(knot + eps))
            assert abs(above - below) < 1e-6

    def test_mixture_tangle_monotone_past_onset(self):
        grid = np.linspace(P0, 1.0, 101)
        vals = [float(three_tangle_ghzw(p)) for p in grid]
        assert all(b - a > -1e-12 for a, b in zip(vals, vals[1:]))

    def test_reduced_concurrence_thresholds(self):
        c_ab, c_ac, c_bc = reduced_concurrences_qc(0.18)
        assert float(c_ab) == 0.0
        c_ab, _, _ = reduced_concurrences_qc(0.17)
        assert float(c_ab) > 0.0
        _, c_ac, c_bc = reduced_concurrences_qc(0.34)
        assert float(c_ac) == float(c_bc) == 0.0
        _, c_ac, _ = reduced_concurrences_qc(0.33)
        assert float(c_ac) > 0.0

    def test_reduced_concurrence_frozen_point(self):
        _, c_ac, c_bc = reduced_concurrences_qc(0.2)
        assert float(c_ac) == pytest.approx(0.21927526343546258, abs=1e-12)
        assert float(c_ac) == float(c_bc)

    def test_reduced_concurrence_endpoint(self):
        c_ab, c_ac, _ = reduced_concurrences_qc(0.0)
        assert float(c_ab) == pytest.approx(0.5, abs=1e-15)
        assert float(c_ac) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
    def test_reduced_concurrences_match_wootters(self, p):
        rho = channel_mixture_state(p)
        c_ab, c_ac, c_bc = reduced_concurrences_qc(p)
        pairs = [
            (float(c_ab), partial_trace(rho.matrix, [3])),
            (float(c_ac), partial_trace(rho.matrix, [2])),
            (float(c_bc), partial_trace(rho.matrix, [1])),
        ]
        for closed, reduced in pairs:
            assert abs(closed - float(concurrence_wootters(reduced))) < 1e-9

    def test_global_measure_endpoints(self):
        assert float(c_abc_mixture(0.0)) == pytest.approx(1.0, abs=1e-12)
        assert float(c_abc_mixture(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_global_measure_dead_window(self):
        for p in np.linspace(1 / 3 + 1e-6, P0 - 1e-6, 25):
            assert float(c_abc_mixture(p)) == 0.0

    def test_channel_state_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            channel_mixture_state(1.2)
        with pytest.raises(ValueError):
            channel_mixture_state(-0.1)

    def test_channel_stack_holds_each_weights_state(self):
        ps = np.linspace(0.0, 1.0, 9)
        stack = channel_mixture_stack(ps)
        assert stack.shape == (9, 8, 8) and not stack.flags.writeable
        for p, rho in zip(ps, stack):
            assert np.array_equal(rho, channel_mixture_state(p).matrix)

    @pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
    def test_channel_stack_rejects_bad_weight(self, bad):
        with pytest.raises(ValueError, match="must lie in"):
            channel_mixture_stack([0.3, bad, 0.5])
