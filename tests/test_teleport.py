"""Teleportation circuits, output fidelities, and the scheme crossover."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle import teleport
from tritangle.entanglement import P0, P1, channel_mixture_state
from tritangle.qcore import DensityMatrix, DensityValidationError, _trace_out, ghz_state, w_state
from tritangle.teleport import (
    CriticalValues,
    SchemeKind,
    TeleportReport,
    TeleportScheme,
    avg_fidelity,
    avg_fidelity_closed,
    critical_values,
    fidelity_ghz_closed,
    fidelity_w_closed,
    input_state,
    receiver_channel,
    scheme_unitary,
    teleport_output,
)
from tritangle.tolerances import TOLERANCES, Tolerances

RT2 = math.sqrt(2.0)


def circuit_choi_state(u, channel):
    # The Choi state 1/2 sum_ij |i><j| x Lambda(|i><j|) of the circuit U,
    # built explicitly: each |i><j| x rho_channel through U X U^dag, then the
    # input and the sender's two channel qubits traced out.
    basis = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)  # basis[i, j] = |i><j|
    joint = np.einsum("ijab,kl->ijakbl", basis, channel).reshape(2, 2, 16, 16)
    evolved = u @ joint @ u.conj().T
    return 0.5 * _trace_out(evolved, 4, (1, 2, 3)).transpose(0, 2, 1, 3).reshape(4, 4)


class TestCircuitMatrices:
    def test_ghz_entry_spot_checks(self):
        u = scheme_unitary("ghz").unitary
        assert u[0, 0] == pytest.approx(1 / RT2)
        assert u[0, 14] == pytest.approx(1 / RT2)
        assert u[8, 14] == pytest.approx(-1 / RT2)
        assert u[0, 1] == 0.0

    def test_w_entry_spot_checks(self):
        u = scheme_unitary("w").unitary
        assert u[2, 7] == pytest.approx(1.0)
        assert u[0, 8] == pytest.approx(RT2 / 2)
        assert u[15, 0] == pytest.approx(-RT2 / 2)
        assert u[0, 0] == 0.0

    @pytest.mark.parametrize("kind", ["ghz", "w"])
    def test_unitarity(self, kind):
        u = scheme_unitary(kind).unitary
        assert np.abs(u @ u.conj().T - np.eye(16)).max() <= 1e-12
        assert np.abs(u.conj().T @ u - np.eye(16)).max() <= 1e-12

    def test_kind_coercion(self):
        assert scheme_unitary(SchemeKind.W).kind is SchemeKind.W
        assert scheme_unitary("GHZ").kind is SchemeKind.GHZ
        with pytest.raises(ValueError):
            scheme_unitary("bell")

    def test_each_scheme_is_built_once(self):
        assert scheme_unitary("ghz") is scheme_unitary(SchemeKind.GHZ)
        assert scheme_unitary("W") is scheme_unitary(SchemeKind.W)
        assert not scheme_unitary("w").unitary.flags.writeable

    def test_non_unitary_matrix_is_rejected(self):
        u = scheme_unitary("ghz").unitary.copy()
        u[0, 0] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="not unitary"):
            TeleportScheme(SchemeKind.GHZ, u)

    def test_unitarity_bound_is_the_tolerance_field(self, monkeypatch):
        assert TOLERANCES.unitarity_atol == 1e-12
        u = scheme_unitary("ghz").unitary.copy()
        u[0, 0] *= 1.0 + 1e-9
        monkeypatch.setattr(teleport, "TOLERANCES", Tolerances(unitarity_atol=1e-8))
        assert TeleportScheme(SchemeKind.GHZ, u).unitary[0, 0] == u[0, 0]

    def test_nan_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            TeleportScheme(SchemeKind.GHZ, np.full((16, 16), np.nan))


class TestChannelState:
    def test_endpoints_are_projectors(self):
        ghz = np.outer(ghz_state().amplitudes, ghz_state().amplitudes.conj())
        assert np.abs(channel_mixture_state(1.0).matrix - ghz).max() < 1e-15
        w = np.outer(w_state().amplitudes, w_state().amplitudes.conj())
        assert np.abs(channel_mixture_state(0.0).matrix - w).max() < 1e-15

    def test_rank_two_spectrum(self):
        vals = np.linalg.eigvalsh(channel_mixture_state(0.3).matrix)
        top = np.sort(vals)[::-1]
        # GHZ and W pieces are orthogonal, so the weights are the spectrum
        assert top[0] == pytest.approx(0.7, abs=1e-12)
        assert top[1] == pytest.approx(0.3, abs=1e-12)
        assert np.abs(top[2:]).max() < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            channel_mixture_state(-0.2)
        with pytest.raises(ValueError):
            channel_mixture_state(1.01)


class TestInputState:
    def test_poles(self):
        up = input_state(0.0, 0.0).amplitudes
        assert abs(up[0]) == pytest.approx(1.0) and up[1] == 0.0
        down = input_state(math.pi, 0.0).amplitudes
        assert abs(down[1]) == pytest.approx(1.0, abs=1e-15)

    def test_equator(self):
        amps = input_state(math.pi / 2, 0.0).amplitudes
        assert amps[0] == pytest.approx(1 / RT2)
        assert amps[1] == pytest.approx(1 / RT2)

    def test_phase_split(self):
        amps = input_state(math.pi / 2, math.pi / 2).amplitudes
        assert np.angle(amps[0]) == pytest.approx(math.pi / 4)
        assert np.angle(amps[1]) == pytest.approx(-math.pi / 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["theta", "phi"])
    def test_non_finite_angle_names_the_argument(self, name, bad):
        angles = {"theta": 0.5, "phi": 0.5, name: bad}
        scheme = scheme_unitary("ghz")
        for call in (lambda: input_state(**angles), lambda: teleport_output(scheme, p=0.5, **angles)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    call()


class TestTeleportOutput:
    def test_pure_ghz_channel_is_faithful(self):
        scheme = scheme_unitary("ghz")
        for theta, phi in [(0.3, 1.1), (math.pi / 2, 0.0), (2.5, 4.0)]:
            assert teleport_output(scheme, theta, phi, 1.0).fidelity == pytest.approx(
                1.0, abs=1e-12
            )

    def test_pure_w_channel_is_faithful(self):
        scheme = scheme_unitary("w")
        for theta, phi in [(0.3, 1.1), (math.pi / 2, 0.0), (2.5, 4.0)]:
            assert teleport_output(scheme, theta, phi, 0.0).fidelity == pytest.approx(
                1.0, abs=1e-12
            )

    def test_ghz_equator_worst_case(self):
        report = teleport_output(scheme_unitary("ghz"), math.pi / 2, 0.0, 0.0)
        assert report.fidelity == pytest.approx(0.5, abs=1e-12)

    def test_output_is_valid_density(self):
        report = teleport_output(scheme_unitary("w"), 1.0, 2.0, 0.6)
        assert report.rho_out.num_qubits == 1
        assert abs(np.trace(report.rho_out.matrix) - 1.0) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_ghz_matches_closed_form(self, p):
        scheme = scheme_unitary("ghz")
        for theta in np.linspace(0.0, math.pi, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 4):
                sim = teleport_output(scheme, theta, phi, p).fidelity
                assert abs(sim - fidelity_ghz_closed(theta, p)) <= 1e-10

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_w_matches_closed_form_and_is_isotropic(self, p):
        scheme = scheme_unitary("w")
        closed = fidelity_w_closed(p)
        for theta in np.linspace(0.0, math.pi, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 4):
                assert abs(teleport_output(scheme, theta, phi, p).fidelity - closed) <= 1e-10

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_ghz_closed_form_rejects_non_finite_angle(self, theta):
        with pytest.raises(ValueError, match="theta"):
            fidelity_ghz_closed(theta, 0.5)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            teleport_output(scheme_unitary("ghz"), 0.5, 0.5, 1.5)


class TestAverageFidelity:
    @pytest.mark.parametrize("kind", ["ghz", "w"])
    def test_default_quadrature_is_the_32_by_16_rule(self, kind):
        # The average over a 32 x 16 (Gauss-Legendre in cos theta x uniform
        # in phi) rule, exact for the quadratic fidelity, summed node by
        # node over the explicit circuit.  The last weight is the scheme's
        # threshold in the paper: GHZ at p0, W at 1/3.
        scheme = scheme_unitary(kind)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        cv = critical_values()
        threshold = (P0, cv.f_ghz) if kind == "ghz" else (1.0 / 3.0, cv.f_w)
        for p in (0.0, 0.4, 1.0, threshold[0]):
            total = sum(
                w * teleport_output(scheme, math.acos(u), 2.0 * math.pi * k / 16, p).fidelity
                for u, w in zip(nodes, weights)
                for k in range(16)
            )
            assert abs(avg_fidelity((scheme,), p)[0] - total / 32) <= 1e-12
        assert abs(total / 32 - threshold[1]) <= 1e-12
        assert abs(avg_fidelity((scheme,), threshold[0])[0] - threshold[1]) <= 1e-12

    def test_ghz_average_numeric(self):
        schemes = (scheme_unitary("ghz"),)
        assert abs(avg_fidelity(schemes, 1.0)[0] - 1.0) <= 1e-9
        assert abs(avg_fidelity(schemes, 0.5)[0] - 8.5 / 12.0) <= 1e-9

    def test_w_average_numeric(self):
        assert abs(avg_fidelity((scheme_unitary("w"),), 0.5)[0] - 0.75) <= 1e-9

    def test_closed_form_anchors(self):
        assert avg_fidelity_closed("ghz", 0.0) == pytest.approx(5 / 12, abs=1e-15)
        assert avg_fidelity_closed("w", 1.0) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_w_average_is_the_w_fidelity(self, p):
        # The W fidelity does not depend on the input, so its average is
        # the same function, bit for bit.
        assert avg_fidelity_closed("w", p).hex() == fidelity_w_closed(p).hex()


class TestReceiverChannel:
    """The Choi-state form of the protocol against the explicit circuit."""

    @staticmethod
    def _choi_fidelity(choi: np.ndarray, theta: float, phi: float) -> float:
        amps = input_state(theta, phi).amplitudes
        vec = np.kron(amps.conj(), amps)
        return 2.0 * float(np.real(np.vdot(vec, choi @ vec)))

    @pytest.mark.parametrize("kind", ["ghz", "w"])
    @pytest.mark.parametrize("p", [0.0, 0.3, P0, P1, 1.0])
    def test_node_fidelities_match_circuit(self, kind, p):
        scheme = scheme_unitary(kind)
        choi = receiver_channel((scheme,), p)[0]
        assert choi.shape == (4, 4)
        nodes, _ = np.polynomial.legendre.leggauss(32)
        worst = 0.0
        for u in nodes:
            theta = math.acos(float(u))
            for k in range(16):
                phi = 2.0 * math.pi * k / 16
                circuit = teleport_output(scheme, theta, phi, p).fidelity
                worst = max(worst, abs(self._choi_fidelity(choi, theta, phi) - circuit))
        assert worst <= 1e-12

    @pytest.mark.parametrize("kind", ["ghz", "w"])
    def test_entanglement_fidelity_gives_average(self, kind):
        scheme = scheme_unitary(kind)
        phi_plus = np.array([1.0, 0.0, 0.0, 1.0]) / RT2
        for p in np.linspace(0.0, 1.0, 11):
            f_e = float(np.real(phi_plus @ receiver_channel((scheme,), p)[0] @ phi_plus))
            exact = (2.0 * f_e + 1.0) / 3.0
            assert exact == avg_fidelity((scheme,), p)[0]
            assert abs(exact - avg_fidelity_closed(kind, p)) <= 1e-12

    def test_rejects_map_that_loses_trace(self):
        # Weighting the input basis 3:1 keeps J Hermitian, PSD and of unit
        # trace, but Lambda(|0><0|) then has trace 3/2.
        u = scheme_unitary("ghz").unitary
        skewed = SimpleNamespace(unitary=u @ np.kron(np.diag([math.sqrt(1.5), math.sqrt(0.5)]), np.eye(8)))
        with pytest.raises(ValueError, match="preserve the trace"):
            receiver_channel((skewed,), 0.4)

    def test_avg_fidelity_rejects_fidelity_out_of_range(self, monkeypatch):
        choi = receiver_channel((scheme_unitary("w"),), 0.0)
        monkeypatch.setattr(teleport, "_choi_states", lambda schemes, channel, first: 1.5 * choi)
        with pytest.raises(ValueError, match="outside"):
            avg_fidelity((scheme_unitary("w"),), 0.0)

    def test_failing_choi_state_names_its_scheme_and_weight(self, monkeypatch):
        ghz, w = scheme_unitary("ghz"), scheme_unitary("w")
        ps = np.full(teleport._SWEEP_CHUNK + 10, 0.5)
        # Every W-side Choi state has trace 3/2; the GHZ side passes.
        scaled = SimpleNamespace(kind=SchemeKind.W, unitary=math.sqrt(1.5) * w.unitary)
        with pytest.raises(DensityValidationError, match="^w scheme, weight 0: trace differs"):
            receiver_channel((ghz, scaled), ps)
        # A channel state of trace 3/2 at one weight in the second chunk
        # fails both schemes there; the first scheme is named.
        stack = teleport.channel_mixture_stack
        ps[teleport._SWEEP_CHUNK + 6] = 0.25

        def skewed(p):
            return stack(p) * np.where(p == 0.25, 1.5, 1.0)[:, None, None]

        monkeypatch.setattr(teleport, "channel_mixture_stack", skewed)
        for schemes in ((ghz, w), (w, ghz)):
            match = f"^{schemes[0].kind.value} scheme, weight {teleport._SWEEP_CHUNK + 6}: trace differs"
            for sweep in (receiver_channel, avg_fidelity):
                with pytest.raises(DensityValidationError, match=match):
                    sweep(schemes, ps)

    def test_report_rejects_fidelity_out_of_range(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        for bad in (1.0 + 1e-9, -1e-9, math.nan):
            with pytest.raises(ValueError, match="outside"):
                TeleportReport(0.5, 0.0, 0.0, rho, bad)

    def test_rejects_out_of_range(self):
        schemes = (scheme_unitary("ghz"),)
        for bad in (-0.01, 1.01, math.nan):
            # alone, and as one weight among good ones
            for p in (bad, np.array([0.2, bad, 0.9]), np.array([0.0, 1.0, bad])):
                with pytest.raises(ValueError):
                    receiver_channel(schemes, p)
                with pytest.raises(ValueError):
                    avg_fidelity(schemes, p)

    @pytest.mark.parametrize("kind", ["ghz", "w"])
    def test_stack_holds_each_weights_choi_state(self, kind):
        schemes = (scheme_unitary(kind),)
        ps = np.linspace(0.0, 1.0, 7)
        stack = receiver_channel(schemes, ps)
        assert stack.shape == (1, 7, 4, 4)
        for p, choi in zip(ps, stack[0]):
            assert np.array_equal(choi, receiver_channel(schemes, p)[0])
            # Each one is a density matrix, and the one the circuit gives.
            DensityMatrix(2, choi)
            reference = circuit_choi_state(schemes[0].unitary, channel_mixture_state(p).matrix)
            assert np.abs(choi - reference).max() <= 4.5e-16


SWEEP_LENGTHS = sorted({1, teleport._SWEEP_CHUNK - 1, teleport._SWEEP_CHUNK, teleport._SWEEP_CHUNK + 1,
                        3 * teleport._SWEEP_CHUNK + 1})


@given(
    st.sampled_from(SWEEP_LENGTHS).flatmap(
        lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
)
@settings(max_examples=10, deadline=None)
def test_sweep_entries_are_the_single_weight_values(ps):
    # Bitwise: a weight's value must not depend on the sweep it sits in,
    # its place in a chunk, the chunk boundaries, or the scheme beside it
    # in a two-scheme pass.
    schemes = (scheme_unitary("ghz"), scheme_unitary("w"))
    ps = np.array(ps)
    both = avg_fidelity(schemes, ps)
    assert both.shape == (2, len(ps))
    for scheme, row in zip(schemes, both):
        hexes = [x.hex() for x in row.tolist()]
        assert [x.hex() for x in avg_fidelity((scheme,), ps)[0].tolist()] == hexes
        assert [avg_fidelity((scheme,), [p])[0, 0].hex() for p in ps] == hexes
    # A float weight gives one value per scheme.
    single = avg_fidelity(schemes, float(ps[0]))
    assert single.shape == (2,)
    assert [x.hex() for x in single.tolist()] == [row[0].hex() for row in both.tolist()]
    stacks = receiver_channel(schemes, ps)
    assert stacks.shape == (2, len(ps), 4, 4)
    assert receiver_channel(schemes, float(ps[0])).tobytes() == stacks[:, 0].tobytes()
    for scheme, stack in zip(schemes, stacks):
        assert receiver_channel((scheme,), ps)[0].tobytes() == stack.tobytes()
        assert all(receiver_channel((scheme,), [p])[0, 0].tobytes() == choi.tobytes() for p, choi in zip(ps, stack))


@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 3)])
def test_sweep_shape_is_schemes_then_weights(shape):
    schemes = (scheme_unitary("ghz"), scheme_unitary("w"), scheme_unitary("ghz"))
    ps = np.linspace(0.0, 1.0, math.prod(shape)).reshape(shape)
    fbar = avg_fidelity(schemes, ps)
    assert fbar.shape == (3,) + shape
    assert receiver_channel(schemes, ps).shape == (3,) + shape + (4, 4)
    assert fbar[0].tobytes() == fbar[2].tobytes()


class TestCriticalValues:
    def test_frozen_values(self):
        cv = critical_values()
        assert isinstance(cv, CriticalValues)
        assert cv.f_ghz == pytest.approx(0.7745485444208194, abs=1e-12)
        assert cv.f_w == pytest.approx(5 / 6, abs=1e-12)
        assert cv.p_star == 7 / 13
        assert cv.p0 == pytest.approx(0.6135117904356906, abs=1e-12)
        assert cv.p1 == pytest.approx(0.7236067977499789, abs=1e-12)

    def test_values_are_pinned(self):
        # Bit patterns taken while p0 and p1 were still derived by a parameter factory.
        cv = critical_values()
        assert cv.f_ghz.hex() == "0x1.8c91a076e7555p-1"
        assert cv.f_w.hex() == "0x1.aaaaaaaaaaaabp-1"
        assert cv.p_star.hex() == "0x1.13b13b13b13b1p-1"
        assert cv.p0.hex() == "0x1.3a1e37a7436ddp-1"
        assert cv.p1.hex() == "0x1.727c9716ffb76p-1"

    def test_thresholds_beat_classical_bound(self):
        cv = critical_values()
        assert cv.f_ghz > 2 / 3
        assert cv.f_w > 2 / 3

    def test_crossing_swaps_the_ranking(self):
        cv = critical_values()
        at_star = avg_fidelity_closed("ghz", cv.p_star)
        assert abs(at_star - avg_fidelity_closed("w", cv.p_star)) < 1e-12
        assert avg_fidelity_closed("w", cv.p_star - 0.05) > avg_fidelity_closed(
            "ghz", cv.p_star - 0.05
        )
        assert avg_fidelity_closed("ghz", cv.p_star + 0.05) > avg_fidelity_closed(
            "w", cv.p_star + 0.05
        )
