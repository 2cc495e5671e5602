"""Core linear algebra: products, traces, eigenvalues, state validation."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle import qcore
from tritangle.qcore import (
    DensityMatrix,
    DensityValidationError,
    PureState,
    density_report,
    ghz_state,
    hermitian_eigensystem,
    kron,
    load_state_file,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    save_state_file,
    validate_density,
    w_state,
)
from tritangle.tolerances import TOLERANCES, Tolerances

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_spin_flip(self):
        # hand expansion: anti-diagonal (-1, 1, 1, -1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
        assert np.allclose(kron(SIGMA_Y, SIGMA_Y), expected, atol=0)

    def test_basis_projector(self):
        p0 = np.array([[1, 0], [0, 0]])
        p1 = np.array([[0, 0], [0, 1]])
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        assert np.array_equal(kron(p0, p1), expected)

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-13


class TestPartialTrace:
    def test_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        reduced = partial_trace(rho, [1])
        assert np.allclose(reduced.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_bell_reduction_is_maximally_mixed(self):
        bell = PureState.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        reduced = partial_trace(bell.density(), [1])
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)

    def test_ghz_two_qubit_trace(self):
        reduced = partial_trace(ghz_state().density(), [1, 2])
        assert np.allclose(reduced.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_factor_recovery(self, seed):
        rng = np.random.default_rng(seed)
        rho_a = random_density_matrix(1, 2, rng)
        rho_b = random_density_matrix(2, 3, rng)
        joint = kron(rho_a.matrix, rho_b.matrix)
        assert np.abs(partial_trace(joint, [2, 3]).matrix - rho_a.matrix).max() < 1e-12

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(3, 4, rng)
        reduced = partial_trace(rho, [2])
        assert abs(np.trace(reduced.matrix) - np.trace(rho.matrix)) < 1e-12

    def test_survivor_order(self):
        # tracing the middle qubit of |011> must leave |01|
        amps = np.zeros(8)
        amps[3] = 1.0
        reduced = partial_trace(PureState(3, amps).density(), [2])
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(reduced.matrix, expected, atol=1e-15)

    def test_bad_subsets(self):
        rho = ghz_state().density()
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        with pytest.raises(ValueError):
            partial_trace(rho, [1, 2, 3])
        with pytest.raises(ValueError):
            partial_trace(rho, [4])


class TestEigen:
    def test_diagonal_descending(self):
        vals, vecs = hermitian_eigensystem(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [3, 2, 1])
        assert np.allclose(np.abs(vecs), np.eye(3)[:, [0, 2, 1]])

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigensystem(m)

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            hermitian_eigensystem(np.eye(32))

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_eigensystem_reconstructs(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = g + g.conj().T
        vals, vecs = hermitian_eigensystem(h)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.abs((vecs * vals) @ vecs.conj().T - h).max() < 1e-10


class TestDensityValidation:
    def test_trace_violation(self):
        with pytest.raises(DensityValidationError) as err:
            validate_density(np.diag([0.7, 0.4]))
        assert err.value.invariant == "trace"
        assert err.value.magnitude == pytest.approx(0.1, abs=1e-12)

    def test_psd_violation(self):
        with pytest.raises(DensityValidationError) as err:
            validate_density(np.diag([1.2, -0.2]))
        assert err.value.invariant == "positivity"

    def test_hermiticity_violation(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(DensityValidationError) as err:
            validate_density(m)
        assert err.value.invariant == "hermiticity"

    def test_shape_violation(self):
        with pytest.raises(DensityValidationError) as err:
            validate_density(np.eye(3) / 3)
        assert err.value.invariant == "shape"

    @pytest.mark.parametrize("n", [0, 5])
    def test_qubit_count_outside_range(self, n):
        with pytest.raises(DensityValidationError, match="num_qubits") as err:
            DensityMatrix(n, np.eye(2**n) / 2**n)
        assert err.value.invariant == "shape"

    def test_accepts_valid(self):
        dm = validate_density(np.eye(4) / 4)
        assert dm.num_qubits == 2

    def test_report_flags(self):
        rep = density_report(np.diag([0.7, 0.4]))
        assert rep.shape_ok and rep.hermitian_ok and not rep.trace_ok
        assert not rep.ok
        assert density_report(np.eye(2) / 2).ok

    def test_report_trace_error_is_the_modulus(self):
        # tr - 1 = 3e-13 + 4e-13 i: the modulus is 5e-13, the sum of the
        # parts' sizes would be 7e-13.
        rep = density_report(np.diag([0.5 + 3e-13 + 4e-13j, 0.5]))
        assert rep.trace_error == pytest.approx(5e-13, rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_report_fails_shape_on_non_finite_entries(self, bad):
        m = (np.eye(2) / 2).astype(complex)
        m[0, 1] = bad
        rep = density_report(m)
        assert not rep.shape_ok and not rep.ok
        with pytest.raises(DensityValidationError, match="finite") as err:
            validate_density(m)
        assert err.value.invariant == "shape"

    def test_loose_tolerances_leave_the_default_alone(self):
        # A slightly negative eigenvalue passes only under loose tolerances,
        # passed in explicitly; the shared instance is frozen and unchanged.
        m = np.diag([1.0 + 1e-8, -1e-8])
        loose = Tolerances(psd_floor=-1e-6)
        for build in (validate_density, functools.partial(DensityMatrix, 1)):
            with pytest.raises(DensityValidationError) as err:
                build(m)
            assert err.value.invariant == "positivity"
            with pytest.raises(DensityValidationError):
                build(m, TOLERANCES)
            assert np.array_equal(build(m, loose).matrix, m)
        with pytest.raises(AttributeError):
            TOLERANCES.psd_floor = -1e-6
        assert TOLERANCES == Tolerances()


INVARIANTS = ("shape", "hermiticity", "trace", "positivity")


class TestDensityStack:
    """The stacked check: one report and one raise for a (P, d, d) stack."""

    @staticmethod
    def _stack(bad, index=2, size=5):
        # Valid two-qubit states with one member replaced by bad.
        rng = np.random.default_rng(7)
        stack = np.array([random_density_matrix(2, 4, rng).matrix for _ in range(size)])
        stack[index] = bad
        return stack

    @staticmethod
    def _bad_members():
        good = random_density_matrix(2, 3, np.random.default_rng(3)).matrix
        non_finite = good.copy()
        non_finite[1, 2] = np.nan
        skew = good.copy()
        skew[0, 3] += 1e-6
        return {
            "shape": non_finite,
            "hermiticity": skew,
            "trace": 1.1 * good,
            "positivity": np.diag([1.2, 0.0, 0.0, -0.2]).astype(complex),
        }

    @pytest.mark.parametrize("invariant", INVARIANTS)
    def test_bad_member_raises_like_the_single_check(self, invariant):
        bad = self._bad_members()[invariant]
        with pytest.raises(DensityValidationError) as single:
            DensityMatrix(2, bad)
        assert single.value.invariant == invariant
        with pytest.raises(DensityValidationError) as stacked:
            qcore._check_density(self._stack(bad), 2, TOLERANCES, stacked=True)
        assert stacked.value.invariant == invariant
        assert str(stacked.value) == f"member 2: {single.value}"
        if invariant != "shape":
            assert stacked.value.magnitude == single.value.magnitude

    def test_first_failing_member_is_named(self):
        bad = self._bad_members()
        stack = self._stack(bad["trace"], index=1)
        stack[3] = bad["hermiticity"]
        with pytest.raises(DensityValidationError, match="^member 1: trace") as err:
            qcore._check_density(stack, 2, TOLERANCES, stacked=True)
        assert err.value.invariant == "trace"

    def test_valid_stack_passes(self):
        qcore._check_density(self._stack(np.eye(4) / 4), 2, TOLERANCES, stacked=True)
        qcore._check_density(np.zeros((0, 4, 4)), 2, TOLERANCES, stacked=True)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 2, 4, 4), (3, 2, 2)])
    def test_stack_shape(self, shape):
        with pytest.raises(DensityValidationError, match="stack of 4x4") as err:
            qcore._check_density(np.zeros(shape, dtype=complex), 2, TOLERANCES, stacked=True)
        assert err.value.invariant == "shape"

    def test_report_fields_are_the_members_reports(self):
        stack = self._stack(self._bad_members()["shape"])
        stack[0] = self._bad_members()["positivity"]
        rep = density_report(stack)
        for i, member in enumerate(stack):
            single = density_report(member)
            for name in ("shape_ok", "hermiticity_error", "trace_error", "min_eigenvalue",
                         "hermitian_ok", "trace_ok", "positive_ok", "ok"):
                assert getattr(rep, name)[i] == getattr(single, name), (i, name)
        assert rep.ok.tolist() == [False, True, False, True, True]


@st.composite
def candidate_matrices(draw):
    # A random density matrix, then at most one perturbation placed on
    # either side of its tolerance.
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    m = random_density_matrix(n, draw(st.integers(1, 2**n)), rng).matrix.copy()
    kind = draw(st.sampled_from(["none", "non-finite", "hermiticity", "trace", "negative", "shape"]))
    if kind == "non-finite":
        m[draw(st.integers(0, 2**n - 1)), draw(st.integers(0, 2**n - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf, complex(1.0, np.nan)]))
    elif kind == "hermiticity":
        m[0, -1] += draw(st.floats(0.0, 3e-12))
    elif kind == "trace":
        m = m * (1.0 + draw(st.floats(-3e-12, 3e-12)))
    elif kind == "negative":
        vals, vecs = np.linalg.eigh(m)
        vals[0] = draw(st.floats(-3e-10, 1e-10))
        vals[1:] *= (1.0 - vals[0]) / vals[1:].sum()
        m = (vecs * vals) @ vecs.conj().T
    elif kind == "shape":
        m = m[:, 1:] if draw(st.booleans()) else np.eye(3) / 3
    return m


@given(candidate_matrices())
@settings(max_examples=200, deadline=None)
def test_report_ok_exactly_when_accepted(m):
    rep = density_report(m)
    try:
        validate_density(m)
    except DensityValidationError as exc:
        raised = exc.invariant
    else:
        raised = None
    assert rep.ok == (raised is None)
    flags = (rep.shape_ok, rep.hermitian_ok, rep.trace_ok, rep.positive_ok)
    first_failed = next((name for name, ok in zip(INVARIANTS, flags) if not ok), None)
    assert raised == first_failed


class TestStates:
    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(1, [1.0, 1.0])

    def test_pure_state_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            PureState(2, [1.0, 0.0])

    def test_amplitudes_read_only(self):
        psi = ghz_state()
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_ghz_amplitudes(self):
        amps = ghz_state().amplitudes
        assert amps[0] == amps[7] == pytest.approx(1 / math.sqrt(2))
        assert np.abs(amps[1:7]).max() == 0.0

    def test_w_amplitudes(self):
        amps = w_state().amplitudes
        assert amps[1] == pytest.approx(1 / math.sqrt(2))
        assert amps[2] == amps[4] == pytest.approx(0.5)
        assert amps[0] == amps[7] == 0.0

    def test_density_of_pure(self):
        dm = w_state().density()
        assert abs(np.trace(dm.matrix) - 1) < 1e-12

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_random_states_valid(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_pure_state(3, rng)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
        rho = random_density_matrix(2, 2, rng)
        vals, _ = hermitian_eigensystem(rho.matrix)
        assert np.sum(vals > 1e-10) == 2


class TestStateFiles:
    def test_pure_round_trip(self, tmp_path):
        path = tmp_path / "ghz.json"
        save_state_file(path, ghz_state())
        loaded = load_state_file(path)
        assert isinstance(loaded, PureState)
        assert np.abs(loaded.amplitudes - ghz_state().amplitudes).max() == 0.0

    def test_mixed_round_trip(self, tmp_path):
        path = tmp_path / "mix.json"
        original = DensityMatrix(1, np.array([[0.75, 0.1j], [-0.1j, 0.25]]))
        save_state_file(path, original)
        loaded = load_state_file(path)
        assert isinstance(loaded, DensityMatrix)
        assert np.abs(loaded.matrix - original.matrix).max() == 0.0

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"num_qubits": 2}')
        with pytest.raises(ValueError):
            load_state_file(path)
        path.write_text('{"num_qubits": 2, "amplitudes": [[1, 0]]}')
        with pytest.raises(ValueError):
            load_state_file(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"num_qubits": 1, "amplitudes": [["1", 0], [0, 0]]},
            {"num_qubits": 1, "amplitudes": [[True, 0], [0, 0]]},
            {"num_qubits": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, None]]]},
        ],
        ids=["str", "bool", "null"],
    )
    def test_rejects_non_real_part(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="real numbers"):
            load_state_file(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"num_qubits": 1, "amplitudes": [1, 0]},
            {"num_qubits": 1, "amplitudes": [[1, 0, 0], [0, 0]]},
            {"num_qubits": 1, "matrix": [[[1, 0], [0]], [[0, 0], [0, 0]]]},
        ],
        ids=["scalar", "triple", "single"],
    )
    def test_rejects_entry_not_a_pair(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="pairs"):
            load_state_file(path)

    def test_rejects_row_not_a_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_qubits": 1, "matrix": [0.5, 0, 0, 0.5]}))
        with pytest.raises(ValueError, match="must be a list"):
            load_state_file(path)

    def test_rejects_both_amplitudes_and_matrix(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"num_qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], "matrix": 5}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="exactly one of amplitudes or matrix"):
            load_state_file(path)

    def test_rejects_bool_num_qubits(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_qubits": True, "amplitudes": [[1, 0], [0, 0]]}))
        with pytest.raises(ValueError, match="num_qubits"):
            load_state_file(path)
