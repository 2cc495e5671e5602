"""Dense linear algebra for systems of one to four qubits.

Convention used throughout: qubit 1 is the most significant bit of the
computational basis index, so for three qubits the basis vector |q1 q2 q3>
sits at index 4*q1 + 2*q2 + q3.  All matrices are plain numpy arrays in
row-major order; :data:`ComplexMatrix` is an alias for ``numpy.ndarray``
with complex128 entries.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, fields
from typing import Iterable, Union

import numpy as np

from .tolerances import TOLERANCES, Tolerances

ComplexMatrix = np.ndarray

_MAX_QUBITS = 4
_DIMS = tuple(2**n for n in range(1, _MAX_QUBITS + 1))
_EIG_MAX_DIM = 16


class DensityValidationError(ValueError):
    """Raised when a matrix fails one of the density-matrix invariants.

    Attributes
    ----------
    invariant : str
        Name of the violated invariant ("shape", "hermiticity", "trace"
        or "positivity").
    magnitude : float
        Size of the violation.
    """

    def __init__(self, invariant: str, magnitude: float, message: str):
        super().__init__(message)
        self.invariant = invariant
        self.magnitude = magnitude


def _num_qubits_for_dim(dim: int) -> int:
    n = int(round(np.log2(dim))) if dim > 0 else 0
    if dim <= 0 or 2**n != dim or not (1 <= n <= _MAX_QUBITS):
        raise ValueError(f"dimension {dim} is not 2**n for n in 1..{_MAX_QUBITS}")
    return n


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not (1 <= self.num_qubits <= _MAX_QUBITS):
            raise ValueError(f"num_qubits must be in 1..{_MAX_QUBITS}, got {self.num_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != 2**self.num_qubits:
            raise ValueError(f"expected {2**self.num_qubits} amplitudes, got {amps.size}")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm_err = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
        tol = TOLERANCES.norm_atol
        if norm_err > tol:
            raise ValueError(f"state not normalized: |sum - 1| = {norm_err:.3e} > {tol:g}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes) -> "PureState":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(_num_qubits_for_dim(amps.size), amps)

    def density(self) -> "DensityMatrix":
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.num_qubits, m)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator: Hermitian, unit trace, positive semidefinite.

    ``tols`` (init only) sets the tolerances of the check.
    """

    num_qubits: int
    matrix: np.ndarray
    tols: InitVar[Tolerances] = TOLERANCES

    def __post_init__(self, tols):
        m = np.asarray(self.matrix, dtype=complex).copy()
        _check_density(m, self.num_qubits, tols)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits


@dataclass(frozen=True)
class DensityReport:
    """Measured invariant violations for a candidate density matrix.

    For a stack of matrices each field is an array over the members.
    """

    shape_ok: bool
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float
    hermitian_ok: bool
    trace_ok: bool
    positive_ok: bool

    @property
    def ok(self) -> bool:
        return self.shape_ok & self.hermitian_ok & self.trace_ok & self.positive_ok


def density_report(matrix, tols: Tolerances = TOLERANCES) -> DensityReport:
    """Check the density-matrix invariants without raising.

    ``matrix`` is one matrix or a stack (..., d, d) of them.  A matrix that
    is not square with a side of 2**n (n in 1..4) fails ``shape_ok`` and
    every other check, and so does each matrix with a non-finite entry.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in _DIMS:
        return _NOT_A_DENSITY
    stacked = m.ndim > 2
    finite = np.isfinite(m).all(axis=(-2, -1))
    all_finite = finite.all() if stacked else finite
    if not all_finite:
        if not stacked:
            return _NOT_A_DENSITY
        m = np.where(finite[..., None, None], m, 0.0)  # keeps eigvalsh away from NaN
    mh = m.swapaxes(-1, -2).conj()
    herm = np.abs(m - mh).max(axis=(-2, -1))
    trace = abs(m.trace(axis1=-2, axis2=-1) - 1.0)
    min_eig = np.linalg.eigvalsh(0.5 * (m + mh))[..., 0]
    if not stacked:
        finite, herm, trace, min_eig = True, float(herm), float(trace), float(min_eig)
    elif not all_finite:
        herm, trace = np.where(finite, herm, np.inf), np.where(finite, trace, np.inf)
        min_eig = np.where(finite, min_eig, -np.inf)
    return DensityReport(
        shape_ok=finite,
        hermiticity_error=herm,
        trace_error=trace,
        min_eigenvalue=min_eig,
        hermitian_ok=herm <= tols.hermitian_atol,
        trace_ok=trace <= tols.trace_atol,
        positive_ok=min_eig >= tols.psd_floor,
    )


_NOT_A_DENSITY = DensityReport(False, np.inf, np.inf, -np.inf, False, False, False)


def _check_density(m: np.ndarray, num_qubits: int, tols: Tolerances, stacked: bool = False) -> None:
    # Raises on the first invariant that density_report finds violated; for
    # a stack (P, d, d), on the first failing member, whose index the
    # message names.  With the qubit count and the side checked here, a
    # failed shape in the report means a non-finite entry.
    if not (1 <= num_qubits <= _MAX_QUBITS):
        raise DensityValidationError("shape", np.inf, f"num_qubits must be in 1..{_MAX_QUBITS}, got {num_qubits}")
    d = 2**num_qubits
    if m.ndim != 2 + stacked or m.shape[-2:] != (d, d):
        what = f"a stack of {d}x{d} matrices" if stacked else f"{d}x{d} matrix"
        raise DensityValidationError("shape", np.inf, f"expected {what}, got {m.shape}")
    rep = density_report(m, tols)
    where = ""
    if stacked:
        ok = rep.ok
        if ok.all():
            return
        i = int(np.argmin(ok))
        rep = DensityReport(*(getattr(rep, f.name)[i] for f in fields(DensityReport)))
        where = f"member {i}: "
    if not rep.shape_ok:
        raise DensityValidationError("shape", np.inf, f"{where}matrix entries must be finite")
    if not rep.hermitian_ok:
        herm = rep.hermiticity_error
        raise DensityValidationError("hermiticity", herm, f"{where}not Hermitian: max |m - m^dag| = {herm:.3e}")
    if not rep.trace_ok:
        tr_err = rep.trace_error
        raise DensityValidationError("trace", tr_err, f"{where}trace differs from 1 by {tr_err:.3e}")
    if not rep.positive_ok:
        min_eig = rep.min_eigenvalue
        raise DensityValidationError(
            "positivity", min_eig, f"{where}smallest eigenvalue {min_eig:.3e} below {tols.psd_floor:g}"
        )


def validate_density(matrix, tols: Tolerances = TOLERANCES) -> DensityMatrix:
    """Build a :class:`DensityMatrix` from a raw array.

    Passing ``tols`` validates against those tolerances instead of
    :data:`~tritangle.tolerances.TOLERANCES` (the only way to accept, say, a slightly negative
    eigenvalue from an upstream numerical step).

    Raises
    ------
    DensityValidationError
        Naming the violated invariant and the size of the violation.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DensityValidationError(
            "shape", np.inf, f"expected a square matrix, got shape {m.shape}"
        )
    try:
        n = _num_qubits_for_dim(m.shape[0])
    except ValueError as exc:
        raise DensityValidationError("shape", np.inf, str(exc)) from None
    return DensityMatrix(n, m, tols)


def kron(a, b) -> ComplexMatrix:
    """Kronecker product, earlier factors more significant."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: Union[DensityMatrix, np.ndarray], traced_qubits: Iterable[int]) -> DensityMatrix:
    """Trace out a subset of qubits.

    Parameters
    ----------
    rho : DensityMatrix or array
        State of n qubits.
    traced_qubits : iterable of int
        1-based labels of the qubits to remove (qubit 1 is the most
        significant bit).  Surviving qubits keep their relative order.

    Returns
    -------
    DensityMatrix
        Reduced state on the remaining qubits.
    """
    if isinstance(rho, DensityMatrix):
        n, m = rho.num_qubits, rho.matrix
    else:
        m = np.asarray(rho, dtype=complex)
        n = _num_qubits_for_dim(m.shape[0])
    traced = sorted(set(int(q) for q in traced_qubits))
    if not traced:
        raise ValueError("traced_qubits must not be empty")
    if any(q < 1 or q > n for q in traced):
        raise ValueError(f"traced_qubits must be within 1..{n}, got {traced}")
    if len(traced) == n:
        raise ValueError("cannot trace out every qubit")

    keep = [q for q in range(1, n + 1) if q not in traced]
    t = m.reshape([2] * (2 * n))
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("a") + n + i) for i in range(n)]
    for q in traced:
        col[q - 1] = row[q - 1]
    out_sub = "".join(row[q - 1] for q in keep) + "".join(col[q - 1] for q in keep)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out_sub, t)
    k = len(keep)
    return DensityMatrix(k, reduced.reshape(2**k, 2**k))


def _require_hermitian(h, tols: Tolerances) -> np.ndarray:
    m = np.asarray(h, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > _EIG_MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds supported maximum {_EIG_MAX_DIM}")
    herm = float(np.abs(m - m.conj().T).max())
    if herm > tols.eigh_hermitian_atol:
        raise ValueError(f"matrix is not Hermitian: max |h - h^dag| = {herm:.3e}")
    return 0.5 * (m + m.conj().T)


def hermitian_eigensystem(h, tols: Tolerances = TOLERANCES):
    """Eigenvalues (descending) and matching eigenvector columns."""
    m = _require_hermitian(h, tols)
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def ghz_state() -> PureState:
    """(|000> + |111>)/sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / np.sqrt(2.0)
    return PureState(3, amps)


def w_state() -> PureState:
    """(|100> + |010> + sqrt(2)|001>)/2."""
    amps = np.zeros(8, dtype=complex)
    amps[4] = 0.5
    amps[2] = 0.5
    amps[1] = 1.0 / np.sqrt(2.0)
    return PureState(3, amps)


def random_pure_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Haar-random state vector."""
    dim = 2**num_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(num_qubits, v / np.linalg.norm(v))


def random_density_matrix(num_qubits: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Random mixed state of the given rank (Ginibre construction)."""
    dim = 2**num_qubits
    if not (1 <= rank <= dim):
        raise ValueError(f"rank must be in 1..{dim}, got {rank}")
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(num_qubits, m / np.real(np.trace(m)))


# --- state files ------------------------------------------------------------
#
# Pure states:    {"num_qubits": n, "amplitudes": [[re, im], ...]}
# Mixed states:   {"num_qubits": n, "matrix": [[[re, im], ...], ...]}  (row-major)


def save_state_file(path, state: Union[PureState, DensityMatrix]) -> None:
    if isinstance(state, PureState):
        payload = {
            "num_qubits": state.num_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
        }
    elif isinstance(state, DensityMatrix):
        payload = {
            "num_qubits": state.num_qubits,
            "matrix": [
                [[float(v.real), float(v.imag)] for v in row] for row in state.matrix
            ],
        }
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _real(x) -> float:
    # bool is an int subclass, but true/false are not numbers in a state file.
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"state file entries must be real numbers, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError("state file entry is too large for a float") from None


def _complex_entries(entries, what: str) -> list[complex]:
    if not isinstance(entries, list):
        raise ValueError(f"{what} must be a list, got {type(entries).__name__}")
    out = []
    for e in entries:
        if not isinstance(e, list) or len(e) != 2:
            raise ValueError(f"{what} entries must be [real, imag] pairs")
        out.append(complex(_real(e[0]), _real(e[1])))
    return out


def load_state_file(path) -> Union[PureState, DensityMatrix]:
    """Read a pure or mixed state from its JSON file form.

    Raises ValueError on any departure from the schema: a file with both
    or neither of amplitudes and matrix, a num_qubits that is not an
    integer in 1..4, an entry that is not a [real, imag] pair of numbers,
    or a matrix row that is not a list; also on JSON nested too deeply to
    parse.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise ValueError("state file is nested too deeply") from None
    if not isinstance(payload, dict) or "num_qubits" not in payload:
        raise ValueError("state file must be an object with a num_qubits field")
    n = payload["num_qubits"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("num_qubits must be an integer")
    if not (1 <= n <= _MAX_QUBITS):
        raise ValueError(f"num_qubits must be in 1..{_MAX_QUBITS}, got {n}")
    if "amplitudes" in payload and "matrix" in payload:
        raise ValueError("state file needs exactly one of amplitudes or matrix")
    if "amplitudes" in payload:
        amps = np.array(_complex_entries(payload["amplitudes"], "amplitudes"))
        return PureState(n, amps)
    if "matrix" in payload:
        rows = payload["matrix"]
        if not isinstance(rows, list):
            raise ValueError(f"matrix must be a list of rows, got {type(rows).__name__}")
        entries = [_complex_entries(row, "matrix rows") for row in rows]
        dim = 2**n
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise ValueError(f"matrix must be {dim}x{dim} for num_qubits={n}")
        return DensityMatrix(n, np.array(entries))
    raise ValueError("state file needs either an amplitudes or a matrix field")
