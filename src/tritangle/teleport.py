"""Single-qubit teleportation through a three-qubit GHZ/W mixture channel.

The sender holds the input qubit and channel qubits 1-2, the receiver
channel qubit 3.  Each protocol is folded into one 16x16 circuit unitary
acting on (input, channel) with the input qubit as the most significant
wire and the receiver as qubit 4; measurement corrections are already
absorbed, so the output state is simply the receiver's reduction of
U (rho_in x rho_channel) U^dag.

That reduction is linear in rho_in, so at a fixed channel weight p the
whole protocol is one single-qubit channel Lambda_p.  :func:`receiver_channel`
builds it as its Choi state J = 1/2 sum_ij |i><j| x Lambda_p(|i><j|),
from the same circuit unitary, and :func:`avg_fidelity` reads the exact
average over all inputs, (2 F_e + 1)/3 with F_e = <Phi+| J |Phi+>, off
the Choi states that receiver_channel returns.  Both take a tuple of S
schemes and weights p of any shape and return an (S, *p.shape) array,
plus J's 4 x 4 for receiver_channel.  Lambda_p is linear in the channel
state too, so each scheme's J is one linear map T of it, J = T vec(rho_channel),
with T[(i r j q), (a b)] = 1/2 sum_s U[(s r), (i a)] conj(U[(s q), (j b)])
summed over the 8 states s of the input and the sender's channel qubits,
i, j the input's and r, q the receiver's states, and a, b the channel's.
T (16 x 64) comes from one product of the reshaped unitary with its
conjugate.  The weights are swept in chunks: per chunk one stack of
channel states, shared by every scheme; one batched matmul that gives
every J as its own (16, 64) x (64, 1) product; and one stacked check of
all the Choi states, which are all kept, 256 bytes per scheme and weight.
Every weight is still checked on its own terms, and its value is bitwise
the one it gets alone.  :func:`teleport_output` keeps the explicit
circuit U (rho_in x rho_channel) U^dag for single inputs and serves as
the oracle for the channel form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .entanglement import P0, P1, _check_finite, _check_unit_interval, channel_mixture_stack, channel_mixture_state
from .qcore import DensityMatrix, PureState, _check_density, _trace_out, kron
from .tolerances import TOLERANCES

_RT2 = math.sqrt(2.0)


class SchemeKind(Enum):
    GHZ = "ghz"
    W = "w"


# Nonzero entries as (row, col, coefficient) in units of the prefactor,
# rows and columns 1-based.
_GHZ_PREFACTOR = 1.0 / _RT2
_GHZ_ENTRIES = [
    (1, 1, 1), (1, 15, 1),
    (2, 2, 1), (2, 16, 1),
    (3, 4, 1), (3, 14, 1),
    (4, 3, 1), (4, 13, 1),
    (5, 5, 1), (5, 11, 1),
    (6, 6, 1), (6, 12, 1),
    (7, 8, 1), (7, 10, 1),
    (8, 7, 1), (8, 9, 1),
    (9, 1, 1), (9, 15, -1),
    (10, 2, -1), (10, 16, 1),
    (11, 4, 1), (11, 14, -1),
    (12, 3, -1), (12, 13, 1),
    (13, 5, 1), (13, 11, -1),
    (14, 6, -1), (14, 12, 1),
    (15, 8, 1), (15, 10, -1),
    (16, 7, -1), (16, 9, 1),
]

_W_PREFACTOR = 0.5
_W_ENTRIES = [
    (1, 3, 1), (1, 5, 1), (1, 9, _RT2),
    (2, 4, 1), (2, 6, 1), (2, 10, _RT2),
    (3, 8, 2),
    (4, 7, 2),
    (5, 15, 2),
    (6, 16, 2),
    (7, 2, _RT2), (7, 12, 1), (7, 14, 1),
    (8, 1, _RT2), (8, 11, 1), (8, 13, 1),
    (9, 3, 1), (9, 5, 1), (9, 9, -_RT2),
    (10, 4, -1), (10, 6, -1), (10, 10, _RT2),
    (11, 4, _RT2), (11, 6, -_RT2),
    (12, 3, -_RT2), (12, 5, _RT2),
    (13, 11, _RT2), (13, 13, -_RT2),
    (14, 12, -_RT2), (14, 14, _RT2),
    (15, 2, _RT2), (15, 12, -1), (15, 14, -1),
    (16, 1, -_RT2), (16, 11, 1), (16, 13, 1),
]


def unitarity_deviation(u: np.ndarray) -> float:
    """Largest entry of |U U^dag - I| for a 16 x 16 circuit unitary."""
    return float(np.abs(u @ u.conj().T - np.eye(16)).max())


@dataclass(frozen=True)
class TeleportScheme:
    kind: SchemeKind
    unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        dev = unitarity_deviation(u)
        if not (dev <= TOLERANCES.unitarity_atol):  # NaN fails too
            raise ValueError(f"circuit matrix is not unitary: deviation {dev:.3e}")
        object.__setattr__(self, "unitary", u)


@cache
def _scheme(kind: SchemeKind) -> TeleportScheme:
    # The circuit matrix of a scheme from its entries, built and checked
    # on first use.
    entries, prefactor = (_GHZ_ENTRIES, _GHZ_PREFACTOR) if kind is SchemeKind.GHZ else (_W_ENTRIES, _W_PREFACTOR)
    u = np.zeros((16, 16), dtype=complex)
    for row, col, coeff in entries:
        u[row - 1, col - 1] = prefactor * coeff
    u.flags.writeable = False
    return TeleportScheme(kind, u)


@dataclass(frozen=True)
class TeleportReport:
    p: float
    theta: float
    phi: float
    rho_out: DensityMatrix
    fidelity: float

    def __post_init__(self):
        _check_fidelities(self.fidelity)


def _check_fidelities(fids) -> None:
    f = np.asarray(fids, dtype=float)
    slack = TOLERANCES.measure_clamp  # rounding may overshoot [0, 1], as it may for a measure
    bad = f[~((f >= -slack) & (f <= 1.0 + slack))]  # NaN is bad too
    if bad.size:
        raise ValueError(f"fidelity {float(bad[0])!r} outside [0, 1]")


def _coerce_kind(kind) -> SchemeKind:
    if isinstance(kind, SchemeKind):
        return kind
    return SchemeKind(str(kind).lower())


def input_state(theta: float, phi: float) -> PureState:
    """cos(theta/2) e^{i phi/2} |0> + sin(theta/2) e^{-i phi/2} |1>."""
    half = 0.5 * _check_finite(theta, "theta")
    phi = _check_finite(phi, "phi")
    amps = np.array(
        [
            math.cos(half) * np.exp(0.5j * phi),
            math.sin(half) * np.exp(-0.5j * phi),
        ]
    )
    return PureState(1, amps)


def scheme_unitary(kind) -> TeleportScheme:
    """The verbatim 16x16 circuit operator for either channel type.

    Each scheme is built once per process, on the first call for it; later
    calls return that same scheme.
    """
    return _scheme(_coerce_kind(kind))


def teleport_output(scheme: TeleportScheme, theta: float, phi: float, p: float) -> TeleportReport:
    """Receiver's state and fidelity after the protocol at mixing weight p."""
    p = _check_unit_interval(p)
    psi = input_state(theta, phi)
    joint = kron(psi.density().matrix, channel_mixture_state(p).matrix)
    evolved = scheme.unitary @ joint @ scheme.unitary.conj().T
    # The circuit product is reduced unchecked (checking it as a density
    # matrix would add a fifth to this call); the one-qubit result is checked.
    rho_out = DensityMatrix(1, _trace_out(evolved, 4, (1, 2, 3)))
    amps = psi.amplitudes
    fid = float(np.real(np.vdot(amps, rho_out.matrix @ amps)))
    return TeleportReport(p, float(theta), float(phi), rho_out, fid)


def fidelity_ghz_closed(theta: float, p: float) -> float:
    """((3 + 5p) - (1 - p) cos 2 theta)/8."""
    p = _check_unit_interval(p)
    theta = _check_finite(theta, "theta")
    # cos 2 theta as cos^2 - sin^2: 2 theta overflows for |theta| > 8.99e307.
    c, s = math.cos(theta), math.sin(theta)
    return ((3.0 + 5.0 * p) - (1.0 - p) * (c * c - s * s)) / 8.0


def fidelity_w_closed(p: float) -> float:
    """1 - p/2, independent of the input angles."""
    return 1.0 - _check_unit_interval(p) / 2.0


# Weights per batch of a sweep, so that the temporaries of the matmul and
# of the stacked check stay bounded; the Choi states themselves are kept.
_SWEEP_CHUNK = 64


def _choi_states(schemes: tuple[TeleportScheme, ...], channel: np.ndarray, first: int) -> np.ndarray:
    """Choi states (S * P, 4, 4) of S schemes for a stack of channel states (P, 8, 8).

    Scheme by scheme, weight running fastest.  Each scheme's Choi state is
    a linear map of the channel state, J[(i r), (j q)] = sum_ab T[(i r j q),
    (a b)] rho_channel[a, b], with T[(i r j q), (a b)] = 1/2 sum_s
    U[(s r), (i a)] conj(U[(s q), (j b)]): s runs over the input and the
    sender's channel qubits, r and q over the receiver.  One batched matmul
    gives every J as its own (16, 64) x (64, 1) product, the same product
    whatever the sweep.  Every J is checked as a density matrix, which
    checks that its Lambda_p is completely positive, and a failing one is
    named by its scheme and its weight's index in the sweep (first is the
    index of channel[0]); every input marginal must be I/2, which checks
    that Lambda_p preserves the trace.
    """
    n = channel.shape[0]
    u = np.stack([scheme.unitary for scheme in schemes]).reshape(-1, 8, 32)  # [s, (r i a)]
    t = u.swapaxes(-1, -2) @ (0.5 * u.conj())  # [(r i a), (q j b)]
    t = t.reshape(-1, 2, 2, 8, 2, 2, 8).transpose(0, 2, 1, 5, 4, 3, 6).reshape(-1, 1, 16, 64)  # [(i r j q), (a b)]
    choi = (t @ channel.reshape(1, n, 64, 1)).reshape(-1, 4, 4)
    _check_density(
        choi, 2, TOLERANCES, stacked=True, label=lambda i: f"{schemes[i // n].kind.value} scheme, weight {first + i % n}"
    )
    dev = float(np.abs(_trace_out(choi, 2, (2,)) - 0.5 * np.eye(2)).max(initial=0.0))
    if dev > TOLERANCES.trace_atol:
        raise ValueError(f"receiver map does not preserve the trace: deviation {dev:.3e}")
    return choi


def receiver_channel(schemes: tuple[TeleportScheme, ...], p) -> np.ndarray:
    """Choi states J = 1/2 sum_ij |i><j| x Lambda_p(|i><j|) of the protocols.

    Lambda_p maps the input qubit to the receiver's output at channel
    weight p.  The stack (S, *p.shape, 4, 4) of the S schemes' Choi states
    at every weight, _SWEEP_CHUNK weights at a time (an empty p is one
    empty chunk), each checked as :func:`_choi_states` checks it.
    """
    flat = np.ravel(p)
    chunks = [
        _choi_states(schemes, channel_mixture_stack(flat[lo : lo + _SWEEP_CHUNK]), lo).reshape(len(schemes), -1, 4, 4)
        for lo in range(0, max(flat.size, 1), _SWEEP_CHUNK)
    ]
    return np.concatenate(chunks, axis=1).reshape((len(schemes),) + np.shape(p) + (4, 4))


def avg_fidelity(schemes: tuple[TeleportScheme, ...], p) -> np.ndarray:
    """Exact average fidelity over all inputs, (2 F_e + 1)/3, F_e = <Phi+| J |Phi+>.

    F_e is the entanglement fidelity of the receiver's channel, read off
    its Choi state J of :func:`receiver_channel` (Horodecki et al., PRA 60,
    1888 (1999); Nielsen, PLA 303, 249 (2002)); every average must lie in
    [0, 1].  Returns the array (S, *p.shape) of the S schemes' averages;
    every entry is bitwise the value for that scheme and weight alone.
    """
    choi = receiver_channel(schemes, p)
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0]) / _RT2
    f_e = np.real((phi_plus @ choi.reshape(-1, 4, 4))[:, None, :] @ phi_plus)[:, 0]
    fbar = (2.0 * f_e + 1.0) / 3.0
    _check_fidelities(fbar)
    return fbar.reshape(choi.shape[:-2])


def avg_fidelity_closed(kind, p: float) -> float:
    """GHZ channel: (5 + 7p)/12.  W channel: 1 - p/2."""
    p = _check_unit_interval(p)
    if _coerce_kind(kind) is SchemeKind.GHZ:
        return (5.0 + 7.0 * p) / 12.0
    return fidelity_w_closed(p)


@dataclass(frozen=True)
class CriticalValues:
    """The thresholds of :func:`critical_values`; its fields, in order, are fig4's summary."""

    f_ghz: float
    f_w: float
    p_star: float
    p0: float
    p1: float


def critical_values() -> CriticalValues:
    """Average-fidelity thresholds of the two schemes and where they sit.

    f_ghz is the GHZ-channel average fidelity at the weight p0 where the
    mixture's tangle appears; f_w the W-channel value at weight 1/3 where
    the pairwise concurrences die; p_star the crossing of the two average
    fidelities.  The crossing is re-derived as a guard against
    transcription slips in the closed forms: their gap is linear in p, so
    its root follows from the gap at p = 0 and p = 1.
    """
    f_ghz = avg_fidelity_closed(SchemeKind.GHZ, P0)
    f_w = avg_fidelity_closed(SchemeKind.W, 1.0 / 3.0)
    p_star = 7.0 / 13.0

    def gap(p):
        return avg_fidelity_closed(SchemeKind.W, p) - avg_fidelity_closed(SchemeKind.GHZ, p)

    root = gap(0.0) / (gap(0.0) - gap(1.0))
    if abs(root - p_star) > TOLERANCES.weight_sum_atol:
        raise RuntimeError(f"fidelity crossing {root!r} disagrees with 7/13")
    return CriticalValues(f_ghz, f_w, p_star, P0, P1)
