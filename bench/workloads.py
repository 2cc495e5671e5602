"""Seeded inputs and output checks for the four benchmark workloads.

Every workload is a fixed *cycle* of operation slots.  Each slot names a
kind of request and a stratum of its input space; the seed draws the
concrete input inside the stratum.  A run executes whole cycles only, so
every run sees the same mix of request kinds and branches and the run
to run spread comes from the inputs, not from where the clock stopped.

Inputs are written by this module with numpy alone, in the state-file
format the CLI reads.  Expected values are computed here from the paper's
formulas where one exists; the library's own closed forms are passed in
as ``lib`` and used only where the check is "numerical oracle against
closed form".
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import types
import zlib

import numpy as np

RT2 = math.sqrt(2.0)
# Standard GHZ/W mixture: a|000> + b|111> against c|001> + d|010> + f|100>.
GHZ_AMPS = {0: 1 / RT2, 7: 1 / RT2}
W_AMPS = {1: 1 / RT2, 2: 0.5, 4: 0.5}
_S23 = float(np.cbrt(4.0))
P0 = _S23 / (1.0 + _S23)  # onset of the mixture tangle
P1 = 0.5 + 0.5 / math.sqrt(5.0)  # start of its linear segment

# Criterion-7 band for the decomposition-search bound against the closed form.
ROOF_BAND = (-1e-6, 5e-3)
VALUE_ATOL = 1e-9


class CheckFailed(Exception):
    """An operation's output does not match what the workload expects."""

    wrong = True  # the output states something false


class LooseBound(CheckFailed):
    """A search bound that holds but is looser than the workload requires."""

    wrong = False


# --- input generation ---------------------------------------------------------


def _pair_list(vec) -> list:
    return [[float(v.real), float(v.imag)] for v in vec]


def _write_state(path: str, num_qubits: int, *, amps=None, matrix=None, raw=None) -> None:
    if raw is not None:
        text = raw
    elif amps is not None:
        text = json.dumps({"num_qubits": num_qubits, "amplitudes": _pair_list(amps)})
    else:
        text = json.dumps({"num_qubits": num_qubits, "matrix": [_pair_list(r) for r in matrix]})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _haar(dim: int, rng) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _ginibre(dim: int, rank: int, rng) -> np.ndarray:
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    m = m / np.real(np.trace(m))
    return 0.5 * (m + m.conj().T)


def mixture_matrix(p: float) -> np.ndarray:
    ghz = np.zeros(8, dtype=complex)
    w = np.zeros(8, dtype=complex)
    for k, v in GHZ_AMPS.items():
        ghz[k] = v
    for k, v in W_AMPS.items():
        w[k] = v
    return p * np.outer(ghz, ghz.conj()) + (1.0 - p) * np.outer(w, w.conj())


def _window(rng, width_lo: float, width_hi: float) -> tuple[float, float]:
    width = float(rng.uniform(width_lo, width_hi))
    start = float(rng.uniform(0.0, 1.0 - width))
    return start, start + width


class _Gen:
    """Seeded draws, and state files named relative to the run directory."""

    def __init__(self, rng, workdir: str):
        self.rng = rng
        self.workdir = workdir
        self.count = 0

    def state(self, num_qubits: int, **content) -> str:
        self.count += 1
        name = f"state{self.count:05d}.json"
        _write_state(os.path.join(self.workdir, name), num_qubits, **content)
        return name


def _fig4_cycle(g: _Gen) -> list[dict]:
    ops = []
    for fmt in ("csv", "json", "csv", "json"):
        start, stop = _window(g.rng, 0.02, 0.2)
        argv = ["fig4", "--start", repr(start), "--stop", repr(stop), "--steps", "3", "--format", fmt]
        ops.append({"kind": "fig4", "argv": argv, "fmt": fmt, "start": start, "stop": stop, "steps": 3})
    return ops


def _mixture_op(g: _Gen, lo: float, hi: float, branch: str) -> dict:
    p = float(g.rng.uniform(lo, hi))
    path = g.state(3, matrix=mixture_matrix(p))
    return {"kind": "roof_mixture", "argv": ["measures", path], "fmt": "json", "p": p, "branch": branch}


def _random_rank2_op(g: _Gen) -> dict:
    path = g.state(3, matrix=_ginibre(8, 2, g.rng))
    return {"kind": "roof_random", "argv": ["measures", path], "fmt": "json"}


def _strata(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    width = (hi - lo) / n
    return [(lo + i * width, lo + (i + 1) * width) for i in range(n)]


def _noisy_op(g: _Gen, lo: float, hi: float, fmt: str) -> dict:
    kt = float(g.rng.uniform(lo, hi))
    return {"kind": "noisy", "argv": ["noisy", "--kappa-t", repr(kt), "--format", fmt], "fmt": fmt, "kappa_t": kt}


def _roof_cycle(g: _Gen) -> list[dict]:
    # The cost of one search jumps with the input (the number of sweeps to
    # convergence does), so a run's median and tail are steady only where
    # many slots share a cost.  The curved and linear branches of the
    # mixture (p0 to 0.9) are that group: 11 slots of equal width, rank 2
    # at the default budget of `measures` (2 restarts), most of them within
    # 15% of their median cost.  Below it: the zero branch (two slots,
    # where a loose bound shows up about once in twenty draws), one random
    # rank-2 state, and the rank-8 decohered W state of `noisy` at its
    # default budget (1 restart, 30 sweeps, 45 pairs), one kappa*t in each
    # half of (0, 3].  The mixture near p = 1 (unconverged, 1.5-3x the
    # group's cost) is left out: as the largest cost of a 16-slot cycle it
    # would set the p90 alone.  `noisy` still reaches its sweep cap for
    # some kappa*t.
    # One slot of each kind comes first, so that a traced replay cut short
    # by its deadline still covers every kind.
    zero = _strata(0.02, P0 - 0.005, 2)
    curved = _strata(P0 + 0.005, P1 - 0.005, 4)
    linear = _strata(P1 + 0.005, 0.9, 7)
    ops = [
        _noisy_op(g, 0.05, 1.5, "json"),
        _mixture_op(g, *zero[0], "zero"),
        _mixture_op(g, *curved[0], "curved"),
        _mixture_op(g, *linear[0], "linear"),
        _random_rank2_op(g),
        _noisy_op(g, 1.5, 3.0, "csv"),
        _mixture_op(g, *zero[1], "zero"),
    ]
    ops += [_mixture_op(g, lo, hi, "curved") for lo, hi in curved[1:]]
    ops += [_mixture_op(g, lo, hi, "linear") for lo, hi in linear[1:]]
    return ops


def _light_cycle(g: _Gen) -> list[dict]:
    rng = g.rng
    ops = []
    for scheme in ("ghz", "w"):
        for fmt in ("json", "json", "csv"):
            theta = float(rng.uniform(0.0, math.pi))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            p = float(rng.uniform(0.0, 1.0))
            argv = ["teleport", scheme, "--p", repr(p), "--theta", repr(theta), "--phi", repr(phi), "--format", fmt]
            ops.append({"kind": "teleport", "argv": argv, "fmt": fmt, "scheme": scheme, "p": p, "theta": theta})
    for _ in range(3):
        amps = _haar(4, rng)
        path = g.state(2, amps=amps)
        c = 2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2])
        ops.append({"kind": "pure2", "argv": ["measures", path], "fmt": "json", "concurrence": float(c)})
    for rank in (1, 2, 4):
        m = _ginibre(4, rank, rng)
        path = g.state(2, matrix=m)
        op = {"kind": "mixed2", "argv": ["measures", path], "fmt": "json"}
        if rank == 1:
            vals, vecs = np.linalg.eigh(m)
            a = vecs[:, -1]
            op["concurrence"] = float(2.0 * abs(a[0] * a[3] - a[1] * a[2]))
        ops.append(op)
    for fmt in ("json", "json", "csv"):
        amps = _haar(8, rng)
        path = g.state(3, amps=amps)
        ops.append({"kind": "pure3", "argv": ["measures", path, "--format", fmt], "fmt": fmt, "amps": _pair_list(amps)})
    for steps in (3, 5, 9):
        start, stop = _window(rng, 0.05, 0.5)
        argv = ["fig1", "--start", repr(start), "--stop", repr(stop), "--steps", str(steps)]
        ops.append({"kind": "fig1", "argv": argv, "fmt": "csv", "start": start, "stop": stop, "steps": steps})
    # Malformed requests: each must exit 2 with a one-line message.  The
    # first two raise TypeError out of the loader at the time of writing.
    u = float(rng.uniform(0.1, 0.9))
    bad = [
        json.dumps({"num_qubits": 2, "amplitudes": [[repr(u), 0], [0, 0], [0, 0], [0, 0]]}),
        json.dumps({"num_qubits": 1, "matrix": [u, 0.0, 0.0, 1.0 - u]}),
        json.dumps({"num_qubits": 1, "amplitudes": [[1.0 + u, 0.0], [0.0, 0.0]]}),
        '{"num_qubits": 1, "amplitudes": [[' + repr(u),
    ]
    for text in bad:
        path = g.state(0, raw=text)
        ops.append({"kind": "malformed", "argv": ["measures", path], "fmt": "text"})
    ops.append({"kind": "malformed", "argv": ["teleport", "ghz", "--p", repr(1.0 + u)], "fmt": "text"})
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    # name: (cycle builder, cycles kept in the input pool)
    "fig4-sweep": (_fig4_cycle, 8),
    "roof-search": (_roof_cycle, 2),
    "cli-light": (_light_cycle, 40),
}


def generate(workload: str, seed: int, workdir: str, cycles: int | None = None) -> dict:
    """Write the input files for ``workload`` and return its manifest."""
    builder, pool_cycles = WORKLOADS[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    g = _Gen(rng, workdir)
    ops = []
    cycle_len = None
    for _ in range(cycles or pool_cycles):
        cycle = builder(g)
        cycle_len = len(cycle)
        ops.extend(cycle)
    return {"workload": workload, "seed": seed, "cycle_len": cycle_len, "ops": ops}


# --- output checks -------------------------------------------------------------


def closed_forms():
    """The library's closed forms that the checks compare numerical outputs to.

    Call before tracing is installed, so that the checks add no spans.
    """
    from tritangle.entanglement import reduced_concurrences_qc, three_tangle_ghzw
    from tritangle.teleport import fidelity_ghz_closed, fidelity_w_closed

    return types.SimpleNamespace(
        three_tangle_ghzw=three_tangle_ghzw,
        reduced_concurrences_qc=reduced_concurrences_qc,
        fidelity_ghz_closed=fidelity_ghz_closed,
        fidelity_w_closed=fidelity_w_closed,
    )


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(got, want, atol: float, what: str) -> None:
    _need(abs(float(got) - float(want)) <= atol, f"{what}: got {got!r}, expected {want!r}")


def _unit(x, what: str) -> float:
    x = float(x)
    _need(-VALUE_ATOL <= x <= 1.0 + VALUE_ATOL, f"{what} = {x!r} outside [0, 1]")
    return x


def _csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    out = []
    for row in rows:
        conv = {}
        for k, v in row.items():
            if v in ("true", "false"):
                conv[k] = v == "true"
            else:
                try:
                    conv[k] = float(v)
                except ValueError:
                    conv[k] = v
        out.append(conv)
    return out


def _parse(op: dict, stdout: str):
    try:
        if op["fmt"] == "json":
            return json.loads(stdout)
        return _csv_rows(stdout)
    except ValueError as exc:
        raise CheckFailed(f"unparseable output: {exc}") from None


def _single(op: dict, stdout: str) -> dict:
    data = _parse(op, stdout)
    if isinstance(data, list):
        _need(len(data) == 1, f"expected one CSV row, got {len(data)}")
        return data[0]
    return data


def _rows(op: dict, stdout: str) -> list[dict]:
    data = _parse(op, stdout)
    return data["rows"] if isinstance(data, dict) else data


def _sweep_grid(op: dict, rows: list[dict]) -> np.ndarray:
    grid = np.linspace(op["start"], op["stop"], op["steps"])
    _need(len(rows) == op["steps"], f"expected {op['steps']} rows, got {len(rows)}")
    for row, p in zip(rows, grid):
        _close(row["p"], p, 1e-12, "p column")
    return grid


def _fig4_summary(op: dict, stdout: str) -> dict:
    if op["fmt"] == "json":
        return json.loads(stdout)["summary"]
    trailer = [ln for ln in stdout.splitlines() if ln.startswith("# summary: ")]
    _need(len(trailer) == 1, "missing '# summary:' trailer")
    return json.loads(trailer[0][len("# summary: "):])


def _check_fig4(op, stdout, lib):
    rows = _rows(op, stdout)
    for row, p in zip(rows, _sweep_grid(op, rows)):
        _close(row["fbar_ghz_closed"], (5.0 + 7.0 * p) / 12.0, 1e-11, "fbar_ghz_closed")
        _close(row["fbar_w_closed"], 1.0 - p / 2.0, 1e-11, "fbar_w_closed")
        _close(row["fbar_ghz_numeric"], row["fbar_ghz_closed"], VALUE_ATOL, "fbar_ghz_numeric")
        _close(row["fbar_w_numeric"], row["fbar_w_closed"], VALUE_ATOL, "fbar_w_numeric")
        _unit(row["c_abc"], "c_abc")
    s = _fig4_summary(op, stdout)
    _close(s["p_star"], 7.0 / 13.0, 1e-12, "p_star")
    _close(s["p0"], P0, 1e-12, "p0")
    _close(s["p1"], P1, 1e-12, "p1")
    _close(s["f_ghz"], (5.0 + 7.0 * P0) / 12.0, 1e-12, "f_ghz")
    _close(s["f_w"], 5.0 / 6.0, 1e-12, "f_w")


def _check_pairwise(c_ab: float, c_ac: float, c_bc: float) -> None:
    # Monogamy bounds each qubit's pairwise entanglement by one.
    for a, b, who in ((c_ab, c_ac, "A"), (c_ab, c_bc, "B"), (c_ac, c_bc, "C")):
        _need(a * a + b * b <= 1.0 + VALUE_ATOL, f"pairwise concurrences of qubit {who} break monogamy")


def _check_roof(op, stdout, lib):
    d = _single(op, stdout)
    _need(d.get("num_qubits") == 3 and d.get("pure") is False, "not reported as a 3-qubit mixed state")
    _need(isinstance(d.get("tangle_bound_converged"), bool), "tangle_bound_converged missing")
    cs = [_unit(d[k], k) for k in ("concurrence_ab", "concurrence_ac", "concurrence_bc")]
    bound = _unit(d["tangle_upper_bound"], "tangle_upper_bound")
    _check_pairwise(*cs)
    if op["kind"] == "roof_mixture":
        gap = bound - float(lib.three_tangle_ghzw(op["p"]))
        _need(ROOF_BAND[0] <= gap, f"roof upper bound below the closed form by {gap:+.3e}")
        if gap > ROOF_BAND[1]:
            raise LooseBound(f"roof bound above the closed form by more than {ROOF_BAND[1]:g}")
        for got, want, k in zip(cs, lib.reduced_concurrences_qc(op["p"]), ("ab", "ac", "bc")):
            _close(got, float(want), 1e-7, f"concurrence_{k}")


def _noise_alphas(kt: float) -> dict:
    e2, e4, e6 = (math.exp(-k * kt) for k in (2, 4, 6))
    return {
        "alpha1": 1 + e2 + e4 + e6,
        "alpha2": 1 + e2 - e4 - e6,
        "alpha3": 1 - e2 - e4 + e6,
        "alpha4": 1 - e2 + e4 - e6,
        "beta_plus": 1 + e6,
        "beta_minus": 1 - e6,
    }


def _check_noisy(op, stdout, lib):
    rows = _rows(op, stdout)
    _need(len(rows) == 1, f"expected one row, got {len(rows)}")
    d = rows[0]
    _close(d["kappa_t"], op["kappa_t"], 1e-12, "kappa_t")
    _need(d["valid"] is True, "decohered state reported invalid")
    _need(d["matches_pure_w"] is False, "decohered state reported equal to the pure W state")
    cs = [_unit(d[k], k) for k in ("c_ab", "c_ac", "c_bc")]
    _check_pairwise(*cs)
    _unit(d["tangle_upper_bound"], "tangle_upper_bound")
    if op["fmt"] == "json":
        for k, v in _noise_alphas(op["kappa_t"]).items():
            _close(d[k], v, 1e-12, k)


def _check_teleport(op, stdout, lib):
    d = _single(op, stdout)
    p, theta = op["p"], op["theta"]
    if op["scheme"] == "ghz":
        closed = ((3.0 + 5.0 * p) - (1.0 - p) * math.cos(2.0 * theta)) / 8.0
        avg = (5.0 + 7.0 * p) / 12.0
        lib_closed = lib.fidelity_ghz_closed(theta, p)
    else:
        closed = avg = 1.0 - p / 2.0
        lib_closed = lib.fidelity_w_closed(p)
    _need(d["scheme"] == op["scheme"], "wrong scheme echoed")
    _close(d["fidelity"], lib_closed, VALUE_ATOL, "fidelity")
    _close(d["fidelity_closed"], closed, 1e-11, "fidelity_closed")
    _close(d["avg_fidelity_closed"], avg, 1e-11, "avg_fidelity_closed")
    if op["fmt"] == "json":
        rho = np.array([[complex(re, im) for re, im in row] for row in d["rho_out"]])
    else:
        rho = np.array([[complex(d[f"rho_out_{i}{j}_re"], d[f"rho_out_{i}{j}_im"]) for j in range(2)] for i in range(2)])
    _need(rho.shape == (2, 2), "rho_out is not 2x2")
    _close(np.trace(rho).real, 1.0, VALUE_ATOL, "trace of rho_out")
    _need(float(np.abs(rho - rho.conj().T).max()) <= VALUE_ATOL, "rho_out not Hermitian")


def _eof(c: float) -> float:
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _check_two_qubit(op, stdout, lib):
    d = _single(op, stdout)
    _need(d.get("num_qubits") == 2 and d.get("pure") is (op["kind"] == "pure2"), "wrong state kind")
    c = _unit(d["concurrence"], "concurrence")
    if "concurrence" in op:
        _close(c, op["concurrence"], VALUE_ATOL, "concurrence")
    _close(d["eof"], _eof(c), VALUE_ATOL, "eof")
    if op["kind"] == "pure2":
        _close(d["groverian"], math.sqrt((1.0 - math.sqrt(max(0.0, 1.0 - c * c))) / 2.0), VALUE_ATOL, "groverian")


def _hyperdet_tangle(a) -> float:
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    d1 = a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
    d2 = (
        a000 * a111 * (a011 * a100 + a101 * a010 + a110 * a001)
        + a011 * a100 * (a101 * a010 + a110 * a001)
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def _check_pure3(op, stdout, lib):
    d = _single(op, stdout)
    a = np.array([complex(re, im) for re, im in op["amps"]])
    t = a.reshape(2, 2, 2)
    _close(d["tau3"], _hyperdet_tangle(a), VALUE_ATOL, "tau3")
    for key, axis in (("cut_bc_a", 0), ("cut_ac_b", 1), ("cut_ab_c", 2)):
        m = np.moveaxis(t, axis, 0).reshape(2, 4)
        r = m @ m.conj().T
        det = float(np.real(r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]))
        _close(d[key], 2.0 * math.sqrt(max(0.0, det)), VALUE_ATOL, key)
    _close(d["monogamy_residual"], d["tau3"], 1e-8, "monogamy_residual")


def _check_fig1(op, stdout, lib):
    rows = _rows(op, stdout)
    for row, p in zip(rows, _sweep_grid(op, rows)):
        c_ab = max(0.0, 0.5 * (1.0 - p - 2.0 * math.sqrt(p)))
        c_pair = max(0.0, (1.0 - p - math.sqrt(p * (1.0 + p))) / RT2)
        _close(row["c_ab"], c_ab, VALUE_ATOL, "c_ab")
        _close(row["c_ac"], c_pair, VALUE_ATOL, "c_ac")
        _close(row["c_bc"], c_pair, VALUE_ATOL, "c_bc")
        tau = _unit(row["tau3"], "tau3")
        _close(row["c_abc"] ** 2, 2.0 * c_pair * c_pair + tau, VALUE_ATOL, "c_abc^2")


_CHECKS = {
    "fig4": _check_fig4,
    "roof_mixture": _check_roof,
    "roof_random": _check_roof,
    "noisy": _check_noisy,
    "teleport": _check_teleport,
    "pure2": _check_two_qubit,
    "mixed2": _check_two_qubit,
    "pure3": _check_pure3,
    "fig1": _check_fig1,
}


def check(op: dict, code, stdout: str, stderr: str, crash: str | None, lib) -> tuple[str, bool] | None:
    """None if the operation behaved as expected, else (reason, wrong).

    ``wrong`` is False for the failures that state nothing false: a crash
    on a malformed request, and a search bound that holds but is loose.
    """
    if crash is not None:
        return f"raised out of cli.main: {crash}", op["kind"] != "malformed"
    if op["kind"] == "malformed":
        if code != 2:
            return f"malformed request exited {code}, expected 2", True
        lines = stderr.strip("\n").split("\n")
        if stdout or len(lines) != 1 or not lines[0]:
            return "malformed request did not give exactly a one-line message", True
        return None
    if code != 0:
        return f"exited {code}: {stderr.strip()[:200]}", True
    try:
        _CHECKS[op["kind"]](op, stdout, lib)
    except CheckFailed as exc:
        return str(exc), exc.wrong
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}", True
    return None
