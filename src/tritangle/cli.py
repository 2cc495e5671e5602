"""Command-line front end: figure data, measures, teleportation, validation."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .convexroof import RoofConfig, minimize_roof, optimal_ghzw_ensemble
from .entanglement import (
    Cut,
    GhzwMixtureParams,
    c_abc_mixture,
    concurrence_pure2,
    concurrence_wootters,
    cut_concurrence_pure,
    eof_from_concurrence,
    groverian_from_concurrence,
    monogamy_residual,
    reduced_concurrences_qc,
    three_tangle_ghzw,
    three_tangle_pure,
)
from .noisychan import channel_report
from .qcore import (
    DensityMatrix,
    PureState,
    load_state_file,
    partial_trace,
    random_pure_state,
)
from .teleport import (
    SchemeKind,
    avg_fidelity,
    avg_fidelity_closed,
    avg_fidelity_entanglement,
    channel_state,
    critical_values,
    fidelity_ghz_closed,
    fidelity_w_closed,
    scheme_unitary,
    teleport_output,
)

DEFAULT_SEED = 42
SEED_ENV = "TRITANGLE_SEED"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12f}"
    return str(x)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file: {exc}") from None
    else:
        sys.stdout.write(text)


def _csv(header: list[str], rows: list[list], trailer: str | None = None) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    if trailer is not None:
        lines.append(trailer)
    return "\n".join(lines)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _roof_config(args, seed: int) -> RoofConfig:
    return RoofConfig(
        restarts=args.roof_restarts,
        ensemble_size=args.roof_ensemble_size,
        max_iters=args.roof_max_iters,
        seed=seed,
    )


def _grid(args, lo: float, hi: float) -> np.ndarray | None:
    if args.steps < 2:
        return None
    if not (lo <= args.start < args.stop <= hi):
        return None
    return np.linspace(args.start, args.stop, args.steps)


def cmd_fig1(args) -> int:
    """Sweep of the mixture's pairwise, residual, and cut entanglement."""
    grid = _grid(args, 0.0, 1.0)
    if grid is None:
        return _usage_error("need 0 <= start < stop <= 1 and steps >= 2")
    header = ["p", "c_ab", "c_ac", "c_bc", "tau3", "c_abc"]
    rows = []
    for p in grid:
        c_ab, c_ac, c_bc = reduced_concurrences_qc(p)
        rows.append(
            [
                float(p),
                float(c_ab),
                float(c_ac),
                float(c_bc),
                float(three_tangle_ghzw(p)),
                float(c_abc_mixture(p)),
            ]
        )
    if args.format == "json":
        payload = {"rows": [dict(zip(header, row)) for row in rows]}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return EXIT_OK


def cmd_fig4(args) -> int:
    """Sweep of closed-form and quadrature average fidelities, plus thresholds."""
    grid = _grid(args, 0.0, 1.0)
    if grid is None:
        return _usage_error("need 0 <= start < stop <= 1 and steps >= 2")
    schemes = {k: scheme_unitary(k) for k in SchemeKind}
    header = ["p", "fbar_ghz_closed", "fbar_ghz_numeric", "fbar_w_closed", "fbar_w_numeric", "c_abc"]
    rows = []
    for p in grid:
        p = float(p)
        rows.append(
            [
                p,
                avg_fidelity_closed(SchemeKind.GHZ, p),
                avg_fidelity(schemes[SchemeKind.GHZ], p),
                avg_fidelity_closed(SchemeKind.W, p),
                avg_fidelity(schemes[SchemeKind.W], p),
                float(c_abc_mixture(p)),
            ]
        )
    crit = critical_values()
    summary = {
        "f_ghz": crit.f_ghz,
        "f_w": crit.f_w,
        "p_star": crit.p_star,
        "p0": crit.p0,
        "p1": crit.p1,
    }
    if args.format == "json":
        payload = {"rows": [dict(zip(header, row)) for row in rows], "summary": summary}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        trailer = "# summary: " + json.dumps(summary)
        _emit(_csv(header, rows, trailer), args.out)
    return EXIT_OK


def _measures_payload(state, roof_cfg: RoofConfig) -> dict | None:
    if isinstance(state, PureState) and state.num_qubits == 2:
        c = concurrence_pure2(state)
        return {
            "num_qubits": 2,
            "pure": True,
            "concurrence": float(c),
            "eof": float(eof_from_concurrence(c)),
            "groverian": float(groverian_from_concurrence(c)),
        }
    if isinstance(state, DensityMatrix) and state.num_qubits == 2:
        c = concurrence_wootters(state)
        return {
            "num_qubits": 2,
            "pure": False,
            "concurrence": float(c),
            "eof": float(eof_from_concurrence(c)),
        }
    if isinstance(state, PureState) and state.num_qubits == 3:
        return {
            "num_qubits": 3,
            "pure": True,
            "tau3": float(three_tangle_pure(state)),
            "cut_ab_c": float(cut_concurrence_pure(state, Cut.AB_C)),
            "cut_ac_b": float(cut_concurrence_pure(state, Cut.AC_B)),
            "cut_bc_a": float(cut_concurrence_pure(state, Cut.BC_A)),
            "monogamy_residual": monogamy_residual(state),
        }
    if isinstance(state, DensityMatrix) and state.num_qubits == 3:
        roof = minimize_roof(state, three_tangle_pure, roof_cfg)
        return {
            "num_qubits": 3,
            "pure": False,
            "concurrence_ab": float(concurrence_wootters(partial_trace(state, [3]))),
            "concurrence_ac": float(concurrence_wootters(partial_trace(state, [2]))),
            "concurrence_bc": float(concurrence_wootters(partial_trace(state, [1]))),
            "tangle_upper_bound": float(roof.upper_bound),
            "tangle_bound_converged": roof.converged,
        }
    return None


def cmd_measures(args) -> int:
    """Evaluate every applicable measure for a state file."""
    try:
        state = load_state_file(args.state_file)
    except (OSError, ValueError) as exc:
        return _usage_error(f"cannot read state file: {exc}")
    payload = _measures_payload(state, _roof_config(args, _resolve_seed(args)))
    if payload is None:
        return _usage_error(
            f"no measures defined for a {state.num_qubits}-qubit state (need 2 or 3 qubits)"
        )
    if args.format == "csv":
        _emit(_csv(list(payload), [list(payload.values())]), args.out)
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def cmd_teleport(args) -> int:
    """Run one teleportation and report exact and closed-form fidelities."""
    try:
        scheme = scheme_unitary(args.scheme)
        report = teleport_output(scheme, args.theta, args.phi, args.p)
    except ValueError as exc:
        return _usage_error(str(exc))
    if scheme.kind is SchemeKind.GHZ:
        closed = fidelity_ghz_closed(args.theta, args.p)
    else:
        closed = fidelity_w_closed(args.p)
    payload = {
        "scheme": scheme.kind.value,
        "p": report.p,
        "theta": report.theta,
        "phi": report.phi,
        "fidelity": report.fidelity,
        "fidelity_closed": closed,
        "avg_fidelity_closed": avg_fidelity_closed(scheme.kind, args.p),
        "rho_out": [
            [[float(v.real), float(v.imag)] for v in row] for row in report.rho_out.matrix
        ],
    }
    if args.format == "csv":
        header = ["scheme", "p", "theta", "phi", "fidelity", "fidelity_closed", "avg_fidelity_closed"]
        row = [payload[k] for k in header]
        for i in range(2):
            for j in range(2):
                header.append(f"rho_out_{i}{j}_re")
                header.append(f"rho_out_{i}{j}_im")
                row.append(payload["rho_out"][i][j][0])
                row.append(payload["rho_out"][i][j][1])
        _emit(_csv(header, [row]), args.out)
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def cmd_noisy(args) -> int:
    """Report the decohered W state over one or a sweep of kappa*t values."""
    if args.kappa_t is not None:
        if args.kappa_t < 0:
            return _usage_error("kappa_t must be >= 0")
        kts = [args.kappa_t]
    else:
        if not (0 <= args.start < args.stop) or args.steps < 2:
            return _usage_error("need 0 <= start < stop and steps >= 2")
        kts = list(np.linspace(args.start, args.stop, args.steps))
    roof_cfg = _roof_config(args, _resolve_seed(args))
    reports = [channel_report(float(kt), roof_cfg) for kt in kts]
    header = [
        "kappa_t",
        "valid",
        "matches_pure_w",
        "c_ab",
        "c_ac",
        "c_bc",
        "tangle_upper_bound",
    ]
    rows = [
        [
            r.kappa_t,
            r.density.ok,
            r.matches_pure_w,
            r.concurrence_ab,
            r.concurrence_ac,
            r.concurrence_bc,
            r.tangle_upper_bound,
        ]
        for r in reports
    ]
    if args.format == "json":
        payload = {
            "rows": [
                {
                    "kappa_t": r.kappa_t,
                    "valid": r.density.ok,
                    "matches_pure_w": r.matches_pure_w,
                    "alpha1": r.params.alpha1,
                    "alpha2": r.params.alpha2,
                    "alpha3": r.params.alpha3,
                    "alpha4": r.params.alpha4,
                    "beta_plus": r.params.beta_plus,
                    "beta_minus": r.params.beta_minus,
                    "c_ab": r.concurrence_ab,
                    "c_ac": r.concurrence_ac,
                    "c_bc": r.concurrence_bc,
                    "tangle_upper_bound": r.tangle_upper_bound,
                    "tangle_bound_converged": r.tangle_bound_converged,
                }
                for r in reports
            ]
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return EXIT_OK


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _suite_unitarity() -> list[dict]:
    checks = []
    for kind in SchemeKind:
        u = scheme_unitary(kind).unitary
        dev = float(np.abs(u @ u.conj().T - np.eye(16)).max())
        checks.append(_check(f"unitarity_{kind.value}", dev <= 1e-12, f"max deviation {dev:.3e}"))
    return checks


def _suite_fidelity() -> list[dict]:
    checks = []
    thetas = np.linspace(0.0, math.pi, 17)
    phis = np.linspace(0.0, 2.0 * math.pi, 9)
    ps = np.linspace(0.0, 1.0, 11)
    worst_ghz = 0.0
    worst_w = 0.0
    ghz = scheme_unitary(SchemeKind.GHZ)
    w = scheme_unitary(SchemeKind.W)
    for theta in thetas:
        for phi in phis:
            for p in ps:
                fg = teleport_output(ghz, theta, phi, p).fidelity
                worst_ghz = max(worst_ghz, abs(fg - fidelity_ghz_closed(theta, p)))
                fw = teleport_output(w, theta, phi, p).fidelity
                worst_w = max(worst_w, abs(fw - fidelity_w_closed(p)))
    checks.append(_check("fidelity_ghz_grid", worst_ghz <= 1e-10, f"max |numeric - closed| {worst_ghz:.3e}"))
    checks.append(_check("fidelity_w_grid", worst_w <= 1e-10, f"max |numeric - closed| {worst_w:.3e}"))
    worst_avg = 0.0
    for p in ps:
        worst_avg = max(worst_avg, abs(avg_fidelity(ghz, p) - avg_fidelity_closed(SchemeKind.GHZ, p)))
        worst_avg = max(worst_avg, abs(avg_fidelity(w, p) - avg_fidelity_closed(SchemeKind.W, p)))
    checks.append(_check("avg_fidelity_quadrature", worst_avg <= 1e-9, f"max deviation {worst_avg:.3e}"))
    worst_exact = 0.0
    for p in ps:
        for scheme in (ghz, w):
            exact = avg_fidelity_entanglement(scheme, p)
            worst_exact = max(worst_exact, abs(exact - avg_fidelity_closed(scheme.kind, p)))
    checks.append(
        _check("avg_fidelity_entanglement", worst_exact <= 1e-12, f"max |(2 F_e + 1)/3 - closed| {worst_exact:.3e}")
    )
    return checks


def _suite_monogamy(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_gap = -math.inf
    worst_residual = 0.0
    for _ in range(1000):
        psi = random_pure_state(3, rng)
        rho = psi.density()
        c_cut = float(cut_concurrence_pure(psi, Cut.AB_C))
        c_ac = float(concurrence_wootters(partial_trace(rho, [2])))
        c_bc = float(concurrence_wootters(partial_trace(rho, [1])))
        gap = c_ac * c_ac + c_bc * c_bc - c_cut * c_cut
        worst_gap = max(worst_gap, gap)
        residual = monogamy_residual(psi)
        worst_residual = max(worst_residual, abs(residual - float(three_tangle_pure(psi))))
    checks = [
        _check("monogamy_inequality", worst_gap <= 1e-9, f"max violation {worst_gap:.3e}"),
        _check(
            "residual_equals_tangle", worst_residual <= 1e-8, f"max mismatch {worst_residual:.3e}"
        ),
    ]
    return checks


def _suite_roof(seed: int) -> list[dict]:
    checks = []
    bell = PureState.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    res = minimize_roof(bell.density(), concurrence_pure2, RoofConfig(restarts=2, seed=seed))
    checks.append(
        _check("roof_bell", abs(res.upper_bound - 1.0) <= 1e-6, f"bound {res.upper_bound:.8f}")
    )

    w_mix = 0.8
    bell_proj = bell.density().matrix
    werner = DensityMatrix(2, w_mix * bell_proj + (1.0 - w_mix) * np.eye(4) / 4.0)
    wootters = float(concurrence_wootters(werner))
    res = minimize_roof(werner, concurrence_pure2, RoofConfig(restarts=2, seed=seed))
    gap = res.upper_bound - wootters
    checks.append(
        _check("roof_werner", -1e-9 <= gap <= 5e-3, f"bound - closed = {gap:+.3e}")
    )

    res = minimize_roof(
        channel_state(0.5),
        three_tangle_pure,
        RoofConfig(restarts=4, ensemble_size=4, seed=seed),
    )
    checks.append(
        _check("roof_mixture_zero_region", res.upper_bound <= 1e-4, f"bound {res.upper_bound:.3e}")
    )

    params = GhzwMixtureParams.standard()
    worst_member = 0.0
    for p in (0.0, 0.2, 0.4, params.p0):
        ens = optimal_ghzw_ensemble(p, params)
        worst_member = max(
            worst_member, max(float(three_tangle_pure(psi)) for _, psi in ens.members)
        )
    checks.append(
        _check(
            "zero_tangle_ensembles", worst_member <= 1e-10, f"max member tangle {worst_member:.3e}"
        )
    )
    return checks


def cmd_validate(args) -> int:
    """Run an invariant suite; exit 0 on pass, 1 on any violation."""
    seed = _resolve_seed(args)
    suites = {
        "unitarity": lambda: _suite_unitarity(),
        "fidelity": lambda: _suite_fidelity(),
        "monogamy": lambda: _suite_monogamy(seed),
        "roof": lambda: _suite_roof(seed),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(suites[name]())
    passed = all(c["passed"] for c in checks)
    payload = {"suite": args.suite, "checks": checks, "passed": passed}
    _emit(json.dumps(payload, indent=2), args.out)
    if not passed:
        first = next(c["name"] for c in checks if not c["passed"])
        print(f"validation failed: {first}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and the infinities are usage errors."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _capped_int(cap: int):
    """argparse type for integer flags with an upper cap."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n > cap:
            raise argparse.ArgumentTypeError(f"{n} is above the cap of {cap}")
        return n

    return parse


# argparse reads "-1e-3" as an option unless it matches the parser's
# negative-number pattern, which by default has no exponent form.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

# Caps on the size flags, so that no value can reach an allocation or a
# loop far beyond any use (each cap is stated in the flag's help).
_MAX_STEPS = 100_000
_MAX_ROOF_RESTARTS = 1_000
_MAX_ROOF_ITERS = 10_000
_MAX_ROOF_ENSEMBLE = 64


class _Parser(argparse.ArgumentParser):
    # Usage errors print one line and exit 2, like every other bad input.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help=f"RNG seed (default: ${SEED_ENV} or {DEFAULT_SEED})")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format")


def _add_sweep(parser: argparse.ArgumentParser, start: float, stop: float, steps: int) -> None:
    parser.add_argument("--start", type=_finite_float, default=start, help=f"sweep start (default {start})")
    parser.add_argument("--stop", type=_finite_float, default=stop, help=f"sweep stop (default {stop})")
    parser.add_argument(
        "--steps",
        type=_capped_int(_MAX_STEPS),
        default=steps,
        help=f"grid points (default {steps}; at most {_MAX_STEPS}, each point is a full evaluation)",
    )


def _add_roof(parser: argparse.ArgumentParser, restarts: int, max_iters: int) -> None:
    parser.add_argument(
        "--roof-restarts",
        type=_capped_int(_MAX_ROOF_RESTARTS),
        default=restarts,
        help=f"decomposition-search restarts (default {restarts}; at most {_MAX_ROOF_RESTARTS}, "
        "since every restart's seed is drawn before the search starts)",
    )
    parser.add_argument(
        "--roof-max-iters",
        type=_capped_int(_MAX_ROOF_ITERS),
        default=max_iters,
        help=f"decomposition-search sweep cap (default {max_iters}; at most {_MAX_ROOF_ITERS}, "
        "far above the tens of sweeps a search takes to converge)",
    )
    parser.add_argument(
        "--roof-ensemble-size",
        type=_capped_int(_MAX_ROOF_ENSEMBLE),
        default=None,
        help=f"decomposition size (default: rank + 2; at most {_MAX_ROOF_ENSEMBLE}: a rank-r roof needs "
        "at most r^2 members, and a sweep visits every pair of members)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tritangle",
        description="Entanglement measures and teleportation fidelities for GHZ/W-mixture channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="sweep mixture entanglement measures over p")
    _add_sweep(p, 0.0, 1.0, 201)
    _add_common(p)
    p.set_defaults(func=cmd_fig1, default_format="csv")

    p = sub.add_parser("fig4", help="sweep average fidelities over p")
    _add_sweep(p, 0.0, 1.0, 201)
    _add_common(p)
    p.set_defaults(func=cmd_fig4, default_format="csv")

    p = sub.add_parser("measures", help="evaluate measures for a JSON state file")
    p.add_argument("state_file", help="path to a pure or mixed state file")
    _add_roof(p, 2, 200)
    _add_common(p)
    p.set_defaults(func=cmd_measures, default_format="json")

    p = sub.add_parser("teleport", help="teleport one input state")
    p.add_argument("scheme", choices=("ghz", "w"), help="channel type")
    p.add_argument("--p", type=_finite_float, required=True, help="GHZ weight of the channel mixture")
    p.add_argument("--theta", type=_finite_float, default=math.pi / 2, help="input polar angle (default pi/2)")
    p.add_argument("--phi", type=_finite_float, default=0.0, help="input azimuthal angle (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_teleport, default_format="json")

    p = sub.add_parser("noisy", help="report the decohered W state")
    p.add_argument("--kappa-t", type=_finite_float, default=None, help="single kappa*t value (overrides the sweep)")
    _add_sweep(p, 0.0, 2.0, 11)
    _add_roof(p, 1, 30)
    _add_common(p)
    p.set_defaults(func=cmd_noisy, default_format="csv")

    p = sub.add_parser("validate", help="run invariant suites")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=("all", "monogamy", "roof", "unitarity", "fidelity"),
        help="which suite to run (default all)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_validate, default_format="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        return args.func(args)
    except ValueError as exc:
        return _usage_error(str(exc))


def entry() -> None:
    sys.exit(main())
