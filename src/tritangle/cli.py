"""Command-line front end: figure data, measures, teleportation, validation."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from .entanglement import (
    c_abc_mixture,
    concurrence_pure2,
    concurrence_wootters,
    cut_concurrences,
    eof_from_concurrence,
    groverian_from_concurrence,
    monogamy_residual,
    pairwise_concurrences,
    reduced_concurrences_qc,
    three_tangle_ghzw,
    three_tangle_pure,
)
from .qcore import DensityMatrix, PureState, load_state_file
from .teleport import (
    SchemeKind,
    avg_fidelity,
    avg_fidelity_closed,
    critical_values,
    fidelity_ghz_closed,
    fidelity_w_closed,
    scheme_unitary,
    teleport_output,
)

if TYPE_CHECKING:
    from .convexroof import RoofBound

# The roof solvers, the noisy channel and the validate suites are imported
# by the subcommands that use them, so that fig1, fig4 and teleport load
# none of them.


def __getattr__(name: str):
    # The benchmark's self-test calls the roof search as cli.minimize_roof.
    if name == "minimize_roof":
        from .convexroof import minimize_roof

        return minimize_roof
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12f}"
    return str(x)


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


def _emit_rows(args, rows: list[dict], csv_columns=None, summary: dict | None = None) -> None:
    """Write a sweep's table, one dict per row.

    JSON is {"rows": rows}, plus "summary" when one is given.  CSV has the
    keys csv_columns (by default every key of a row) as its columns and
    the summary as a "# summary:" trailer line.
    """
    if args.format == "json":
        payload = {"rows": rows} if summary is None else {"rows": rows, "summary": summary}
        _emit(json.dumps(payload, indent=2), args.out)
        return
    columns = list(csv_columns or rows[0])
    trailer = None if summary is None else "# summary: " + json.dumps(summary)
    _emit(_csv(columns, [[row[c] for c in columns] for row in rows], trailer), args.out)


def _emit_record(args, record: dict, csv_record: dict | None = None) -> None:
    """Write one record: JSON is the dict, CSV a header and one row, of csv_record when given."""
    if args.format == "json":
        _emit(json.dumps(record, indent=2), args.out)
        return
    row = record if csv_record is None else csv_record
    _emit(_csv(list(row), [list(row.values())]), args.out)


def _grid(args) -> np.ndarray:
    # The p grid of fig1 and fig4.
    if args.steps < 2 or not (0.0 <= args.start < args.stop <= 1.0):
        raise ValueError("need 0 <= start < stop <= 1 and steps >= 2")
    return np.linspace(args.start, args.stop, args.steps)


def cmd_fig1(args) -> int:
    """Sweep of the mixture's pairwise, residual, and cut entanglement."""
    rows = []
    for p in _grid(args):
        c_ab, c_ac, c_bc = reduced_concurrences_qc(p)
        rows.append(
            {
                "p": float(p),
                "c_ab": c_ab,
                "c_ac": c_ac,
                "c_bc": c_bc,
                "tau3": three_tangle_ghzw(p),
                "c_abc": c_abc_mixture(p),
            }
        )
    _emit_rows(args, rows)
    return EXIT_OK


def cmd_fig4(args) -> int:
    """Sweep of closed-form and simulated average fidelities (2 F_e + 1)/3, plus thresholds."""
    grid = _grid(args)
    ghz, w = avg_fidelity((scheme_unitary(SchemeKind.GHZ), scheme_unitary(SchemeKind.W)), grid)
    rows = []
    for p, fbar_ghz, fbar_w in zip(grid, ghz, w):
        p = float(p)
        rows.append(
            {
                "p": p,
                "fbar_ghz_closed": avg_fidelity_closed(SchemeKind.GHZ, p),
                "fbar_ghz_numeric": float(fbar_ghz),
                "fbar_w_closed": avg_fidelity_closed(SchemeKind.W, p),
                "fbar_w_numeric": float(fbar_w),
                "c_abc": c_abc_mixture(p),
            }
        )
    _emit_rows(args, rows, summary=dataclasses.asdict(critical_values()))
    return EXIT_OK


def _tangle_keys(tangle: RoofBound) -> dict:
    # The tangle keys that measures and noisy both print, in this order.
    return {
        "tangle_upper_bound": tangle.upper_bound,
        "tangle_bound_converged": tangle.converged,
        "tangle_exact": tangle.exact,
    }


def _measures_payload(state, args) -> dict | None:
    if isinstance(state, PureState) and state.num_qubits == 2:
        c = concurrence_pure2(state)
        return {
            "num_qubits": 2,
            "pure": True,
            "concurrence": c,
            "eof": eof_from_concurrence(c),
            "groverian": groverian_from_concurrence(c),
        }
    if isinstance(state, DensityMatrix) and state.num_qubits == 2:
        c = concurrence_wootters(state)
        return {
            "num_qubits": 2,
            "pure": False,
            "concurrence": c,
            "eof": eof_from_concurrence(c),
        }
    if isinstance(state, PureState) and state.num_qubits == 3:
        cut_ab_c, cut_ac_b, cut_bc_a = cut_concurrences(state)
        return {
            "num_qubits": 3,
            "pure": True,
            "tau3": three_tangle_pure(state),
            "cut_ab_c": cut_ab_c,
            "cut_ac_b": cut_ac_b,
            "cut_bc_a": cut_bc_a,
            "monogamy_residual": monogamy_residual(state),
        }
    if isinstance(state, DensityMatrix) and state.num_qubits == 3:
        # The one branch that runs a roof solver.  Rank <= 2 (the GHZ/W
        # channel among them) is solved as an LP; the decomposition search,
        # with its seed and budget, runs above that.
        from .convexroof import RoofConfig, minimize_roof, numerical_rank, roof_rank2

        if numerical_rank(state) <= 2:
            roof = roof_rank2(state, three_tangle_pure)
        else:
            cfg = RoofConfig(
                restarts=args.roof_restarts, ensemble_size=args.roof_ensemble_size, max_iters=args.roof_max_iters, seed=args.seed
            )
            roof = minimize_roof(state, three_tangle_pure, cfg)
        c_ab, c_ac, c_bc = pairwise_concurrences(state)
        return {
            "num_qubits": 3,
            "pure": False,
            "concurrence_ab": c_ab,
            "concurrence_ac": c_ac,
            "concurrence_bc": c_bc,
            **_tangle_keys(roof),
        }
    return None


def cmd_measures(args) -> int:
    """Evaluate every applicable measure for a state file."""
    try:
        state = load_state_file(args.state_file)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read state file: {exc}") from None
    payload = _measures_payload(state, args)
    if payload is None:
        raise ValueError(f"no measures defined for a {state.num_qubits}-qubit state (need 2 or 3 qubits)")
    _emit_record(args, payload)
    return EXIT_OK


def cmd_teleport(args) -> int:
    """Run one teleportation and report exact and closed-form fidelities."""
    scheme = scheme_unitary(args.scheme)
    report = teleport_output(scheme, args.theta, args.phi, args.p)
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
    row = {k: v for k, v in payload.items() if k != "rho_out"}
    for i in range(2):
        for j in range(2):
            row[f"rho_out_{i}{j}_re"], row[f"rho_out_{i}{j}_im"] = payload["rho_out"][i][j]
    _emit_record(args, payload, row)
    return EXIT_OK


# The noisy CSV leaves out the decoherence parameters and the bound's
# convergence flag that its JSON rows carry.
_NOISY_CSV_COLUMNS = ("kappa_t", "valid", "matches_pure_w", "c_ab", "c_ac", "c_bc", "tangle_upper_bound", "tangle_exact")


def cmd_noisy(args) -> int:
    """Report the decohered W state over one or a sweep of kappa*t values."""
    from .noisychan import channel_report

    if args.kappa_t is not None:
        kts = [args.kappa_t]
    else:
        if not (0 <= args.start < args.stop) or args.steps < 2:
            raise ValueError("need 0 <= start < stop and steps >= 2")
        kts = list(np.linspace(args.start, args.stop, args.steps))
    reports = [channel_report(float(kt)) for kt in kts]
    rows = [
        {
            "kappa_t": r.kappa_t,
            "valid": True,
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
            **_tangle_keys(r.tangle),
        }
        for r in reports
    ]
    _emit_rows(args, rows, _NOISY_CSV_COLUMNS)
    return EXIT_OK


def cmd_validate(args) -> int:
    """Run an invariant suite; exit 0 on pass, 1 on any violation."""
    from .checks import SUITES

    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = [check for name in names for check in SUITES[name](args.seed)]
    passed = all(c["passed"] for c in checks)
    _emit_record(args, {"suite": args.suite, "checks": checks, "passed": passed})
    if not passed:
        first = next(c["name"] for c in checks if not c["passed"])
        print(f"validation failed: {first}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and the infinities are usage errors, and -0 reads as 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x + 0.0


def _int_flag(cap: float = math.inf, floor: float = -math.inf):
    """argparse type for integer flags within [floor, cap]."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n > cap:
            raise argparse.ArgumentTypeError(f"{n} is above the cap of {cap}")
        if n < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {n}")
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


_SEED_UNUSED = "accepted as by every subcommand; the report draws no random numbers"


def _add_common(parser: argparse.ArgumentParser, seed_use: str = _SEED_UNUSED, formats=("csv", "json")) -> None:
    parser.add_argument("--seed", type=_int_flag(floor=0), default=DEFAULT_SEED, help=f"{seed_use} (default {DEFAULT_SEED})")
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=formats, default=None, help="output format")


def _add_sweep(parser: argparse.ArgumentParser, start: float, stop: float, steps: int) -> None:
    parser.add_argument("--start", type=_finite_float, default=start, help=f"sweep start (default {start})")
    parser.add_argument("--stop", type=_finite_float, default=stop, help=f"sweep stop (default {stop})")
    parser.add_argument(
        "--steps",
        type=_int_flag(_MAX_STEPS),
        default=steps,
        help=f"grid points (default {steps}; at most {_MAX_STEPS}, each point is a full evaluation)",
    )


def _fill_fig(func):
    # fig1 and fig4 take the same flags, a sweep over p in [0, 1].
    def fill(p: argparse.ArgumentParser) -> None:
        _add_sweep(p, 0.0, 1.0, 201)
        _add_common(p)
        p.set_defaults(func=func, default_format="csv")

    return fill


def _fill_measures(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Evaluate every applicable measure for a state file.  The tangle of a three-qubit "
        "mixed state of rank <= 2 is the convex roof solved as a linear program on the Bloch sphere of "
        "its range; at rank >= 3 it is an upper bound from the seeded decomposition search."
    )
    p.add_argument("state_file", help="path to a pure or mixed state file")
    search_runs = "runs only on three-qubit mixed states of rank >= 3"
    scope = f"; the search {search_runs}"
    p.add_argument(
        "--roof-restarts",
        type=_int_flag(_MAX_ROOF_RESTARTS, floor=1),
        default=2,
        help=f"decomposition-search restarts (default 2; at most {_MAX_ROOF_RESTARTS}, "
        f"since every restart's seed is drawn before the search starts){scope}",
    )
    p.add_argument(
        "--roof-max-iters",
        type=_int_flag(_MAX_ROOF_ITERS, floor=1),
        default=200,
        help=f"decomposition-search sweep cap (default 200; at most {_MAX_ROOF_ITERS}, "
        f"far above the tens of sweeps a search takes to converge){scope}",
    )
    p.add_argument(
        "--roof-ensemble-size",
        type=_int_flag(_MAX_ROOF_ENSEMBLE, floor=1),
        default=None,
        help=f"decomposition size (default: rank + 2; at most {_MAX_ROOF_ENSEMBLE}: a rank-r roof needs "
        f"at most r^2 members, and a sweep visits every pair of members){scope}",
    )
    _add_common(p, f"seed of the decomposition search, which {search_runs}")
    p.set_defaults(func=cmd_measures, default_format="json")


def _fill_teleport(p: argparse.ArgumentParser) -> None:
    p.add_argument("scheme", choices=("ghz", "w"), help="channel type")
    p.add_argument("--p", type=_finite_float, required=True, help="GHZ weight of the channel mixture")
    p.add_argument("--theta", type=_finite_float, default=math.pi / 2, help="input polar angle (default pi/2)")
    p.add_argument("--phi", type=_finite_float, default=0.0, help="input azimuthal angle (default 0)")
    _add_common(p)
    p.set_defaults(func=cmd_teleport, default_format="json")


def _fill_noisy(p: argparse.ArgumentParser) -> None:
    p.description = (
        "Report the decohered W state: validity, the exact pairwise concurrences, and its "
        "three-party tangle, which is exactly 0 at every kappa*t (a mixture of bit-flipped W states)."
    )
    p.add_argument("--kappa-t", type=_finite_float, default=None, help="single kappa*t value (overrides the sweep)")
    _add_sweep(p, 0.0, 2.0, 11)
    _add_common(p)
    p.set_defaults(func=cmd_noisy, default_format="csv")


def _fill_validate(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=("all", "monogamy", "roof", "unitarity", "fidelity"),
        help="which suite to run (default all)",
    )
    _add_common(p, "seed of the monogamy suite's random states and of the roof suite's searches", ("json",))
    p.set_defaults(func=cmd_validate, default_format="json")


# Each subcommand's one-line help (listed by the top-level --help) and the
# function that fills its parser, in the order the help lists them.
_COMMANDS = {
    "fig1": ("sweep mixture entanglement measures over p", _fill_fig(cmd_fig1)),
    "fig4": ("sweep average fidelities over p", _fill_fig(cmd_fig4)),
    "measures": ("evaluate measures for a JSON state file", _fill_measures),
    "teleport": ("teleport one input state", _fill_teleport),
    "noisy": ("report the decohered W state", _fill_noisy),
    "validate": ("run invariant suites", _fill_validate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the whole CLI, or the own parser of subcommand ``command``.

    Without ``command``, all six subcommands sit under a top-level parser
    that parses a full argv.  With ``command`` (a key of the subcommand
    table), the parser, prog ``tritangle <command>``, parses the arguments
    after the subcommand's name.  It gives the full parser's help, usage
    errors and Namespace, except that an unrecognized argument is reported
    under the subcommand's prog.  Each call builds a new parser, which the
    caller owns.
    """
    if command is not None:
        parser = _Parser(prog=f"tritangle {command}")
        _COMMANDS[command][1](parser)
        parser.set_defaults(command=command)
        return parser
    parser = _Parser(
        prog="tritangle",
        description="Entanglement measures and teleportation fidelities for GHZ/W-mixture channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fill) in _COMMANDS.items():
        fill(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    """Run one CLI request: ``argv``, or ``sys.argv[1:]`` when it is None.

    When ``argv[0]`` names a subcommand, the rest of argv is parsed by that
    subcommand's own parser alone; anything else (help, no arguments, an
    unknown command) goes through the full parser, so its messages list
    every subcommand.  The parser is built anew on every call and nothing
    is kept between calls, so main holds no process-wide state: requests
    run in one process do not depend on each other, and memory does not
    grow with their number.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
