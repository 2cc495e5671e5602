"""Command-line behavior: formats, exit codes, seeds, and figure sweeps."""

import contextlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tritangle
from tritangle import checks, cli, convexroof
from tritangle.entanglement import channel_mixture_state, three_tangle_ghzw
from tritangle.qcore import DensityMatrix, PureState, ghz_state, random_density_matrix, random_pure_state, save_state_file
from tritangle.teleport import SchemeKind


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state_file(path, PureState.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)]))
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    save_state_file(path, ghz_state())
    return str(path)


@pytest.fixture
def werner_file(tmp_path):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    rho = DensityMatrix(2, 0.8 * np.outer(phi, phi) + 0.2 * np.eye(4) / 4)
    path = tmp_path / "werner.json"
    save_state_file(path, rho)
    return str(path)


@pytest.fixture
def mixture_file(tmp_path):
    path = tmp_path / "mixture.json"
    save_state_file(path, channel_mixture_state(0.4))
    return str(path)


# Finite entries near the float limit, each failing one invariant that the
# one error line names; no numpy warning may be printed (tier-1 turns a
# RuntimeWarning into an error).
_OFF_DIAGONAL = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
_OFF_DIAGONAL[0][1] = _OFF_DIAGONAL[1][0] = [1e308, 0.0]
HUGE_ENTRY_STATES = {
    "three-qubit-every-entry": ({"num_qubits": 3, "matrix": [[[1e308, 0.0]] * 8] * 8}, "trace differs from 1 by inf"),
    "one-qubit-diagonal": (
        {"num_qubits": 1, "matrix": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e308, 0.0]]]},
        "trace differs from 1 by 1.000e+00",
    ),
    "two-qubit-off-diagonal": (
        {"num_qubits": 2, "matrix": _OFF_DIAGONAL},
        "smallest eigenvalue -1.000e+308 below -1e-10",
    ),
    "pure-amplitude": (
        {"num_qubits": 1, "amplitudes": [[1e200, 0.0], [0.0, 0.0]]},
        "state not normalized: |sum - 1| = inf > 1e-12",
    ),
}


class TestFig1:
    def test_csv_shape_and_endpoints(self, capsys):
        code, out, err = run(["fig1", "--steps", "11"], capsys)
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "p,c_ab,c_ac,c_bc,tau3,c_abc"
        assert len(lines) == 12
        assert lines[1] == (
            "0.000000000000,0.500000000000,0.707106781187,"
            "0.707106781187,0.000000000000,1.000000000000"
        )
        assert lines[-1] == (
            "1.000000000000,0.000000000000,0.000000000000,"
            "0.000000000000,1.000000000000,1.000000000000"
        )

    def test_output_file_is_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, out, _ = run(["fig1", "--steps", "21", "--out", str(target)], capsys)
            assert code == 0
            assert out == ""
        assert a.read_bytes() == b.read_bytes()

    def test_json_rows(self, capsys):
        code, out, _ = run(["fig1", "--steps", "5", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 5
        assert rows[0]["c_abc"] == pytest.approx(1.0, abs=1e-12)
        assert rows[2]["tau3"] == 0.0

    def test_rejects_bad_sweep(self, capsys):
        code, _, err = run(["fig1", "--steps", "1"], capsys)
        assert code == 2
        assert err.startswith("error:")
        code, _, err = run(["fig1", "--start", "0.9", "--stop", "0.1"], capsys)
        assert code == 2


class TestFig4:
    def test_csv_summary_trailer(self, capsys):
        code, out, _ = run(["fig4", "--steps", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "p,fbar_ghz_closed,fbar_ghz_numeric,fbar_w_closed,fbar_w_numeric,c_abc"
        )
        assert len(lines) == 5
        assert lines[-1].startswith("# summary: ")
        summary = json.loads(lines[-1][len("# summary: "):])
        assert summary["p_star"] == pytest.approx(7 / 13, abs=1e-15)
        assert summary["f_ghz"] == pytest.approx(0.7745485444208194, abs=1e-12)
        assert summary["f_w"] == pytest.approx(5 / 6, abs=1e-12)

    def test_json_quadrature_tracks_closed_form(self, capsys):
        code, out, _ = run(["fig4", "--steps", "3", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert {"rows", "summary"} <= set(payload)
        first = payload["rows"][0]
        assert first["fbar_ghz_closed"] == pytest.approx(5 / 12, abs=1e-15)
        assert abs(first["fbar_ghz_numeric"] - first["fbar_ghz_closed"]) <= 1e-9
        assert abs(first["fbar_w_numeric"] - first["fbar_w_closed"]) <= 1e-9


_FIG1_COLUMNS = ("p", "c_ab", "c_ac", "c_bc", "tau3", "c_abc")
_FIG4_COLUMNS = ("p", "fbar_ghz_closed", "fbar_ghz_numeric", "fbar_w_closed", "fbar_w_numeric", "c_abc")
_NOISY_COLUMNS = ("kappa_t", "valid", "matches_pure_w", "c_ab", "c_ac", "c_bc", "tangle_upper_bound", "tangle_exact")


class TestSweepTables:
    """The CSV and JSON forms of each sweep carry the same table."""

    @pytest.mark.parametrize(
        "argv, columns",
        [
            (["fig1", "--steps", "5"], _FIG1_COLUMNS),
            (["fig4", "--steps", "5"], _FIG4_COLUMNS),
            (["noisy", "--stop", "0.4", "--steps", "3"], _NOISY_COLUMNS),
            (["noisy", "--kappa-t", "0.5"], _NOISY_COLUMNS),
        ],
    )
    def test_csv_cells_are_the_json_values(self, argv, columns, capsys):
        code, csv_out, _ = run(argv + ["--format", "csv"], capsys)
        assert code == 0
        code, json_out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(json_out)
        rows = payload["rows"]
        lines = csv_out.splitlines()
        assert tuple(lines[0].split(",")) == columns
        assert ("summary" in payload) == (argv[0] == "fig4")
        assert len(lines) == 1 + len(rows) + ("summary" in payload)
        for line, row in zip(lines[1:], rows):
            assert line.split(",") == [cli._fmt(row[c]) for c in columns]
        if "summary" in payload:
            assert lines[-1].startswith("# summary: ")
            assert json.loads(lines[-1][len("# summary: "):]) == payload["summary"]


class TestMeasures:
    def test_pure_two_qubit(self, bell_file, capsys):
        code, out, _ = run(["measures", bell_file], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pure"] is True
        assert payload["concurrence"] == pytest.approx(1.0, abs=1e-9)
        assert payload["eof"] == pytest.approx(1.0, abs=1e-9)
        # d(groverian)/dc diverges at c = 1, so the round-tripped
        # amplitudes (c = 1 - 2e-16) move the value by ~7e-9
        assert payload["groverian"] == pytest.approx(0.7071067811, abs=5e-8)

    def test_mixed_two_qubit(self, werner_file, capsys):
        code, out, _ = run(["measures", werner_file], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pure"] is False
        assert payload["concurrence"] == pytest.approx(0.7, abs=1e-9)
        assert "eof" in payload
        # no closed form for the mixed-state overlap measure, so no key
        assert "groverian" not in payload

    def test_pure_three_qubit(self, ghz_file, capsys):
        code, out, _ = run(["measures", ghz_file], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["tau3"] == pytest.approx(1.0, abs=1e-12)
        assert payload["cut_ab_c"] == pytest.approx(1.0, abs=1e-12)
        assert payload["monogamy_residual"] == pytest.approx(1.0, abs=1e-7)

    def test_pure_three_qubit_builds_its_density_at_most_twice(self, tmp_path, capsys, monkeypatch):
        # Once for the cut concurrences, once for the monogamy residual.
        path = tmp_path / "pure3.json"
        save_state_file(path, random_pure_state(3, np.random.default_rng(3)))
        builds = []
        density = PureState.density

        def counted(psi):
            builds.append(psi)
            return density(psi)

        monkeypatch.setattr(PureState, "density", counted)
        code, _, _ = run(["measures", str(path)], capsys)
        assert code == 0
        assert len(builds) <= 2

    def test_mixed_three_qubit(self, mixture_file, capsys):
        code, out, _ = run(
            ["measures", mixture_file, "--roof-restarts", "2", "--roof-max-iters", "60"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pure"] is False
        assert payload["concurrence_ac"] == pytest.approx(payload["concurrence_bc"], abs=1e-9)
        assert payload["tangle_upper_bound"] <= 1e-3
        assert payload["tangle_bound_converged"] is True

    def test_local_image_prints_the_same_concurrences(self, tmp_path, capsys):
        # Pairwise concurrences are local-unitary invariants.
        rng = np.random.default_rng(6)
        rho = random_density_matrix(3, 2, rng)
        u = np.ones((1, 1))
        for _ in range(3):
            u = np.kron(u, np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0])
        payloads = []
        for name, state in [("rho.json", rho), ("image.json", DensityMatrix(3, u @ rho.matrix @ u.conj().T))]:
            save_state_file(tmp_path / name, state)
            code, out, _ = run(["measures", str(tmp_path / name)], capsys)
            assert code == 0
            payloads.append(json.loads(out))
        for key in ["concurrence_ab", "concurrence_ac", "concurrence_bc"]:
            assert abs(payloads[0][key] - payloads[1][key]) <= 1e-12, key

    def test_rank_two_takes_the_lp_and_rank_three_the_search(self, mixture_file, tmp_path, capsys, monkeypatch):
        calls = []
        search = convexroof.minimize_roof
        monkeypatch.setattr(convexroof, "minimize_roof", lambda *args: calls.append(args) or search(*args))
        code, out, _ = run(["measures", mixture_file], capsys)
        assert code == 0 and calls == []
        keys = list(json.loads(out))
        assert keys == [
            "num_qubits",
            "pure",
            "concurrence_ab",
            "concurrence_ac",
            "concurrence_bc",
            "tangle_upper_bound",
            "tangle_bound_converged",
            "tangle_exact",
        ]
        rank3 = tmp_path / "rank3.json"
        save_state_file(rank3, random_density_matrix(3, 3, np.random.default_rng(3)))
        code, out, _ = run(["measures", str(rank3), "--roof-max-iters", "5"], capsys)
        assert code == 0 and len(calls) == 1
        assert list(json.loads(out)) == keys

    def test_rank_two_tangle_is_the_closed_form(self, tmp_path, capsys):
        for p in (0.2, 0.7, 0.9):
            path = tmp_path / f"mix{p}.json"
            save_state_file(path, channel_mixture_state(p))
            code, out, _ = run(["measures", str(path)], capsys)
            assert code == 0
            payload = json.loads(out)
            gap = payload["tangle_upper_bound"] - three_tangle_ghzw(p)
            assert -1e-10 <= gap <= 1e-8
            assert payload["tangle_bound_converged"] is True

    def test_csv_format(self, bell_file, capsys):
        code, out, _ = run(["measures", bell_file, "--format", "csv"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[:3] == ["num_qubits", "pure", "concurrence"]
        assert row.split(",")[:2] == ["2", "true"]

    def test_rejects_unsupported_sizes(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        save_state_file(one, PureState.from_amplitudes([1.0, 0.0]))
        code, _, err = run(["measures", str(one)], capsys)
        assert code == 2
        assert "2 or 3" in err

        amps = np.zeros(16)
        amps[0] = 1.0
        four = tmp_path / "four.json"
        save_state_file(four, PureState(4, amps))
        code, _, err = run(["measures", str(four)], capsys)
        assert code == 2

    def test_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(["measures", str(bad)], capsys)
        assert code == 2
        assert "cannot read state file" in err

    @pytest.mark.parametrize("payload,message", HUGE_ENTRY_STATES.values(), ids=HUGE_ENTRY_STATES.keys())
    def test_huge_finite_entries_name_the_failed_invariant(self, tmp_path, capsys, payload, message):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(payload))
        code, out, err = run(["measures", str(huge)], capsys)
        assert (code, out, err) == (2, "", f"error: cannot read state file: {message}\n")

    def test_rejects_deeply_nested_file(self, tmp_path, capsys):
        # Too deep for the JSON parser's recursion: a usage error, not a
        # traceback with the validation-failure exit code 1.
        deep = tmp_path / "deep.json"
        deep.write_text('{"num_qubits": 1, "amplitudes": ' + "[" * 200_000 + "]" * 200_000 + "}")
        code, out, err = run(["measures", str(deep)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: cannot read state file: state file is nested too deeply\n"

    @staticmethod
    def _assert_one_line_rejection(tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(["measures", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read state file")

    def test_rejects_both_amplitudes_and_matrix(self, tmp_path, capsys):
        payload = {"num_qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]], "matrix": 5}
        self._assert_one_line_rejection(tmp_path, capsys, payload)

    @pytest.mark.parametrize("part", ["0.5", True])
    def test_rejects_non_real_part(self, tmp_path, capsys, part):
        payload = {"num_qubits": 2, "amplitudes": [[part, 0], [0, 0], [0, 0], [0, 0]]}
        self._assert_one_line_rejection(tmp_path, capsys, payload)

    def test_rejects_entry_not_a_pair(self, tmp_path, capsys):
        payload = {"num_qubits": 1, "amplitudes": [[1, 0, 0], [0, 0]]}
        self._assert_one_line_rejection(tmp_path, capsys, payload)

    def test_rejects_row_not_a_list(self, tmp_path, capsys):
        payload = {"num_qubits": 1, "matrix": [0.5, 0, 0, 0.5]}
        self._assert_one_line_rejection(tmp_path, capsys, payload)

    def test_rejects_bool_num_qubits(self, tmp_path, capsys):
        payload = {"num_qubits": True, "amplitudes": [[1, 0], [0, 0]]}
        self._assert_one_line_rejection(tmp_path, capsys, payload)


class TestTeleport:
    def test_ghz_perfect_channel(self, capsys):
        code, out, _ = run(["teleport", "ghz", "--p", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["scheme"] == "ghz"
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert payload["fidelity_closed"] == pytest.approx(1.0, abs=1e-12)

    def test_w_mixture_point(self, capsys):
        code, out, _ = run(["teleport", "w", "--p", "0.4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["fidelity"] == pytest.approx(0.8, abs=1e-12)
        assert payload["avg_fidelity_closed"] == pytest.approx(0.8, abs=1e-12)
        assert payload["theta"] == pytest.approx(math.pi / 2)
        rho = payload["rho_out"]
        assert len(rho) == 2 and len(rho[0]) == 2 and len(rho[0][0]) == 2

    def test_csv_row(self, capsys):
        code, out, _ = run(["teleport", "ghz", "--p", "0.5", "--format", "csv"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "scheme"
        assert header.split(",")[7] == "rho_out_00_re"
        assert row.split(",")[0] == "ghz"

    def test_huge_finite_angle(self, capsys):
        # 2 theta overflows to inf here; the closed form never forms it.
        code, out, _ = run(["teleport", "ghz", "--p", "0.3", "--theta", "1e308"], capsys)
        assert code == 0
        payload = json.loads(out)
        want = (3.0 + 5.0 * 0.3 - 0.7 * (1.0 - 2.0 * math.sin(1e308) ** 2)) / 8.0
        assert payload["fidelity_closed"] == pytest.approx(want, abs=1e-15)
        assert payload["fidelity"] == pytest.approx(payload["fidelity_closed"], abs=1e-12)

    def test_rejects_bad_weight(self, capsys):
        code, _, err = run(["teleport", "ghz", "--p", "1.5"], capsys)
        assert code == 2
        assert "error:" in err


class TestNoisy:
    def test_single_point_csv(self, capsys):
        code, out, _ = run(["noisy", "--kappa-t", "0"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "kappa_t,valid,matches_pure_w,c_ab,c_ac,c_bc,tangle_upper_bound,tangle_exact"
        cells = row.split(",")
        assert cells[0] == "0.000000000000"
        assert cells[1] == "true"
        assert cells[2] == "true"
        assert float(cells[3]) == pytest.approx(0.5, abs=1e-7)
        assert cells[6:] == ["0.000000000000", "true"]

    def test_single_point_json(self, capsys):
        code, out, _ = run(["noisy", "--kappa-t", "0.5", "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["matches_pure_w"] is False
        assert row["alpha1"] == pytest.approx(1.553001792775919, abs=1e-12)
        assert row["valid"] is True
        assert row["tangle_upper_bound"] == 0.0
        assert row["tangle_bound_converged"] is True
        assert row["tangle_exact"] is True

    def test_sweep_row_count(self, capsys):
        code, out, _ = run(["noisy", "--start", "0", "--stop", "0.2", "--steps", "3"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_rejects_negative_time(self, capsys):
        code, _, err = run(["noisy", "--kappa-t", "-1"], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag", ["--roof-restarts", "--roof-max-iters", "--roof-ensemble-size"])
    def test_search_flags_are_gone(self, flag, capsys):
        # noisy reports an exact tangle and runs no search to budget.
        code, out, err = run_expecting_exit(["noisy", flag, "1"], capsys)
        assert_one_line_usage_error(code, out, err)
        assert f"unrecognized arguments: {flag} 1" in err


def parse_with(parser, argv, capsys):
    # Exit code (None if parsing succeeded), stdout, stderr and the Namespace.
    try:
        ns, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        ns, code = None, exc.code
    out, err = capsys.readouterr()
    return code, out, err, ns


def assert_parsers_agree(argv, capsys):
    # main parses argv[1:] with the subcommand's own parser; it must agree
    # exactly with the full parser on argv, except that an unrecognized
    # argument is reported under the subcommand's prog, not the top-level one.
    code, out, err, ns = parse_with(cli.build_parser(), argv, capsys)
    unrecognized = "error: tritangle: unrecognized arguments: "
    if err.startswith(unrecognized):
        err = f"error: tritangle {argv[0]}: unrecognized arguments: " + err[len(unrecognized) :]
    own = parse_with(cli.build_parser(argv[0]), argv[1:], capsys)
    assert own == (code, out, err, ns)
    return own


def run_expecting_exit(argv, capsys):
    # Flag parsing reports through SystemExit, the commands through main's return.
    assert_parsers_agree(argv, capsys)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_one_line_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["teleport", "ghz", "--p", "nan"],
            ["teleport", "ghz", "--p", "0.5", "--theta", "inf"],
            ["teleport", "ghz", "--p", "0.5", "--phi=-inf"],
            ["noisy", "--kappa-t", "nan"],
            ["fig1", "--start=-inf", "--steps", "3"],
            ["fig4", "--stop", "nan", "--steps", "3"],
            ["noisy", "--start", "0", "--stop", "1e400", "--steps", "3"],
        ],
        ids=["p", "theta", "phi", "kappa-t", "start", "stop", "stop-overflow"],
    )
    def test_non_finite_float_flag(self, argv, capsys):
        code, out, err = run_expecting_exit(argv, capsys)
        assert_one_line_usage_error(code, out, err)
        assert "finite" in err

    def test_non_numeric_float_flag(self, capsys):
        code, out, err = run_expecting_exit(["teleport", "w", "--p", "half"], capsys)
        assert_one_line_usage_error(code, out, err)
        assert "not a number" in err

    @pytest.mark.parametrize(
        "argv",
        [["teleport", "bell", "--p", "0.5"], ["validate", "--format", "csv"]],
        ids=["scheme", "validate-format"],
    )
    def test_unknown_choice_is_one_line(self, argv, capsys):
        code, out, err = run_expecting_exit(argv, capsys)
        assert_one_line_usage_error(code, out, err)

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["teleport", "ghz", "--p", "0.5", "--theta", "-1e-3"], 0, None),
            (["teleport", "ghz", "--p", "0.5", "--phi", "-1E+2"], 0, None),
            (["teleport", "w", "--p", "-1e-3"], 2, "p must lie in [0, 1]"),
            (["noisy", "--kappa-t", "-2.5e-1"], 2, "kappa_t must be >= 0"),
            (["fig1", "--start", "-1e-3", "--steps", "3"], 2, "need 0 <= start < stop <= 1"),
            (["fig4", "--start", "0", "--stop", "-1e-3", "--steps", "3"], 2, "need 0 <= start < stop <= 1"),
            (["noisy", "--start", "-.5e1", "--stop", "1", "--steps", "3"], 2, "need 0 <= start < stop"),
        ],
        ids=["theta", "phi", "p", "kappa-t", "start", "stop", "noisy-start"],
    )
    def test_negative_exponent_after_a_space_is_a_value(self, argv, code, message, capsys):
        got, out, err = run_expecting_exit(argv, capsys)
        assert "expected one argument" not in err
        assert got == code
        if code == 0:
            flag = argv[-2].lstrip("-")
            assert json.loads(out)[flag] == float(argv[-1])
        else:
            assert_one_line_usage_error(got, out, err)
            assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["noisy", "--kappa-t", "-0"],
            ["noisy", "--kappa-t", "-0", "--format", "json"],
            ["teleport", "w", "--p", "-0.0"],
            ["teleport", "ghz", "--p", "0.5", "--phi=-0.0"],
        ],
        ids=["kappa-t-csv", "kappa-t-json", "p", "phi"],
    )
    def test_negative_zero_is_echoed_as_zero(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "-0.0" not in out

    def test_negative_exponent_with_equals_sign(self, capsys):
        code, out, _ = run_expecting_exit(["teleport", "ghz", "--p", "0.5", "--theta=-1e-3"], capsys)
        assert code == 0
        assert json.loads(out)["theta"] == -1e-3

    @pytest.mark.parametrize("flag", ["-x", "-e3", "-1e"])
    def test_unknown_dash_option_is_still_an_error(self, flag, capsys):
        code, out, err = run_expecting_exit(["teleport", "ghz", "--p", "0.5", flag], capsys)
        assert_one_line_usage_error(code, out, err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--steps", "100001"],
            ["fig4", "--steps", "100001"],
            ["noisy", "--steps", "100001"],
            ["measures", "state.json", "--roof-restarts", "1001"],
            pytest.param(["measures", "state.json", "--roof-restarts", "1000000000000"], id="measures--roof-restarts-1e12"),
            ["measures", "state.json", "--roof-max-iters", "10001"],
            pytest.param(["measures", "state.json", "--roof-max-iters=10001"], id="measures--roof-max-iters-inline"),
            ["measures", "state.json", "--roof-ensemble-size", "65"],
            pytest.param(["measures", "state.json", "--roof-ensemble-size=65"], id="measures--roof-ensemble-size-inline"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_size_flag_over_its_cap(self, argv, capsys):
        # Parsing alone: an over-cap value never reaches a command.
        code, out, err, _ = assert_parsers_agree(argv, capsys)
        assert_one_line_usage_error(code, out, err)
        assert "above the cap" in err

    @pytest.mark.parametrize("flag", ["--roof-restarts", "--roof-max-iters", "--roof-ensemble-size"])
    def test_search_flag_below_one_is_rejected_when_parsed(self, flag, capsys):
        # Parsing alone, as for the caps: the state file is never read.
        code, out, err, _ = assert_parsers_agree(["measures", "state.json", flag, "0"], capsys)
        assert (code, out, err) == (2, "", f"error: tritangle measures: argument {flag}: must be at least 1, got 0\n")

    def test_size_flags_at_their_caps_parse(self, capsys):
        assert assert_parsers_agree(["noisy", "--steps", "100000"], capsys)[3]["steps"] == 100000
        _, _, _, args = assert_parsers_agree(
            ["measures", "state.json", "--roof-restarts", "1000", "--roof-max-iters", "10000", "--roof-ensemble-size", "64"],
            capsys,
        )
        assert (args["roof_restarts"], args["roof_max_iters"], args["roof_ensemble_size"]) == (1000, 10000, 64)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--steps", "3"],
            ["fig4", "--steps", "3"],
            ["measures", "state.json"],
            ["teleport", "ghz", "--p", "0.3"],
            ["noisy", "--kappa-t", "0.4"],
            ["validate", "monogamy"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed(self, argv, capsys):
        # Parsing alone: a negative seed never reaches a command.
        code, out, err = run_expecting_exit(argv + ["--seed", "-1"], capsys)
        assert_one_line_usage_error(code, out, err)
        assert "argument --seed: must be at least 0, got -1" in err

    def test_size_flag_not_an_integer(self, capsys):
        code, out, err = run_expecting_exit(["fig1", "--steps", "1.5"], capsys)
        assert_one_line_usage_error(code, out, err)
        assert "not an integer" in err

    @pytest.mark.parametrize("command", ["fig1", "noisy", "measures"])
    def test_help_states_each_cap_and_its_reason(self, command, capsys):
        code, out, _, _ = assert_parsers_agree([command, "--help"], capsys)
        assert code == 0
        text = " ".join(out.split())
        if command != "measures":
            assert "at most 100000, each point is a full evaluation" in text
        if command == "measures":
            assert text.count("the search runs only on three-qubit mixed states of rank >= 3") == 3
            assert "seed of the decomposition search, which runs only on three-qubit mixed states of rank >= 3" in text
            assert "at most 1000, since every restart's seed is drawn" in text
            assert "at most 10000, far above" in text
            assert "at most 64: a rank-r roof needs at most r^2 members" in text
        if command == "noisy":
            assert "--roof-" not in text
            assert "three-party tangle, which is exactly 0 at every kappa*t" in text

    @pytest.mark.parametrize("command", ["fig1", "fig4", "measures", "teleport", "noisy", "validate"])
    def test_seed_help_says_what_uses_the_seed(self, command, capsys):
        code, out, _, _ = assert_parsers_agree([command, "--help"], capsys)
        assert code == 0
        text = " ".join(out.split())
        unused = "--seed SEED accepted as by every subcommand; the report draws no random numbers"
        assert (unused in text) == (command not in ("measures", "validate"))
        assert "RNG seed" not in text
        if command == "validate":
            assert "seed of the monogamy suite's random states and of the roof suite's searches" in text
        assert "(default 42) --out OUT" in text

    def test_missing_out_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        argv = ["fig1", "--steps", "3", "--out", str(target)]
        assert_parsers_agree(argv, capsys)
        code, out, err = run(argv, capsys)
        assert_one_line_usage_error(code, out, err)
        assert "cannot write output file" in err
        assert not target.exists()

    def test_out_path_is_a_directory(self, tmp_path, capsys):
        argv = ["teleport", "ghz", "--p", "0.5", "--out", str(tmp_path)]
        assert_parsers_agree(argv, capsys)
        code, out, err = run(argv, capsys)
        assert_one_line_usage_error(code, out, err)


class TestPerCommandParser:
    """main parses a named subcommand's arguments with that subcommand's own parser, built anew on each call."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--steps", "3", "--format", "json"],
            ["fig4", "--start", "0.2", "--stop", "0.4", "--steps", "3"],
            ["measures", "state.json", "--roof-restarts", "3", "--seed", "5"],
            ["teleport", "w", "--p", "0.3", "--theta", "1"],
            ["noisy", "--kappa-t", "0.5", "--out", "x.csv"],
            ["validate", "roof"],
            ["validate", "everything"],
            ["validate", "--format", "csv"],
        ]
        + [[command, "--help"] for command in ["fig1", "fig4", "measures", "teleport", "noisy", "validate"]],
        ids=lambda argv: " ".join(argv),
    )
    def test_subcommand_parser_matches_the_full_one(self, argv, capsys):
        code, out, err, ns = assert_parsers_agree(argv, capsys)
        if argv[-1] == "--help":
            assert (code, err, ns) == (0, "", None) and out.startswith(f"usage: tritangle {argv[0]} ")
        elif argv[-1] in ("everything", "csv"):
            assert code == 2 and ns is None
        else:
            assert (code, out, err) == (None, "", "")
            assert ns["command"] == argv[0] and ns["func"] is getattr(cli, f"cmd_{argv[0]}")

    def test_main_fills_only_the_invoked_subcommand(self, capsys, monkeypatch):
        filled = []

        def counted(name, fill):
            def wrapper(p):
                filled.append(name)
                fill(p)

            return wrapper

        commands = {name: (text, counted(name, fill)) for name, (text, fill) in cli._COMMANDS.items()}
        monkeypatch.setattr(cli, "_COMMANDS", commands)

        def filled_by(argv):
            filled.clear()
            with contextlib.suppress(SystemExit):
                cli.main(argv)
            capsys.readouterr()
            return filled

        assert filled_by(["teleport", "ghz", "--p", "1"]) == ["teleport"]
        assert filled_by(["noisy", "--kappa-t", "nan"]) == ["noisy"]
        for argv in (["-h"], [], ["bogus"], ["--seed", "3", "teleport", "ghz", "--p", "1"]):
            assert filled_by(argv) == list(commands)

    def test_unrecognized_argument_names_the_subcommand(self, capsys):
        code, out, err = run_expecting_exit(["noisy", "--roof-restarts", "1"], capsys)
        assert (code, out, err) == (2, "", "error: tritangle noisy: unrecognized arguments: --roof-restarts 1\n")

    def test_main_keeps_no_state_between_requests(self, capsys, monkeypatch):
        # Each request's output, run after the others in one process, is
        # byte-identical to that of a fresh interpreter running it alone.
        requests = [
            ["noisy", "--roof-restarts", "1"],
            ["teleport", "ghz", "--p", "0.3"],
            ["measures", "--help"],
            ["noisy", "--roof-restarts", "1"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(tritangle.__file__)), env.get("PYTHONPATH", "")])
        fresh = {}
        for argv in requests:
            if tuple(argv) not in fresh:
                result = subprocess.run(
                    [sys.executable, "-m", "tritangle", *argv], capture_output=True, text=True, env=env, timeout=60
                )
                fresh[tuple(argv)] = (result.returncode, result.stdout, result.stderr)
        for argv in requests:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            assert (code, *capsys.readouterr()) == fresh[tuple(argv)], argv

    @pytest.mark.parametrize("argv", [["-h"], [], ["bogus"]], ids=["help", "empty", "unknown"])
    def test_top_level_goes_through_the_full_parser(self, argv, capsys, monkeypatch):
        code, out, err, _ = parse_with(cli.build_parser(), argv, capsys)
        assert code == (0 if argv == ["-h"] else 2)
        if argv:
            for command in cli._COMMANDS:
                assert command in out + err
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert (exc.value.code, *capsys.readouterr()) == (code, out, err)
        monkeypatch.setattr(sys, "argv", ["tritangle", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


class TestValidate:
    def test_unitarity_suite_passes(self, capsys):
        code, out, _ = run(["validate", "unitarity"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert names == {"unitarity_ghz", "unitarity_w"}
        assert all(c["passed"] for c in payload["checks"])

    def test_fidelity_suite_passes(self, capsys):
        code, out, _ = run(["validate", "fidelity"], capsys)
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert names == [
            "fidelity_ghz_grid",
            "fidelity_w_grid",
            "avg_fidelity_entanglement",
        ]
        assert all(c["passed"] for c in payload["checks"])

    def test_roof_suite_checks_the_lp(self, capsys):
        code, out, _ = run(["validate", "roof"], capsys)
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        lp = checks["roof_rank2_lp"]
        assert lp["passed"] is True
        for label in ("p=0.3", "p=0.65", "p=0.7", "p=0.9", "two-qubit"):
            assert f"{label} " in lp["detail"]

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_failed_check_exits_1(self, to_file, tmp_path, capsys, monkeypatch):
        # The W check fails after the GHZ check passes: stderr names the first failing check.
        real = checks.unitarity_gap
        monkeypatch.setattr(checks, "unitarity_gap", lambda kind: 1.0 if kind is SchemeKind.W else real(kind))
        target = tmp_path / "report.json"
        argv = ["validate", "unitarity"] + (["--out", str(target)] if to_file else [])
        code, out, err = run(argv, capsys)
        assert code == 1
        assert err == "validation failed: unitarity_w\n"
        if to_file:
            assert out == ""
            out = target.read_text()
        payload = json.loads(out)
        assert payload["passed"] is False
        verdicts = [(c["name"], c["passed"]) for c in payload["checks"]]
        assert verdicts == [("unitarity_ghz", True), ("unitarity_w", False)]

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "everything"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(tritangle.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        # Nor does a fig4 request load numpy.polynomial: its averages are
        # read off the Choi states, with no quadrature rule to build.  fig1,
        # fig4 and teleport load none of the roof solvers, the validate
        # suites or the noisy channel, and the package still exports them.
        probe = (
            "import os, sys, tritangle.cli; "
            "tritangle.cli.main(['fig1', '--steps', '3', '--out', os.devnull]); "
            "tritangle.cli.main(['fig4', '--steps', '3', '--out', os.devnull]); "
            "tritangle.cli.main(['teleport', 'ghz', '--p', '0.3', '--out', os.devnull]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))); "
            "print(sorted(m for m in sys.modules if m in ('tritangle.convexroof', 'tritangle.checks', 'tritangle.noisychan'))); "
            "print(tritangle.roof_rank2.__module__)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60, check=True
        )
        assert result.stdout.split("\n") == ["[]", "[]", "tritangle.convexroof", ""]


    def test_measures_loads_the_roof_solvers_only_for_mixed_three_qubit_states(
        self, bell_file, werner_file, ghz_file, mixture_file
    ):
        src = os.path.dirname(os.path.dirname(tritangle.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        probe = (
            "import os, sys, tritangle.cli\n"
            "for path in sys.argv[1:]:\n"
            "    assert tritangle.cli.main(['measures', path, '--out', os.devnull]) == 0\n"
            "    print('tritangle.convexroof' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, bell_file, werner_file, ghz_file, mixture_file],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        )
        assert result.stdout.split() == ["False", "False", "False", "True"]


class TestSeedPlumbing:
    # The seed reaches the decomposition search, which `measures` runs on
    # three-qubit states of rank 3 and above (rank <= 2 is an LP).
    ARGS = ["measures", None, "--roof-restarts", "1", "--roof-max-iters", "20"]

    @pytest.fixture
    def rank3_file(self, tmp_path):
        path = tmp_path / "rank3.json"
        save_state_file(path, random_density_matrix(3, 3, np.random.default_rng(11)))
        return str(path)

    def _run_measures(self, state_file, extra, capsys):
        argv = [a if a is not None else state_file for a in self.ARGS] + extra
        code, out, _ = run(argv, capsys)
        assert code == 0
        return out

    def test_same_seed_same_bytes(self, rank3_file, capsys):
        a = self._run_measures(rank3_file, ["--seed", "7"], capsys)
        b = self._run_measures(rank3_file, ["--seed", "7"], capsys)
        assert a == b
        other = self._run_measures(rank3_file, ["--seed", "8"], capsys)
        assert other != a
        assert self._run_measures(rank3_file, [], capsys) == self._run_measures(rank3_file, ["--seed", "42"], capsys)
