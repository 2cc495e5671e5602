"""scripts/cli_digests.py: one digest line per command, and the CLI against its golden outputs."""

import importlib.util
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest

from tritangle.convexroof import _LP_DEPTH

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"
USAGE_ERRORS = (
    ["teleport", "ghz", "--p", "1.5"],
    ["fig1", "--steps", "1"],
    ["measures", "missing.json"],
)

# On a numpy other than the recorded one, floats (and the numbers inside
# strings) are compared within this tolerance instead of bit for bit.
# Another numpy may bring another LAPACK and summation order: the closed
# forms, the average fidelities and the LP move by a few ulps, the maxima
# over 1000 random states by a few more, and a 12-decimal CSV cell can
# flip its last printed digit (1e-12).
OTHER_NUMPY_TOL = {"rel_tol": 1e-9, "abs_tol": 1e-11}

# The seeded decomposition search is not smooth in its inputs: a last-bit
# change can send a restart to another basin.  So on another numpy its
# outputs get only the oracle checks: the tangle bound of the rank-3
# `measures` lines lies in [0, 1] and its flag is a bool, and the detail of
# validate's search checks is not compared (their `passed` still is).
SEARCH_FIELDS = ("tangle_upper_bound", "tangle_bound_converged")
SEARCH_CHECKS = ("roof_bell", "roof_werner", "roof_mixture_zero_region")
_NUMBER = re.compile(r"[-+]?\d+\.\d+(?:e[-+]?\d+)?")


def load_digests():
    spec = importlib.util.spec_from_file_location("cli_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digests():
    return load_digests()


@pytest.fixture(scope="module")
def results(digests, tmp_path_factory):
    # One run of every command, shared by the tests below.
    home = pathlib.Path.cwd()
    empty = tmp_path_factory.mktemp("cwd")
    os.chdir(empty)
    try:
        out = digests.outputs()
        # The run leaves the working directory as it found it, and writes nothing there.
        assert pathlib.Path.cwd() == empty and not any(empty.iterdir())
    finally:
        os.chdir(home)
    return out


def test_one_line_per_command_with_the_expected_exit_code(digests, results):
    lines = [digests.digest_line(*result) for result in results]
    assert len(lines) == len(digests.COMMANDS) >= 28
    empty = digests._digest("")
    for line, argv in zip(lines, digests.COMMANDS):
        match = re.fullmatch(r"([0-9a-f]{16}) ([0-9a-f]{16}) (\d+) (.+)", line)
        assert match, line
        out, err, code, shown = match.groups()
        assert shown.split() == argv
        if argv in USAGE_ERRORS:
            assert (out, code) == (empty, "2") and err != empty
        else:
            assert (err, code) == (empty, "0") and out != empty


TANGLE_KEYS = ["tangle_upper_bound", "tangle_bound_converged", "tangle_exact"]


def test_measures_and_noisy_print_one_tangle_shape(results):
    # Every three-qubit mixed `measures` output and every `noisy` JSON row
    # ends in the same three tangle keys; only a rank-1 state is exact.
    exact = {}
    for argv, out, _, _ in results:
        if argv[0] == "noisy" and "json" in argv:
            rows = json.loads(out)["rows"]
            assert rows and all(list(row)[-3:] == TANGLE_KEYS and row["tangle_exact"] is True for row in rows)
        if argv[0] == "measures" and "--format" not in argv and out:
            payload = json.loads(out)
            if payload["num_qubits"] == 3 and not payload["pure"]:
                assert list(payload)[-3:] == TANGLE_KEYS, argv
                exact[argv[1]] = payload["tangle_exact"]
    assert exact == {
        "mix_0.3.json": False,
        "mix_0.3_image.json": False,
        "mix_0.7.json": False,
        "rank2.json": False,
        "rank3.json": False,
        "ghz_rho.json": True,
    }


def test_mixture_image_keeps_the_mixture_relations(digests, results):
    # The qubit-permuted local image of mix_0.3.json: its tangle is the
    # mixture's, zero below P0, and its pairwise concurrences are the
    # original's, relabelled by the permutation.
    outs = {tuple(argv): out for argv, out, _, _ in results}
    original, image = (json.loads(outs["measures", name]) for name in ("mix_0.3.json", "mix_0.3_image.json"))
    assert 0.0 <= image["tangle_upper_bound"] <= _LP_DEPTH
    key = {(0, 1): "concurrence_ab", (0, 2): "concurrence_ac", (1, 2): "concurrence_bc"}
    order = digests.IMAGE_ORDER
    for (i, j), name in key.items():
        was = key[tuple(sorted((order[i], order[j])))]
        assert abs(image[name] - original[was]) <= 1e-12, (name, was)


def mismatches(got, want, tol=None, where="") -> list:
    """Where got differs from want: types, keys and their order, lengths and strings
    exactly; floats by float.hex, or within tol (math.isclose arguments) when given,
    which then also applies to the numbers inside strings."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{where}: keys {list(got)} != {list(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], tol, f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, tol, f"{where}[{i}]")]
    if isinstance(want, float):
        same = got.hex() == want.hex() if tol is None else math.isclose(got, want, **tol)
    elif isinstance(want, str) and tol is not None:
        same = _NUMBER.split(got) == _NUMBER.split(want) and all(
            math.isclose(float(g), float(w), **tol) for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want))
        )
    else:
        same = got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


def search_free(record: dict) -> dict:
    """A copy of a golden record with the seeded search's outputs checked against
    their oracles and then blanked, for the comparison on another numpy."""
    record = json.loads(json.dumps(record))
    for command in record["commands"]:
        stdout = command["stdout"] or {}
        if "rank3.json" in command["argv"]:
            payload = stdout["json"]
            assert 0.0 <= payload["tangle_upper_bound"] <= 1.0, command["argv"]
            assert isinstance(payload["tangle_bound_converged"], bool), command["argv"]
            for key in SEARCH_FIELDS:
                payload[key] = None
        if command["argv"][0] == "validate":
            for check in stdout["json"]["checks"]:
                if check["name"] in SEARCH_CHECKS:
                    check["detail"] = None
    return record


def test_outputs_match_the_golden_file(digests, results):
    want = json.loads(digests.GOLDEN.read_text(encoding="utf-8"))
    got = digests.golden(results)
    assert got["commands"] and [c["argv"] for c in got["commands"]] == [c["argv"] for c in want["commands"]]
    tolerant = mismatches(search_free(got)["commands"], search_free(want)["commands"], OTHER_NUMPY_TOL)
    if np.__version__ == want["numpy"]:
        assert mismatches(got["commands"], want["commands"]) == []
        # What another numpy checks holds too wherever the exact comparison does.
        assert tolerant == []
    else:
        assert tolerant == []


def test_the_comparison_sees_one_changed_digit():
    want = {"rows": [{"p": 0.1, "ok": True, "n": 3}], "detail": "gap +6.398e-11"}
    assert mismatches(want, json.loads(json.dumps(want))) == []
    last_bit = {"rows": [{"p": math.nextafter(0.1, 1.0), "ok": True, "n": 3}], "detail": "gap +6.398e-11"}
    assert mismatches(last_bit, want) == [".rows[0].p: 0.10000000000000002 != 0.1"]
    assert mismatches(last_bit, want, OTHER_NUMPY_TOL) == []
    digit = {"rows": [{"p": 0.1000001, "ok": True, "n": 3}], "detail": "gap +6.398e-11"}
    assert len(mismatches(digit, want, OTHER_NUMPY_TOL)) == 1
    assert mismatches({"rows": [{"ok": True, "p": 0.1, "n": 3}], "detail": want["detail"]}, want)
    assert mismatches({"rows": [{"p": 0.1, "ok": 1, "n": 3}], "detail": want["detail"]}, want)
    assert mismatches({**want, "detail": "gap +6.398e-11 "}, want, OTHER_NUMPY_TOL)
    assert mismatches({**want, "detail": "gap +6.3981e-11"}, want) != []


def test_csv_output_is_parsed_by_column(digests):
    parsed = digests.parse_stdout("p,ok\n0.500000000000,true\n# summary: {\"p0\": 0.5}\n")
    assert parsed == {"csv": {"header": ["p", "ok"], "rows": [[0.5, "true"]], "summary": {"p0": 0.5}}}
    assert digests.parse_stdout("") is None
    assert digests.parse_stdout('{"a": 1}\n') == {"json": {"a": 1}}
