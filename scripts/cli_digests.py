"""Digest the CLI's stdout, stderr and exit code on a fixed list of commands, or record them.

Each command runs in-process through `tritangle.cli.main`, from inside a
temporary directory that holds state files written from fixed seeds, so
every argv names its state file by a relative path.  One line per command:

    <sha256 of stdout, 16 hex> <sha256 of stderr, 16 hex> <exit code> <argv>

Two checkouts print the same lines exactly when their CLI output is
byte-identical on these commands, so comparing them is one `diff`:

    PYTHONPATH=src python3 scripts/cli_digests.py > after.txt

With --write it records the parsed output of every command instead, with
the numpy version it ran on, in tests/golden/cli.json, the golden file that
tests/test_cli_digests.py compares the CLI against:

    PYTHONPATH=src python3 scripts/cli_digests.py --write
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys
import tempfile

import numpy as np

from tritangle import cli
from tritangle.entanglement import channel_mixture_state
from tritangle.qcore import DensityMatrix, PureState, ghz_state, random_density_matrix, random_pure_state, save_state_file

DIGEST_HEX = 16
GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli.json"


# The image of mix_0.3.json has its qubits in this order of the original's:
# (C, A, B).
IMAGE_ORDER = (2, 0, 1)


def _local_image(rho: DensityMatrix, rng: np.random.Generator) -> DensityMatrix:
    # U rho' U^dagger: rho with its qubits in IMAGE_ORDER, under a
    # Haar-random local unitary U = U_1 x U_2 x U_3.
    order = np.array(IMAGE_ORDER)
    m = rho.matrix.reshape((2,) * 6).transpose(np.concatenate((order, 3 + order))).reshape(8, 8)
    u = np.ones((1, 1))
    for _ in range(3):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    return DensityMatrix(3, u @ m @ u.conj().T)


def _states() -> dict:
    # State file name -> state; each random state has its own fixed seed.
    rng = np.random.default_rng
    return {
        "mix_0.3.json": channel_mixture_state(0.3),
        "mix_0.3_image.json": _local_image(channel_mixture_state(0.3), rng(6)),
        "mix_0.7.json": channel_mixture_state(0.7),
        "mix_0.9.json": channel_mixture_state(0.9),
        "rank2.json": random_density_matrix(3, 2, rng(1)),
        "rank3.json": random_density_matrix(3, 3, rng(2)),
        "pure3.json": random_pure_state(3, rng(3)),
        "ghz.json": ghz_state(),
        "ghz_rho.json": ghz_state().density(),
        "pure2.json": random_pure_state(2, rng(4)),
        "mixed2.json": random_density_matrix(2, 3, rng(5)),
        "bell.json": PureState.from_amplitudes([2**-0.5, 0, 0, 2**-0.5]),
    }


# Every command exits 0 except the three usage errors at the end, which exit 2.
COMMANDS = [
    ["fig1"],
    ["fig1", "--format", "json"],
    ["fig4"],
    ["fig4", "--format", "json"],
    ["fig4", "--steps", "11"],
    ["noisy"],
    ["noisy", "--format", "json"],
    ["noisy", "--kappa-t", "0.4"],
    ["noisy", "--kappa-t", "0.4", "--format", "json"],
    ["teleport", "ghz", "--p", "0.3"],
    ["teleport", "w", "--p", "0.3", "--format", "csv"],
    ["measures", "mix_0.3.json"],
    ["measures", "mix_0.3_image.json"],
    ["measures", "mix_0.7.json"],
    ["measures", "mix_0.9.json", "--format", "csv"],
    ["measures", "rank2.json"],
    ["measures", "rank3.json", "--seed", "7"],
    ["measures", "rank3.json"],
    ["measures", "pure3.json"],
    ["measures", "pure3.json", "--format", "csv"],
    ["measures", "ghz.json"],
    ["measures", "pure2.json"],
    ["measures", "mixed2.json"],
    ["measures", "bell.json"],
    ["measures", "ghz_rho.json"],
    ["validate", "all", "--seed", "42"],
    ["teleport", "ghz", "--p", "1.5"],
    ["fig1", "--steps", "1"],
    ["measures", "missing.json"],
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def run(argv: list) -> tuple:
    """stdout, stderr and exit code of one in-process CLI request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def outputs() -> list:
    """(argv, stdout, stderr, exit code) per command, run from a temporary directory of state files."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, state in _states().items():
            save_state_file(os.path.join(tmp, name), state)
        os.chdir(tmp)
        try:
            return [(argv, *run(argv)) for argv in COMMANDS]
        finally:
            os.chdir(home)


def digest_line(argv: list, out: str, err: str, code) -> str:
    return f"{_digest(out)} {_digest(err)} {code} {shlex.join(argv)}"


def _cell(text: str):
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return text


def parse_stdout(text: str):
    """stdout as data: None when empty, {"json": value}, or {"csv": {"header", "rows", "summary"}}.

    CSV cells that read as numbers become ints or floats, the rest ("true",
    "false") stay strings; a "# summary: " trailer line is parsed as JSON.
    """
    if not text:
        return None
    try:
        return {"json": json.loads(text)}
    except json.JSONDecodeError:
        pass
    header, *lines = text.splitlines()
    summary = None
    if lines and lines[-1].startswith("# summary: "):
        summary = json.loads(lines.pop()[len("# summary: "):])
    rows = [[_cell(c) for c in line.split(",")] for line in lines]
    return {"csv": {"header": header.split(","), "rows": rows, "summary": summary}}


def golden(results: list) -> dict:
    """The golden record of outputs(): the numpy version and each command's parsed output."""
    return {
        "numpy": np.__version__,
        "commands": [
            {"argv": argv, "exit": code, "stderr": err, "stdout": parse_stdout(out)}
            for argv, out, err, code in results
        ],
    }


def _dump(value, indent: str = "") -> str:
    # JSON with one line per list of scalars (a CSV row, an argv), so that a
    # changed value shows as one changed line.
    inner = indent + " "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(k)}: {_dump(v, inner)}" for k, v in value.items()]
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        items = [inner + _dump(v, inner) for v in value]
    else:
        return json.dumps(value)
    left, right = "{}" if isinstance(value, dict) else "[]"
    return left + "\n" + ",\n".join(items) + "\n" + indent + right


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"record the parsed outputs in {GOLDEN.name}")
    args = parser.parse_args(argv)
    results = outputs()
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(_dump(golden(results)) + "\n", encoding="utf-8")
        return 0
    for result in results:
        print(digest_line(*result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
