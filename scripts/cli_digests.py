"""Print a digest of the CLI's stdout, stderr and exit code on a fixed list of commands.

Each command runs in-process through `tritangle.cli.main`, from inside a
temporary directory that holds state files written from fixed seeds, so
every argv names its state file by a relative path.  One line per command:

    <sha256 of stdout, 16 hex> <sha256 of stderr, 16 hex> <exit code> <argv>

Two checkouts print the same lines exactly when their CLI output is
byte-identical on these commands, so comparing them is one `diff`:

    PYTHONPATH=src python3 scripts/cli_digests.py > after.txt
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile

import numpy as np

from tritangle import cli
from tritangle.entanglement import channel_mixture_state
from tritangle.qcore import PureState, ghz_state, random_density_matrix, random_pure_state, save_state_file

DIGEST_HEX = 16


def _states() -> dict:
    # State file name -> state; each random state has its own fixed seed.
    rng = np.random.default_rng
    return {
        "mix_0.3.json": channel_mixture_state(0.3),
        "mix_0.7.json": channel_mixture_state(0.7),
        "mix_0.9.json": channel_mixture_state(0.9),
        "rank2.json": random_density_matrix(3, 2, rng(1)),
        "rank3.json": random_density_matrix(3, 3, rng(2)),
        "pure3.json": random_pure_state(3, rng(3)),
        "ghz.json": ghz_state(),
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


def digest_lines() -> list:
    """One digest line per command, run from a temporary directory of state files."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, state in _states().items():
            save_state_file(os.path.join(tmp, name), state)
        os.chdir(tmp)
        try:
            lines = []
            for argv in COMMANDS:
                out, err, code = run(argv)
                lines.append(f"{_digest(out)} {_digest(err)} {code} {shlex.join(argv)}")
        finally:
            os.chdir(home)
    return lines


def main() -> int:
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
