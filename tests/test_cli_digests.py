"""scripts/cli_digests.py: one digest line per command, with the expected exit codes."""

import importlib.util
import pathlib
import re

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.py"
USAGE_ERRORS = (
    ["teleport", "ghz", "--p", "1.5"],
    ["fig1", "--steps", "1"],
    ["measures", "missing.json"],
)


def load_digests():
    spec = importlib.util.spec_from_file_location("cli_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_command_with_the_expected_exit_code(tmp_path, monkeypatch, capsys):
    digests = load_digests()
    monkeypatch.chdir(tmp_path)
    assert digests.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(digests.COMMANDS) >= 27
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
    # The run leaves the working directory as it found it, and writes nothing there.
    assert pathlib.Path.cwd() == tmp_path and not any(tmp_path.iterdir())
