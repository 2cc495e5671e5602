"""scripts/roof_audit.py: the exit code follows the criterion-7 band."""

import importlib.util
import pathlib
import types

import pytest

from tritangle.entanglement import three_tangle_ghzw

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "roof_audit.py"


def load_audit():
    spec = importlib.util.spec_from_file_location("roof_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "offset,code",
    [(-1e-3, 1), (-2e-6, 1), (6e-3, 1), (-5e-7, 0), (0.0, 0), (4e-3, 0)],
)
def test_exit_code_follows_the_band(offset, code, monkeypatch, capsys):
    # The search is replaced by a bound at a fixed offset from the closed form.
    audit = load_audit()
    monkeypatch.setattr(audit, "channel_mixture_state", lambda p: p)
    monkeypatch.setattr(
        audit,
        "minimize_roof",
        lambda p, measure, cfg: types.SimpleNamespace(upper_bound=float(three_tangle_ghzw(p)) + offset),
    )
    assert audit.main(["--points", "3"]) == code
    out = capsys.readouterr().out
    assert out.count("<-- out of band") == (3 if code else 0)
    assert f"{3 if code else 0} point(s) out of band" in out
