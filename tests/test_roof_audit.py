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


def test_grid_spans_start_to_stop(monkeypatch, capsys):
    audit = load_audit()
    seen = []
    monkeypatch.setattr(audit, "channel_mixture_state", lambda p: p)

    def bound(p, measure, cfg):
        seen.append(p)
        return types.SimpleNamespace(upper_bound=float(three_tangle_ghzw(p)))

    monkeypatch.setattr(audit, "minimize_roof", bound)
    assert audit.main(["--points", "5", "--start", "0.02", "--stop", "0.3"]) == 0
    assert seen == pytest.approx([0.02, 0.09, 0.16, 0.23, 0.3], abs=1e-15)
    assert "0 point(s) out of band" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        audit.main(["--start", "0.5", "--stop", "0.4"])
    assert exc.value.code == 2
