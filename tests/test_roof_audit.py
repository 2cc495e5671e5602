"""scripts/roof_audit.py: the exit code follows the criterion-7 band, for the search and the LP."""

import importlib.util
import pathlib
import types

import pytest

from tritangle import checks
from tritangle.entanglement import three_tangle_ghzw

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "roof_audit.py"


def load_audit():
    spec = importlib.util.spec_from_file_location("roof_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched(monkeypatch, search_offset=0.0, lp_offset=0.0, seen=None):
    # Both methods are replaced by bounds at fixed offsets from the closed form.
    # The mixture is built where the gap is measured, in tritangle.checks.
    audit = load_audit()
    monkeypatch.setattr(checks, "channel_mixture_state", lambda p: p)

    def search(p, measure, cfg):
        if seen is not None:
            seen.append(p)
        return types.SimpleNamespace(upper_bound=float(three_tangle_ghzw(p)) + search_offset)

    monkeypatch.setattr(audit, "minimize_roof", search)
    monkeypatch.setattr(
        audit,
        "roof_rank2",
        lambda p, measure: types.SimpleNamespace(upper_bound=float(three_tangle_ghzw(p)) + lp_offset),
    )
    return audit


@pytest.mark.parametrize(
    "offset,code",
    [(-1e-3, 1), (-2e-6, 1), (6e-3, 1), (-5e-7, 0), (0.0, 0), (4e-3, 0)],
)
def test_exit_code_follows_the_band(offset, code, monkeypatch, capsys):
    audit = patched(monkeypatch, search_offset=offset)
    assert audit.main(["--points", "3"]) == code
    out = capsys.readouterr().out
    assert out.count("<-- search out of band") == (3 if code else 0)
    assert f"search: worst |gap| = {abs(offset):.2e}, {3 if code else 0} point(s) out of band" in out
    assert "LP: worst |gap| = 0.00e+00, 0 point(s) out of band" in out


@pytest.mark.parametrize(
    "offset,code",
    [(-1e-3, 1), (-2e-6, 1), (6e-3, 1), (-5e-7, 0), (0.0, 0), (4e-3, 0)],
)
def test_lp_out_of_band_fails_the_audit(offset, code, monkeypatch, capsys):
    audit = patched(monkeypatch, lp_offset=offset)
    assert audit.main(["--points", "3"]) == code
    out = capsys.readouterr().out
    assert out.count("<-- LP out of band") == (3 if code else 0)
    assert "search: worst |gap| = 0.00e+00, 0 point(s) out of band" in out
    assert f"LP: worst |gap| = {abs(offset):.2e}, {3 if code else 0} point(s) out of band" in out


def test_both_out_of_band_are_named(monkeypatch, capsys):
    audit = patched(monkeypatch, search_offset=6e-3, lp_offset=-1e-3)
    assert audit.main(["--points", "2"]) == 1
    assert capsys.readouterr().out.count("<-- search and LP out of band") == 2


def test_grid_spans_start_to_stop(monkeypatch, capsys):
    seen = []
    audit = patched(monkeypatch, seen=seen)
    assert audit.main(["--points", "5", "--start", "0.02", "--stop", "0.3"]) == 0
    assert seen == pytest.approx([0.02, 0.09, 0.16, 0.23, 0.3], abs=1e-15)
    out = capsys.readouterr().out
    assert "search: worst |gap| = 0.00e+00, 0 point(s) out of band" in out
    assert "LP: worst |gap| = 0.00e+00, 0 point(s) out of band" in out
    for argv in (["--start", "0.5", "--stop", "0.4"], ["--points", "-1"], ["--points", "0"],
                 ["--restarts", "0"], ["--ensemble-size", "0"], ["--seed", "-1"]):
        with pytest.raises(SystemExit) as exc:
            audit.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: " in err.splitlines()[-1]
