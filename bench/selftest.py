"""Fast self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

1. Tracing keeps the roof kernels: every namespace sees a wrapped
   ``three_tangle_pure`` that still carries ``roof_contrib`` and
   ``roof_contrib_dim``, ``minimize_roof`` takes the fast path through the
   traced kernel, and uninstalling restores every original.
2. A deliberately corrupted output fails its check, for every request
   kind that has an expected value.
3. Smoke runs: every workload once untraced and once traced at tiny
   sizes, with metric names and units exactly those of BENCHMARK.json.
4. Without the sources next to it the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import workloads
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def check_wrappers() -> None:
    sys.path.insert(0, SRC)
    import tritangle
    import tritangle.cli as cli
    import tritangle.entanglement as ent
    import tritangle.noisychan as noisy
    from tritangle.convexroof import RoofConfig
    from tritangle.qcore import PureState

    orig, orig_kernel = ent.three_tangle_pure, ent.three_tangle_pure.roof_contrib
    tracer = Tracer()
    missing = tracer.install()
    try:
        assert not missing, f"hooks not found: {missing}"
        for ns in (tritangle, cli, ent, noisy):
            f = ns.three_tangle_pure
            assert f is not orig, f"{ns.__name__}.three_tangle_pure not wrapped"
            assert f.roof_contrib is not orig_kernel, f"{ns.__name__}: roof_contrib not traced"
            assert f.roof_contrib_dim == 8, f"{ns.__name__}: roof_contrib_dim lost"
        assert cli.concurrence_pure2.roof_contrib_dim == 4
        bell = PureState.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)]).density()
        res = cli.minimize_roof(bell, cli.concurrence_pure2, RoofConfig(restarts=1, max_iters=2))
        assert abs(res.upper_bound - 1.0) < 1e-6
        m = tracer.layer_metrics({})
        assert m["entanglement.roof_kernel.calls"] > 0, "minimize_roof bypassed the traced kernel"
        calls = tracer.totals()["entanglement.concurrence_pure2"]["calls"]
        assert calls <= res.best_ensemble.size, f"generic path taken: {calls} measure calls"
    finally:
        tracer.uninstall()
    assert ent.three_tangle_pure is orig and cli.three_tangle_pure is orig and noisy.three_tangle_pure is orig
    assert cli.main.__module__ == "tritangle.cli" and not hasattr(cli.main, "__wrapped__")
    print("ok   tracing keeps roof_contrib and the fast path, and uninstalls cleanly")


def _corrupt(text: str) -> str:
    return re.sub(r"-?\d+\.\d+(?:e-?\d+)?", lambda m: repr(float(m.group()) + 1e-3), text)


def check_corruption() -> None:
    import contextlib
    import io

    import tritangle.cli as cli

    lib = workloads.closed_forms()
    workdir = os.path.join(ROOT, ".bench_build", "tritangle-bench", f"selftest-{os.getpid()}")
    seen = set()
    try:
        for name in workloads.WORKLOADS:
            os.makedirs(os.path.join(workdir, name))
            os.chdir(os.path.join(workdir, name))
            for op in workloads.generate(name, 7, ".", cycles=1)["ops"]:
                if op["kind"] in seen or op["kind"] == "roof_random":
                    continue  # a random rank-2 state has only range checks
                seen.add(op["kind"])
                if op["kind"] == "malformed":
                    assert workloads.check(op, 0, "{}", "", None, lib) is not None, "exit 0 on malformed input passed"
                    continue
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(op["argv"])
                failure = workloads.check(op, code, out.getvalue(), err.getvalue(), None, lib)
                assert failure is None, f"{op['kind']}: genuine output rejected: {failure}"
                bad = workloads.check(op, code, _corrupt(out.getvalue()), err.getvalue(), None, lib)
                assert bad is not None and bad[1], f"{op['kind']}: corrupted output passed: {bad}"
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"ok   corrupted outputs fail for: {', '.join(sorted(seen))}")


def _run_smoke(workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.01", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)


def check_smoke() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = _run_smoke(w["name"], trace)
            assert proc.returncode == 0, f"{w['name']} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result, details = json.loads(lines[-1]), json.loads(lines[-2])["details"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], f"{w['name']}: incorrect output: {details['fail_reasons']}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want[trace], f"{w['name']} trace={trace}: metrics differ from BENCHMARK.json"
            if w["name"] != "cli-light":
                assert result["failed"] == 0, f"{w['name']}: {details['fail_reasons']}"
            if trace:
                assert details["traced_outputs_identical"] and not details["missing_hooks"]
            print(f"ok   smoke {w['name']} trace={trace}: {result['attempted']} ops, {result['failed']} failed")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".bench_build", "tritangle-bench", f"bare-{os.getpid()}")
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-light", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the sources"
    print(f"ok   without sources: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    check_wrappers()
    check_corruption()
    check_smoke()
    check_bare_directory()
    print("selftest passed")
