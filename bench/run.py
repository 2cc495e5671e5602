"""Benchmark of the tritangle CLI: one closed-loop caller, one workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's inputs from the seed, times the package start-up in
fresh interpreters, then drives ``tritangle.cli.main(argv)`` in a fresh
worker interpreter for whole input cycles until S seconds have passed.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays the
same operations once more with every library layer wrapped in spans and
reports the per-layer metrics.  The last line of standard output is the
result object; the line before it holds the run's details (environment,
input and output digests, failure reasons).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10
SAFETY_S = 25.0  # an operation in flight at the deadline, then checks and reporting


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _terminate(signum, frame):
    # Raising here lets subprocess.run kill and reap the running child.
    raise SystemExit(128 + signum)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRITANGLE_SEED", None)
    return env


def _run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    # subprocess.run kills the child on timeout and waits for it to end.
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=max(timeout, 1.0),
        env=_child_env(), check=True)


def _openblas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str):
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment(root: str, seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "seed": seed,
        "machine_note": "nothing is pinned at OS or cgroup level; on a shared machine, other tenants' load shows in the timings",
    }


def _inputs_digest(workdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _tail(lat: list[float]) -> dict:
    """Latency at the highest percentile with at least TAIL_BEYOND samples beyond it.

    Capped at p99: on a shared machine the last few samples of a long run
    are scheduler stalls.  Below 10 * TAIL_BEYOND samples the rule would
    pick a percentile under p90, which describes the body of the
    distribution, so such runs report p90, interpolated between samples.
    """
    xs = sorted(lat)
    n = len(xs)
    if n < 10 * TAIL_BEYOND:
        value = statistics.quantiles(xs, n=10, method="inclusive")[-1] if n > 1 else xs[0]
        return {"value": value, "percentile": 90.0, "samples": n, "beyond": n - 1 - math.floor(0.9 * (n - 1))}
    beyond = max(TAIL_BEYOND, n // 100)
    k = n - beyond - 1
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / n, "samples": n, "beyond": beyond}


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or ".s_per_restart" in name:
        return "s"
    return "count"


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run for the self-test: one operation of each kind (a cycle of cli-light), one probe")
    args = ap.parse_args()
    t_begin = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tritangle", "cli.py")):
        return _fail(f"no tritangle sources under {src}; run from the repository root")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        return _fail("--seconds must be positive and --seed non-negative")

    out_dir = os.path.join(root, ".bench_build", "tritangle-bench")
    workdir = os.path.join(out_dir, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        manifest = workloads.generate(args.workload, args.seed, workdir, cycles=1 if args.smoke else None)
        if args.smoke and args.workload != "cli-light":
            kinds = {}
            for op in manifest["ops"]:
                kinds.setdefault(op["kind"], op)
            manifest["ops"] = list(kinds.values())
            manifest["cycle_len"] = len(kinds)
        manifest_path = os.path.join(workdir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True)
        inputs_sha = _inputs_digest(workdir)

        def remaining() -> float:
            return TIME_LIMIT_S - (time.monotonic() - t_begin)

        probes = [
            json.loads(_run_child([os.path.join(BENCH_DIR, "probe.py"), src], remaining()).stdout)
            for _ in range(1 if args.smoke else SETUP_PROBES)
        ]

        def worker(tag: str, deadline: float, extra: list[str]) -> dict:
            path = os.path.join(workdir, f"result-{tag}.json")
            _run_child([os.path.join(BENCH_DIR, "worker.py"), manifest_path, src, path,
                        "--seconds", repr(args.seconds), "--deadline", repr(deadline), *extra],
                       remaining())
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)

        # Leave the traced replay as long as the untraced run, plus its overhead.
        plain = worker("plain", (remaining() - SAFETY_S) / (2.3 if args.trace else 1.0), [])
        traced = None
        if args.trace:
            # The replay stops at the deadline if it must; the comparison
            # then covers the operations it did replay.
            spans = os.path.join(out_dir, f"spans-{args.workload}-s{args.seed}.npz")
            traced = worker("traced", remaining() - SAFETY_S,
                            ["--ops", str(plain["attempted"]), "--spans", spans])
    except subprocess.TimeoutExpired:
        return _fail(f"run exceeded {TIME_LIMIT_S:.0f} s")
    except subprocess.CalledProcessError as exc:
        return _fail(f"child process failed with code {exc.returncode}:\n{exc.stderr[-2000:]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = plain["latencies_s"]
    tail = _tail(lat)
    outputs_sha = hashlib.sha256("".join(plain["digests"]).encode()).hexdigest()
    replayed = traced["attempted"] if traced else 0
    same_outputs = traced is None or traced["digests"] == plain["digests"][:replayed]
    details = {
        "workload": args.workload,
        "cycle_len": manifest["cycle_len"],
        "inputs_sha256": inputs_sha,
        "outputs_sha256": outputs_sha,
        "outputs_first_cycle_sha256": hashlib.sha256(
            "".join(plain["digests"][:manifest["cycle_len"]]).encode()).hexdigest(),
        "op_tail": tail,
        "latency_by_kind": plain["latency_by_kind"],
        "fail_reasons": plain["fail_reasons"],
        "wrong_answers": plain["wrong"],
        "setup_probes": probes,
        "environment": environment(root, args.seed),
        "loop": "closed, one caller, single process",
    }
    if traced is not None:
        details["traced_outputs_identical"] = same_outputs
        details["missing_hooks"] = traced["missing_hooks"]
        details["spans_file"] = os.path.relpath(spans, root)

    if args.trace:
        metrics = {
            f"setup.{k}": _metric(statistics.median(p[k] for p in probes), _layer_unit(k))
            for k in ("import_numpy_s", "import_tritangle_s", "build_parser_s", "modules_loaded")
        }
        metrics["cli.out_bytes"] = _metric(plain["out_bytes"], "bytes")
        for name, value in traced["layers"].items():
            metrics[name] = _metric(value, _layer_unit(name))
        metrics["trace.ops"] = _metric(traced["attempted"], "count")
        metrics["trace.overhead_ratio"] = _metric(
            sum(traced["latencies_s"]) / sum(lat[:replayed]) - 1.0, "ratio")
    else:
        metrics = {
            "ops_per_s": _metric(plain["attempted"] / plain["wall_s"], "1/s"),
            "op_p50_s": _metric(statistics.median(lat), "s"),
            "op_tail_s": _metric(tail["value"], "s"),
            "peak_rss_mb": _metric(plain["peak_rss_mb"], "MB"),
            "setup_s": _metric(statistics.median(p["setup_s"] for p in probes), "s"),
            "ok_ratio": _metric(1.0 - plain["failed"] / plain["attempted"], "ratio"),
        }
    result = {
        "correct": plain["wrong"] == 0 and same_outputs,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": metrics,
    }
    record = os.path.join(out_dir, f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
