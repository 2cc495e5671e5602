"""Run one workload's operations through ``tritangle.cli.main`` and report.

Usage: worker.py MANIFEST SRC RESULT --seconds S --deadline D [--ops N] [--spans PATH]

Runs in its own interpreter, in the manifest's directory, as one
closed-loop caller: each operation starts when the previous one returned.
Without ``--ops`` it runs whole cycles of the manifest until ``S`` seconds
have passed; with it, the first N operations.  Either way no operation
starts after ``D`` seconds.  With ``--spans`` every public function of the
library is traced and the spans are saved to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter

import workloads


def _run(ops, cycle_len, seconds, deadline, n_ops, main, tracer):
    lat, records = [], []
    clock = time.perf_counter
    t_start = clock()
    i = 0
    while True:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        crash = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an operation failure, not a harness error
            code, crash = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        lat.append(t1 - t0)
        records.append((code, out.getvalue(), err.getvalue(), crash))
        i += 1
        elapsed = t1 - t_start
        if elapsed >= deadline or i == n_ops:
            break
        if n_ops is None and i % cycle_len == 0 and elapsed >= seconds:
            break
    return lat, records, clock() - t_start


def _digest(code, stdout, stderr, crash) -> str:
    h = hashlib.sha256()
    for part in (str(code), stdout, stderr, str(crash)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("manifest")
    ap.add_argument("src")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    os.chdir(os.path.dirname(os.path.abspath(args.manifest)))
    sys.path.insert(0, os.path.abspath(args.src))
    os.environ.pop("TRITANGLE_SEED", None)

    import tritangle.cli

    lib = workloads.closed_forms()
    tracer, missing = None, []
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()

    ops = manifest["ops"]
    lat, records, wall = _run(
        ops, manifest["cycle_len"], args.seconds, args.deadline, args.ops, tritangle.cli.main, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = {}
    if tracer is not None:
        tracer.uninstall()
        # The roof search runs at rank 2 under `measures` and at rank 8 under `noisy`.
        groups = {cmd: {i for i in range(len(records)) if ops[i % len(ops)]["argv"][0] == cmd}
                  for cmd in ("measures", "noisy")}
        layers = tracer.layer_metrics(groups)
        import numpy as np

        np.savez_compressed(args.spans, **tracer.arrays())

    digests = [_digest(*r) for r in records]
    first_pass = []
    reasons: Counter = Counter()
    wrong = 0
    for i, rec in enumerate(records):
        op = ops[i % len(ops)]
        if i < len(ops):
            failure = workloads.check(op, *rec, lib)
            first_pass.append(failure)
        elif digests[i] != digests[i % len(ops)]:
            failure = ("output differs from an earlier run of the same input", True)
        else:
            failure = first_pass[i % len(ops)]
        if failure is not None:
            reasons[f"{op['kind']}: {failure[0]}"[:300]] += 1
            wrong += failure[1]

    by_kind: dict = {}
    for i, t in enumerate(lat):
        op = ops[i % len(ops)]
        entry = by_kind.setdefault(op.get("branch", op["kind"]), [0, 0.0])
        entry[0] += 1
        entry[1] += t

    result = {
        "attempted": len(records),
        "latency_by_kind": {k: {"ops": n, "total_s": t} for k, (n, t) in sorted(by_kind.items())},
        "failed": sum(reasons.values()),
        "wrong": wrong,
        "fail_reasons": dict(reasons.most_common(20)),
        "wall_s": wall,
        "latencies_s": lat,
        "digests": digests,
        "out_bytes": sum(len(r[1].encode()) for r in records),
        "peak_rss_mb": peak_rss_mb,
        "missing_hooks": missing,
        "layers": layers,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
