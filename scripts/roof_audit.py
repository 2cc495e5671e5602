"""Audit the decomposition search and the rank-2 LP against the closed-form mixture tangle.

For each p on a grid (--points evenly spaced values from --start to --stop,
by default all of [0, 1]), runs the numerical convex-roof minimizer and
the rank-2 LP (`roof_rank2`, what `measures` reports on this rank-2
state) on the GHZ/W mixture, and prints both bounds' gaps to the
piecewise closed form.  Both only ever overshoot, so a gap should sit in
[0, ~5e-3]; a large positive gap means the method is stuck, a negative
one would mean the closed form is wrong.  Exits 1 when any gap, of the
search or of the LP, falls outside `tritangle.checks.MIXTURE_BAND`,
[-1e-6, 5e-3].
"""

import argparse
import time

import numpy as np

from tritangle import checks
from tritangle.convexroof import RoofConfig, minimize_roof, roof_rank2
from tritangle.entanglement import three_tangle_ghzw, three_tangle_pure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=11, help="p grid size (default 11)")
    parser.add_argument("--restarts", type=int, default=4, help="search restarts per point")
    parser.add_argument("--ensemble-size", type=int, default=4, help="decomposition size")
    parser.add_argument("--seed", type=int, default=42, help="search seed")
    parser.add_argument("--start", type=float, default=0.0, help="first p of the grid (default 0)")
    parser.add_argument("--stop", type=float, default=1.0, help="last p of the grid (default 1)")
    args = parser.parse_args(argv)
    if not (0.0 <= args.start <= args.stop <= 1.0):
        parser.error("need 0 <= start <= stop <= 1")
    if min(args.points, args.restarts, args.ensemble_size) < 1 or args.seed < 0:
        parser.error("need --points, --restarts and --ensemble-size >= 1 and --seed >= 0")

    cfg = RoofConfig(restarts=args.restarts, ensemble_size=args.ensemble_size, seed=args.seed)
    low, high = checks.MIXTURE_BAND
    print(
        f"{'p':>6}  {'closed':>12}  {'roof bound':>12}  {'gap':>10}  {'secs':>6}"
        f"  {'LP bound':>12}  {'LP gap':>10}  {'LP secs':>7}"
    )
    worst = {"search": 0.0, "LP": 0.0}
    outside = {"search": 0, "LP": 0}
    for p in np.linspace(args.start, args.stop, args.points):
        line = f"{p:6.3f}  {float(three_tangle_ghzw(float(p))):12.8f}"
        flags = []
        for name, solve, width in (
            ("search", lambda rho: minimize_roof(rho, three_tangle_pure, cfg), 6),
            ("LP", lambda rho: roof_rank2(rho, three_tangle_pure), 7),
        ):
            t0 = time.perf_counter()
            ((bound, gap),) = checks.mixture_gaps(solve, [float(p)])
            secs = time.perf_counter() - t0
            worst[name] = max(worst[name], abs(gap))
            if not low <= gap <= high:
                outside[name] += 1
                flags.append(name)
            line += f"  {bound:12.8f}  {gap:+10.2e}  {secs:{width}.2f}"
        if flags:
            line += f"  <-- {' and '.join(flags)} out of band"
        print(line)
    for name in worst:
        print(f"{name}: worst |gap| = {worst[name]:.2e}, {outside[name]} point(s) out of band")
    return 0 if not any(outside.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
