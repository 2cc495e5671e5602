"""Audit the decomposition search against the closed-form mixture tangle.

For each p on a grid, runs the numerical convex-roof minimizer on the
GHZ/W mixture and prints the bound next to the piecewise closed form.
The search only ever overshoots, so `gap` should sit in [0, ~5e-3]; a
large positive gap means the optimizer is stuck, a negative one would
mean the closed form is wrong.  Exits 1 when any point falls outside
[-1e-6, 5e-3].
"""

import argparse
import time

import numpy as np

from tritangle.convexroof import RoofConfig, minimize_roof
from tritangle.entanglement import channel_mixture_state, three_tangle_ghzw, three_tangle_pure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=11, help="p grid size (default 11)")
    parser.add_argument("--restarts", type=int, default=4, help="search restarts per point")
    parser.add_argument("--ensemble-size", type=int, default=4, help="decomposition size")
    parser.add_argument("--seed", type=int, default=42, help="search seed")
    args = parser.parse_args(argv)

    cfg = RoofConfig(
        restarts=args.restarts, ensemble_size=args.ensemble_size, seed=args.seed
    )
    print(f"{'p':>6}  {'closed':>12}  {'roof bound':>12}  {'gap':>10}  {'secs':>6}")
    worst = 0.0
    outside = 0
    for p in np.linspace(0.0, 1.0, args.points):
        closed = float(three_tangle_ghzw(float(p)))
        t0 = time.perf_counter()
        res = minimize_roof(channel_mixture_state(float(p)), three_tangle_pure, cfg)
        secs = time.perf_counter() - t0
        gap = res.upper_bound - closed
        worst = max(worst, abs(gap))
        in_band = -1e-6 <= gap <= 5e-3
        outside += not in_band
        flag = "" if in_band else "  <-- out of band"
        print(f"{p:6.3f}  {closed:12.8f}  {res.upper_bound:12.8f}  {gap:+10.2e}  {secs:6.2f}{flag}")
    print(f"worst |gap| = {worst:.2e}, {outside} point(s) out of band")
    return 0 if outside == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
