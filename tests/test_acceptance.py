"""Acceptance gate: the nine headline results, each at its stated tolerance.

Every test records a verdict line first (echoed in the terminal summary by
conftest) and only then asserts, so a red criterion still reports itself.
"""

import math
import time

import numpy as np

from tritangle import checks
from tritangle.convexroof import RoofConfig, minimize_roof, optimal_ghzw_ensemble
from tritangle.entanglement import (
    GhzwMixtureParams,
    c_abc_mixture,
    channel_mixture_state,
    concurrence_pure2,
    three_tangle_pure,
)
from tritangle.noisychan import epsilon_x_w
from tritangle.qcore import random_density_matrix, w_state
from tritangle.teleport import (
    SchemeKind,
    avg_fidelity,
    critical_values,
    scheme_unitary,
    teleport_output,
)

ACCEPT_SEED = 20240817


def test_criterion_1_mixture_constants(record_acceptance):
    t0 = time.perf_counter()
    g = GhzwMixtureParams.standard()
    elapsed = time.perf_counter() - t0
    ok = (
        abs(g.p0 - 0.6137) <= 5e-4
        and abs(g.p1 - 0.7236) <= 5e-4
        and abs(g.t1 - 0.2764) <= 5e-4
        and g.s == 2.0
        and elapsed < 1.0
    )
    record_acceptance(
        1,
        "mixture constants",
        ok,
        f"p0={g.p0:.6f} p1={g.p1:.6f} t1={g.t1:.6f} s={g.s} [{elapsed:.2f}s]",
    )
    assert abs(g.p0 - 0.6137) <= 5e-4
    assert abs(g.p1 - 0.7236) <= 5e-4
    assert abs(g.t1 - 0.2764) <= 5e-4
    assert g.s == 2.0
    assert elapsed < 1.0


def test_criterion_2_critical_fidelities(record_acceptance):
    t0 = time.perf_counter()
    cv = critical_values()
    elapsed = time.perf_counter() - t0
    ok = (
        abs(cv.f_ghz - 0.774549) <= 1e-6
        and abs(cv.f_w - 0.833333) <= 1e-6
        and abs(cv.p_star - 7.0 / 13.0) <= 1e-9
        and elapsed < 1.0
    )
    record_acceptance(
        2,
        "critical fidelities",
        ok,
        f"f_ghz={cv.f_ghz:.6f} f_w={cv.f_w:.6f} p*={cv.p_star:.9f} [{elapsed:.2f}s]",
    )
    assert abs(cv.f_ghz - 0.774549) <= 1e-6
    assert abs(cv.f_w - 0.833333) <= 1e-6
    assert abs(cv.p_star - 7.0 / 13.0) <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_fidelity_closed_forms(record_acceptance):
    t0 = time.perf_counter()
    worst_point = max(checks.fidelity_grid_gap(kind) for kind in SchemeKind)
    worst_avg = checks.average_fidelity_gap(avg_fidelity)
    elapsed = time.perf_counter() - t0
    ok = worst_point <= 1e-10 and worst_avg <= 1e-9 and elapsed < 30.0
    record_acceptance(
        3,
        "fidelity closed forms",
        ok,
        f"grid max dev {worst_point:.2e}, quadrature max dev {worst_avg:.2e} [{elapsed:.1f}s]",
    )
    assert worst_point <= 1e-10
    assert worst_avg <= 1e-9
    assert elapsed < 30.0


def test_criterion_4_perfect_endpoints(record_acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    ghz = scheme_unitary(SchemeKind.GHZ)
    w = scheme_unitary(SchemeKind.W)
    worst = 0.0
    for _ in range(20):
        theta = math.acos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        worst = max(worst, abs(teleport_output(ghz, theta, phi, 1.0).fidelity - 1.0))
        worst = max(worst, abs(teleport_output(w, theta, phi, 0.0).fidelity - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    record_acceptance(
        4,
        "perfect endpoints",
        ok,
        f"max |F - 1| = {worst:.2e} over 20 random inputs [{elapsed:.2f}s]",
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_5_mixture_sweep(record_acceptance):
    t0 = time.perf_counter()
    g = GhzwMixtureParams.standard()
    end_dev = max(
        abs(c_abc_mixture(0.0) - 1.0), abs(c_abc_mixture(1.0) - 1.0)
    )
    window = np.linspace(1.0 / 3.0 + 1e-6, g.p0 - 1e-6, 101)
    window_max = max(c_abc_mixture(p) for p in window)
    # c_abc is continuous but has square-root points, where its slope is
    # unbounded: at p = 0, c_abc = 1 - p - sqrt(p (1 + p)) falls as sqrt(p),
    # and at p = p0, c_abc = sqrt(tau3) rises as sqrt(tau3'(p0+) (p - p0)).
    # A step there on a grid of spacing h is ~sqrt(h) times a constant, so no
    # fixed step bound holds at every resolution (a 201-point grid steps
    # 0.076 at p = 0).  Bound every step by K sqrt(h) instead: K is the larger
    # of the two square-root coefficients (1 at p = 0, sqrt(tau3'(p0+)) at
    # p0) with a 10% margin for higher-order terms.  At 12801 points K sqrt(h)
    # is below 0.015, so any jump larger than that fails.
    p0 = g.p0
    tau_slope = g.tau3_ghz * (
        2.0 * p0 + g.s * (4.0 * p0 - 1.0) * math.sqrt(1.0 - p0) / (2.0 * math.sqrt(p0))
    )
    k_bound = 1.1 * max(1.0, math.sqrt(tau_slope))
    sizes = (201, 801, 3201, 12801)
    ratios = []
    for n in sizes:
        grid = np.linspace(0.0, 1.0, n)
        curve = np.array([c_abc_mixture(p) for p in grid])
        ratios.append(float(np.abs(np.diff(curve)).max()) / math.sqrt(grid[1]))
    # Grid-independent: no jump at a break point, whatever the grid alignment.
    eps = 1e-10
    break_gap = max(
        abs(c_abc_mixture(b + eps) - c_abc_mixture(b - eps))
        for b in (1.0 / 3.0, g.p0, g.p1)
    )
    break_limit = k_bound * math.sqrt(2.0 * eps)
    elapsed = time.perf_counter() - t0
    ok = (
        end_dev <= 1e-12
        and window_max == 0.0
        and max(ratios) <= k_bound
        and break_gap <= break_limit
        and elapsed < 5.0
    )
    record_acceptance(
        5,
        "mixture sweep",
        ok,
        f"endpoints dev {end_dev:.1e}, dead window max {window_max:.1e}, "
        f"max step/sqrt(h) {', '.join(f'{r:.3f}' for r in ratios)} on "
        f"{'/'.join(map(str, sizes))} points (K {k_bound:.3f}), max break-point gap "
        f"{break_gap:.2e} (limit {break_limit:.2e}) [{elapsed:.2f}s]",
    )
    assert end_dev <= 1e-12
    assert window_max == 0.0
    assert elapsed < 5.0
    assert max(ratios) <= k_bound
    assert break_gap <= break_limit


def test_criterion_6_monogamy_suite(record_acceptance):
    t0 = time.perf_counter()
    worst_gap, worst_residual = checks.monogamy_extremes(1000, np.random.default_rng(ACCEPT_SEED))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and worst_residual <= 1e-8 and elapsed < 60.0
    record_acceptance(
        6,
        "monogamy suite",
        ok,
        f"max inequality violation {worst_gap:.2e}, max residual mismatch "
        f"{worst_residual:.2e} over 1000 states [{elapsed:.1f}s]",
    )
    assert worst_gap <= 1e-9
    assert worst_residual <= 1e-8
    assert elapsed < 60.0


def test_criterion_7_roof_oracle(record_acceptance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    gaps = checks.wootters_gaps(
        lambda rho: minimize_roof(rho, concurrence_pure2, RoofConfig(restarts=2)),
        (random_density_matrix(2, 2, rng) for _ in range(50)),
    )
    lo, hi = min(gaps), max(gaps)
    conc_ok = lo >= -1e-9 and hi <= 5e-3

    g = GhzwMixtureParams.standard()
    cfg = RoofConfig(restarts=4, ensemble_size=4)
    results = checks.mixture_gaps(lambda rho: minimize_roof(rho, three_tangle_pure, cfg), (0.3, 0.65, 0.7, 0.9))
    tangle_lo, tangle_hi = min(gap for _, gap in results), max(gap for _, gap in results)
    tangle_ok = tangle_lo >= -1e-6 and tangle_hi <= 5e-3

    worst_recon, worst_member = checks.ensemble_extremes(
        (optimal_ghzw_ensemble(p, g), channel_mixture_state(p, g)) for p in (0.0, 0.2, 0.4, g.p0)
    )
    ensemble_ok = worst_recon <= 1e-10 and worst_member <= 1e-10

    elapsed = time.perf_counter() - t0
    ok = conc_ok and tangle_ok and ensemble_ok and elapsed < 300.0
    record_acceptance(
        7,
        "convex-roof oracle",
        ok,
        f"concurrence gap [{lo:+.1e}, {hi:+.1e}], tangle gap "
        f"[{tangle_lo:+.1e}, {tangle_hi:+.1e}], ensemble recon {worst_recon:.1e} "
        f"member tangle {worst_member:.1e} [{elapsed:.0f}s]",
    )
    assert conc_ok
    assert tangle_ok
    assert ensemble_ok
    assert elapsed < 300.0


def test_criterion_8_noisy_channel(record_acceptance):
    t0 = time.perf_counter()
    amps = w_state().amplitudes
    projector = np.outer(amps, amps.conj())
    zero_dev = float(np.abs(epsilon_x_w(0.0).matrix - projector).max())
    rng = np.random.default_rng(ACCEPT_SEED)
    worst_trace = 0.0
    worst_neg = 0.0
    for kt in rng.uniform(0.0, 5.0, size=20):
        rho = epsilon_x_w(float(kt))
        worst_trace = max(worst_trace, abs(float(np.trace(rho.matrix).real) - 1.0))
        worst_neg = min(worst_neg, float(np.linalg.eigvalsh(rho.matrix).min()))
    elapsed = time.perf_counter() - t0
    ok = zero_dev <= 1e-12 and worst_trace <= 1e-13 and worst_neg >= -1e-10 and elapsed < 5.0
    record_acceptance(
        8,
        "noisy channel",
        ok,
        f"zero-time dev {zero_dev:.1e}, max trace dev {worst_trace:.1e}, "
        f"min eigenvalue {worst_neg:+.1e} [{elapsed:.2f}s]",
    )
    assert zero_dev <= 1e-12
    assert worst_trace <= 1e-13
    assert worst_neg >= -1e-10
    assert elapsed < 5.0


def test_criterion_9_unitarity(record_acceptance):
    t0 = time.perf_counter()
    devs = {kind.value: checks.unitarity_gap(kind) for kind in SchemeKind}
    elapsed = time.perf_counter() - t0
    worst = max(devs.values())
    ok = worst <= 1e-12 and elapsed < 1.0
    record_acceptance(
        9,
        "circuit unitarity",
        ok,
        f"ghz dev {devs['ghz']:.1e}, w dev {devs['w']:.1e} [{elapsed:.2f}s]",
    )
    assert worst <= 1e-12
    assert elapsed < 1.0
