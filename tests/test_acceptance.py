"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated tolerances.

Criterion 8 is implemented faithfully and marked as a strict expected
failure: on the fixed product graph the annulus resistance grows exactly
linearly in the outer radius (the solver reproduces (r-n)/450 to machine
precision), so no constant makes it proportional to log(r/n) within 20%.
The companion lower-bound direction is asserted and does hold.  See the
decisions ledger for the full analysis.
"""

import math
import time

import numpy as np
import pytest

from vtres import (
    ExperimentManifest,
    build_ball,
    build_cayley_graph,
    dirichlet_problem,
    escape_via_resistance,
    exact_profile,
    exponent_functions,
    loglog_slope,
    nash_williams_bound,
    p_resistance,
    pair_resistance,
    run,
    simulate_escape,
    sphere_cutsets,
    spec_cycle,
    spec_cyclic_chords,
    spec_lattice,
    spec_line,
    spec_torus,
    spec_z_times_torus,
    stokes_check,
    theorem_rhs,
    verify_csc,
    verify_cyclic_edge_iso,
)
from vtres.graphs import annulus_problem
from vtres.bounds import alpha_exponent, b_exponent, homogeneous_dimension

from conftest import parallel_problem, random_small_spec, series_problem

P_GRID = (1.5, 2.0, 2.5, 3.0, 4.0)


def _report(number: int, elapsed: float, budget: float, detail: str):
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s / budget {budget:.0f}s): {detail}")
    assert elapsed < budget


def test_criterion_01_exact_resistance_oracles():
    t0 = time.perf_counter()
    for p in P_GRID:
        for m in range(2, 11):
            got = p_resistance(series_problem(m), p).resistance
            exact = m ** (p - 1)
            assert abs(got - exact) <= 1e-8 * exact
        for k in range(1, 11):
            got = p_resistance(parallel_problem(k), p).resistance
            assert abs(got - 1 / k) <= 1e-8 / k
    c8 = build_cayley_graph(spec_cycle(8))
    r2 = pair_resistance(c8, 0, 4, 2.0).resistance
    assert abs(r2 - 2.0) <= 1e-9
    _report(1, time.perf_counter() - t0, 1.0,
            "series m^(p-1), parallel 1/k, C8 antipodal 2.0")


def test_criterion_02_escape_identity():
    t0 = time.perf_counter()
    cases = []
    ball = build_ball(spec_cycle(20), 5)
    cases.append((ball, 5, 0.2))
    ball = build_ball(spec_line(), 10)
    cases.append((ball, 10, 0.1))
    ball = build_ball(spec_lattice(3), 8)
    cases.append((ball, 8, escape_via_resistance(ball, 8)))
    for ball, r, truth in cases:
        assert abs(escape_via_resistance(ball, r) - truth) <= 1e-9
        est = simulate_escape(ball, r, trials=100_000, seed=7)
        dev = abs(est.p_hat - truth) / est.stderr
        assert dev <= 4.0, (ball.spec.family, r, est.p_hat, truth, dev)
    _report(2, time.perf_counter() - t0, 30.0,
            "Monte Carlo escape matches 1/(deg*R_2) within 4 stderr")


def test_criterion_03_stokes_identity():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=[101, 0]))
    checked = 0
    while checked < 200:
        spec = random_small_spec(rng)
        ball = build_ball(spec, int(rng.integers(2, 4)))
        g = ball.base
        f = rng.random(g.n) * 2.0 - 0.5
        size = int(rng.integers(1, g.n))
        ids = rng.choice(g.n, size=size, replace=False)
        p = 1.2 + 3.8 * float(rng.random())
        assert stokes_check(g, f, p, ids) <= 1e-9
        checked += 1
    _report(3, time.perf_counter() - t0, 5.0,
            "200 randomized (graph, f, A, p) cases, discrepancy <= 1e-9")


def test_criterion_04_nash_williams():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=[202, 0]))
    checked = 0
    while checked < 100:
        spec = random_small_spec(rng)
        r = int(rng.integers(2, 5))
        ball = build_ball(spec, r + 1)
        if ball.beta(r) == ball.beta(r - 1):
            continue  # ball saturated before r: no sphere to cut
        p = float(P_GRID[int(rng.integers(0, len(P_GRID)))])
        nw = nash_williams_bound(sphere_cutsets(ball, r), p)
        exact = p_resistance(dirichlet_problem(ball, r - 1), p).resistance
        assert nw <= exact * (1 + 1e-9)
        checked += 1
    for n in (8, 12, 20):
        ball = build_ball(spec_cycle(n), n // 2)
        for r in range(2, n // 2 + 1):
            nw = nash_williams_bound(sphere_cutsets(ball, r), 2.0)
            exact = p_resistance(dirichlet_problem(ball, r - 1),
                                 2.0).resistance
            assert abs(nw - exact) <= 1e-9
    _report(4, time.perf_counter() - t0, 60.0,
            "bound <= exact on 100 random instances; equality on cycles")


def _csc_suite():
    specs = [spec_cycle(n) for n in range(3, 15)]
    specs += [spec_torus(*dims) for dims in
              ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4),
               (2, 2, 2), (2, 2, 3))]
    specs += [spec_cyclic_chords(n, k)
              for n in range(5, 15) for k in range(2, (n - 1) // 2 + 1)
              if 2 * k < n]
    return specs


def test_criterion_05_csc_exhaustive():
    t0 = time.perf_counter()
    graphs = 0
    for spec in _csc_suite():
        g = build_cayley_graph(spec)
        assert g.n <= 14
        reports = verify_csc(g, exact_profile(g, max_n=14))
        assert all(r.status == "PASS" for r in reports), spec
        graphs += 1
    _report(5, time.perf_counter() - t0, 120.0,
            f"CSC vertex-boundary bound on {graphs} transitive graphs, 0 violations")


def test_criterion_06_cyclic_edge_lemma():
    t0 = time.perf_counter()
    pairs = [(n, k) for n in range(5, 15) for k in range(2, (n + 1) // 2)
             if k < n / 2]
    for n, k in pairs:
        profile = exact_profile(build_cayley_graph(spec_cyclic_chords(n, k)), max_n=14)
        report = verify_cyclic_edge_iso(profile, n, k)
        assert report.status == "PASS", (n, k)
    _report(6, time.perf_counter() - t0, 120.0,
            f"edge bound k^2/4-1 exhaustively on {len(pairs)} chord graphs")


def test_criterion_07_sandwich_scaling():
    t0 = time.perf_counter()
    ball = build_ball(spec_lattice(2), 25)
    deg = 8
    rs = list(range(2, 25))
    computed, lowers, uppers = [], [], []
    for r in rs:
        beta_r = ball.beta(r)
        flow = p_resistance(dirichlet_problem(ball, r), 2.0)
        computed.append(flow.resistance)
        lowers.append(theorem_rhs("T1_8_lower", {"r": r, "beta_r": beta_r, "deg": deg}))
        uppers.append(theorem_rhs("T1_8_upper", {"r": r, "beta_r": beta_r, "deg": deg}))
    for lo, c, up in zip(lowers, computed, uppers):
        assert lo <= c <= up
    # log regime: the non-constant part of the theorem formula tracks log r
    regime = [(c - 1 / deg) / math.log(r) for c, r in zip(computed, rs)]
    spread = max(regime) / min(regime)
    assert spread <= 2.0
    slope_c = loglog_slope([math.log(r) for r in rs], computed)
    slope_u = loglog_slope([math.log(r) for r in rs], uppers)

    ball12 = build_ball(spec_lattice(3), 13)
    r12 = p_resistance(dirichlet_problem(ball12, 12), 2.0).resistance
    ball24 = build_ball(spec_lattice(3), 25)
    r24 = p_resistance(dirichlet_problem(ball24, 24), 2.0).resistance
    assert r24 / r12 <= 1.25
    _report(7, time.perf_counter() - t0, 300.0,
            f"Z2 sandwich holds, log-regime spread {spread:.2f} <= 2 "
            f"(slopes computed {slope_c:.2f} / upper {slope_u:.2f}); "
            f"Z3 R(24)/R(12) = {r24 / r12:.4f} <= 1.25")


@pytest.mark.xfail(strict=True, reason=(
    "spec-vs-math conflict: on Z x (Z/5Z)^2 the annulus resistance "
    "R_2(S(x,8) <-> S(x,r)) equals (r-8)/450 exactly (linear in r), so no "
    "constant makes it proportional to log(r/8) within +-20%; see the "
    "decisions ledger"))
def test_criterion_08_var_converse_decay():
    t0 = time.perf_counter()
    spec = spec_z_times_torus(5, 5)
    ball = build_ball(spec, 64)
    deg = spec.ambient_degree()
    n = 8
    beta_n = ball.beta(n)
    values = {}
    for r in (16, 32, 64):
        flow = p_resistance(annulus_problem(ball, n, r), 2.0)
        rhs = theorem_rhs("T_var_converse",
                          {"n": n, "r": r, "beta_n": beta_n, "deg": deg})
        # the graph is a 25-fold thickened line past radius 2: two parallel
        # chains of 225-edge bundles, so the resistance is exactly linear
        assert abs(flow.resistance - (r - n) / 450.0) <= 1e-9
        # the theorem's lower-bound direction itself holds comfortably
        assert flow.resistance >= rhs
        values[r] = flow.resistance / math.log(r / n)
        print(f"var_converse r={r}: computed={flow.resistance:.6f} rhs={rhs:.6f} "
              f"computed/log(r/n)={values[r]:.5f}")
    spread = max(values.values()) / min(values.values())
    verdict = "PASS" if spread <= 1.5 else "FAIL (expected, see ledger)"
    print(f"ACCEPTANCE 08 {verdict} ({time.perf_counter() - t0:.2f}s / budget 300s): "
          f"log-proportionality spread {spread:.3f} vs required <= 1.5; "
          f"theorem lower bound itself verified")
    # +-20% of proportional to log(r/n) means this spread is at most 1.5
    assert spread <= 1.5, f"proportionality spread {spread:.3f}"


def test_criterion_09_exponent_functions():
    t0 = time.perf_counter()
    assert alpha_exponent(2.0) == 1.0
    assert alpha_exponent(3.0) == 0.25
    assert homogeneous_dimension(3) == 4
    assert homogeneous_dimension(4) == 7
    assert b_exponent(3.5) == 3.0
    assert b_exponent(5.0) == 4.0
    vals = exponent_functions(3.0, 5.0, 4)
    assert (vals.alpha, vals.h, vals.b) == (0.25, 7.0, 4.0)
    _report(9, time.perf_counter() - t0, 1.0,
            "alpha/h/h*/b match the hand-derived table exactly")


def test_criterion_10_table1_regimes(tmp_path):
    t0 = time.perf_counter()
    man = ExperimentManifest("table1", None,
                             {"n2": [8, 12, 16], "n3": [6, 8]}, "t1", "csv")
    result = run(man, base_dir=str(tmp_path))
    assert result.exit_code == 0
    assert all(r.status == "PASS" for r in result.reports)  # NW <= exact
    s2 = result.metrics["d2.regime_spread"]
    s3 = result.metrics["d3.regime_spread"]
    assert s2 <= 2.0 and s3 <= 2.0
    _report(10, time.perf_counter() - t0, 600.0,
            f"NW tracks log n (spread {s2:.2f}) for d=2 and a constant "
            f"(spread {s3:.2f}) for d=3")


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    manifests = [
        ExperimentManifest("escape", spec_cycle(20),
                           {"r": [1, 3, 5, 7, 9], "trials": 10_000, "seed": 7},
                           "esc", "csv"),
        ExperimentManifest("sandwich", spec_lattice(2),
                           {"p": [2.0], "r_min": 2, "r_max": 8}, "sw",
                           "structured-text"),
        ExperimentManifest("table1", None, {"n2": [8], "n3": [6]}, "t1",
                           "plotdata"),
    ]
    for i, man in enumerate(manifests):
        r1 = run(man, base_dir=str(tmp_path / f"a{i}"))
        r2 = run(man, base_dir=str(tmp_path / f"b{i}"))
        assert [f.split("/")[-1] for f in r1.files] == \
               [f.split("/")[-1] for f in r2.files]
        for f1, f2 in zip(r1.files, r2.files):
            with open(f1, "rb") as a, open(f2, "rb") as b:
                assert a.read() == b.read(), (f1, f2)
    _report(11, time.perf_counter() - t0, 60.0,
            "repeated manifest runs are byte-identical across three formats")
