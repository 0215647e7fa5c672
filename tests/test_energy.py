import itertools
import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from vtres import (
    box_ball_resistance,
    box_ball_separable,
    build_ball,
    build_cayley_graph,
    cayley_resistances,
    collapse_terminals,
    dirichlet_problem,
    max_resistance,
    nash_williams_bound,
    p_energy,
    p_laplacian,
    p_resistance,
    pair_resistance,
    solve_potential,
    spec_cycle,
    spec_cyclic_chords,
    spec_explicit,
    spec_lattice,
    spec_torus,
    spec_z_times_torus,
    sphere_cutsets,
    stokes_check,
)
from vtres import energy, graphs
from vtres.errors import (
    BadArguments,
    DimensionMismatch,
    DisconnectedTerminals,
    EmptySet,
    NonConvergence,
    SizeCapExceeded,
)
from vtres.graphs import (
    Graph,
    TerminalGraph,
    annulus_problem,
    from_edge_list,
    orbit_ball,
    spec_fibered_torus,
    spec_offsets,
)

from conftest import (
    box_torus_fourier_resistance,
    parallel_problem,
    random_small_spec,
    reference_orbits,
    series_graph,
    series_problem,
)

P_GRID = (1.5, 2.0, 2.5, 3.0, 4.0)


def test_energy_single_edge():
    g = series_graph(1)
    assert p_energy(g, np.array([1.0, 0.0]), 2.0) == 1.0


def test_energy_path_cubic():
    g = series_graph(3)
    e = p_energy(g, np.array([1.0, 2 / 3, 1 / 3, 0.0]), 3.0)
    assert abs(e - 1 / 9) < 1e-15


def test_energy_constant_zero(c8):
    assert p_energy(c8, np.full(8, 3.7), 2.5) == 0.0


def test_energy_counts_multiplicity():
    g = from_edge_list(2, [(0, 1, 5)])
    assert p_energy(g, np.array([1.0, 0.0]), 2.0) == 5.0


def test_energy_dimension_mismatch(c8):
    with pytest.raises(DimensionMismatch):
        p_energy(c8, np.zeros(5), 2.0)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_non_finite_p_is_bad_arguments(c8, p):
    f = np.linspace(0.0, 1.0, 8)
    for call in (lambda: p_energy(c8, f, p), lambda: p_laplacian(c8, f, p),
                 lambda: solve_potential(series_problem(3), p)):
        with pytest.raises(BadArguments):
            call()


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_source_value_is_bad_arguments(t, p):
    # unchecked, a NaN residual passes the p=2 residual test, and Newton at
    # p=3 ends in NonConvergence on E_p(f) = nan
    tg = dirichlet_problem(build_ball(spec_lattice(2), 4), 3)
    with pytest.raises(BadArguments, match="t must be finite and > 0"):
        solve_potential(tg, p, t)


def test_zero_energy_is_nonconvergence():
    # every |df|^p of the iterate underflows at p = 5000; R_p is never divided out
    with pytest.raises(NonConvergence) as err:
        solve_potential(series_problem(3), 5000.0)
    assert "E_p(f) = 0.0" in str(err.value) and err.value.stages


def test_laplacian_linear_function_is_harmonic():
    g = series_graph(2)
    lap = p_laplacian(g, np.array([0.0, 1.0, 2.0]), 2.0)
    assert abs(lap[1]) == 0.0


def test_laplacian_star():
    star = from_edge_list(5, [(0, i, 1) for i in range(1, 5)])
    f = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert p_laplacian(star, f, 3.0)[0] == 4.0


def test_laplacian_constant_is_zero(c8):
    assert np.all(p_laplacian(c8, np.ones(8), 2.5) == 0.0)


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("m", (2, 3, 5, 10))
def test_series_resistance(p, m):
    flow = p_resistance(series_problem(m), p)
    exact = m ** (p - 1)
    assert abs(flow.resistance - exact) <= 1e-8 * exact


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("k", (1, 4, 10))
def test_parallel_resistance(p, k):
    flow = p_resistance(parallel_problem(k), p)
    assert abs(flow.resistance - 1 / k) <= 1e-12


def test_series_of_parallel_bundles():
    # bundles of m_i parallel unit edges in series combine as
    # R_p = (sum_i (1/m_i)^(1/(p-1)))^(p-1)
    g = from_edge_list(3, [(0, 1, 1000), (1, 2, 1)])
    tg = collapse_terminals(g, [0], [2])
    for p in (1.5, 2.0, 3.0, 4.0):
        q = 1.0 / (p - 1.0)
        expect = ((1 / 1000) ** q + 1.0) ** (p - 1.0)
        got = p_resistance(tg, p).resistance
        assert abs(got - expect) <= 1e-8 * expect


def test_cycle_antipodal_p2(c8):
    flow = pair_resistance(c8, 0, 4, 2.0)
    assert abs(flow.resistance - 2.0) <= 1e-9
    # linear potential along both arcs, step 1/4
    expect = {0: 1.0, 1: 0.75, 2: 0.5, 3: 0.25, 4: 0.0, 5: 0.25, 6: 0.5, 7: 0.75}
    # collapse keeps free vertices 1..3, 5..7 first, then source 0, ground 4
    values = flow.potential.values
    tg = flow.potential.problem
    free = [v for v in range(8) if v not in (0, 4)]
    for i, v in enumerate(free):
        assert abs(values[i] - expect[v]) < 1e-10
    assert values[tg.source] == 1.0 and values[tg.ground] == 0.0


def test_midpoint_for_any_p():
    for p in (1.5, 2.7, 4.0):
        pot = solve_potential(series_problem(2), p)
        assert abs(pot.values[0] - 0.5) < 1e-9


def test_flow_result_invariants():
    flow = p_resistance(series_problem(3), 2.5)
    assert abs(flow.resistance * flow.capacity - 1.0) <= 1e-12
    assert flow.total_current > 0
    assert abs(flow.total_current - flow.capacity) <= 1e-9 * flow.capacity


def test_current_normalized_identity():
    # rescaling the potential to unit current gives R_p = t^(p-1) = E_p^(p-1)
    for p in (1.5, 3.0):
        flow = p_resistance(series_problem(4), p)
        lam = flow.total_current ** (-1.0 / (p - 1.0))
        t2 = lam * flow.potential.source_value
        e2 = lam ** p * flow.potential.energy
        assert abs(flow.resistance - t2 ** (p - 1.0)) <= 1e-8 * flow.resistance
        assert abs(e2 - t2) <= 1e-8 * t2


def test_maximum_principle_and_terminal_values():
    b = build_ball(spec_lattice(2), 4)
    for p in (1.5, 2.0, 3.0):
        pot = solve_potential(dirichlet_problem(b, 3), p, t=2.0)
        assert pot.values.min() >= -1e-12
        assert pot.values.max() <= 2.0 + 1e-12
        assert pot.values[pot.problem.source] == 2.0
        assert pot.values[pot.problem.ground] == 0.0


def test_duality_swap_terminals():
    g = build_cayley_graph(spec_torus(3, 4))
    for p in (1.5, 2.0, 3.0):
        r_uv = pair_resistance(g, 0, 7, p).resistance
        r_vu = pair_resistance(g, 7, 0, p).resistance
        assert abs(r_uv - r_vu) <= 1e-10 * max(r_uv, 1.0)


def test_monotonicity_in_terminal_sets():
    # enlarging source or ground sets never increases R_p
    g = build_cayley_graph(spec_torus(4, 4))
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    for p in (1.5, 2.0, 3.0):
        for _ in range(5):
            ids = rng.permutation(g.n)
            s0, g0 = {int(ids[0])}, {int(ids[1])}
            s1 = s0 | {int(ids[2])}
            g1 = g0 | {int(ids[3])}
            r0 = p_resistance(collapse_terminals(g, s0, g0), p).resistance
            r1 = p_resistance(collapse_terminals(g, s1, g1), p).resistance
            assert r1 <= r0 * (1 + 1e-9)


def test_residual_is_small():
    b = build_ball(spec_lattice(2), 4)
    for p in (1.5, 2.0, 3.0):
        pot = solve_potential(dirichlet_problem(b, 3), p)
        scale = max(pot.energy, 1e-12)
        assert pot.residual <= 1e-9 * scale


def test_disconnected_terminals_raises():
    g = from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(DisconnectedTerminals):
        solve_potential(collapse_terminals(g, [0], [2]), 2.0)


@pytest.mark.parametrize("source,ground", [(0, 0), (-1, 3), (0, 4), (0, -1)])
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_bad_terminals_raise_bad_arguments(source, ground, p):
    # numpy would read ground = -1 as vertex 3 and answer R = 3 quietly
    tg = TerminalGraph(series_graph(3), source=source, ground=ground)
    with pytest.raises(BadArguments):
        solve_potential(tg, p)
    with pytest.raises(BadArguments):
        p_resistance(tg, p)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_bracket_check_is_two_sided(monkeypatch, p):
    # an energy off either way by twice the gap tolerance opens or inverts
    # the R_p bracket; half the tolerance passes
    real = energy.p_energy
    tg = dirichlet_problem(build_ball(spec_lattice(2), 4), 3)
    want = p_resistance(tg, p).resistance
    for factor, raises in ((1 + 2e-8, True), (1 - 2e-8, True),
                           (1 + 5e-9, False), (1 - 5e-9, False)):
        monkeypatch.setattr(energy, "p_energy",
                            lambda *args: real(*args) * factor)
        if raises:
            with pytest.raises(NonConvergence, match="R_p bracket"):
                p_resistance(tg, p)
        else:
            assert abs(p_resistance(tg, p).resistance - want) <= 1e-8 * want


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
@pytest.mark.parametrize("t", [1.0, 2.0])
@pytest.mark.parametrize("tg,exact", [
    (series_problem(3), lambda p: 3.0 ** (p - 1)),
    (series_problem(5), lambda p: 5.0 ** (p - 1)),
    (parallel_problem(1), lambda p: 1.0),
    (parallel_problem(4), lambda p: 0.25),
], ids=["series3", "series5", "parallel1", "parallel4"])
def test_bracket_contains_exact_resistance(monkeypatch, tg, exact, t, p):
    bounds = []
    real = energy._flow_bound

    def recorded(*args):
        bounds.append(real(*args))
        return bounds[-1]

    monkeypatch.setattr(energy, "_flow_bound", recorded)
    pot = solve_potential(tg, p, t)
    r_lo, r_hi, want = t ** p / pot.energy, bounds[0], exact(p)
    assert r_lo <= want * (1 + 1e-14) and r_hi >= want * (1 - 1e-14)
    assert r_hi - r_lo <= energy.GAP_TOL * r_lo


def test_k4_max_resistance():
    # K4 is C4 with full:0
    value, pair = max_resistance(build_cayley_graph(spec_torus(4, full_last=True)), 2.0)
    assert abs(value - 0.5) < 1e-10
    assert pair == (0, 1)


def test_single_edge_max_resistance_any_p():
    # C2 is one edge of multiplicity 1: its offset is its own inverse
    g = build_cayley_graph(spec_cycle(2))
    for p in (1.5, 2.0, 3.0):
        value, pair = max_resistance(g, p)
        assert abs(value - 1.0) <= 1e-10
        assert pair == (0, 1)


def test_max_resistance_transitive_matches_full(c8):
    # the spectral path against a pair solve for every (0, v)
    fast = max_resistance(c8, 2.0)
    full = _max_resistance_reference(c8, 2.0)
    assert abs(full[0] - fast[0]) <= 1e-10
    assert abs(full[0] - 2.0) <= 1e-9
    assert fast[1] == (0, 4) and full[1] == (0, 4)


def _pair_upper_bound(g, u, v, p):
    """Upper bound on R_p(u, v) from the pair's p=2 potential, without
    Newton: the p-current of that potential made a unit flow by
    ``_flow_bound``, at the cost of two banded solves.  The reference for
    ``_cayley_pair_bounds``, which gives the same flow by FFTs."""
    lap = energy._FreeLaplacian(collapse_terminals(g, [u], [v]))
    return energy._flow_bound(lap, energy._solve_p2(lap, 1.0), p)


def _plain(g):
    """A copy of ``g`` as a plain Graph, which carries no group."""
    return Graph(g.n, g.indptr, g.nbr, g.mult)


@pytest.fixture
def pair_counts(monkeypatch):
    """The pairs max_resistance bounds, with their bounds, and the pairs it
    solves in full."""
    counts = {"bounded": {}, "solved": []}
    cayley_bounds = energy._cayley_pair_bounds

    def cayley_bounding(g, targets, p):
        his = cayley_bounds(g, targets, p)
        counts["bounded"].update({(0, int(v)): float(hi) for v, hi in zip(targets, his)})
        return his

    def solving(g, u, v, p):
        counts["solved"].append((u, v))
        return pair_resistance(g, u, v, p)

    monkeypatch.setattr(energy, "_cayley_pair_bounds", cayley_bounding)
    monkeypatch.setattr(energy, "pair_resistance", solving)
    return counts


def test_max_resistance_caps(monkeypatch, pair_counts):
    # the 15x15 torus has 36 orbits under vertex 0's stabilizer, so 35
    # candidates, of which 3 are solved in full
    g = build_cayley_graph(spec_torus(15, 15))
    max_resistance(g, 3.0)
    assert len(pair_counts["bounded"]) == 35
    assert len(pair_counts["solved"]) == 3
    pair_counts["bounded"].clear()
    pair_counts["solved"].clear()
    # the cap counts full solves; after the first, at least 3 bounds reach
    # its R_p, so the refusal costs one solve
    monkeypatch.setattr(energy, "PAIR_SOLVE_CAP", 2)
    with pytest.raises(SizeCapExceeded, match=r"pair solves for p=3\.0, more than the cap 2"):
        max_resistance(g, 3.0)
    assert len(pair_counts["bounded"]) == 35
    assert len(pair_counts["solved"]) == 1
    # the orbit ball stops at DEFAULT_SIZE_CAP // n = 5 orbits of the
    # 1000x1000 torus, before any pair is bounded
    pair_counts["bounded"].clear()
    pair_counts["solved"].clear()
    big = build_cayley_graph(spec_torus(1000, 1000))
    t0 = time.perf_counter()
    with pytest.raises(SizeCapExceeded, match="more than 4 candidate pairs on 1000000 vertices"):
        max_resistance(big, 3.0)
    assert time.perf_counter() - t0 < 1.0
    assert pair_counts == {"bounded": {}, "solved": []}


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_max_resistance_refuses_plain_graphs(pair_counts, p):
    # a Graph carries no group, so it is refused before any bound or solve
    with pytest.raises(BadArguments, match="max_resistance needs a CayleyGraph"):
        max_resistance(_plain(build_cayley_graph(spec_torus(4, 4))), p)
    assert pair_counts == {"bounded": {}, "solved": []}


@pytest.mark.parametrize("p", [1.0, 0.5, math.nan, math.inf, -2.0])
@pytest.mark.parametrize("plain", [False, True], ids=["cayley", "plain"])
def test_max_resistance_bad_p_is_bad_arguments(p, plain):
    g = build_cayley_graph(spec_torus(4, 4))
    if plain:
        g = _plain(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadArguments, match="p must be finite and > 1"):
            max_resistance(g, p)


def _stokes_loop_reference(g, f, p, A):
    """stokes_check as a vertex-by-vertex loop over the boundary of A."""
    f = np.asarray(f, dtype=float)
    ids = sorted(set(int(a) for a in A))
    lhs = float(p_laplacian(g, f, p)[ids].sum())
    in_a = np.zeros(g.n, dtype=bool)
    in_a[ids] = True
    rhs = 0.0
    for u in ids:
        nb, mu = g.neighbors(u)
        outside = ~in_a[nb]
        rhs += float(np.sum(mu[outside] * np.sign(f[u] - f[nb[outside]])
                            * np.abs(f[u] - f[nb[outside]]) ** (p - 1)))
    return abs(lhs - rhs)


STOKES_GRAPHS = {
    "z2_ball": build_ball(spec_lattice(2), 5).base,
    "multiplicity": from_edge_list(7, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 0, 1),
                                       (1, 4, 4), (4, 5, 1), (5, 6, 2), (6, 2, 1),
                                       (0, 5, 2)]),
}


@pytest.mark.parametrize("name", sorted(STOKES_GRAPHS))
@pytest.mark.parametrize("seed", range(8))
def test_stokes_matches_loop_reference(name, seed):
    # the identity holds for every f, so both sides must vanish; an inward
    # orientation, a dropped multiplicity or an interior edge breaks it
    g = STOKES_GRAPHS[name]
    rng = np.random.Generator(np.random.Philox(key=[seed, 4]))
    p = float(rng.uniform(1.1, 5.0))
    f = 3.0 * rng.standard_normal(g.n)
    ids = rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=True)
    scale = float(np.sum(g.edges[2] * np.abs(f[g.edges[0]] - f[g.edges[1]]) ** (p - 1)))
    fast = stokes_check(g, f, p, ids)
    ref = _stokes_loop_reference(g, f, p, ids)
    assert fast <= 1e-12 * scale and ref <= 1e-12 * scale


def test_stokes_exact_cases(c8):
    rng = np.random.Generator(np.random.Philox(key=[2, 0]))
    f = rng.random(8)
    assert stokes_check(c8, f, 2.0, [1, 2, 3]) <= 1e-9
    assert stokes_check(c8, np.full(8, 0.3), 3.0, [0, 5]) == 0.0


@given(st.integers(0, 2**32 - 1),
       st.floats(min_value=1.2, max_value=5.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_stokes_identity_random(seed, p):
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    b = build_ball(spec_lattice(2), 3)
    f = rng.random(b.base.n)
    size = int(rng.integers(1, b.base.n - 1))
    ids = rng.choice(b.base.n, size=size, replace=False)
    assert stokes_check(b.base, f, p, ids) <= 1e-9


# R_p(x <-> S(x, r+1)) on Z^2 with box generators, recorded with the solver
# that preceded the gradient-judged stop rule
Z2_SEED_RESISTANCE = {
    (1.2, 10): 0.12502773547195076,
    (1.5, 10): 0.13291682831126544,
    (1.5, 20): 0.13335079411038703,
    (3.0, 10): 1.9861235965268444,
    (3.0, 20): 3.986569161477556,
}


@pytest.mark.parametrize("p,r", sorted(Z2_SEED_RESISTANCE))
def test_z2_newton_budget_and_seed_values(p, r):
    # once the predicted decrease is below float64 resolution the stage ends
    # on the gradient instead of running out its rounds: 10-26 steps here,
    # 10-249 before; p=1.2 only has to converge
    ball = build_ball(spec_lattice(2), r + 1)
    flow = p_resistance(dirichlet_problem(ball, r), p)
    want = Z2_SEED_RESISTANCE[p, r]
    assert abs(flow.resistance - want) <= 1e-9 * want
    if p != 1.2:
        assert flow.potential.iterations <= 40


def test_nonconvergence_carries_stage_counts(monkeypatch):
    monkeypatch.setattr(energy, "MAX_NEWTON_STEPS", 6)
    ball = build_ball(spec_lattice(2), 11)
    with pytest.raises(NonConvergence) as info:
        p_resistance(dirichlet_problem(ball, 10), 1.5)
    err = info.value
    assert err.iterations == 6
    assert [s for s, _, _ in err.stages] == ["1e-02"]
    assert sum(n for _, n, _ in err.stages) == err.iterations
    assert all(b >= 0 for _, _, b in err.stages)


def _bandwidth(a, order):
    """Largest |i - j| over the nonzeros of ``a`` with rows and columns in ``order``."""
    rank = np.empty(a.shape[0], dtype=np.int64)
    rank[order] = np.arange(a.shape[0])
    coo = a.tocoo()
    return int(np.abs(rank[coo.row] - rank[coo.col]).max())


# problem, p of the Newton Hessian (None: the graph Laplacian), and the
# bandwidths of the free block in vertex order and in RCM order
BANDED_CASES = {
    "z2_b21_quotient": (lambda: dirichlet_problem(
        orbit_ball(spec_lattice(2), 21), 20), 1.5, 22, 21),
    "torus10_pair": (lambda: collapse_terminals(
        build_cayley_graph(spec_torus(10, 10)), [0], [55]), None, 90, 36),
    "z3_b12_quotient": (lambda: dirichlet_problem(
        orbit_ball(spec_lattice(3), 12), 11), None, 89, 78),
    "chords200_14_pair": (lambda: collapse_terminals(
        build_cayley_graph(spec_cyclic_chords(200, 14)), [0], [100]), None, 197, 40),
}


@pytest.mark.parametrize("name", sorted(BANDED_CASES))
def test_banded_solve_matches_dense_solve(name):
    make, p, natural, rcm = BANDED_CASES[name]
    lap = energy._FreeLaplacian(make())
    w = lap.emf
    if p is not None:
        f = energy._solve_p2(lap, 1.0)
        delta = f[lap.eu] - f[lap.ev]
        d2e2, _ = energy._reg_gradient(delta, p, 1e-2, lap)
        w = energy._newton_weights(lap.emf, p, 1e-2, delta, d2e2)
    a = lap.matrix(w)
    assert a.shape[0] <= energy.DIRECT_SOLVE_LIMIT
    assert _bandwidth(a, np.arange(a.shape[0])) == natural
    assert _bandwidth(a, lap.order) <= rcm < natural
    b = np.random.Generator(np.random.Philox(key=[16, 0])).standard_normal(a.shape[0])
    want = np.linalg.solve(a.toarray(), b)
    got = energy._solve_spd(lap, w, b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _dense_band(a, width):
    """LAPACK lower band storage of the dense symmetric ``a``: row k holds
    diagonal k, entry (j + k, j) in column j, zero past the end."""
    ab = np.zeros((width, a.shape[0]))
    for k in range(width):
        ab[k, :a.shape[0] - k] = np.diagonal(a, -k)
    return ab


@pytest.mark.parametrize("name", sorted(BANDED_CASES) + ["series30"])
def test_band_is_the_dense_block_exactly(name):
    # bit for bit: the band against the CSR block made dense, and the direct
    # solve against scipy's solveh_banded on the same band; a path has a
    # tridiagonal block, which LAPACK solves with ptsv
    if name == "series30":
        tg, p = TerminalGraph(series_graph(30), source=0, ground=30), 3.0
    else:
        make, p, _, _ = BANDED_CASES[name]
        tg = make()
    lap = energy._FreeLaplacian(tg)
    emf = lap.emf
    rng = np.random.Generator(np.random.Philox(key=[24, 0]))
    weights = [emf, emf * rng.uniform(0.5, 2.0, len(emf))]
    if p is not None:
        f = energy._solve_p2(lap, 1.0)
        delta = f[lap.eu] - f[lap.ev]
        d2e2, _ = energy._reg_gradient(delta, p, 1e-2, lap)
        weights.append(energy._newton_weights(emf, p, 1e-2, delta, d2e2))
    for w in weights:
        a, order, ab = lap.matrix(w), lap.order, lap.band(w)
        dense = a.toarray()[order][:, order]
        assert len(ab) == _bandwidth(a, order) + 1
        assert (len(ab) == 2) == (name == "series30")
        assert np.array_equal(ab, _dense_band(dense, len(ab)))
        b = rng.standard_normal(len(order))
        want = np.empty(len(order))
        want[order] = scipy.linalg.solveh_banded(ab, b[order], lower=True)
        assert np.array_equal(energy._solve_spd(lap, w, b), want)


def test_rcm_order_is_computed_once_per_solve(monkeypatch):
    import scipy.sparse.csgraph

    calls = Counter()
    rcm, solve = scipy.sparse.csgraph.reverse_cuthill_mckee, energy._solve_spd

    def counted_rcm(*args, **kwargs):
        calls["rcm"] += 1
        return rcm(*args, **kwargs)

    def counted_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", counted_rcm)
    monkeypatch.setattr(energy, "_solve_spd", counted_solve)
    tg = dirichlet_problem(orbit_ball(spec_lattice(2), 21), 20)
    pot = solve_potential(tg, 1.5)
    # the p=2 start, one solve per Newton step or more, the flow projection
    assert calls["solve"] >= pot.iterations + 2 > 2
    assert calls["rcm"] == 1


# Newton steps of R_p(0 <-> S(r+1)) on the orbit quotient of the Z^2 ball
Z2_QUOTIENT_NEWTON_STEPS = {
    (1.2, 10): 65, (1.2, 20): 66, (1.5, 10): 23, (1.5, 20): 26,
    (3.0, 10): 11, (3.0, 20): 13, (3.0, 40): 14,
}


# their R_p, and the R_p brackets of the p=1.1 solves that stall, to the
# last bit: a change to the solver's arithmetic shows here
Z2_QUOTIENT_RESISTANCE = {
    (1.2, 10): 0.1250277354718353, (1.2, 20): 0.12502773993962094,
    (1.5, 10): 0.13291682831126544, (1.5, 20): 0.13335079411038706,
    (3.0, 10): 1.986123596526844, (3.0, 20): 3.986569161477556,
    (3.0, 40): 8.075192908132022,
}
Z2_QUOTIENT_P11_BRACKETS = {
    10: (0.12500001200467273, 0.12501396689106914),
    20: (0.12500001191863006, 0.12506756357478957),
}


@pytest.mark.parametrize("p,r", sorted(Z2_QUOTIENT_NEWTON_STEPS))
def test_z2_quotient_newton_step_counts(p, r):
    tg = dirichlet_problem(orbit_ball(spec_lattice(2), r + 1), r)
    flow = p_resistance(tg, p)
    assert flow.potential.iterations == Z2_QUOTIENT_NEWTON_STEPS[p, r]
    assert flow.resistance == Z2_QUOTIENT_RESISTANCE[p, r]


@pytest.mark.parametrize("r", sorted(Z2_QUOTIENT_P11_BRACKETS))
def test_z2_quotient_p11_bracket_is_pinned(r):
    tg = dirichlet_problem(orbit_ball(spec_lattice(2), r + 1), r)
    with pytest.raises(NonConvergence) as info:
        p_resistance(tg, 1.1)
    lo, hi = Z2_QUOTIENT_P11_BRACKETS[r]
    assert str(info.value) == f"R_p bracket [{lo!r}, {hi!r}] is wider than 1e-08 relative"


def test_singular_block_is_a_typed_failure():
    # the path 0-1-2-3-4 from 0 to 4, flat around vertex 2: at p=40 and
    # eps=1e-10 both Hessian weights there, 40 eps^38, underflow to 0
    g = series_graph(4)
    lap = energy._FreeLaplacian(TerminalGraph(g, source=0, ground=4))
    f = np.array([1.0, 0.5, 0.5, 0.5, 0.0])
    p, eps = 40.0, 1e-10
    eu, ev, emf = lap.eu, lap.ev, lap.emf
    delta = f[eu] - f[ev]
    d2e2, gfree = energy._reg_gradient(delta, p, eps, lap)
    hw = energy._newton_weights(emf, p, eps, delta, d2e2)
    assert hw[1] == hw[2] == 0 < hw[0]
    with pytest.raises(NonConvergence, match="banded Cholesky"):
        energy._solve_spd(lap, hw, -gfree)
    # Newton falls back to a gradient step, which still descends
    e0 = energy._reg_energy(delta, emf, p, eps)
    iterations, _ = energy._newton_at_eps(lap, f, p, eps, 0)
    assert iterations >= 1 and np.all(np.isfinite(f))
    assert energy._reg_energy(f[eu] - f[ev], emf, p, eps) < e0
    # zero multiplicity around vertex 2 makes the p=2 block singular too
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    g0 = Graph(g.n, g.indptr, g.nbr, np.where((rows == 2) | (g.nbr == 2), 0, g.mult))
    tg0 = TerminalGraph(g0, source=0, ground=4)
    with pytest.raises(NonConvergence, match="banded Cholesky"):
        energy._solve_p2(energy._FreeLaplacian(tg0), 1.0)
    for p in (2.0, 1.5):
        with pytest.raises(NonConvergence, match="banded Cholesky"):
            solve_potential(tg0, p)


@pytest.mark.parametrize("r", [5, 10, 20])
def test_z2_balls_converge_above_nash_williams(r):
    # these p converge above the cutset bound; p=1.1 stalls with an R_p
    # bracket wider than GAP_TOL, and says so
    ball = build_ball(spec_lattice(2), r + 1)
    tg, cutsets = dirichlet_problem(ball, r), sphere_cutsets(ball, r + 1)
    for p in (1.2, 1.3, 1.5, 1.8, 2.5, 3.0, 4.0, 6.0):
        resistance = p_resistance(tg, p).resistance
        assert resistance >= nash_williams_bound(cutsets, p)
    if r == 10:
        with pytest.raises(NonConvergence, match="R_p bracket"):
            p_resistance(tg, 1.1)


@pytest.mark.parametrize("dims", [(12, 12), (6, 8)])
def test_max_resistance_p2_matches_fourier(dims):
    fourier = box_torus_fourier_resistance(dims)
    value, (u, v) = max_resistance(build_cayley_graph(spec_torus(*dims)), 2.0)
    assert abs(value - fourier.max()) <= 1e-10
    # vertex ids are lexicographic ranks, so R(0, v) is the Fourier value at v
    assert u == 0 and abs(fourier.flat[v] - fourier.max()) <= 1e-10


SPECTRAL_ORACLE_SPECS = {
    "torus12x12": spec_torus(12, 12),
    "torus6x8x3_full": spec_torus(6, 8, 3, full_last=True),
    "c20_chords3": spec_cyclic_chords(20, 3),
    "z2xz3": spec_torus(2, 3),
    "z6xz4_explicit": spec_explicit((6, 4), [(1, 0), (5, 0), (0, 1), (0, 3),
                                             (2, 2), (4, 2), (3, 1), (3, 3)]),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_ORACLE_SPECS))
def test_cayley_resistances_match_pair_solves(name):
    g = build_cayley_graph(SPECTRAL_ORACLE_SPECS[name])
    spectral = cayley_resistances(g)
    sparse = [pair_resistance(g, 0, v, 2.0).resistance for v in range(1, g.n)]
    assert spectral[0] == 0.0
    np.testing.assert_allclose(spectral[1:], sparse, rtol=1e-10, atol=0)


def test_million_cycle_max_resistance():
    # R_2(0, v) = v (n - v) / n on C_n, so the maximum is n/4 at v = n/2.
    # 1 - cos in place of 2 sin^2 is off by about 3e-5 relative here, and
    # phases left unfolded in [0, 1) by about 3e-11
    n = 1_000_000
    value, pair = max_resistance(build_cayley_graph(spec_cycle(n)), 2.0)
    assert abs(value - n / 4) <= 1e-11 * (n / 4)
    assert pair == (0, n // 2)


def test_max_resistance_ties_pick_first_vertex():
    # C9 is farthest at 4 and 5; the 6x8x3 torus at (3,4,1) and (3,4,2)
    c9 = build_cayley_graph(spec_cycle(9))
    assert max_resistance(c9, 2.0)[1] == (0, 4)
    assert max_resistance(c9, 3.0)[1] == (0, 4)
    torus = build_cayley_graph(spec_torus(6, 8, 3, full_last=True))
    assert max_resistance(torus, 2.0)[1] == (0, 85)
    assert max_resistance(torus, 3.0)[1] == (0, 85)


def _max_resistance_reference(g, p):
    """One pair solve for every pair (0, v), and the first pair within 1e-12
    (relative) of the maximum: max_resistance's tie rule."""
    pairs = [(0, v) for v in range(1, g.n)]
    values = [pair_resistance(g, u, v, p).resistance for u, v in pairs]
    best = max(values)
    i = next(i for i, r in enumerate(values) if r >= best * (1 - 1e-12))
    return values[i], pairs[i]


def _finite_small_specs(seed, count):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    specs = []
    while len(specs) < count:
        spec = random_small_spec(rng)
        if spec.is_finite:
            specs.append(spec)
    return specs


def _orbit_scan_specs():
    return _finite_small_specs(29, 16) + [
        spec_cyclic_chords(20, 3), spec_torus(5, 7), spec_torus(6, 8, 3, full_last=True),
        spec_explicit((6, 6), [(1, 0), (5, 0), (0, 1), (0, 5), (1, 2), (5, 4)])]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_max_resistance_orbits_match_full_scan(p):
    for spec in _orbit_scan_specs():
        g = build_cayley_graph(spec)
        want, want_pair = _max_resistance_reference(g, p)
        value, pair = max_resistance(g, p)
        assert pair == want_pair, spec
        assert abs(value - want) <= 1e-12 * want, spec


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("spec", [spec_torus(10, 10), spec_torus(6, 8, 3, full_last=True)],
                         ids=["torus10x10", "torus6x8x3_full"])
def test_pair_upper_bounds_hold(pair_counts, spec, p):
    # every candidate's bound, by FFTs and by banded solves, is at least its
    # solved R_p
    g = build_cayley_graph(spec)
    max_resistance(g, p)
    assert len(pair_counts["bounded"]) > 1
    for (u, v), hi in pair_counts["bounded"].items():
        r_p = pair_resistance(g, u, v, p).resistance
        assert min(hi, _pair_upper_bound(g, u, v, p)) >= r_p * (1 - 1e-12), (u, v)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_cayley_pair_bounds_match_banded_bounds(p):
    # the FFT bounds are the banded ones up to rounding, at every vertex;
    # on C2 x C7 the C2 step is its own inverse
    for spec in _orbit_scan_specs() + [spec_torus(2, 7)]:
        g = build_cayley_graph(spec)
        targets = list(range(1, g.n))
        banded = [_pair_upper_bound(g, 0, v, p) for v in targets]
        np.testing.assert_allclose(energy._cayley_pair_bounds(g, targets, p), banded,
                                   rtol=1e-10, atol=0, err_msg=str(spec))


def test_max_resistance_torus40_p3(pair_counts):
    # 230 candidates, past the old candidate cap of 200; 24 full solves
    value, pair = max_resistance(build_cayley_graph(spec_torus(40, 40)), 3.0)
    assert len(pair_counts["bounded"]) == 230
    assert len(pair_counts["solved"]) == 24
    assert pair == (0, 820) and abs(value - 10.111282842830375) <= 1e-12 * value


def test_max_resistance_solves_one_pair_per_orbit(pair_counts):
    value, pair = max_resistance(build_cayley_graph(spec_torus(10, 10)), 3.0)
    assert len(pair_counts["bounded"]) == 20
    assert len(pair_counts["solved"]) == 2
    assert pair == (0, 55) and abs(value - 2.108017860221567) <= 1e-12 * value


# {-1, 0, 1} x {0, +-3} on Z x C10: the C10 steps cover C10 in 5 steps
Z_C10_STEP3 = spec_explicit((None, 10), [(a, b) for a in (-1, 0, 1) for b in (0, 3, 7)
                                         if (a, b) != (0, 0)])
# spec, radii whose Dirichlet problems are diagonal in sines x characters:
# Z^d cubes, Z x C5 x C5 once B(r) covers the C5 factors, finite factors of
# modulus at least 2r + 2, along which B(r) does not wrap (Z x C5 x C5 at
# r=1, Z x C7 x C7, Z x C9 x C9, the torus balls), a product fiber, and
# Z x C10 with C10 steps +-3 once B(r) covers C10
SEPARABLE_BALLS = {
    "z2": (spec_lattice(2), (1, 3, 10, 20)),
    "z3": (spec_lattice(3), (1, 3, 8, 12)),
    "z_c5_c5": (spec_z_times_torus(5, 5), (2, 6)),
    "z_c5_c5_r1": (spec_z_times_torus(5, 5), (1,)),
    "z_c7_c7": (spec_z_times_torus(7, 7), (2,)),
    "z_c9_c9": (spec_z_times_torus(9, 9), (2,)),
    "torus9x9": (spec_torus(9, 9), (3,)),
    "torus16x16": (spec_torus(16, 16), (7,)),
    "fibered8x3": (spec_fibered_torus(8, 3), (3,)),
    "z_c10_step3": (Z_C10_STEP3, (5, 6)),
}


@pytest.mark.parametrize("name", sorted(SEPARABLE_BALLS))
def test_box_ball_mode_sum_matches_sparse_solve(name):
    spec, radii = SEPARABLE_BALLS[name]
    ball = build_ball(spec, max(radii) + 1)
    for r in radii:
        assert box_ball_separable(spec, r), r
        exact = p_resistance(dirichlet_problem(ball, r), 2.0).resistance
        modes = box_ball_resistance(spec_offsets(spec), spec.factors, r)
        assert abs(modes - exact) <= 1e-10 * exact, r


KNIGHT = [(a, b) for a in (-2, -1, 1, 2) for b in (-2, -1, 1, 2) if abs(a) != abs(b)]
# spec, radii at which dirichlet_problem is not separable: a union (not
# product) fiber, chords, steps of length 2, a Z x C3 set whose B(2) is
# the product Z-interval x C3 but whose steps (1, 1), (-1, 2) are not
# closed under negating the Z coordinate alone, and Z x C10 with C10 steps
# +-3 before B(r) covers C10
NON_SEPARABLE_BALLS = {
    "z_c10_step3": (Z_C10_STEP3, (1, 2, 3, 4)),
    "z_c3_skew": (spec_explicit((None, 3), [(1, 0), (-1, 0), (1, 1), (-1, 2),
                                            (0, 1), (0, 2)]), (2,)),
    "torus6x8x3_full": (spec_torus(6, 8, 3, full_last=True), (0, 1, 2, 3)),
    "c20_chords3": (spec_cyclic_chords(20, 3), (1, 2)),
    "z2_knight": (spec_explicit((None, None), KNIGHT), (1, 2)),
}


@pytest.mark.parametrize("name", sorted(NON_SEPARABLE_BALLS))
def test_non_box_balls_are_not_separable(name):
    spec, radii = NON_SEPARABLE_BALLS[name]
    assert not any(box_ball_separable(spec, r) for r in radii)


def test_box_ball_separable_needs_the_sphere_in_the_ball():
    # C8 is an interval coordinate while 8 >= 2r + 2; at r = 4, B(4) is the
    # whole cycle and S(5) is empty
    assert box_ball_separable(spec_cycle(8), 3)
    assert not box_ball_separable(spec_cycle(8), 4)
    assert not box_ball_separable(spec_lattice(2), -1)


def _ball_separable_reference(ball, r):
    """The ball-based check the spec-level ``box_ball_separable`` replaced,
    with interval coordinates widened to moduli of at least 2r + 2: every
    offset component along them in {-1, 0, 1}, S closed under negating any
    one of them, and beta(r) of the built ball equal to (2r+1)^z * prod of
    the other moduli."""
    if not 0 <= r < ball.radius:
        return None
    factors = ball.spec.factors
    rows = np.array(spec_offsets(ball.spec), dtype=np.int64)
    interval, cyclic = [], []
    for j, n in enumerate(factors):
        col = rows[:, j] if n is None else np.where(2 * rows[:, j] > n, rows[:, j] - n,
                                                     rows[:, j])
        if (n is None or n >= 2 * r + 2) and np.all(np.abs(col) <= 1):
            rows[:, j] = col
            interval.append(j)
        elif n is None:
            return None
        else:
            cyclic.append(j)
    members = set(map(tuple, rows.tolist()))
    for i in interval:
        if {t[:i] + (-t[i],) + t[i + 1:] for t in members} != members:
            return None
    if not interval or ball.beta(r) != (2 * r + 1) ** len(interval) * np.prod(
            [factors[j] for j in cyclic], dtype=np.int64):
        return None
    return interval, cyclic


Z_C5_LONG = spec_explicit((None, 5), [(1, 0), (-1, 0), (0, 1), (0, -1),
                                      (1, 2), (1, -2), (-1, 2), (-1, -2)])
# (spec, r) that only the ball-based check accepts: B(r) is a product there,
# but S u {0} is not {-1, 0, 1}^D x A_C.  At r = 0 the torus's factors are
# all interval coordinates and its C3 steps join the box as a union; Z x C5
# with steps (+-1, +-2) but not (+-1, +-1) fills Z-interval x C5 from r = 2
# on (the test checks r <= 5)
ONLY_BALL_CHECK = {(spec_torus(6, 8, 3, full_last=True), 0),
                   *((Z_C5_LONG, r) for r in range(2, 6))}


def test_spec_and_ball_separability_agree():
    rng = np.random.Generator(np.random.Philox(key=[53, 0]))
    specs = [spec for spec, _ in (*SEPARABLE_BALLS.values(), *NON_SEPARABLE_BALLS.values(),
                                  *QUOTIENT_BALLS.values())]
    specs += [random_small_spec(rng) for _ in range(20)] + [Z_C5_LONG]
    only_ball = set()
    for spec in specs:
        ball = build_ball(spec, 6)
        for r in range(6):
            axes, reference = box_ball_separable(spec, r), _ball_separable_reference(ball, r)
            if axes:
                interval, cyclic, beta = axes
                assert (interval, cyclic) == reference, (spec, r)
                assert beta == (2 * r + 1) ** len(interval) * int(
                    np.prod([spec.factors[j] for j in cyclic], dtype=np.int64)), (spec, r)
                assert build_ball(spec, r + 1).beta(r) == beta, (spec, r)
            elif reference:
                only_ball.add((spec, r))
    assert only_ball == ONLY_BALL_CHECK
    # those take the quotient solve, which agrees with the full-grid sum
    ball = build_ball(Z_C5_LONG, 4)
    for r in (2, 3):
        tg = dirichlet_problem(ball, r)
        full = _mode_sum_reference(spec_offsets(Z_C5_LONG), Z_C5_LONG.factors, r, ([0], [1]))
        assert abs(p_resistance(tg, 2.0).resistance - full) <= 1e-10 * full


def _mode_sum_reference(offsets, factors, r, axes):
    """G_D(0, 0) summed over the full grid of odd sine modes x characters,
    as ``box_ball_resistance`` did before one coordinate went closed-form."""
    interval, cyclic = axes[:2]
    z, moduli = len(interval), [factors[j] for j in cyclic]
    grid = np.ix_(*[np.arange(r + 1)] * z, *[np.arange(n) for n in moduli])
    half = 2.0 * np.sin(np.pi * (2 * np.arange(r + 1) + 1) / (4 * r + 4)) ** 2
    sines = [half[k] for k in grid[:z]]
    groups = Counter((tuple(i for i, j in enumerate(interval) if s[j]),
                      tuple(s[j] for j in cyclic)) for s in offsets)
    mu = np.zeros([r + 1] * z + moduli)
    for (moved, step), count in groups.items():
        xs = [sines[i] for i in moved]
        if any(step):
            xs.append(energy._half_angle(grid[z:], step, moduli))
        term, keep = 0.0, 1.0
        for x in xs:
            term, keep = term + keep * x, keep * (1.0 - x)
        mu += count * term
    return float(np.sum(1.0 / mu)) / ((r + 1) ** z * np.prod(moduli))


# spec, radii of the closed form against the full grid: Z x C5 x C5 has
# modes whose offsets moving the Z coordinate sum to a negative cosine (b < 0)
CLOSED_FORM_CASES = {
    "z2": (spec_lattice(2), (3, 10, 1000)),
    "z3": (spec_lattice(3), (3, 16, 200)),
    "z_c5_c5": (spec_z_times_torus(5, 5), (2, 3, 6)),
    "torus16x16": (spec_torus(16, 16), (7,)),
    "fibered8x3": (spec_fibered_torus(8, 3), (3,)),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_box_ball_closed_form_matches_full_grid(name):
    spec, radii = CLOSED_FORM_CASES[name]
    for r in radii:
        axes = box_ball_separable(spec, r)
        want = _mode_sum_reference(spec_offsets(spec), spec.factors, r, axes)
        value = box_ball_resistance(spec_offsets(spec), spec.factors, r, axes)
        assert abs(value - want) <= 1e-13 * want, r


def test_box_ball_mode_sum_on_a_million_line():
    # B(r) of Z is two chains of r + 1 unit edges in parallel: R = (r + 1)/2.
    # mu = 2 * 2 sin^2(theta/2); 2 (1 - cos theta) is off by about 1.2e-5 here
    r = 10 ** 6
    value = box_ball_resistance(((-1,), (1,)), (None,), r)
    assert abs(value - (r + 1) / 2) <= 1e-12 * (r + 1) / 2


def test_box_ball_mode_sum_caps_its_terms():
    # (r+1)^(z-1) * prod n outer modes: 10^12 on Z^3 at r = 10^6, refused
    # before anything that size is allocated
    z3 = spec_lattice(3)
    with pytest.raises(SizeCapExceeded):
        box_ball_resistance(spec_offsets(z3), z3.factors, 10 ** 6)
    z_c5_c5 = spec_z_times_torus(5, 5)
    offsets = spec_offsets(z_c5_c5)
    with pytest.raises(SizeCapExceeded):
        box_ball_resistance(offsets, z_c5_c5.factors, 3, size_cap=24)
    assert box_ball_resistance(offsets, z_c5_c5.factors, 3, size_cap=25) > 0


def test_box_ball_mode_sum_rejects_non_box_offsets():
    with pytest.raises(BadArguments):
        box_ball_resistance(tuple(KNIGHT), (None, None), 3)


def test_box_ball_mode_sum_without_axes_checks_the_cover():
    # Z x C10 with C10 steps +-3 is a box, but B(r) covers C10 only from
    # r = 5 on; below that the mode sum would answer for a ball it is not
    offsets = spec_offsets(Z_C10_STEP3)
    with pytest.raises(BadArguments):
        box_ball_resistance(offsets, Z_C10_STEP3.factors, 2)
    exact = p_resistance(dirichlet_problem(build_ball(Z_C10_STEP3, 6), 5), 2.0).resistance
    value = box_ball_resistance(offsets, Z_C10_STEP3.factors, 5)
    assert abs(value - exact) <= 1e-12 * exact


SKEW = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
# spec, radius of the Dirichlet problem: box lattices, a product with two
# finite factors, the knight set, and a skew set on which only -id and the
# coordinate swap preserve S
QUOTIENT_BALLS = {
    "z2": (spec_lattice(2), 6),
    "z3": (spec_lattice(3), 3),
    "z_c5_c5": (spec_z_times_torus(5, 5), 2),
    "z2_knight": (spec_explicit((None, None), KNIGHT), 2),
    "z2_skew": (spec_explicit((None, None), SKEW), 5),
}


def _quotient_cases():
    rng = np.random.Generator(np.random.Philox(key=[47, 0]))
    cases = list(QUOTIENT_BALLS.values())
    while len(cases) < len(QUOTIENT_BALLS) + 12:
        spec = random_small_spec(rng)
        # 1 <= r and a nonempty sphere S(r + 1), which a finite graph can run out of
        top = int(build_ball(spec, 6).layer.max())
        if top >= 2:
            cases.append((spec, int(rng.integers(1, top))))
    return cases


# spec, n, r of an annulus problem R_p(S(n) <-> S(r)); the maps keep
# layers, so they fix both spheres
QUOTIENT_ANNULI = {
    "z2": (spec_lattice(2), 2, 6),
    "z_c5_c5": (spec_z_times_torus(5, 5), 1, 4),
    "z2_knight": (spec_explicit((None, None), KNIGHT), 1, 3),
}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_quotient_and_full_dirichlet_solves_agree(p):
    for spec, r in _quotient_cases():
        ball = build_ball(spec, r + 1)
        tg = dirichlet_problem(ball, r)
        q = dirichlet_problem(orbit_ball(spec, r + 1), r)
        assert q.graph.n == len(np.unique(reference_orbits(ball)[:ball.beta(r)])) + 1
        full = p_resistance(tg, p).resistance
        assert abs(p_resistance(q, p).resistance - full) <= 1e-10 * full, (spec, r)
    for spec, n, r in QUOTIENT_ANNULI.values():
        ball = build_ball(spec, r)
        tg = annulus_problem(ball, n, r)
        q = annulus_problem(orbit_ball(spec, r), n, r)
        # the free vertices are B(r) less both spheres
        free = ~np.isin(ball.layer, (n, r))
        assert q.graph.n == len(np.unique(reference_orbits(ball)[free])) + 2 < tg.graph.n
        full = p_resistance(tg, p).resistance
        assert abs(p_resistance(q, p).resistance - full) <= 1e-10 * full, (spec, n, r)


def _quotient_problem_reference(tg, rep):
    """The orbit contraction of a built problem: each class of ``rep`` (one
    label per vertex of ``tg``) becomes one vertex, numbered in label order."""
    _, index, sizes = np.unique(rep, return_inverse=True, return_counts=True)
    assert sizes[index[tg.source]] == sizes[index[tg.ground]] == 1
    return TerminalGraph(graphs._contract(tg.graph, index, sizes.size, tg.graph.n),
                         source=int(index[tg.source]), ground=int(index[tg.ground]))


def _problem_bits(tg):
    g = tg.graph
    return (g.n, tg.source, tg.ground,
            *((a.dtype.str, a.tobytes()) for a in (g.indptr, g.nbr, g.mult)))


Z2_C4 = spec_explicit((None, None, 4),
                      [s for s in itertools.product((-1, 0, 1), repeat=3) if any(s)])


def test_quotient_ball_problems_match_contracted_problems():
    # every problem built on the orbit ball is, bit for bit, the same
    # problem built on the ball and then contracted by its orbits
    specs = [spec for spec, _ in QUOTIENT_BALLS.values()] + [Z2_C4]
    specs += [spec for spec, _ in _quotient_cases()[len(QUOTIENT_BALLS):]]
    for spec in specs:
        ball, orbits = build_ball(spec, 7), orbit_ball(spec, 7)
        rep = reference_orbits(ball)
        for r in range(7):
            m = ball.beta(r)
            if ball.beta(r + 1) == m:  # a finite graph can run out of spheres
                for b in (ball, orbits):
                    with pytest.raises(EmptySet, match=rf"S\(x, {r + 1}\) is empty"):
                        dirichlet_problem(b, r)
                continue
            want = _quotient_problem_reference(dirichlet_problem(ball, r), np.append(rep[:m], m))
            assert _problem_bits(dirichlet_problem(orbits, r)) == _problem_bits(want)
        for n, r in itertools.combinations(range(1, 8), 2):
            if ball.beta(r) == ball.beta(r - 1):
                with pytest.raises(EmptySet):
                    annulus_problem(orbits, n, r)
                continue
            # free vertices keep their orbits; each sphere is a class past all orbits
            free = np.r_[0:ball.beta(n - 1), ball.beta(n):ball.beta(r - 1)]
            want = _quotient_problem_reference(
                annulus_problem(ball, n, r), np.append(rep[free], [ball.base.n, ball.base.n + 1]))
            assert _problem_bits(annulus_problem(orbits, n, r)) == _problem_bits(want)


def _sumset_cover_reference(steps, moduli):
    """Least r whose r-fold sumset of steps u {0} is prod Z_n, by sets of tuples."""
    reached, r = {(0,) * len(moduli)}, 0
    while len(reached) < math.prod(moduli):
        grown = reached | {tuple((x + s) % n for x, s, n in zip(a, step, moduli))
                           for a in reached for step in steps}
        if grown == reached:
            return math.inf
        reached, r = grown, r + 1
    return r


def test_cover_radius_matches_sumset_reference():
    rng = np.random.Generator(np.random.Philox(key=[30, 0]))
    cases = [((), ()), (((0,),), (5,)), (((0, 0),), (3, 4))]
    for _ in range(300):
        moduli = tuple(int(n) for n in rng.integers(2, 8, size=rng.integers(1, 4)))
        picks = {tuple(int(rng.integers(n)) for n in moduli)
                 for _ in range(rng.integers(1, 4))}
        # symmetric, canonical, with or without the identity
        steps = picks | {tuple(-x % n for x, n in zip(s, moduli)) for s in picks}
        cases.append((tuple(sorted(steps)), moduli))
    finite = 0
    for steps, moduli in cases:
        want = _sumset_cover_reference(steps, moduli)
        assert energy._cover_radius(steps, moduli) == want, (steps, moduli)
        finite += math.isfinite(want)
    # both outcomes are exercised
    assert 50 < finite < len(cases) - 50
