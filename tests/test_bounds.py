import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings
from hypothesis import strategies as st

from vtres import (
    bk_upper_bound,
    build_ball,
    build_cayley_graph,
    collapse_terminals,
    csc_bound,
    dirichlet_problem,
    exponent_functions,
    growth_profile,
    j_quantity,
    loglog_slope,
    make_report,
    nash_williams_bound,
    p_resistance,
    pair_resistance,
    sphere_cutsets,
    spec_cycle,
    spec_cyclic_chords,
    spec_explicit,
    spec_lattice,
    spec_line,
    spec_torus,
    spec_z_times_torus,
    theorem_rhs,
)
from vtres import bounds
from vtres.bounds import (
    BkBound,
    CutsetFamily,
    alpha_exponent,
    b_exponent,
    diameter_resistance_lower,
    h_star,
    homogeneous_dimension,
    j_upper_from_profile,
    validate_cutsets,
)
from vtres.errors import (
    BadArguments,
    DomainError,
    EmptyBoundary,
    InvalidCutsets,
    MissingParam,
    OutOfProfileRange,
    ProfileUnavailable,
    SizeCapExceeded,
    VtresError,
)
from vtres.cli import main
from vtres.graphs import connected_supersets, from_edge_list, orbit_ball
from vtres.manifest import _torus_with_fiber

from conftest import random_small_spec, series_graph


# ---------------------------------------------------------------------------
# Nash-Williams
# ---------------------------------------------------------------------------

def test_sphere_cutsets_on_cycle_equal_exact():
    b = build_ball(spec_cycle(12), 6)
    fam = sphere_cutsets(b, 3)
    assert fam.sizes == (2.0, 2.0, 2.0)
    nw = nash_williams_bound(fam, 2.0)
    exact = p_resistance(dirichlet_problem(b, 2), 2.0).resistance
    assert abs(nw - 1.5) < 1e-12
    assert abs(nw - exact) < 1e-9


def test_single_cutset_gives_reciprocal_size():
    fam = CutsetFamily(cutsets=(((0, 1, 4),),), sizes=(4.0,), graph=from_edge_list(
        2, [(0, 1, 4)]), source=(0,), ground=(1,))
    for p in (1.5, 2.0, 3.0):
        assert abs(nash_williams_bound(fam, p) - 0.25) < 1e-12


def test_cutset_sizes_must_be_multiplicity_sums():
    # a size below its cutset's multiplicity sum would lift the bound above
    # the true R_2 = 0.25 of one edge of multiplicity 4
    graph = from_edge_list(2, [(0, 1, 4)])
    for sizes in ((1.0,), (4.0, 4.0), ()):
        fam = CutsetFamily(cutsets=(((0, 1, 4),),), sizes=sizes, graph=graph,
                           source=(0,), ground=(1,))
        with pytest.raises(InvalidCutsets, match="sizes are not their multiplicity sums"):
            nash_williams_bound(fam, 2.0)


def test_nash_williams_below_exact_z2():
    b = build_ball(spec_lattice(2), 6)
    fam = sphere_cutsets(b, 5)
    for p in (1.5, 2.0, 2.5, 3.0, 4.0):
        nw = nash_williams_bound(fam, p)
        exact = p_resistance(dirichlet_problem(b, 4), p).resistance
        assert nw <= exact * (1 + 1e-9)


def test_cutset_sizes_match_direct_enumeration():
    b = build_ball(spec_lattice(2), 4)
    fam = sphere_cutsets(b, 3)
    for i, cutset in enumerate(fam.cutsets):
        count = 0
        for u in range(b.base.n):
            if b.layer[u] != i:
                continue
            nb, mu = b.base.neighbors(u)
            count += int(mu[b.layer[nb] == i + 1].sum())
        assert fam.sizes[i] == count == len(cutset)


def test_cutset_validation_rejects_overlap():
    b = build_ball(spec_cycle(12), 4)
    fam = sphere_cutsets(b, 3)
    bad = CutsetFamily(cutsets=(fam.cutsets[0], fam.cutsets[0]),
                       sizes=(2.0, 2.0), graph=fam.graph,
                       source=fam.source, ground=fam.ground)
    with pytest.raises(InvalidCutsets):
        validate_cutsets(bad)


def test_cutset_validation_rejects_nonseparating():
    b = build_ball(spec_cycle(12), 4)
    fam = sphere_cutsets(b, 3)
    half = fam.cutsets[1][:1]  # only one of the two crossing edges
    bad = CutsetFamily(cutsets=(half,), sizes=(1.0,), graph=fam.graph,
                       source=fam.source, ground=fam.ground)
    with pytest.raises(InvalidCutsets):
        validate_cutsets(bad)


def test_cutset_validation_rejects_bad_terminals():
    # a family with an empty or wrapped ground separates nothing, yet its
    # cutsets would still sum to a bound
    fam = sphere_cutsets(build_ball(spec_lattice(2), 3), 3)
    n = fam.graph.n
    for source, ground in (((0,), ()), ((), fam.ground), ((0,), (-1,)),
                           ((-1,), fam.ground), ((0,), (n,)), ((0,), (0,))):
        bad = CutsetFamily(cutsets=fam.cutsets, sizes=fam.sizes, graph=fam.graph,
                           source=source, ground=ground)
        with pytest.raises(InvalidCutsets):
            validate_cutsets(bad)
        with pytest.raises(InvalidCutsets):
            nash_williams_bound(bad, 2.0)


def test_nash_williams_checks_terminals_without_validate():
    # validate=False skips only the per-cutset checks: an empty or
    # out-of-range terminal set still fails
    fam = sphere_cutsets(build_ball(spec_lattice(2), 3), 3)
    for source, ground in (((0,), ()), ((0,), (-1,)), ((0,), (0,))):
        bad = CutsetFamily(cutsets=fam.cutsets, sizes=fam.sizes, graph=fam.graph,
                           source=source, ground=ground)
        with pytest.raises(InvalidCutsets):
            nash_williams_bound(bad, 2.0, validate=False)
    overlap = CutsetFamily(cutsets=fam.cutsets + fam.cutsets[:1],
                           sizes=fam.sizes + fam.sizes[:1], graph=fam.graph,
                           source=fam.source, ground=fam.ground)
    assert nash_williams_bound(overlap, 2.0, validate=False) > 0
    with pytest.raises(InvalidCutsets):
        nash_williams_bound(overlap, 2.0)


def _ring_family(cutsets):
    b = build_ball(spec_cycle(12), 4)
    fam = sphere_cutsets(b, 3)
    return fam, CutsetFamily(cutsets=cutsets(fam.cutsets), sizes=fam.sizes,
                             graph=fam.graph, source=fam.source, ground=fam.ground)


def test_cutset_validation_rejects_missing_edge():
    # vertices 0 and 5 of the ring ball are not adjacent
    _, bad = _ring_family(lambda cs: (cs[0] + ((0, 5, 1),),) + cs[1:])
    with pytest.raises(InvalidCutsets, match="not present"):
        validate_cutsets(bad)


def test_cutset_validation_rejects_multiplicity_mismatch():
    def bump(cs):
        u, v, m = cs[1][0]
        return (cs[0], ((u, v, m + 1),) + cs[1][1:]) + cs[2:]
    _, bad = _ring_family(bump)
    with pytest.raises(InvalidCutsets, match="multiplicity mismatch"):
        validate_cutsets(bad)


def test_cutset_validation_rejects_repeat_inside_cutset():
    _, bad = _ring_family(lambda cs: (cs[0], cs[1] + cs[1][:1]) + cs[2:])
    with pytest.raises(InvalidCutsets, match="repeated inside a cutset"):
        validate_cutsets(bad)


def _reachable_without(graph, source, banned):
    """Which vertices share a component with ``source`` once the (min, max)
    edges in ``banned`` are deleted."""
    n = graph.n
    eu, ev, _ = graph.edges
    kept = ~np.isin(eu * n + ev, [u * n + v for u, v in banned])
    adj = sp.coo_matrix((np.ones(int(kept.sum())), (eu[kept], ev[kept])), shape=(n, n))
    label = connected_components(adj, directed=False)[1]
    return np.isin(label, label[list(source)])


def _validate_cutsets_loop(family):
    """Edge-by-edge reference for validate_cutsets: its message, or None."""
    seen = set()
    eu, ev, em = family.graph.edges
    adj = {(int(u), int(v)): int(m) for u, v, m in zip(eu, ev, em)}
    for cutset in family.cutsets:
        pairs = set()
        for u, v, m in cutset:
            key = (min(u, v), max(u, v))
            if key not in adj:
                return f"edge {key} not present in the graph"
            if m != adj[key]:
                return f"edge {key} multiplicity mismatch"
            if key in pairs:
                return f"edge {key} repeated inside a cutset"
            pairs.add(key)
        if pairs & seen:
            return "cutsets are not pairwise disjoint"
        seen |= pairs
        if _reachable_without(family.graph, family.source, pairs)[list(family.ground)].any():
            return "a cutset fails to separate source from ground"
    if family.sizes != tuple(sum(m for _, _, m in c) for c in family.cutsets):
        return "cutset sizes are not their multiplicity sums"
    return None


def _matches_loop_reference(family):
    """Check validate_cutsets against the loop reference; its message, or None."""
    want = _validate_cutsets_loop(family)
    if want is None:
        validate_cutsets(family)
    else:
        with pytest.raises(InvalidCutsets) as info:
            validate_cutsets(family)
        assert str(info.value) == want
    return want


def test_validate_cutsets_matches_loop_reference():
    b = build_ball(spec_lattice(2), 5)
    fam = sphere_cutsets(b, 4)
    eu, ev, em = b.base.edges
    rng = np.random.Generator(np.random.Philox(key=[33, 0]))
    seen_kinds = set()
    for trial in range(120):
        cs = [list(c) for c in fam.cutsets]
        for _ in range(int(rng.integers(0, 3))):
            i = int(rng.integers(0, len(cs)))
            j = int(rng.integers(0, len(cs[i])))
            u, v, m = cs[i][j]
            kind = int(rng.integers(0, 7))
            if kind == 0:      # an edge of the graph that is not in any cutset
                k = int(rng.integers(0, len(eu)))
                cs[i].append((int(eu[k]), int(ev[k]), int(em[k])))
            elif kind == 1:    # a pair that is not an edge
                cs[i].insert(j, (u, u + 1000, 1))
            elif kind == 2:
                cs[i][j] = (u, v, m + 1)
            elif kind == 3:
                cs[i].append(cs[i][j])
            elif kind == 4:    # the same edge in two cutsets
                cs[(i + 1) % len(cs)].append((v, u, m))
            elif kind == 5:
                del cs[i][j]
            else:              # reversed orientation is the same edge
                cs[i][j] = (v, u, m)
        bad = CutsetFamily(cutsets=tuple(tuple(c) for c in cs), sizes=fam.sizes,
                           graph=fam.graph, source=fam.source, ground=fam.ground)
        want = _matches_loop_reference(bad)
        seen_kinds.add(want and want.rsplit(") ", 1)[-1])
    assert len(seen_kinds) == 7


def _reach_matches_search_per_cutset(family):
    """Every bit of the one-pass masks against a search with that cutset deleted."""
    g = family.graph
    cutsets = [sorted({(min(u, v), max(u, v)) for u, v, _ in c}) for c in family.cutsets]
    pairs = np.array([e for c in cutsets for e in c], dtype=np.int64).reshape(-1, 2)
    cid = np.repeat(np.arange(len(cutsets)), [len(c) for c in cutsets])
    reach = bounds._reach_past_cutsets(g, np.array(family.source), pairs, cid, len(cutsets))
    assert reach.shape == (g.n, -(-len(cutsets) // 64)) and reach.dtype == np.uint64
    for j, cut in enumerate(cutsets):
        bit = (reach[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)
        assert bit.astype(bool).tolist() == _reachable_without(g, family.source, cut).tolist(), j
    # no bit past the last cutset is ever set
    if len(cutsets) % 64:
        assert not (reach[:, -1] >> np.uint64(len(cutsets) % 64)).any()


def _without_edge(family, i):
    cutsets = list(family.cutsets)
    cutsets[i] = cutsets[i][1:]
    return dataclasses.replace(family, cutsets=tuple(cutsets))


@pytest.mark.parametrize("drop", [None, 3, 66])
def test_one_pass_check_past_64_cutsets(drop):
    # 70 sphere cutsets take two mask words; cutset 66's bit is in the second
    fam = sphere_cutsets(build_ball(spec_lattice(2), 70), 70)
    assert len(fam.cutsets) == 70
    if drop is not None:
        fam = _without_edge(fam, drop)
    want = _matches_loop_reference(fam)
    assert want == (None if drop is None else "a cutset fails to separate source from ground")
    _reach_matches_search_per_cutset(fam)


def test_one_pass_check_from_a_source_set():
    # the sphere cutsets past B(x, 1) separate all of B(x, 1) from S(x, 6)
    b = build_ball(spec_lattice(2), 6)
    fam = sphere_cutsets(b, 6)
    inner = tuple(range(b.prefix(1)))
    assert len(inner) == 9
    outer = dataclasses.replace(fam, cutsets=fam.cutsets[1:], sizes=fam.sizes[1:], source=inner)
    # a source vertex on S(x, 3) lies past the first two of them
    past = dataclasses.replace(outer, source=inner + (int(b.sphere_ids(3)[0]),))
    # from S(x, 6) inwards, each cutset is crossed from its larger ids
    inward = dataclasses.replace(fam, source=fam.ground, ground=fam.source)
    fails = "a cutset fails to separate source from ground"
    for family, want in ((outer, None), (_without_edge(outer, 2), fails), (past, fails),
                         (inward, None), (_without_edge(inward, 4), fails)):
        assert _matches_loop_reference(family) == want
        _reach_matches_search_per_cutset(family)


def test_one_pass_check_on_an_orbit_ball():
    # orbit edges carry multiplicities above 1
    fam = sphere_cutsets(orbit_ball(_torus_with_fiber(2, 8, 2), 4), 4)
    assert max(m for c in fam.cutsets for _, _, m in c) > 1
    u, v, m = fam.cutsets[1][0]
    bumped = (fam.cutsets[0], ((u, v, m + 1),) + fam.cutsets[1][1:]) + fam.cutsets[2:]
    cases = ((fam, None),
             (_without_edge(fam, 2), "a cutset fails to separate source from ground"),
             (dataclasses.replace(fam, cutsets=bumped),
              f"edge {(min(u, v), max(u, v))} multiplicity mismatch"))
    for family, want in cases:
        assert _matches_loop_reference(family) == want
        _reach_matches_search_per_cutset(family)


def test_each_cutset_family_is_checked_once(monkeypatch, tmp_path):
    # sharpness sums each (d, n) family at every p; the check runs once per family
    calls = []
    real = bounds._reach_past_cutsets
    monkeypatch.setattr(bounds, "_reach_past_cutsets",
                        lambda *args: calls.append(args[-1]) or real(*args))
    assert main(["repro", "sharpness", "--p", "2,3", "--d", "2,3", "--n", "8,12,16",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 6
    calls.clear()
    fam = sphere_cutsets(build_ball(spec_lattice(2), 5), 5)
    assert nash_williams_bound(fam, 2.0) < nash_williams_bound(fam, 3.0)
    assert calls == [5]
    # a broken family's finding is cached too
    bad = _without_edge(fam, 1)
    for _ in range(2):
        with pytest.raises(InvalidCutsets, match="fails to separate"):
            nash_williams_bound(bad, 2.0)
    assert calls == [5, 5]


@pytest.mark.parametrize("validate", [True, False])
def test_nash_williams_empty_cutset_is_infinite(validate):
    # source and ground are already disconnected, so R_p is infinite and the
    # empty cutset is a valid one
    fam = CutsetFamily(cutsets=((),), sizes=(0.0,), graph=from_edge_list(
        4, [(0, 1, 1), (2, 3, 1)]), source=(0,), ground=(3,))
    validate_cutsets(fam)
    for p in (1.5, 2.0, 3.0):
        assert nash_williams_bound(fam, p, validate=validate) == math.inf


@pytest.mark.parametrize("p", [math.nan, math.inf, 1.0, 0.5])
def test_bounds_refuse_p_not_finite_and_above_one(p):
    g = build_cayley_graph(spec_cycle(8))
    fam = CutsetFamily(cutsets=(((0, 1, 4),),), sizes=(4.0,), graph=from_edge_list(
        2, [(0, 1, 4)]), source=(0,), ground=(1,))
    ball = build_ball(spec_cycle(12), 4)
    for call, error in ((lambda: nash_williams_bound(fam, p), BadArguments),
                        (lambda: nash_williams_bound(fam, p, validate=False), BadArguments),
                        (lambda: diameter_resistance_lower(p, 2, 4, 8), BadArguments),
                        (lambda: j_quantity(g, [0, 1], p), BadArguments),
                        (lambda: bk_upper_bound((ball, 2), p), BadArguments),
                        (lambda: alpha_exponent(p), DomainError)):
        with pytest.raises(VtresError, match=r"p must be finite and > 1, got") as info:
            call()
        assert type(info.value) is error


def _sphere_cutsets_loop(ball, r):
    """Vertex-by-vertex reference for sphere_cutsets' edge lists."""
    out = []
    for i in range(r):
        edges = []
        for u in ball.sphere_ids(i):
            nb, mu = ball.base.neighbors(int(u))
            up = ball.layer[nb] == i + 1
            edges += [(int(u), int(v), int(m)) for v, m in zip(nb[up], mu[up])]
        out.append(tuple(edges))
    return tuple(out)


@pytest.mark.parametrize("spec,radius", [
    (spec_cycle(12), 4), (spec_lattice(2), 6), (spec_lattice(3), 3),
    (spec_torus(5, 6), 4), (spec_z_times_torus(3), 5), (spec_cyclic_chords(15, 3), 3),
])
def test_sphere_cutsets_match_loop_reference(spec, radius):
    b = build_ball(spec, radius)
    r = min(radius, b.radius)
    fam = sphere_cutsets(b, r)
    ref = _sphere_cutsets_loop(b, r)
    assert fam.cutsets == ref
    assert fam.sizes == tuple(float(sum(m for _, _, m in c)) for c in ref)
    assert fam.ground == tuple(int(v) for v in b.sphere_ids(r))
    assert all(type(x) is int for c in fam.cutsets for e in c for x in e)


@pytest.mark.parametrize("k", [1, 2, 3, "n"])
@pytest.mark.parametrize("n", [6, 8, 12, 16])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_cutsets_count_edges_on_an_orbit_ball(d, n, k):
    # the tori of table1 and sharpness_nw: an orbit edge from A to B carries
    # |A| #{s : a + s in B} ball edges, so every cut has the full ball's size
    spec = _torus_with_fiber(d, n, n if k == "n" else k)
    full, orbits = (sphere_cutsets(build(spec, n // 2), n // 2)
                    for build in (build_ball, orbit_ball))
    assert orbits.sizes == full.sizes
    for p in (1.5, 2.0, 3.0):
        assert nash_williams_bound(orbits, p) == nash_williams_bound(full, p)


def test_nash_williams_random_instances():
    rng = np.random.Generator(np.random.Philox(key=[21, 0]))
    for _ in range(15):
        spec = random_small_spec(rng)
        r = int(rng.integers(2, 5))
        ball = build_ball(spec, r + 1)
        if ball.beta(r) == ball.beta(r - 1):
            continue
        fam = sphere_cutsets(ball, r)
        p = float(rng.choice([1.5, 2.0, 2.5, 3.0, 4.0]))
        nw = nash_williams_bound(fam, p)
        exact = p_resistance(dirichlet_problem(ball, r - 1), p).resistance
        assert nw <= exact * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Growth-based bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [spec_cycle(12), spec_torus(4, 4),
                                  spec_cyclic_chords(10, 3)])
@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_diameter_lower_bound_below_exact(spec, p):
    from vtres.bounds import diameter_resistance_lower
    from vtres.graphs import bfs_layers, graph_growth_profile
    g = build_cayley_graph(spec)
    dist = bfs_layers(g, [0])
    v = int(np.argmax(dist))
    bound = diameter_resistance_lower(p, int(g.degree[0]), int(dist[v]),
                                      g.edge_weight_total)
    exact = pair_resistance(g, 0, v, p).resistance
    assert bound <= exact * (1 + 1e-9)


def test_vertex_and_edge_terms_are_comparable():
    # the two expressions inside the j minimum sandwich each other within
    # explicit degree factors
    rng = np.random.Generator(np.random.Philox(key=[5, 5]))
    g = build_cayley_graph(spec_torus(4, 4))
    deg = g.max_degree
    from vtres.graphs import boundary
    for _ in range(40):
        size = int(rng.integers(1, g.n - 1))
        ids = rng.choice(g.n, size=size, replace=False)
        info = boundary(g, ids)
        for p in (1.5, 2.0, 3.0):
            q1, q2 = p / (p - 1), 1 / (p - 1)
            vterm = size / info.vertex_size ** q1 + 1 / info.vertex_size ** q2
            eterm = deg * size / info.edge_size ** q1 + 1 / info.edge_size ** q2
            assert eterm / deg <= vterm * (1 + 1e-12)
            assert vterm <= deg ** q2 * eterm * (1 + 1e-12)


def test_chord_family_resistance_formula_tracks_exact():
    # 1/k + n^(p-1)/k^(p+1) captures the chord-graph resistance up to a
    # stable constant across the n sweep
    from vtres import max_resistance
    for p in (2.0, 3.0):
        ratios = []
        for n in (12, 16, 20):
            g = build_cayley_graph(spec_cyclic_chords(n, 3))
            exact, _ = max_resistance(g, p)
            formula = 1 / 3 + n ** (p - 1) / 3 ** (p + 1)
            ratios.append(exact / formula)
        assert max(ratios) / min(ratios) < 1.5
        assert all(r < 1.0 for r in ratios)


def test_csc_values():
    z2 = growth_profile(build_ball(spec_lattice(2), 5))
    assert abs(csc_bound(z2, 25) - 25 / 48) < 1e-12
    assert abs(csc_bound(z2, 1) - 1 / 12) < 1e-12
    line = growth_profile(build_ball(spec_line(), 11))
    assert abs(csc_bound(line, 10) - 10 / 120) < 1e-12


def test_csc_out_of_range():
    gp = growth_profile(build_ball(spec_lattice(2), 3))
    with pytest.raises(OutOfProfileRange):
        csc_bound(gp, 100)


# ---------------------------------------------------------------------------
# j-quantity and the connected-set upper bound
# ---------------------------------------------------------------------------

def test_j_singleton_degree8():
    b = build_ball(spec_lattice(2), 2)
    assert abs(j_quantity(b.base, [0], 2.0, ambient_degree=8) - 9 / 64) < 1e-12


def test_j_single_edge():
    assert abs(j_quantity(series_graph(1), [0], 2.0) - 2.0) < 1e-12


def test_j_arc_in_c12():
    g = build_cayley_graph(spec_cycle(12))
    expect = math.sqrt(2) + 1 / math.sqrt(2)
    assert abs(j_quantity(g, [0, 1, 2, 3], 3.0) - expect) < 1e-12


def test_j_empty_boundary():
    g = from_edge_list(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(EmptyBoundary):
        j_quantity(g, [0, 1], 2.0)


def test_j_profile_upper_dominates_j():
    g = build_cayley_graph(spec_torus(3, 3))
    for a in range(1, 5):
        ids = list(range(a))
        from vtres.graphs import boundary
        vb = boundary(g, ids).vertex_size
        assert j_quantity(g, ids, 2.0) <= j_upper_from_profile(a, vb, 2.0) + 1e-12


def test_bk_pair_on_cycle():
    g = build_cayley_graph(spec_cycle(12))
    tg = collapse_terminals(g, [0], [6])
    bound = bk_upper_bound(tg, 2.0, "exhaustive")
    exact = pair_resistance(g, 0, 6, 2.0).resistance
    assert bound.value > 0
    # implied-constant bound: exact <= C * bound with the observed C
    ratio = bound.value / exact
    assert 1.0 <= ratio <= 10.0


def test_bk_pair_profile_on_finite_torus():
    # block 0 (sets beyond half the torus) lies past the profile and the pair
    # form drops it, so it must not be evaluated
    g = build_cayley_graph(spec_torus(12, 12))
    tg = collapse_terminals(g, [0], [78])
    bound = bk_upper_bound(tg, 2.0, "profile")
    assert bound.value >= pair_resistance(g, 0, 78, 2.0).resistance
    assert len(bound.block_maxima) == 8 and all(m > 0 for m in bound.block_maxima)


def test_bk_single_edge():
    tg = collapse_terminals(series_graph(1), [0], [1])
    bound = bk_upper_bound(tg, 2.0, "exhaustive")
    # base terms 1/deg(u) + 1/deg(v) plus one block of singleton sets
    assert bound.value == 6.0


def test_bk_pair_exhaustive_matches_cycle_shortcut():
    # the arc shortcut must agree with generic enumeration on a small cycle
    g = build_cayley_graph(spec_cycle(8))
    tg = collapse_terminals(g, [0], [4])
    via_arcs = bk_upper_bound(tg, 2.0, "exhaustive")
    dense = from_edge_list(8, [(u, v, 1) for u in range(8) for v in range(u + 1, 8)
                               if (u - v) % 8 in (1, 7)])
    tg2 = collapse_terminals(dense, [0], [4])
    via_esu = bk_upper_bound(tg2, 2.0, "exhaustive")
    assert abs(via_arcs.value - via_esu.value) < 1e-12


def test_bk_ball_profile_strategy():
    ball = build_ball(spec_lattice(2), 9)
    bound = bk_upper_bound((ball, 4), 2.0, "profile")
    exact = p_resistance(dirichlet_problem(ball, 4), 2.0).resistance
    assert bound.value >= exact  # the profile route only weakens the bound
    ratio = bound.value / exact
    assert ratio < 1e5


def test_bk_ball_profile_ratio_bounded_across_radii():
    ball = build_ball(spec_lattice(2), 17)
    ratios = []
    for r in (2, 4, 8):
        bound = bk_upper_bound((ball, r), 2.0, "profile")
        exact = p_resistance(dirichlet_problem(ball, r), 2.0).resistance
        ratios.append(bound.value / exact)
    assert max(ratios) / min(ratios) < 3.0


def test_bk_ball_exhaustive_small():
    ball = build_ball(spec_cycle(12), 3)
    bound = bk_upper_bound((ball, 2), 2.0, "exhaustive")
    exact = p_resistance(dirichlet_problem(ball, 2), 2.0).resistance
    assert bound.value >= exact


def test_bk_caps_and_profile_errors():
    ball = build_ball(spec_lattice(2), 5)
    with pytest.raises(SizeCapExceeded):
        bk_upper_bound((ball, 4), 2.0, "exhaustive")
    with pytest.raises(ProfileUnavailable):
        bk_upper_bound((ball, 4), 2.0, "profile")  # profile range too short


def test_bk_ball_form_on_an_orbit_ball():
    # a subset's boundary is not an orbit quantity, so the exhaustive
    # strategy refuses an orbit ball; the profile strategy reads only beta
    with pytest.raises(BadArguments, match="full ball"):
        bk_upper_bound((orbit_ball(spec_torus(8), 3), 2), 2.0, "exhaustive")
    want = bk_upper_bound((build_ball(spec_lattice(2), 5), 3), 2.0, "profile")
    assert bk_upper_bound((orbit_ball(spec_lattice(2), 5), 3), 2.0, "profile") == want
    assert abs(want.value - 548.401) < 1e-3


def _reference_rooted(g, root, allowed, total, nmax, p, deg):
    """Block maxima of j over connected sets containing root, set by set."""
    masks = [sum(1 << int(w) for w in g.neighbors(v)[0] if w < total)
             for v in range(total)]
    maxima = [0.0] * (nmax + 1)
    for s in connected_supersets(masks, root, allowed):
        n = int(math.floor(math.log2(total / s.bit_count())))
        if 0 <= n <= nmax:
            ids = [v for v in range(total) if (s >> v) & 1]
            maxima[n] = max(maxima[n], j_quantity(g, ids, p, ambient_degree=deg))
    return maxima


def _reference_arcs(g, u, v, nmax, p):
    """Block maxima of j over the arcs through u that avoid v, walking the cycle."""
    order, prev = [u], -1
    while len(order) < g.n:
        nb = [int(w) for w in g.neighbors(order[-1])[0]]
        nxt = nb[0] if nb[0] != prev else nb[1]
        prev = order[-1]
        order.append(nxt)
    pos_v = order.index(v)
    maxima = [0.0] * (nmax + 1)
    for size in range(1, g.n - 1):
        n = int(math.floor(math.log2(g.n / size)))
        if not 0 <= n <= nmax:
            continue
        start = next(st for st in range(-size + 1, 1)
                     if pos_v not in [(st + k) % g.n for k in range(size)])
        arc = [order[(start + k) % g.n] for k in range(size)]
        maxima[n] = max(maxima[n], j_quantity(g, arc, p))
    return maxima


def _bk_reference(problem, p):
    if isinstance(problem, tuple):
        ball, r = problem
        total, deg = ball.beta(r), ball.spec.ambient_degree()
        nmax = int(math.floor(math.log2(total / deg)))
        base = deg ** (-1.0 / (p - 1.0))
        maxima = _reference_rooted(ball.base, 0, (1 << total) - 1, total, nmax, p, deg)
        return BkBound((base + sum(maxima)) ** (p - 1.0), base, tuple(maxima))
    g, u, v = problem.graph, problem.source, problem.ground
    cycle = bool(np.all(g.degree == 2) and np.all(g.mult == 1))
    total = g.n
    base = int(g.degree[u]) ** (-1.0 / (p - 1.0)) + int(g.degree[v]) ** (-1.0 / (p - 1.0))
    out = []
    for root, other in ((u, v), (v, u)):
        nmax = min(int(math.floor(math.log2(total / int(g.degree[root])))),
                   int(math.floor(math.log2(total))))
        if nmax < 1:
            continue
        if cycle:
            maxima = _reference_arcs(g, root, other, nmax, p)
        else:
            maxima = _reference_rooted(g, root, ((1 << total) - 1) & ~(1 << other),
                                       total, nmax, p, None)
        out.extend(maxima[1:])
    return BkBound((base + sum(out)) ** (p - 1.0), base, tuple(out))


def _bk_reference_cases():
    z2_axes = spec_explicit((None, None), [(1, 0), (-1, 0), (0, 1), (0, -1)])
    # B(x, 2) of Z^6 has 85 vertices: boundaries reach past a 62-bit mask
    z6_axes = spec_explicit((None,) * 6, [tuple(s * (i == j) for j in range(6))
                                          for i in range(6) for s in (1, -1)])
    torus_axes = spec_explicit((3, 3), [(1, 0), (2, 0), (0, 1), (0, 2)])
    multi = from_edge_list(8, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 1),
                               (5, 6, 2), (6, 7, 1), (7, 0, 1), (1, 5, 1), (2, 6, 1)])
    dense_c8 = from_edge_list(8, [(u, v, 1) for u in range(8) for v in range(u + 1, 8)
                                  if (u - v) % 8 in (1, 7)])

    def pair(g, u, v):
        return collapse_terminals(g, [u], [v])

    return {
        "z2-axes-r1": (build_ball(z2_axes, 2), 1),
        "z2-axes-r2": (build_ball(z2_axes, 3), 2),
        "z2-box-r1": (build_ball(spec_lattice(2), 2), 1),
        "z6-axes-r1": (build_ball(z6_axes, 2), 1),
        "c12-ball-r2": (build_ball(spec_cycle(12), 3), 2),
        "c8-pair": pair(build_cayley_graph(spec_cycle(8)), 0, 4),
        "c12-pair": pair(build_cayley_graph(spec_cycle(12)), 0, 6),
        "c30-pair": pair(build_cayley_graph(spec_cycle(30)), 0, 15),
        "dense-c8-pair": pair(dense_c8, 0, 4),
        "torus3x3-pair": pair(build_cayley_graph(torus_axes), 0, 4),
        "multigraph-pair": pair(multi, 0, 4),
    }


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("case", sorted(_bk_reference_cases()))
def test_bk_exhaustive_matches_set_by_set_reference(case, p):
    problem = _bk_reference_cases()[case]
    assert bk_upper_bound(problem, p, "exhaustive") == _bk_reference(problem, p)


# Profile-strategy bounds recorded from the two-branch implementation that
# the per-root loop replaced.  Balls are built to radius 2r: at radius r+1
# the growth profile is too short for the csc bound.
_BK_PROFILE_GOLDEN = {
    ("z2-r4", 1.5): BkBound(43.94362210613003, 0.015625, (
        256.98988697204044, 353.89439999999996, 552.1420118343195, 768.0)),
    ("z2-r4", 2.0): BkBound(751.4393714821763, 0.125, (
        175.609756097561, 184.31999999999996, 199.3846153846154, 192.0)),
    ("z2-r4", 3.0): BkBound(255667.83220875968, 0.3535533905932738, (
        156.44576916147204, 133.02150202128976, 119.8152423846495, 96.0)),
    ("z2-r8", 1.5): BkBound(50.5258562717229, 0.015625, (
        119.82991676575506, 164.07031141868515, 256.98988697204044,
        353.89439999999996, 552.1420118343195, 1105.9199999999998)),
    ("z2-r8", 2.0): BkBound(1116.7456595146307, 0.125, (
        160.88275862068966, 166.0235294117647, 175.609756097561,
        184.31999999999996, 199.3846153846154, 230.39999999999998)),
    ("z2-r8", 3.0): BkBound(817339.6072081216, 0.3535533905932738, (
        212.30039237781355, 176.9691738568478, 156.44576916147204,
        133.02150202128976, 119.8152423846495, 105.16273104099189)),
    ("z3-r3", 1.5): BkBound(10.036367548547442, 0.0014792899408284023, (
        7.4764737696051915, 12.616549486208763, 23.510204081632654, 57.12396694214877)),
    ("z3-r3", 2.0): BkBound(150.4751876030946, 0.038461538461538464, (
        26.790697674418603, 30.139534883720934, 41.142857142857146, 52.36363636363637)),
    ("z3-r3", 3.0): BkBound(40826.261573849704, 0.19611613513818404, (
        50.71397220435593, 46.583758023885395, 54.42688411332872, 50.13436491524098)),
    ("torus12-pair", 1.5): BkBound(67.36411394513193, 0.03125, (
        256.98988697204044, 353.89439999999996, 552.1420118343195, 1105.9199999999998,
        256.98988697204044, 353.89439999999996, 552.1420118343195, 1105.9199999999998)),
    ("torus12-pair", 2.0): BkBound(1579.6787429643528, 0.25, (
        175.609756097561, 184.31999999999996, 199.3846153846154, 230.39999999999998,
        175.609756097561, 184.31999999999996, 199.3846153846154, 230.39999999999998)),
    ("torus12-pair", 3.0): BkBound(1060071.209684846, 0.7071067811865476, (
        156.44576916147204, 133.02150202128976, 119.8152423846495, 105.16273104099189,
        156.44576916147204, 133.02150202128976, 119.8152423846495, 105.16273104099189)),
    ("c30-pair", 1.5): BkBound(415.692795222626, 0.5, (
        51840.000000000015, 24192.000000000007, 10368.000000000002,
        51840.000000000015, 24192.000000000007, 10368.000000000002)),
    ("c30-pair", 2.0): BkBound(14401.0, 1.0, (4320.0, 2016.0, 864.0, 4320.0, 2016.0, 864.0)),
    ("c30-pair", 3.0): BkBound(17291759.55076536, 1.4142135623730951, (
        1247.0765814495917, 581.9690713431428, 249.41531628991837,
        1247.0765814495917, 581.9690713431428, 249.41531628991837)),
}


def _bk_profile_problem(case):
    if case == "z2-r4":
        return build_ball(spec_lattice(2), 8), 4
    if case == "z2-r8":
        return build_ball(spec_lattice(2), 16), 8
    if case == "z3-r3":
        return build_ball(spec_lattice(3), 4), 3
    if case == "torus12-pair":
        return collapse_terminals(build_cayley_graph(spec_torus(12, 12)), [0], [78])
    return collapse_terminals(build_cayley_graph(spec_cycle(30)), [0], [15])


@pytest.mark.parametrize("case,p", sorted(_BK_PROFILE_GOLDEN))
def test_bk_profile_matches_golden(case, p):
    bound = bk_upper_bound(_bk_profile_problem(case), p, "profile")
    assert bound == _BK_PROFILE_GOLDEN[case, p]


# ---------------------------------------------------------------------------
# Exponent functions and theorem formulas
# ---------------------------------------------------------------------------

def test_exponent_table():
    assert alpha_exponent(2.0) == 1.0
    assert alpha_exponent(3.0) == 0.25
    assert homogeneous_dimension(3) == 4
    assert homogeneous_dimension(4) == 7
    assert b_exponent(3.5) == 3.0
    assert b_exponent(5.0) == 4.0
    assert b_exponent(4.0) == 4.0
    assert b_exponent(2.5) == 2.5
    assert homogeneous_dimension(0) == 0
    assert h_star(2.5) == homogeneous_dimension(2)
    vals = exponent_functions(2.0, 3.5, 3)
    assert (vals.alpha, vals.h, vals.b) == (1.0, 4.0, 3.0)


def test_exponent_domains():
    with pytest.raises(DomainError):
        alpha_exponent(1.0)
    with pytest.raises(DomainError):
        homogeneous_dimension(-1)
    with pytest.raises(DomainError):
        b_exponent(-0.5)


def test_theorem_rhs_values():
    v = theorem_rhs("T1_8_upper", {"r": 10, "beta_r": 441, "deg": 8})
    assert abs(v - (1 / 8 + 100 * math.log(10) / 441)) < 1e-15
    v = theorem_rhs("T1_8_lower", {"r": 10, "beta_r": 441, "deg": 8})
    assert abs(v - (1 / 8 + 100 / (8 * 441))) < 1e-15
    v = theorem_rhs("T_var_converse", {"n": 5, "r": 40, "beta_n": 121, "deg": 8})
    assert abs(v - 25 * math.log(8) / (8 * 121)) < 1e-15
    v = theorem_rhs("T1_12", {"p": 2.5, "r": 4, "beta_r": 100})
    assert abs(v - 4 ** 2.5 / 100) < 1e-15
    v = theorem_rhs("T1_13", {"p": 2.0, "diam": 6, "size": 36})
    assert abs(v - 1.0) < 1e-15
    v = theorem_rhs("T1_11", {"p": 2.0, "diam": 6, "size": 36, "deg": 4})
    assert abs(v - (1 / 4 + 36 * math.log(36) / 36)) < 1e-15


def test_theorem_rhs_p_cases():
    # high growth: only the degree term survives
    v = theorem_rhs("P7_2_cases", {"p": 2.0, "deg": 8, "diam": 4, "size": 4 ** 4})
    assert abs(v - 8 ** (-(1 - 2 / 3))) < 1e-15
    # q = p: log case applies and is the minimum
    v = theorem_rhs("P7_2_cases", {"p": 2.0, "deg": 4, "diam": 10, "size": 100})
    expect = min(4 ** (-1 / 3) + 100 * math.log(25) / 100,
                 1 / 4 + 100 * math.log(25) / 100)
    assert abs(v - expect) < 1e-15
    # ball form
    v = theorem_rhs("P7_4_cases", {"p": 2.5, "deg": 6, "r": 4, "beta_r": 100,
                                   "beta_4r": 16 ** 3})
    assert v > 0


def test_theorem_rhs_missing_param():
    with pytest.raises(MissingParam):
        theorem_rhs("T1_8_upper", {"r": 10, "deg": 8})


def test_theorem_monotone_in_r():
    vals = [theorem_rhs("T1_8_upper", {"r": r, "beta_r": (2 * r + 1) ** 2, "deg": 8})
            for r in range(2, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Literal lemma restatements
# ---------------------------------------------------------------------------

@given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 5))
@settings(max_examples=200, deadline=None)
def test_power_distribution_lemma(a, b, p):
    hi = max(a, b)
    s = (a + b) ** p
    assert hi ** p <= s * (1 + 1e-12) + 1e-300
    assert s <= (2.0 ** p) * (hi ** p) * (1 + 1e-12) + 1e-300


@pytest.mark.parametrize("spec,r", [
    (spec_lattice(2), 2), (spec_line(), 3), (spec_z_times_torus(3, 3), 2),
])
def test_ball_doubling_lemma(spec, r):
    # beta(r) <= beta(4r)/2 whenever the ambient diameter is at least 4r
    ball = build_ball(spec, 4 * r)
    gp = growth_profile(ball)
    assert gp.beta[r] <= gp.beta[4 * r] / 2


def test_second_term_only_lemma():
    # j <= (1+C)|A|/xi^(p/(p-1)) whenever the boundary is at least xi <= C|A|
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    g = build_cayley_graph(spec_torus(4, 4))
    from vtres.graphs import boundary
    for _ in range(30):
        size = int(rng.integers(2, g.n - 1))
        ids = rng.choice(g.n, size=size, replace=False)
        vb = boundary(g, ids).vertex_size
        if vb > size:
            continue  # lemma needs xi <= C|A| with C = 1
        for p in (1.5, 2.0, 3.0):
            assert j_quantity(g, ids, p) <= 2 * size / vb ** (p / (p - 1)) + 1e-12


def test_linear_growth_lower_bound_on_balls():
    # beta(n) >= (deg+1) n / 3 up to the radius, with the explicit constant
    from vtres.bounds import linear_growth_lower
    from vtres import growth_profile
    for spec in (spec_cycle(14), spec_lattice(2), spec_z_times_torus(3, 3),
                 spec_cyclic_chords(12, 3)):
        gp = growth_profile(build_ball(spec, 5))
        top = gp.diameter if gp.diameter is not None else gp.radius
        for n in range(1, top + 1):
            assert gp.beta[n] >= linear_growth_lower(n, gp.degree)


def test_growth_lower_rhs_shapes():
    from vtres.bounds import growth_lower_rhs
    # absolute form: below the crossover the exponent is floor(q)+1
    assert growth_lower_rhs(2, 16, 2.5) == 2 ** 3
    # above it the crossover factor multiplies n^floor(q)
    assert abs(growth_lower_rhs(8, 16, 2.5) - 4.0 * 64) < 1e-12
    # relative form uses the b exponent
    assert growth_lower_rhs(3, 10, 5.0, beta_1=27) == 3 ** 4 * 27
    with pytest.raises(DomainError):
        growth_lower_rhs(5, 4, 2.0)


def test_growth_lower_holds_on_lattice_balls():
    # with q chosen so beta(r) = r^q exactly, the absolute bound holds with
    # a modest constant on lattice balls (ratio reported, bounded below)
    from vtres.bounds import growth_lower_rhs
    from vtres import growth_profile
    gp = growth_profile(build_ball(spec_lattice(2), 12))
    q = math.log(gp.beta[12]) / math.log(12)
    ratios = [gp.beta[n] / growth_lower_rhs(n, 12, q) for n in range(1, 12)]
    assert min(ratios) > 0.5


def test_resistance_superadditive_across_spheres():
    # R(x <-> S(r)) >= R(x <-> S(n)) + R(S(n) <-> S(r))
    from vtres.graphs import annulus_problem
    ball = build_ball(spec_lattice(2), 8)
    whole = p_resistance(dirichlet_problem(ball, 7), 2.0).resistance
    inner = p_resistance(dirichlet_problem(ball, 3), 2.0).resistance
    ring = p_resistance(annulus_problem(ball, 4, 8), 2.0).resistance
    assert whole >= inner + ring - 1e-12


def test_make_report_sides():
    r = make_report("x", computed=2.0, bound=1.0, side="lower", params={})
    assert r.status == "PASS" and r.ratio == 2.0
    r = make_report("x", computed=2.0, bound=1.0, side="upper", params={})
    assert r.status == "FAIL"
    r = make_report("x", computed=2.0, bound=1.0, side="upper", params={}, check=False)
    assert r.status == "INFO"


def test_loglog_slope_recovers_exponent():
    xs = [2.0, 4.0, 8.0, 16.0]
    ys = [x ** 1.7 for x in xs]
    assert abs(loglog_slope(xs, ys) - 1.7) < 1e-12
