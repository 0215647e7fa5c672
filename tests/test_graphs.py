import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vtres import (
    GraphSpec,
    graphs,
    boundary,
    build_ball,
    build_cayley_graph,
    dirichlet_problem,
    graph_growth_profile,
    growth_profile,
    spec_cycle,
    spec_cyclic_chords,
    spec_explicit,
    spec_lattice,
    spec_line,
    spec_torus,
    spec_z_times_torus,
)
from vtres.errors import (
    BadArguments,
    DisconnectedGeneratingSet,
    EmptySet,
    FullSet,
    InfiniteFactorPresent,
    RadiusTooSmall,
    SizeCapExceeded,
)
from vtres.graphs import (
    _canonical,
    _symmetry_group,
    annulus_problem,
    bfs_layers,
    collapse_terminals,
    orbit_ball,
    prefix_subgraph,
    spec_fibered_torus,
    spec_offsets,
)

from conftest import reference_quotient, reference_stabilizer_orbits, validate_graph


def _digest(*arrays) -> str:
    """sha256 over the int64 contents and shapes of ``arrays``."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=np.int64))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _terminal_digest(tg) -> str:
    g = tg.graph
    return _digest(g.indptr, g.nbr, g.mult, [g.n, tg.source, tg.ground])


Z2_C4 = spec_explicit((None, None, 4),
                      [s for s in itertools.product((-1, 0, 1), repeat=3) if any(s)])
Z2_C3 = spec_explicit((None, None, 3), [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                        (0, 0, 1), (0, 0, 2), (1, 1, 1), (-1, -1, 2)])
Z3_AXES = spec_explicit((None,) * 3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                                      (0, 0, 1), (0, 0, -1)])


# Vertex ids, layers and adjacency are part of the artifact format: these
# digests pin the exact arrays, so any change of numbering or order fails.
@pytest.mark.parametrize("spec,radius,expected", [
    (spec_lattice(2), 16, "07c186e5f923511401ddef0149c489cfac3b50fbf61a48222eba9c58f9863d3c"),
    (spec_lattice(3), 8, "31c385cbebb2f6f2892ebe923ce8d69c9f2041ca4bb92045477f69c61720f498"),
    (spec_z_times_torus(5, 5), 20, "e0f35bac6eaf9f28a2c76d17a45dfd93d481f708cba7d1b6a83b8853306578ac"),
    (spec_torus(6, 6, 2, full_last=True), 4, "4b88c1e496abdd8da5b87d602db13014eb624f1025d95f93459e1d5dbc788d28"),
    (spec_fibered_torus(4, 4, 3), 4, "e66a26ea0e1c94911f1fc15e7c2882c125f5e1297de0282f94f4cfe840d3650c"),
    (spec_cyclic_chords(14, 3), 5, "453f567d03bb99100f4722293bde2cab138290adf5450c2aff002dff97a56731"),
    # its (0, 0, 2) and (-1, -1, 2) steps wrap the C3 coordinate
    (Z2_C3, 6, "e72faacca31351c5d78c950590f340081f1de18d2429e35379a45636ff7c12bd"),
], ids=["z2", "z3", "z-c5-c5", "torus-full-last", "fibered", "chords", "z2-c3"])
def test_golden_ball_identity(spec, radius, expected):
    b = build_ball(spec, radius)
    g = b.base
    assert _digest(b.layer, b.exit_degree, b.coords, g.indptr, g.nbr, g.mult) == expected


def test_golden_problem_identity():
    torus = build_cayley_graph(spec_torus(6, 5))
    mixed = build_cayley_graph(spec_torus(4, 4, 3, full_last=True))
    orbits = orbit_ball(spec_z_times_torus(5, 5), 5)
    ball3 = build_ball(spec_lattice(3), 6)
    prefix = prefix_subgraph(ball3.base, ball3.beta(4))
    got = {
        "dirichlet": _terminal_digest(dirichlet_problem(build_ball(spec_lattice(3), 8), 6)),
        "annulus": _terminal_digest(annulus_problem(build_ball(spec_lattice(2), 16), 3, 10)),
        "collapse": _terminal_digest(collapse_terminals(torus, [0, 7], [15, 20, 29])),
        "cayley": _digest(mixed.indptr, mixed.nbr, mixed.mult),
        "quotient": _terminal_digest(dirichlet_problem(orbits, 4)),
        "prefix": _digest(prefix.indptr, prefix.nbr, prefix.mult, [prefix.n]),
    }
    assert got == {
        "dirichlet": "a3836343a21867d0c32dfac736243c3a8c74a760a0f0a27ecee677b09714378e",
        "annulus": "39e3a9ec9416b34b935845656a06a3d936a306358f9f0583320baad234025c37",
        "collapse": "bba51937d8507ecbbdb2a432847d34d4a5305cb046b8ff3d2823f256be3c7778",
        "cayley": "b20d98fafd741643744b1e672199375349eea60a7c28c4f082b172ec59ff701b",
        "quotient": "ca4f8c0c1af98d041c39ab4965b9aaa829b4f52871950b2681a2ad058da5fc42",
        "prefix": "3f697f07126fd43bcc2ca1e6b91a9b0cd6c9f11fd38eaad0fd01f273142255ff",
    }


def test_cycle_five():
    g = build_cayley_graph(spec_cycle(5))
    assert g.n == 5
    assert list(g.degree) == [2] * 5
    validate_graph(g)


def test_chord_graph_degree():
    g = build_cayley_graph(spec_cyclic_chords(10, 4))
    assert g.n == 10
    assert g.max_degree == 8


def test_mixed_box_full_generators():
    g = build_cayley_graph(spec_torus(4, 4, 3, full_last=True))
    assert g.n == 48
    assert g.max_degree == 8 + 2
    validate_graph(g)


def test_chords_wrap_deduplicates():
    # +4 and -4 coincide mod 8, so the generating set has 7 elements
    g = build_cayley_graph(spec_cyclic_chords(8, 4))
    assert g.max_degree == 7


def test_disconnected_generators_rejected():
    spec = GraphSpec("explicit", (6,), (("explicit", ((2,), (4,))),))
    with pytest.raises(DisconnectedGeneratingSet):
        build_cayley_graph(spec)


def test_asymmetric_generators_rejected():
    with pytest.raises(BadArguments):
        GraphSpec("explicit", (7,), (("explicit", ((1,), (2,), (5,))),))


def test_modulus_lower_bound():
    with pytest.raises(BadArguments):
        spec_cycle(1)


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        build_cayley_graph(spec_torus(100, 100), size_cap=5000)
    with pytest.raises(SizeCapExceeded):
        build_ball(spec_lattice(2), 60, size_cap=5000)


def test_orbit_ball_size_cap_counts_orbits():
    # B(10) of Z^3 has 21^3 = 9,261 vertices in C(13, 3) = 286 orbits
    ball = orbit_ball(spec_lattice(3), 10, size_cap=1000)
    assert ball.base.n == 286 and ball.beta(10) == 9261
    with pytest.raises(SizeCapExceeded, match="ball exceeds size cap 1000"):
        build_ball(spec_lattice(3), 10, size_cap=1000)
    with pytest.raises(SizeCapExceeded):
        orbit_ball(spec_lattice(3), 10, size_cap=285)


def test_infinite_factor_rejected_for_finite_build():
    with pytest.raises(InfiniteFactorPresent):
        build_cayley_graph(spec_line())


def test_line_ball():
    b = build_ball(spec_line(), 3)
    assert b.base.n == 7
    assert list(np.sort(b.exit_degree)) == [0] * 5 + [1, 1]
    assert b.exit_degree[b.layer == 3].tolist() == [1, 1]


def test_z2_ball_layers(z2_ball_r5):
    gp = growth_profile(z2_ball_r5)
    assert gp.beta[:4] == (1, 9, 25, 49)
    assert gp.sigma[:4] == (1, 8, 16, 24)
    assert gp.degree == 8


def test_z3_ball_beta():
    gp = growth_profile(build_ball(spec_lattice(3), 2))
    assert gp.beta == (1, 27, 125)


def test_cycle_ball_covers_graph():
    b = build_ball(spec_cycle(8), 4)
    gp = growth_profile(b)
    assert gp.sigma == (1, 2, 2, 2, 1)
    assert gp.diameter == 4
    assert int(b.exit_degree.sum()) == 0


def test_layer_matches_independent_bfs():
    for spec, r in ((spec_lattice(2), 4), (spec_cycle(9), 4),
                    (spec_z_times_torus(3, 3), 5), (spec_torus(4, 4), 3)):
        b = build_ball(spec, r)
        dist = bfs_layers(b.base, [b.center])
        assert np.array_equal(dist, b.layer)


def test_edge_layers_differ_by_at_most_one(z2_ball_r5):
    g = z2_ball_r5.base
    layer = z2_ball_r5.layer
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    assert np.all(np.abs(layer[rows] - layer[g.nbr]) <= 1)


def test_exit_degree_zero_inside(z2_ball_r5):
    inside = z2_ball_r5.layer < z2_ball_r5.radius
    assert int(z2_ball_r5.exit_degree[inside].sum()) == 0


@pytest.mark.parametrize("n,d,k", [(4, 2, 3), (6, 2, 2), (4, 3, 2), (8, 1, 4)])
def test_beta_formula_for_fibered_family(n, d, k):
    # product generators make the fiber metrically free:
    # beta(r) = min((2r+1)^d, n^d) * k for every r >= 1
    spec = spec_fibered_torus(*([n] * d + [k]))
    b = build_ball(spec, n)
    gp = growth_profile(b)
    for r in range(1, n + 1):
        assert gp.beta[r] == min((2 * r + 1) ** d, n ** d) * k


def test_beta_of_union_generators_lags_one_step():
    # with box-union-full generators a fiber move costs its own step
    spec = spec_torus(6, 6, 2, full_last=True)
    gp = growth_profile(build_ball(spec, 4))
    box = lambda r: min((2 * r + 1) ** 2, 36)
    for r in range(1, 5):
        assert gp.beta[r] == box(r) + box(r - 1)


def test_ball_ids_sorted_by_layer_then_tuple():
    b = build_ball(spec_z_times_torus(3), 3)
    keys = [(int(l), tuple(c)) for l, c in zip(b.layer, b.coords.tolist())]
    assert keys == sorted(keys)


def _reference_ball(spec, radius):
    """Ball by breadth-first search over group tuples: layer, coords, rows, exits."""
    offsets = spec_offsets(spec)

    def step(t, s):
        return tuple(a + b if m is None else (a + b) % m
                     for a, b, m in zip(t, s, spec.factors))

    layers = [[tuple(0 for _ in spec.factors)]]
    seen = set(layers[0])
    for _ in range(radius):
        nxt = sorted({step(t, s) for t in layers[-1] for s in offsets} - seen)
        if not nxt:
            break
        seen.update(nxt)
        layers.append(nxt)
    coords = [t for members in layers for t in members]
    index = {t: i for i, t in enumerate(coords)}
    rows = [sorted(index[w] for w in (step(t, s) for s in offsets) if w in index)
            for t in coords]
    layer = [l for l, members in enumerate(layers) for _ in members]
    return layer, coords, rows, [len(offsets) - len(row) for row in rows]


@pytest.mark.parametrize("spec,radius", [
    (spec_line(), 0),
    (spec_lattice(2), 5),
    (spec_z_times_torus(2, 3), 4),
    (spec_torus(5, 3, 2, full_last=True), 4),
    (spec_cyclic_chords(9, 4), 3),
    # Z offsets longer than one step: exits of the top layer lie up to
    # (radius + 1) * 3 away and must not alias onto ball vertices
    (spec_explicit((None,), [(2,), (-2,), (3,), (-3,)]), 5),
    (spec_explicit((7, None), [(3, 1), (4, -1), (0, 2), (0, -2)]), 4),
])
def test_ball_matches_tuple_bfs_reference(spec, radius):
    layer, coords, rows, exits = _reference_ball(spec, radius)
    b = build_ball(spec, radius)
    assert b.layer.tolist() == layer
    assert [tuple(c) for c in b.coords.tolist()] == coords
    assert [b.base.neighbors(v)[0].tolist() for v in range(b.base.n)] == rows
    assert b.exit_degree.tolist() == exits


def test_boundary_singleton(z2_ball_r5):
    info = boundary(z2_ball_r5.base, [0])
    assert info.vertex_size == 8 and info.edge_size == 8
    assert len(info.vertex_set) == 8


def test_boundary_arc(c8):
    info = boundary(c8, [0, 1, 2])
    assert (info.vertex_size, info.edge_size) == (2, 2)
    assert info.vertex_set == (3, 7)


def test_boundary_chord_pair():
    g = build_cayley_graph(spec_cyclic_chords(10, 4))
    info = boundary(g, [0, 1])
    # every other vertex lies within chord distance of {0, 1}
    assert info.vertex_size == 8
    direct = sum(1 for u in (0, 1) for v, m in zip(*g.neighbors(u)) if v not in (0, 1))
    assert info.edge_size == direct


def test_boundary_errors(c8):
    with pytest.raises(EmptySet):
        boundary(c8, [])
    with pytest.raises(FullSet):
        boundary(c8, range(8))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_boundary_sandwich_random_sets(seed):
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    g = build_cayley_graph(spec_torus(3, 4))
    size = int(rng.integers(1, g.n - 1))
    ids = rng.choice(g.n, size=size, replace=False)
    info = boundary(g, ids)
    assert info.vertex_size <= info.edge_size <= g.max_degree * info.vertex_size


def test_dirichlet_cycle_example():
    b = build_ball(spec_cycle(8), 4)
    tg = dirichlet_problem(b, 2)
    assert tg.graph.n == b.beta(2) + 1
    assert int(tg.graph.degree[tg.ground]) == 2


def test_dirichlet_line_example():
    b = build_ball(spec_line(), 2)
    tg = dirichlet_problem(b, 1)
    assert tg.graph.n == 4
    assert int(tg.graph.degree[tg.ground]) == 2


def test_dirichlet_ground_multiplicity_matches_edge_count(z2_ball_r5):
    r = 2
    tg = dirichlet_problem(z2_ball_r5, r)
    crossing = 0
    for u in range(z2_ball_r5.beta(r)):
        nb, mu = z2_ball_r5.base.neighbors(u)
        crossing += int(mu[z2_ball_r5.layer[nb] == r + 1].sum())
    assert int(tg.graph.degree[tg.ground]) == crossing


def test_dirichlet_empty_ground_sphere_is_empty_set():
    # B(x, 1) of K_7 (chords of width 3 on C7) and B(x, 3) of the 6x6 box
    # torus already cover the graph, so S(x, r+1) is empty, on the full ball
    # and on the orbit ball alike
    for spec, r in ((spec_cyclic_chords(7, 3), 1), (spec_torus(6, 6), 3)):
        for ball in (build_ball(spec, r + 1), orbit_ball(spec, r + 1)):
            with pytest.raises(EmptySet, match=rf"sphere S\(x, {r + 1}\) is empty"):
                dirichlet_problem(ball, r)
            assert dirichlet_problem(ball, r - 1).graph.n == ball.prefix(r - 1) + 1


def test_dirichlet_independent_of_ball_radius():
    # ids are prefix-stable, so the collapsed problem is literally the same
    # graph no matter how much further the ball extends
    for spec in (spec_lattice(2), spec_cycle(12)):
        small = build_ball(spec, 4)
        big = build_ball(spec, 6)
        assert dirichlet_problem(small, 3) == dirichlet_problem(big, 3)


def test_dirichlet_radius_too_small():
    b = build_ball(spec_cycle(8), 2)
    with pytest.raises(RadiusTooSmall):
        dirichlet_problem(b, 2)


def test_annulus_with_an_empty_outer_sphere_is_an_empty_set():
    # C6 ends at layer 3, so S(4) is empty although the ball has radius 5
    with pytest.raises(EmptySet):
        annulus_problem(build_ball(spec_cycle(6), 5), 1, 4)


def test_growth_profile_internal_consistency():
    for spec, radius in ((spec_lattice(2), 5), (spec_cycle(9), 6),
                         (spec_z_times_torus(4), 6)):
        gp = growth_profile(build_ball(spec, radius))
        for r in range(1, gp.radius + 1):
            assert gp.beta[r] == gp.beta[r - 1] + gp.sigma[r]
        top = gp.diameter if gp.diameter is not None else gp.radius
        for r in range(1, top + 1):
            assert gp.beta[r] > gp.beta[r - 1]


def test_growth_profile_of_finite_graph():
    g = build_cayley_graph(spec_torus(4, 4))
    gp = graph_growth_profile(g)
    assert gp.beta == (1, 9, 16)
    assert gp.diameter == 2
    assert gp.degree == 8


def test_generator_atoms_validate():
    with pytest.raises(BadArguments):
        spec_offsets(GraphSpec("explicit", (4,), (("full", 3),)))
    with pytest.raises(BadArguments):
        GraphSpec("explicit", (4, 4), (("chords", 2),))


# spec, orbit count of the stabilizer of vertex 0 (vertex 0 included): the
# dihedral group on the square tori (0 <= a <= b <= n/2), negations on 5x7
# and 6x8x3, -id on the chord graph and on a skew set that no coordinate
# negation or swap preserves
STABILIZER_SPECS = {
    "torus10x10": (spec_torus(10, 10), 21),
    "torus12x12": (spec_torus(12, 12), 28),
    "c20_chords3": (spec_cyclic_chords(20, 3), 11),
    "torus5x7": (spec_torus(5, 7), 12),
    "torus4x4x4": (spec_torus(4, 4, 4), 10),
    "torus6x8x3_full": (spec_torus(6, 8, 3, full_last=True), 40),
    "z6xz6_skew": (spec_explicit((6, 6), [(1, 0), (5, 0), (0, 1), (0, 5), (1, 2), (5, 4)]), 20),
}


@pytest.mark.parametrize("name", sorted(STABILIZER_SPECS))
def test_stabilizer_orbits(name):
    spec, count = STABILIZER_SPECS[name]
    g = build_cayley_graph(spec)
    rep = reference_stabilizer_orbits(g)
    assert len(np.unique(rep)) == count
    assert rep[0] == 0 and np.all(rep <= np.arange(g.n)) and np.array_equal(rep[rep], rep)
    dist = bfs_layers(g, [0])
    assert np.array_equal(dist, dist[rep])


def _group_maps(spec, coords, ids):
    """Each element of ``_symmetry_group`` as a map of vertex ids: the id, by
    ``ids``, of the image of every row of ``coords``."""
    d = spec.dim
    maps = []
    for g in _symmetry_group(spec.offsets, spec.factors):
        image = coords[:, g % d] * np.where(g < d, 1, -1)
        maps.append(ids([tuple(x if m is None else x % m for x, m in zip(t, spec.factors))
                         for t in image.tolist()]))
    return maps


# order of the group that the kept candidates generate on each spec
STABILIZER_GROUP_ORDERS = {"c20_chords3": 2, "torus10x10": 8, "torus12x12": 8,
                           "torus4x4x4": 48, "torus5x7": 4, "torus6x8x3_full": 8,
                           "z6xz6_skew": 2}


@pytest.mark.parametrize("name", sorted(STABILIZER_SPECS))
def test_stabilizer_maps_are_automorphisms(name):
    spec, group = STABILIZER_SPECS[name][0], STABILIZER_GROUP_ORDERS[name]
    g = build_cayley_graph(spec)
    nbr = g.nbr.reshape(g.n, -1)
    coords = np.stack(np.unravel_index(np.arange(g.n), g.dims), axis=1)
    maps = _group_maps(spec, coords, lambda ts: np.ravel_multi_index(np.array(ts).T, g.dims))
    assert len(maps) == group
    for m in maps:
        assert m[0] == 0 and np.array_equal(np.sort(m), np.arange(g.n))
        assert np.array_equal(np.sort(m[nbr], axis=1), nbr[m])
    # the least image of a vertex is the least id of its orbit
    assert np.array_equal(reference_stabilizer_orbits(g), np.min(maps, axis=0))


KNIGHT = [(a, b) for a in (-2, -1, 1, 2) for b in (-2, -1, 1, 2) if abs(a) != abs(b)]
# spec, ball radius, number of kept candidates (-id, the coordinate
# negations and the equal-modulus swaps that preserve S), and the order of
# the group they generate
BALL_SYMMETRY_SPECS = {
    "z2": (spec_lattice(2), 7, 4, 8),
    "z3": (spec_lattice(3), 4, 7, 48),
    "z_c5_c5": (spec_z_times_torus(5, 5), 3, 5, 16),
    "z2_knight": (spec_explicit((None, None), KNIGHT), 3, 4, 8),
    "z2_skew": (spec_explicit((None, None), [(1, 0), (-1, 0), (0, 1), (0, -1),
                                             (1, 1), (-1, -1)]), 6, 2, 4),
    "torus6x6": (spec_torus(6, 6), 4, 4, 8),
    "c20_chords3": (spec_cyclic_chords(20, 3), 3, 2, 2),
}


@pytest.mark.parametrize("name", sorted(BALL_SYMMETRY_SPECS))
def test_ball_stabilizer_maps_are_automorphisms(name):
    # every element of the closure maps the full ball onto itself and keeps
    # adjacency, layers and exit degrees
    spec, radius, kept, order = BALL_SYMMETRY_SPECS[name]
    ball = build_ball(spec, radius)
    g = ball.base
    adj = sp.csr_matrix((g.mult, g.nbr, g.indptr), shape=(g.n, g.n))
    index = {t: i for i, t in enumerate(map(tuple, ball.coords.tolist()))}
    maps = _group_maps(spec, ball.coords, lambda ts: np.array([index[t] for t in ts]))
    assert len(graphs._symmetry_candidates(spec.offsets, spec.factors)) == kept
    assert len(maps) == order
    assert len({m.tobytes() for m in maps}) == order
    for m in maps:
        assert m[0] == 0 and np.array_equal(np.sort(m), np.arange(g.n))
        assert np.array_equal(ball.layer[m], ball.layer)
        # (m A m^T)[i, j] = A[m[i], m[j]]: neighbour rows go onto neighbour rows
        assert (adj[m][:, m] != adj).nnz == 0
        assert np.array_equal(ball.exit_degree[m], ball.exit_degree)


@pytest.mark.parametrize("d,radius,count", [(2, 20, 231), (3, 24, 2925)])
def test_ball_orbit_counts(d, radius, count):
    # the hyperoctahedral group's orbits on [-r, r]^d: r >= x_1 >= ... >= x_d >= 0
    ball = orbit_ball(spec_lattice(d), radius)
    assert ball.base.n == count
    assert ball.beta(radius) == (2 * radius + 1) ** d
    # a coordinate tuple with sorted absolute values of sizes a_0, a_1, ... of
    # equal entries and z zeros has d! / prod(a_i!) 2^(d - z) images
    for c, size in zip(np.abs(ball.coords).tolist(), ball.size.tolist()):
        runs = [c.count(v) for v in set(c)]
        assert size == math.factorial(d) // math.prod(map(math.factorial, runs)) * 2 ** (
            d - c.count(0))


ORBIT_BALLS = {
    "z2_r11": (spec_lattice(2), 11), "z2_r21": (spec_lattice(2), 21),
    "z2_r41": (spec_lattice(2), 41), "z3_r17": (spec_lattice(3), 17),
    "z3_axes_r30": (Z3_AXES, 30), "z_c5_c5_r64": (spec_z_times_torus(5, 5), 64),
    "z2_c4_r32": (Z2_C4, 32), "c10_c10_r6": (spec_torus(10, 10), 6),
    "z_c6_r20": (spec_z_times_torus(6), 20), "z2_c3_r15": (Z2_C3, 15),
}


@pytest.mark.parametrize("name", sorted(ORBIT_BALLS))
def test_orbit_ball_matches_contracted_full_ball(name):
    # array for array, dtypes included, the full ball contracted by the
    # orbits of its candidate maps in one _contract
    spec, radius = ORBIT_BALLS[name]
    full = build_ball(spec, radius)
    got, want = orbit_ball(spec, radius), reference_quotient(full)
    assert got.base.n == want.base.n
    for a, b in [(got.base.indptr, want.base.indptr), (got.base.nbr, want.base.nbr),
                 (got.base.mult, want.base.mult)] + [
                    (getattr(got, f), getattr(want, f))
                    for f in ("layer", "exit_degree", "coords", "size")]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # beta summed from orbit sizes is the full ball's at every radius
    assert [got.beta(r) for r in range(radius + 2)] == [full.beta(r) for r in range(radius + 2)]
    assert growth_profile(got) == growth_profile(full)
    validate_graph(got.base)


def test_orbit_ball_of_a_finite_group_matches_stabilizer_orbits():
    # a ball past the diameter covers the torus: one orbit ball vertex per
    # class of reference_stabilizer_orbits, sizes the class sizes
    g = build_cayley_graph(spec_torus(6, 8, 3, full_last=True))
    ball = orbit_ball(spec_torus(6, 8, 3, full_last=True), 8)
    ids = np.ravel_multi_index(ball.coords.T, g.dims)
    rep, size = np.unique(reference_stabilizer_orbits(g), return_counts=True)
    assert np.array_equal(np.sort(ids), rep)
    assert np.array_equal(ball.size[np.argsort(ids)], size)


# orbit_ball's arrays, orbit sizes included, pinned as in test_golden_ball_identity
@pytest.mark.parametrize("name,expected", [
    ("z2_r41", "afdf28ee6ab360aad3c4edf16106a70a87646640fee7c3cee0753a4e301c0587"),
    ("z3_r17", "317256c7728f2a8ae125b5c7d8d45aca8efec133bad0135716ed2789d5c064f8"),
    ("z_c5_c5_r64", "b01db084a97b1f6da65745fb298cbc868bc30e8a9359f0075d6a98c9d2469e84"),
    ("c10_c10_r6", "a74ba5174edc44deb4ca23a9232d8bd5731d1274015da216630289f67d0595e9"),
    ("z2_c3_r15", "4482e246915efcbcf3afd75b63043ff37fe14462fcdc67f65527b2e418c5a25d"),
])
def test_golden_orbit_ball_identity(name, expected):
    b = orbit_ball(*ORBIT_BALLS[name])
    g = b.base
    assert _digest(b.layer, b.exit_degree, b.coords, b.size, g.indptr, g.nbr, g.mult) == expected


@pytest.mark.parametrize("name", ["z_c5_c5_r64", "z3_r17"])
def test_orbit_ball_does_not_depend_on_the_image_block(monkeypatch, name):
    # 7 image keys per block put every row of a least-image pass in a block
    # of its own (16 elements on Z x C5 x C5, 48 on Z^3)
    spec, radius = ORBIT_BALLS[name]
    want = orbit_ball(spec, radius)
    monkeypatch.setattr(graphs, "IMAGE_BLOCK", 7)
    got = orbit_ball(spec, radius)
    assert got.base == want.base
    for f in ("layer", "exit_degree", "coords", "size"):
        assert np.array_equal(getattr(got, f), getattr(want, f))


@pytest.mark.parametrize("spec,radius", [(spec_lattice(2), 21), (spec_lattice(3), 9),
                                         (Z2_C4, 12)], ids=["z2", "z3", "z2-c4"])
def test_symmetry_group_cache(monkeypatch, spec, radius):
    # the memoised group is shared by every caller, so it is read-only, and
    # a ball built on it equals one built on a freshly computed group
    group = _symmetry_group(spec.offsets, spec.factors)
    assert _symmetry_group(spec.offsets, spec.factors) is group
    with pytest.raises(ValueError):
        group[0, 0] = 1
    want = orbit_ball(spec, radius)
    fresh = _symmetry_group.__wrapped__(spec.offsets, spec.factors)
    assert np.array_equal(fresh, group)
    monkeypatch.setattr(graphs, "_symmetry_group", _symmetry_group.__wrapped__)
    got = orbit_ball(spec, radius)
    assert got.base == want.base
    for f in ("layer", "exit_degree", "coords", "size"):
        assert np.array_equal(getattr(got, f), getattr(want, f))


def test_orbit_ball_memory_is_bounded():
    # the least-image pass holds IMAGE_BLOCK image keys at a time
    import tracemalloc
    tracemalloc.start()
    try:
        orbit_ball(spec_lattice(3), 45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 41 * 2**20


@pytest.mark.parametrize("spec,radius", [(spec_lattice(2), r) for r in range(1, 6)] + [
    (spec_z_times_torus(6), 4), (spec_torus(6, 6, 2, full_last=True), 4),
], ids=[f"z2-r{r}" for r in range(1, 6)] + ["z-c6", "torus-full-last"])
def test_ball_exit_degree_counts_the_steps_leaving_it(spec, radius):
    # a tuple BFS over _canonical(x + s) reaches the ball's elements, and a
    # vertex's exit degree is |S| less its steps that land in the ball; the
    # C6 radius passes its diameter, so its steps wrap inside the ball
    def step(x, s):
        return _canonical([a + b for a, b in zip(x, s)], spec.factors)

    reached = frontier = {(0,) * spec.dim}
    for _ in range(radius):
        frontier = {step(x, s) for x in frontier for s in spec.offsets} - reached
        reached = reached | frontier
    ball = build_ball(spec, radius)
    coords = [tuple(x) for x in ball.coords.tolist()]
    assert len(coords) == len(reached) and set(coords) == reached
    want = [sum(step(x, s) not in reached for s in spec.offsets) for x in coords]
    assert ball.exit_degree.tolist() == want
    assert np.all(ball.base.degree + ball.exit_degree == len(spec.offsets))


# one spec per generator atom kind, and a box on some factors only
ATOM_SPECS = {
    "box": spec_torus(5, 7),
    "box_full": spec_torus(4, 4, 3, full_last=True),
    "partial_box": GraphSpec("torus_product", (3, 4, 5), (("box", (1,)), ("full", 0), ("full", 2))),
    "chords": spec_cyclic_chords(11, 3),
    "boxfull": spec_fibered_torus(6, 5, 3),
    "explicit": spec_explicit((6, 6), [(1, 0), (5, 0), (0, 1), (0, 5), (1, 2), (5, 4)]),
}


@pytest.mark.parametrize("name", sorted(ATOM_SPECS))
def test_cayley_neighbours_match_ravel_reference(name):
    spec = ATOM_SPECS[name]
    g = build_cayley_graph(spec)
    coords = np.unravel_index(np.arange(g.n), g.dims)
    ref = np.stack([np.ravel_multi_index([c + x for c, x in zip(coords, s)], g.dims, mode="wrap")
                    for s in spec_offsets(spec)], axis=1)
    deg = len(spec_offsets(spec))
    assert np.array_equal(g.indptr, np.arange(0, (g.n + 1) * deg, deg))
    assert np.array_equal(g.nbr.reshape(g.n, deg), np.sort(ref, axis=1))
    # every multiplicity is 1, held in one read-only broadcast
    assert g.mult.shape == g.nbr.shape and not g.mult.flags.writeable
    assert np.all(g.mult == 1)
