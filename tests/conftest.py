import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from vtres import (
    GraphSpec,
    build_ball,
    build_cayley_graph,
    collapse_terminals,
    spec_cycle,
    spec_cyclic_chords,
    spec_lattice,
    spec_torus,
    spec_z_times_torus,
)
from vtres.errors import BadArguments
from vtres.graphs import (
    Graph,
    _contract,
    _symmetry_candidates,
    _symmetry_group,
    from_edge_list,
)


def validate_graph(g: Graph) -> None:
    """Check symmetry, positive multiplicities, and the no-self-loop rule."""
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    if np.any(rows == g.nbr):
        raise BadArguments("graph has a self-loop")
    if np.any(g.mult <= 0):
        raise BadArguments("graph has a non-positive multiplicity")
    # symmetric iff the (u, v, m) slots sorted equal the (v, u, m) slots sorted
    fwd = np.lexsort((g.mult, g.nbr, rows))
    bwd = np.lexsort((g.mult, rows, g.nbr))
    bad = ((rows[fwd] != g.nbr[bwd]) | (g.nbr[fwd] != rows[bwd])
           | (g.mult[fwd] != g.mult[bwd]))
    if bad.any():
        i = fwd[np.argmax(bad)]
        raise BadArguments(f"asymmetric adjacency at ({rows[i]},{g.nbr[i]})")


def reference_stabilizer_maps(ball):
    """The kept ``_symmetry_candidates`` as maps of ``ball``'s vertex ids,
    each the image id of every vertex, found by key lookup over the box the
    coordinates span; an image outside the ball fails."""
    moduli = ball.spec.factors
    finite = np.array([m is not None for m in moduli])
    mod = np.array([m or 1 for m in moduli], dtype=np.int64)
    lo = np.where(finite, 0, ball.coords.min(axis=0))
    width = np.where(finite, mod, ball.coords.max(axis=0) - lo + 1)
    strides = np.ones(len(moduli), dtype=np.int64)
    strides[:-1] = np.cumprod(width[::-1])[::-1][1:]

    def keys(rows):
        inside = np.all((rows >= lo) & (rows < lo + width), axis=1)
        return np.where(inside, (rows - lo) @ strides, -1)

    own = keys(ball.coords)
    order = np.argsort(own)
    maps = []
    for g in _symmetry_candidates(ball.spec.offsets, moduli):
        image = ball.coords[:, g % len(moduli)] * np.where(g < len(moduli), 1, -1)
        q = keys(np.where(finite, image % mod, image))
        pos = np.minimum(np.searchsorted(own[order], q), len(q) - 1)
        assert np.array_equal(own[order][pos], q), g
        maps.append(order[pos])
    return maps


def reference_stabilizer_orbits(g):
    """The smallest vertex id in each vertex's orbit under ``_symmetry_group``,
    automorphisms of the CayleyGraph g fixing 0.  Forms every image of every
    vertex, |G| n ids, one group row at a time: y_k = x_j for row[k] = j < d
    and -x_j for row[k] = d + j, ranked with ``np.ravel_multi_index``."""
    x = np.unravel_index(np.arange(g.n), g.dims)
    d = len(g.dims)
    least = np.arange(g.n)
    for row in _symmetry_group(g.offsets, g.dims):
        image = [x[j] if j < d else -x[j - d] for j in row]
        least = np.minimum(least, np.ravel_multi_index(image, g.dims, mode="wrap"))
    return least


def reference_orbits(ball):
    """The least vertex id of each vertex's orbit: the connected components
    of the graph joining every vertex to its image under each map."""
    maps = reference_stabilizer_maps(ball)
    n = ball.base.n
    links = sp.csr_matrix((np.ones(n * len(maps)), (np.tile(np.arange(n), len(maps)),
                                                     np.concatenate(maps))), shape=(n, n))
    _, labels = sp.csgraph.connected_components(links, connection="weak")
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


def reference_quotient(ball):
    """The full ball contracted by its orbits in one ``_contract``, orbits
    numbered by least member and taking its layer, coordinates and exit
    degree, with the orbit sizes as ``size``."""
    _, first, index, size = np.unique(reference_orbits(ball), return_index=True,
                                      return_inverse=True, return_counts=True)
    return dataclasses.replace(
        ball, base=_contract(ball.base, index, first.size, ball.base.n),
        layer=ball.layer[first], exit_degree=ball.exit_degree[first],
        coords=ball.coords[first], size=size)


def series_graph(m):
    """Path of m unit edges: R_p between the ends is m^(p-1)."""
    return from_edge_list(m + 1, [(i, i + 1, 1) for i in range(m)])


def parallel_graph(k):
    """Two vertices joined by k parallel edges: R_p = 1/k."""
    return from_edge_list(2, [(0, 1, k)])


def series_problem(m):
    return collapse_terminals(series_graph(m), [0], [m])


def parallel_problem(k):
    return collapse_terminals(parallel_graph(k), [0], [1])


def complete_graph(n):
    return build_cayley_graph(GraphSpec(
        "explicit", (n,), (("explicit", tuple((i,) for i in range(1, n))),)))


def random_small_spec(rng: np.random.Generator) -> GraphSpec:
    """A pool of small vertex-transitive specs for randomized property tests."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return spec_cycle(int(rng.integers(5, 21)))
    if kind == 1:
        a = int(rng.integers(2, 5))
        b = int(rng.integers(2, 5))
        return spec_torus(a, b)
    if kind == 2:
        n = int(rng.integers(6, 15))
        k = int(rng.integers(2, max(3, (n - 1) // 2)))
        return spec_cyclic_chords(n, min(k, (n - 1) // 2))
    return spec_z_times_torus(int(rng.integers(2, 5)))


def box_torus_fourier_resistance(dims):
    """R_2(0, v) for every v of the box-generated torus, from its spectrum."""
    offsets = [s for s in itertools.product((-1, 0, 1), repeat=len(dims)) if any(s)]
    k = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    lam = sum(1.0 - np.cos(2 * np.pi * sum(ki * si / n for ki, si, n in zip(k, s, dims)))
              for s in offsets)
    inv = np.zeros_like(lam)
    inv[lam > 1e-12] = 1.0 / lam[lam > 1e-12]
    green = np.fft.ifftn(inv).real
    return 2.0 * (green.flat[0] - green)


@pytest.fixture(scope="session")
def c8():
    return build_cayley_graph(spec_cycle(8))


@pytest.fixture(scope="session")
def z2_ball_r5():
    return build_ball(spec_lattice(2), 5)
