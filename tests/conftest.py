import itertools

import numpy as np
import pytest

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
from vtres.graphs import Graph, from_edge_list


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
