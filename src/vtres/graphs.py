"""Abelian Cayley graphs, metric balls, and boundary primitives.

Everything downstream (the potential solver, walk simulation, bound
evaluators) consumes the types built here: finite Cayley graphs of products
of cyclic groups, truncated metric balls of possibly infinite such groups,
and two-terminal networks obtained by collapsing vertex sets.

Vertex identity is deterministic everywhere: finite Cayley graphs number
vertices by the lexicographic rank of the group tuple, balls by
(layer, lexicographic tuple), so every smaller ball is an id prefix.  A
group element is one mixed-radix integer key (``_key_box``), whose order is
lexicographic tuple order.  The group law is one function, ``step_keys``:
the key of x + s, for the ball BFS and, as a key on a finite group is a
vertex id, for ``build_cayley_graph``.  Adjacency is stored CSR-style with
integer multiplicities so that terminal collapsing is exact.

Every two-terminal problem, and ``prefix_subgraph``, is one contraction
(``_contract``) of a label per vertex.  Balls come from one layered BFS
over keys, a few array passes per layer (``_layered_ball``): a new layer
is what its neighbours leave of the two layers before.
``orbit_ball`` runs it over orbit representatives, the least keys under
the signed coordinate permutations that fix vertex 0 and preserve the
generating set (``_symmetry_group``); ``build_ball`` over the identity.
The orbits keep layers, so the problem builders run on an orbit ball
unchanged, and its layer and cut edge counts are the full ball's: all but
the per-vertex experiments read one.  On a finite group a key is a
vertex id, so an orbit ball past the diameter lists each orbit's least id.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .errors import (
    BadArguments,
    DisconnectedGeneratingSet,
    EmptySet,
    FullSet,
    InfiniteFactorPresent,
    OutOfProfileRange,
    RadiusTooSmall,
    SizeCapExceeded,
)

# Module token for an infinite (Z) factor in a GraphSpec.
INFINITE = None

DEFAULT_SIZE_CAP = 5_000_000

FAMILIES = ("torus_product", "cyclic_chords", "z_times_torus", "explicit")


# ---------------------------------------------------------------------------
# GraphSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of an abelian Cayley-graph family.

    ``factors`` lists the cyclic moduli, with ``None`` standing for an
    infinite Z factor.  ``generators`` is a tuple of atoms, each one of

    * ``("box", (i, j, ...))``      -- offsets {-1,0,1} on the listed factors,
    * ``("full", i)``               -- every nonzero element of factor i,
    * ``("chords", k)``             -- offsets {-k,...,k} on factor 0,
    * ``("boxfull", (i, ...), f)``  -- the product set: a box offset on the
      listed factors combined with an arbitrary element of finite factor f,
    * ``("explicit", offsets)``     -- explicit tuple of offset tuples.

    The union of the atoms, canonicalized and with the identity dropped,
    is the generating set.  An ``explicit`` atom stands alone, so that every
    spec has a text form (``textspec.generators_to_value``).  The box/full
    union and the boxfull product give different metrics on the same group:
    a full-factor step costs its own move in the former and rides along
    with a box step in the latter.
    """

    family: str
    factors: tuple[Optional[int], ...]
    generators: tuple[tuple, ...]
    radius: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadArguments(f"unknown family {self.family!r}")
        if not self.factors:
            raise BadArguments("spec needs at least one factor")
        for f in self.factors:
            if f is not None and f < 2:
                raise BadArguments(f"finite modulus must be >= 2, got {f}")
        if len(self.generators) > 1 and any(a[:1] == ("explicit",) for a in self.generators):
            raise BadArguments("explicit offsets cannot mix with other atoms")
        # Eagerly canonicalize so malformed generator atoms fail at build time.
        if not self.offsets:
            raise BadArguments("generating set is empty after dropping identity")

    @cached_property
    def offsets(self) -> tuple[tuple[int, ...], ...]:
        """``spec_offsets(self)``, canonicalized once per spec."""
        return spec_offsets(self)

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def is_finite(self) -> bool:
        return all(f is not None for f in self.factors)

    def ambient_size(self) -> Optional[int]:
        if not self.is_finite:
            return None
        size = 1
        for f in self.factors:
            size *= f
        return size

    def ambient_degree(self) -> int:
        return len(self.offsets)


def _canonical(offset: Sequence[int], factors: Sequence[Optional[int]]) -> tuple[int, ...]:
    return tuple(x if m is None else x % m for x, m in zip(offset, factors))


def spec_offsets(spec: GraphSpec) -> tuple[tuple[int, ...], ...]:
    """Canonical sorted generating set of ``spec`` as group-element offsets.

    Identity offsets are dropped; symmetry (closure under negation) is
    enforced, which is automatic for box/full/chords atoms and checked for
    explicit ones.
    """
    d = spec.dim
    factors = spec.factors
    offs: set[tuple[int, ...]] = set()
    for atom in spec.generators:
        kind = atom[0]
        if kind in ("box", "boxfull"):
            idxs = atom[1] if len(atom) > 1 and atom[1] is not None else tuple(range(d))
            if any(i < 0 or i >= d for i in idxs):
                raise BadArguments(f"{kind} atom index out of range: {atom}")
            ranges = [(-1, 0, 1) if i in idxs else (0,) for i in range(d)]
            if kind == "boxfull":  # any element of the fiber factor f
                f = atom[2]
                if f < 0 or f >= d or factors[f] is None or f in idxs:
                    raise BadArguments(f"boxfull atom needs a finite fiber factor "
                                       f"outside its box: {atom}")
                ranges[f] = tuple(range(factors[f]))
            offs.update(_canonical(t, factors) for t in itertools.product(*ranges))
        elif kind == "full":
            i = atom[1]
            if i < 0 or i >= d or factors[i] is None:
                raise BadArguments(f"full atom needs a finite factor index: {atom}")
            offs.update(tuple(v if j == i else 0 for j in range(d))
                        for v in range(1, factors[i]))
        elif kind == "chords":
            k = atom[1]
            if d != 1 or factors[0] is None:
                raise BadArguments("chords atom requires a single finite factor")
            if k < 1:
                raise BadArguments("chords width must be >= 1")
            for v in range(-k, k + 1):
                offs.add(_canonical((v,), factors))
        elif kind == "explicit":
            for t in atom[1]:
                if len(t) != d:
                    raise BadArguments(f"offset {t} has wrong dimension")
                offs.add(_canonical(t, factors))
        else:
            raise BadArguments(f"unknown generator atom {atom!r}")
    offs.discard(tuple(0 for _ in range(d)))
    for t in offs:
        if _canonical(tuple(-x for x in t), factors) not in offs:
            raise BadArguments(f"generating set is not symmetric: missing -{t}")
    return tuple(sorted(offs))


# Spec factories for the standard families.

def spec_torus(*moduli: int, full_last: bool = False) -> GraphSpec:
    """(Z/n_1 Z) + ... + (Z/n_d Z) with box generators.

    With ``full_last`` the final factor contributes all its nonzero
    elements instead of joining the box (the sharpness-example shape).
    """
    if full_last:
        gens = (("box", tuple(range(len(moduli) - 1))), ("full", len(moduli) - 1))
    else:
        gens = (("box", tuple(range(len(moduli)))),)
    return GraphSpec("torus_product", tuple(moduli), gens)


def spec_fibered_torus(*moduli: int) -> GraphSpec:
    """Torus product whose final factor rides along with every box step.

    Generators are the product set {-1,0,1}^(d-1) x (Z/kZ), so the last
    factor is free in the metric and beta(r) = min((2r+1)^(d-1), n^(d-1))*k
    for r >= 1.
    """
    last = len(moduli) - 1
    if last < 1:
        raise BadArguments("need at least one box factor before the fiber")
    return GraphSpec("torus_product", tuple(moduli),
                     (("boxfull", tuple(range(last)), last),))


def spec_cycle(n: int) -> GraphSpec:
    return spec_torus(n)


def spec_cyclic_chords(n: int, k: int) -> GraphSpec:
    return GraphSpec("cyclic_chords", (n,), (("chords", k),))


def spec_z_times_torus(*moduli: int) -> GraphSpec:
    factors = (INFINITE,) + tuple(moduli)
    return GraphSpec("z_times_torus", factors, (("box", tuple(range(len(factors)))),))


def spec_line() -> GraphSpec:
    return spec_z_times_torus()


def spec_lattice(d: int) -> GraphSpec:
    """Z^d with box generators (ball construction only)."""
    factors = tuple(INFINITE for _ in range(d))
    return GraphSpec("explicit", factors, (("box", tuple(range(d))),))


def spec_explicit(factors: Sequence[Optional[int]], offsets: Sequence[Sequence[int]],
                  radius: Optional[int] = None) -> GraphSpec:
    return GraphSpec("explicit", tuple(factors),
                     (("explicit", tuple(tuple(t) for t in offsets)),), radius)


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected multigraph in CSR form.

    ``indptr``/``nbr``/``mult`` store, for every vertex, the sorted list of
    neighbours with positive integer multiplicities.  Self-loops are never
    stored; symmetry (with matching multiplicities) is a construction
    invariant.
    """

    n: int
    indptr: np.ndarray
    nbr: np.ndarray
    mult: np.ndarray

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.nbr[lo:hi], self.mult[lo:hi]

    @cached_property
    def degree(self) -> np.ndarray:
        """Weighted degree per vertex."""
        out = np.zeros(self.n, dtype=np.int64)
        np.add.at(out, np.repeat(np.arange(self.n), np.diff(self.indptr)), self.mult)
        return out

    @cached_property
    def max_degree(self) -> int:
        return int(self.degree.max()) if self.n else 0

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected edge once, as arrays (u, v, mult) with u < v."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = rows < self.nbr
        return rows[keep], self.nbr[keep], self.mult[keep]

    @property
    def edge_weight_total(self) -> int:
        return int(self.edges[2].sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.nbr, other.nbr)
                and np.array_equal(self.mult, other.mult))

    def __hash__(self):
        return hash((self.n, self.nbr.tobytes(), self.mult.tobytes()))


def _row_slots(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """CSR positions of every adjacency slot of ``rows``, row by row."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    first = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(lo - first, counts)


def from_edge_list(n: int, edges: Sequence[Sequence[int]] | np.ndarray) -> Graph:
    """Build a Graph from a (k, 3) array-like of (u, v, mult) rows, merging parallel entries."""
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 3)
    if e.ndim != 2 or e.shape[1] != 3:
        raise BadArguments("edges must be (u, v, mult) rows")
    u, v, m = e.T
    if np.any(u == v):
        raise BadArguments("self-loops are not allowed")
    out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if out.any():
        i = int(np.argmax(out))
        raise BadArguments(f"edge ({u[i]},{v[i]}) out of range for n={n}")
    if np.any(m <= 0):
        raise BadArguments("edge multiplicity must be positive")
    # one slot key u*n+v per direction; sorting the keys sorts by (u, v)
    key = np.concatenate([u * n + v, v * n + u])
    order = np.argsort(key, kind="stable")
    key, em = key[order], np.concatenate([m, m])[order]
    # merge duplicate (u, v) pairs
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(key // n, minlength=n))
    return Graph(n, indptr, key % n, np.add.reduceat(em, np.flatnonzero(first)))


def bfs_layers(g: Graph, sources: Iterable[int]) -> np.ndarray:
    """Distances from a source set; -1 marks unreachable vertices."""
    dist = np.full(g.n, -1, dtype=np.int64)
    frontier = np.unique(np.fromiter(sources, dtype=np.int64))
    dist[frontier] = 0
    d = 0
    while frontier.size:
        pos = _row_slots(g.indptr, frontier)
        w = g.nbr[pos]
        d += 1
        frontier = np.unique(w[dist[w] < 0])
        dist[frontier] = d
    return dist


# ---------------------------------------------------------------------------
# Cayley graph and ball construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CayleyGraph(Graph):
    """Finite Cayley graph of the group Z_{dims[0]} x ... with generating set
    ``offsets``; vertex v is the group element of C-order rank v in ``dims``."""

    dims: tuple[int, ...]
    offsets: tuple[tuple[int, ...], ...]


def build_cayley_graph(spec: GraphSpec, size_cap: int = DEFAULT_SIZE_CAP) -> CayleyGraph:
    """Finite Cayley graph of ``spec``; vertex ids are lexicographic tuple ranks."""
    if not spec.is_finite:
        raise InfiniteFactorPresent("build_cayley_graph needs all factors finite")
    dims = tuple(int(f) for f in spec.factors)
    n = spec.ambient_size()
    if n > size_cap:
        raise SizeCapExceeded(f"{n} vertices exceeds cap {size_cap}")
    offsets = spec.offsets
    deg = len(offsets)
    # a key is the C-order rank, so the vertex id
    nbrs = step_keys(_key_box(dims), dims, np.arange(n), np.asarray(offsets, dtype=np.int64))
    nbrs.sort(axis=1)
    indptr = np.arange(0, (n + 1) * deg, deg, dtype=np.int64)
    # every multiplicity is 1: one read-only int64 broadcast, not n * deg of them
    g = CayleyGraph(n, indptr, nbrs.reshape(-1), np.broadcast_to(np.int64(1), (n * deg,)),
                    dims, offsets)
    # one pass in C where a BFS takes diameter-many rounds (half a million on
    # a 10^6-cycle); S = -S, so the strong components are the connected ones,
    # and float64 data spares csgraph a copy
    adj = sp.csr_matrix((np.ones(n * deg), g.nbr, g.indptr), shape=(n, n))
    if sp.csgraph.connected_components(adj, connection="strong", return_labels=False) != 1:
        raise DisconnectedGeneratingSet(f"generators do not generate the group: {spec}")
    return g


def _symmetry_candidates(offsets: Sequence[tuple[int, ...]],
                         moduli: Sequence[Optional[int]]) -> np.ndarray:
    """Signed coordinate permutations that map the offset set onto itself
    modulo ``moduli`` (None for a Z factor), as rows g: x goes to y with
    y_k = x_j if g[k] = j < d and -x_j if g[k] = d + j.  The candidates are
    -id, the negation of one coordinate, and the swap of two coordinates of
    equal modulus: group automorphisms fixing 0, so graph automorphisms
    exactly when they preserve the offsets."""
    d = len(moduli)
    ident = np.arange(d)
    rows = [ident + d] + [ident + d * (ident == i) for i in range(d)]
    rows += [np.where(ident == i, j, np.where(ident == j, i, ident))
             for i, j in itertools.combinations(range(d), 2) if moduli[i] == moduli[j]]
    signed = np.concatenate([offsets, np.negative(offsets)], axis=1)
    return np.array([g for g in rows
                     if {_canonical(s, moduli) for s in signed[:, g].tolist()} == set(offsets)])


@lru_cache(maxsize=64)
def _symmetry_group(offsets: tuple[tuple[int, ...], ...],
                    moduli: tuple[Optional[int], ...]) -> np.ndarray:
    """The group the ``_symmetry_candidates`` generate, in their row form,
    identity first (8 elements on Z^2, 48 on Z^3 with box generators).  A
    swap keeps the offsets, so the coordinates it joins have one modulus and
    one offset extent, and every element maps a ``_key_box`` onto itself.
    Memoised per spec, so the array is read-only."""
    d = len(moduli)
    gens = _symmetry_candidates(offsets, moduli)
    code = (2 * d) ** np.arange(d)
    group = frontier = np.arange(d)[None]
    while len(frontier):
        # gen after g: entry gen[k] of g's image, negated if gen[k] >= d
        words = (frontier[:, gens % d] + d * (gens >= d)) % (2 * d)
        words = np.unique(words.reshape(-1, d), axis=0)
        frontier = words[~np.isin(words @ code, group @ code)]
        group = np.concatenate([group, frontier])
    group.flags.writeable = False
    return group


def _key_box(moduli: Sequence[Optional[int]], reach=0) -> tuple[np.ndarray, ...]:
    """Mixed-radix int64 keys, first coordinate most significant, as (lo,
    width, strides): x_k has the digit (x_k - lo[k]) mod width[k], where a
    factor of modulus m has lo 0 and width m, and a Z factor lo -reach[k]."""
    finite = np.array([m is not None for m in moduli])
    width = np.where(finite, [m or 0 for m in moduli], 2 * reach + 1)
    if math.prod(width.tolist()) >= 2 ** 63:
        raise SizeCapExceeded(f"ball key space {width.tolist()} overflows int64")
    strides = np.ones(len(moduli), dtype=np.int64)
    strides[:-1] = np.cumprod(width[::-1])[::-1][1:]
    return np.where(finite, 0, -reach), width, strides


def step_keys(box: tuple[np.ndarray, ...], moduli: Sequence[Optional[int]],
              keys: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The key of x + s in ``box``, a row per key x and a column per offset
    s, whose finite components lie in [0, m): key + s.strides less
    m.stride_k for each finite digit that leaves [0, m), which a canonical
    step does at most once.  A Z digit spans every coordinate the caller
    reaches, so it never wraps, and an int64 overflow on the way cancels,
    as the true key is below 2^63."""
    _, width, strides = box
    out = keys[:, None] + offsets @ strides
    for k, m in enumerate(moduli):
        if m is not None:
            wraps = keys[:, None] // strides[k] % width[k] >= width[k] - offsets[:, k]
            np.subtract(out, width[k] * strides[k], out=out, where=wraps)
    return out


IMAGE_BLOCK = 1 << 21  # image keys per product of _least_images


def _least_images(box: tuple[np.ndarray, ...], place: np.ndarray,
                  keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least key in the orbit of each of ``keys``, and the number of
    group elements sending it there: its stabilizer's order.  Column g of
    ``place`` holds strides[k] in row group[g, k], so the digits of x and -x
    times ``place`` are the keys of x's images, one column per element."""
    lo, width, strides = box
    least, fixing = np.empty((2, len(keys)), dtype=np.int64)
    step = max(1, IMAGE_BLOCK // place.shape[1])
    for i in range(0, len(keys), step):
        digits = keys[i:i + step, None] // strides % width
        images = np.concatenate([digits, (-digits - 2 * lo) % width], axis=1) @ place
        least[i:i + step] = images.min(axis=1)
        fixing[i:i + step] = (images == least[i:i + step, None]).sum(axis=1)
    return least, fixing


@dataclass(frozen=True, eq=False)
class BallGraph:
    """Induced subgraph on the metric ball B(x, radius) of ``spec``'s graph,
    or its orbit quotient (``orbit_ball``).

    Vertex 0 is the center; ids are sorted by (layer, lexicographic tuple),
    so every ball B(x, r) with r <= radius is an id prefix.  ``exit_degree``
    counts ambient edges leaving the ball (nonzero only on the top layer).
    ``size`` counts the ball vertices of each id: all ones on a full ball.
    """

    spec: GraphSpec
    base: Graph
    center: int
    radius: int
    layer: np.ndarray
    exit_degree: np.ndarray
    coords: np.ndarray  # (n, d) int64 group elements, one row per vertex id
    size: np.ndarray

    def prefix(self, r: int) -> int:
        """Number of ids with layer <= r: B(x, r) is ids 0..prefix(r)-1."""
        return int(np.searchsorted(self.layer, r, side="right"))

    @cached_property
    def _volumes(self) -> np.ndarray:  # the volume of ids 0..i-1 at i
        return np.concatenate([[0], np.cumsum(self.size)])

    def beta(self, r: int) -> int:
        """Ball volume at radius r, the sum of ``size`` over B(x, r)."""
        return int(self._volumes[self.prefix(r)])

    def sphere_ids(self, r: int) -> np.ndarray:
        return np.arange(self.prefix(r - 1), self.prefix(r), dtype=np.int64)


def build_ball(spec: GraphSpec, radius: int, size_cap: int = DEFAULT_SIZE_CAP) -> BallGraph:
    """BFS ball of ``spec``'s Cayley graph around the identity."""
    return _layered_ball(spec, radius, size_cap, np.arange(spec.dim)[None])


def orbit_ball(spec: GraphSpec, radius: int, size_cap: int = DEFAULT_SIZE_CAP) -> BallGraph:
    """``build_ball`` with each orbit of ``_symmetry_group`` merged into one
    vertex, numbered by (layer, least key); ``size_cap`` counts orbits.

    An orbit takes the layer, coordinates and exit degree of its least
    member.  Orbits A and B are joined by |A| #{s : a + s in B} ball edges
    (any a in A); edges inside an orbit vanish.  The group keeps layers, so
    ``dirichlet_problem`` and ``annulus_problem`` build their problem's
    orbit quotient on it, which has the same R_p: the p-energy is strictly
    convex, so its minimizer is constant on orbits.
    """
    return _layered_ball(spec, radius, size_cap, _symmetry_group(spec.offsets, spec.factors))


def _layered_ball(spec: GraphSpec, radius: int, size_cap: int, group: np.ndarray) -> BallGraph:
    """Layered BFS of B(radius) over the least keys of ``group``'s orbits.

    Each layer is a few array passes: its neighbour keys (``step_keys``),
    one ``unique``, for a nontrivial group one ``_least_images`` product and
    one more ``unique``, then two ``searchsorted`` membership tests.  A Z
    digit spans every coordinate within radius + 1 steps.  A step from
    layer L lands in layer L - 1, L or L + 1, so removing the two sorted
    layers before leaves exactly layer L + 1.
    """
    if radius < 0:
        raise BadArguments("radius must be >= 0")
    offsets = np.asarray(spec.offsets, dtype=np.int64)
    lo, width, strides = box = _key_box(spec.factors, np.abs(offsets).max(axis=0) * (radius + 1))
    place = np.zeros((2 * len(lo), len(group)), dtype=np.int64)
    place[group.T, np.arange(len(group))] = strides[:, None]
    layers = [-lo[None, :] @ strides]
    while len(layers) <= radius:
        nxt = np.unique(step_keys(box, spec.factors, layers[-1], offsets))
        if len(group) > 1:
            nxt = np.unique(_least_images(box, place, nxt)[0])
        for prev in layers[-2:]:
            pos = np.minimum(np.searchsorted(prev, nxt), prev.size - 1)
            nxt = nxt[prev[pos] != nxt]
        if not nxt.size:
            break  # graph exhausted below the requested radius
        if sum(map(len, layers)) + nxt.size > size_cap:
            raise SizeCapExceeded(f"ball exceeds size cap {size_cap}")
        layers.append(nxt)

    keys = np.concatenate(layers)
    n, deg = keys.size, len(offsets)
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]

    def ids(found: np.ndarray) -> np.ndarray:  # id of each key's orbit, n if outside the ball
        if len(group) > 1:  # one image per distinct key
            distinct, inverse = np.unique(found, return_inverse=True)
            found = _least_images(box, place, distinct)[0][inverse.reshape(found.shape)]
        pos = np.minimum(np.searchsorted(sorted_keys, found), n - 1)
        return np.where(sorted_keys[pos] == found, by_key[pos], n)

    table = ids(step_keys(box, spec.factors, keys, offsets))  # a row per vertex, column per offset
    exit_degree = (table == n).sum(axis=1, dtype=np.int64)
    coords = keys[:, None] // strides % width + lo
    if len(group) == 1:
        size = np.ones(n, dtype=np.int64)
        table.sort(axis=1)
        nbr = table[table < n]
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(deg - exit_degree)
        base = Graph(n, indptr, nbr, np.ones(nbr.size, dtype=np.int64))
    else:
        size = len(group) // _least_images(box, place, keys)[1]
        # slot (a, s) of A's least member a stands for |A| edges, one per member
        u, v = np.repeat(np.arange(n), deg), table.reshape(-1)
        once = (u < v) & (v < n)
        base = from_edge_list(n, np.stack([u[once], v[once], size[u[once]]], axis=1))
    layer = np.repeat(np.arange(len(layers), dtype=np.int64), [len(l) for l in layers])
    return BallGraph(spec=spec, base=base, center=0, radius=radius, layer=layer,
                     exit_degree=exit_degree, coords=coords, size=size)


# ---------------------------------------------------------------------------
# Growth profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthProfile:
    """Ball and sphere cardinalities beta(0..R), sigma(0..R)."""

    beta: tuple[int, ...]
    sigma: tuple[int, ...]
    degree: int
    diameter: Optional[int] = None

    @property
    def radius(self) -> int:
        return len(self.beta) - 1

    def phi(self, xi: float) -> int:
        """Smallest r with beta(r) >= xi (the growth inverse)."""
        r = bisect.bisect_left(self.beta, xi)
        if r == len(self.beta):
            raise OutOfProfileRange(f"profile only reaches beta={self.beta[-1]} < {xi}")
        return r


def growth_profile(ball: BallGraph) -> GrowthProfile:
    """Growth data of the ambient graph read off a ball."""
    sigma = np.bincount(ball.layer, ball.size, minlength=ball.radius + 1).astype(np.int64)
    beta = np.cumsum(sigma)
    degree = ball.spec.ambient_degree()
    if ball.radius >= 1 and int(beta[1]) - 1 != degree:
        raise BadArguments("ball layer structure disagrees with generating set")
    diameter = None
    total = ball.spec.ambient_size()
    if total is not None and int(beta[-1]) == total:
        diameter = int(np.max(np.nonzero(sigma)[0]))
    return GrowthProfile(beta=tuple(int(b) for b in beta),
                         sigma=tuple(int(s) for s in sigma),
                         degree=degree, diameter=diameter)


def graph_growth_profile(g: Graph, center: int = 0) -> GrowthProfile:
    """Growth profile of a finite connected graph from BFS at ``center``."""
    dist = bfs_layers(g, [center])
    if np.any(dist < 0):
        raise BadArguments("graph is not connected")
    diameter = int(dist.max())
    sigma = np.bincount(dist, minlength=diameter + 1)
    beta = np.cumsum(sigma)
    return GrowthProfile(beta=tuple(int(b) for b in beta),
                         sigma=tuple(int(s) for s in sigma),
                         degree=int(beta[1]) - 1 if diameter >= 1 else 0,
                         diameter=diameter)


# ---------------------------------------------------------------------------
# Boundaries
# ---------------------------------------------------------------------------

MASK_BITS = 62  # widest graph whose vertex sets fit an int64 bitmask, bit v = vertex v
MASK_BLOCK = 4096  # sets per boundary_sizes call when bk_upper_bound scans its connected sets


class BoundaryInfo(NamedTuple):
    vertex_size: int
    edge_size: int
    vertex_set: tuple[int, ...]


def boundary(g: Graph, A: Iterable[int]) -> BoundaryInfo:
    """External vertex boundary and (multiplicity-weighted) edge boundary of A."""
    ids = np.unique(np.fromiter(A, dtype=np.int64))
    if not ids.size:
        raise EmptySet("boundary of the empty set is undefined")
    if ids[0] < 0 or ids[-1] >= g.n:
        raise BadArguments("vertex id out of range")
    if ids.size == g.n:
        raise FullSet("boundary of the full vertex set is undefined")
    in_a = np.zeros(g.n, dtype=bool)
    in_a[ids] = True
    pos = _row_slots(g.indptr, ids)
    pos = pos[~in_a[g.nbr[pos]]]
    bset = np.unique(g.nbr[pos])
    return BoundaryInfo(bset.size, int(g.mult[pos].sum()), tuple(bset.tolist()))


def boundary_sizes(g: Graph, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex and (multiplicity-weighted) edge boundary sizes of the k sets of
    a (k, n) boolean membership matrix, in O(k n) memory.

    P = member . W, with W the weighted adjacency, is the edge weight from
    each set to each vertex; outside the set, the columns with P > 0 are
    the vertex boundary and the sum of P is the edge boundary.
    """
    adj = sp.csr_matrix((g.mult, g.nbr, g.indptr), shape=(g.n, g.n))
    # W is symmetric, so P^T = W . member^T
    outside = np.where(member, 0, (adj @ member.T.astype(np.int64)).T)
    return (outside > 0).sum(axis=1), outside.sum(axis=1)


def neighbor_masks(g: Graph, m: int) -> list[int]:
    """Bitmask of the neighbours below m of each vertex 0..m-1, as Python ints."""
    rows = np.repeat(np.arange(m), np.diff(g.indptr[:m + 1]))
    nbr = g.nbr[:g.indptr[m]]
    keep = nbr < m
    masks = np.zeros(m, dtype=object)
    np.bitwise_or.at(masks, rows[keep], np.left_shift(1, nbr[keep].astype(object)))
    return masks.tolist()


def connected_supersets(nbr_masks: list[int], root: int, allowed: int):
    """Yield every connected vertex set (as a bitmask) containing root.

    Rooted variant of the exclusive-neighbourhood enumeration: each set is
    produced exactly once.
    """
    root_bit = 1 << root
    if not (allowed & root_bit):
        return

    def rec(s: int, ns: int, ext: int):
        yield s
        while ext:
            w_bit = ext & -ext
            ext &= ext - 1
            w = w_bit.bit_length() - 1
            grown = nbr_masks[w] & allowed & ~s & ~ns & ~ext
            yield from rec(s | w_bit, ns | nbr_masks[w], ext | grown)

    yield from rec(root_bit, nbr_masks[root], nbr_masks[root] & allowed & ~root_bit)


def mask_members(masks: Iterable[int], n: int) -> Iterator[np.ndarray]:
    """Membership matrices of bitmask vertex sets, MASK_BLOCK sets at a time."""
    it = iter(masks)
    bits = np.arange(n, dtype=np.int64)
    while (block := np.fromiter(itertools.islice(it, MASK_BLOCK), dtype=np.int64)).size:
        yield (block[:, None] >> bits) & 1 == 1


# ---------------------------------------------------------------------------
# Two-terminal problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TerminalGraph:
    """A Graph with a designated source and ground vertex, unchecked here:
    the solver's problem object (``energy._FreeLaplacian``) checks them."""

    graph: Graph
    source: int
    ground: int


def _contract(g: Graph, label: np.ndarray, k: int, rows: int) -> Graph:
    """The graph on labels 0..k-1 that ``label`` makes of ``g``: edges map to
    their ends' labels (-1 drops a vertex), vanish inside a label or at a
    dropped end, and merge.  Only the CSR rows below ``rows`` are read; the
    labels cover every id they reach, and edges between later ids must vanish."""
    u = np.repeat(np.arange(rows), np.diff(g.indptr[:rows + 1]))
    v = g.nbr[:len(u)]
    once = u < v  # each edge from its smaller end
    a, b = label[u[once]], label[v[once]]
    keep = (a != b) & (a >= 0) & (b >= 0)
    return from_edge_list(k, np.stack([a[keep], b[keep], g.mult[:len(u)][once][keep]], axis=1))


def dirichlet_problem(ball: BallGraph, r: int) -> TerminalGraph:
    """Two-terminal network for R_p(x <-> S(x, r+1)) = R_p(x <-> complement of B(x, r)).

    Every vertex outside B(x, r) collapses to the ground; the layer
    invariant (no edge of B(x, r) jumps past S(x, r+1)) is checked, so that
    the ground is exactly the collapsed sphere.
    """
    m, outer = sphere_prefixes(ball, r)
    # B(x, r) keeps its ids and S(x, r+1) becomes the ground vertex m
    label = np.minimum(np.arange(outer), m)
    return TerminalGraph(_contract(ball.base, label, m + 1, m), source=ball.center, ground=m)


def sphere_prefixes(ball: BallGraph, r: int) -> tuple[int, int]:
    """prefix(r) and prefix(r + 1) of ``ball``, after the checks that
    ``dirichlet_problem`` makes of its radius r."""
    if r < 0:
        raise BadArguments("r must be >= 0")
    if ball.radius < r + 1:
        raise RadiusTooSmall(f"need ball radius >= {r + 1}, have {ball.radius}")
    m, outer = ball.prefix(r), ball.prefix(r + 1)
    if outer == m:
        raise EmptySet(f"sphere S(x, {r + 1}) is empty")
    v = ball.base.nbr[:ball.base.indptr[m]]
    if np.any(ball.layer[v[v >= m]] != r + 1):
        raise BadArguments("layer invariant violated: edge jumps a sphere")
    return m, outer


def collapse_terminals(g: Graph, source: Iterable[int], ground: Iterable[int]) -> TerminalGraph:
    """Collapse two disjoint vertex sets into single terminals.

    Free vertices keep their relative order and are renumbered 0..f-1; the
    source terminal becomes vertex f and the ground terminal f+1.  Edges
    inside a terminal set vanish; parallel edges accumulate multiplicity.
    """
    src = np.unique(np.fromiter(source, dtype=np.int64))
    gnd = np.unique(np.fromiter(ground, dtype=np.int64))
    if not src.size or not gnd.size:
        raise EmptySet("terminal sets must be nonempty")
    if np.intersect1d(src, gnd).size:
        raise BadArguments("source and ground sets must be disjoint")
    if min(src[0], gnd[0]) < 0 or max(src[-1], gnd[-1]) >= g.n:
        raise BadArguments("terminal vertex out of range")
    free = np.ones(g.n, dtype=bool)
    free[src] = free[gnd] = False
    f = int(free.sum())
    remap = np.cumsum(free) - 1
    remap[src], remap[gnd] = f, f + 1
    return TerminalGraph(_contract(g, remap, f + 2, g.n), source=f, ground=f + 1)


def annulus_problem(ball: BallGraph, n: int, r: int) -> TerminalGraph:
    """Two-terminal network for R_p(S(x,n) <-> S(x,r)) read off a ball.

    Vertices strictly inside B(x, n-1) stay free; they attach only to the
    source sphere, take the source value in the minimizer, and contribute
    zero energy, so the collapsed problem is exact.  The numbering is
    ``collapse_terminals``' on B(x, r): the free vertices, B(x, n-1) and
    B(x, r-1) less S(x, n), keep their order as 0..f-1, S(x, n) is the
    source f and S(x, r) the ground f+1.
    """
    inner, b_n, outer, m = annulus_prefixes(ball, n, r)
    f = inner + outer - b_n
    label = np.concatenate([np.arange(inner), np.full(b_n - inner, f),
                            np.arange(inner, f), np.full(m - outer, f + 1)])
    # every edge leaving B(x, r-1) ends in S(x, r), so its rows hold all kept edges
    return TerminalGraph(_contract(ball.base, label, f + 2, outer), source=f, ground=f + 1)


def annulus_prefixes(ball: BallGraph, n: int, r: int) -> tuple[int, int, int, int]:
    """prefix(n - 1), prefix(n), prefix(r - 1) and prefix(r) of ``ball``,
    after the checks that ``annulus_problem`` makes of its n and r."""
    if not (0 < n < r):
        raise BadArguments("need 0 < n < r")
    if ball.radius < r:
        raise RadiusTooSmall(f"need ball radius >= {r}, have {ball.radius}")
    inner, b_n, outer, m = ball.prefix(n - 1), ball.prefix(n), ball.prefix(r - 1), ball.prefix(r)
    if outer == m:  # S(x, n) is empty only if S(x, r) is
        raise EmptySet(f"sphere S(x, {r}) is empty")
    return inner, b_n, outer, m


def prefix_subgraph(g: Graph, m: int) -> Graph:
    """Induced subgraph on vertices 0..m-1 (valid because balls are id prefixes)."""
    label = np.full(g.n, -1, dtype=np.int64)
    label[:m] = np.arange(m)
    return _contract(g, label, m, m)
