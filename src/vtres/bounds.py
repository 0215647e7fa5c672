"""Closed-form bounds: Nash-Williams, growth-based isoperimetry, the
j-quantity resistance upper bounds, exponent functions, and the main-theorem
right-hand sides.

Implied multiplicative constants are never folded in: every evaluator
returns the formula value at constant 1, and BoundReport records the
empirical ratio so that sweeps can assert boundedness instead.

The exhaustive j-quantity bound counts boundaries with
``graphs.boundary_sizes`` and evaluates j once per distinct (size, vertex
boundary, edge boundary); on a simple cycle it needs no sets at all.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    BadArguments,
    DomainError,
    EmptyBoundary,
    InvalidCutsets,
    MissingParam,
    OutOfProfileRange,
    ProfileUnavailable,
    RadiusTooSmall,
    SizeCapExceeded,
)
from .graphs import (
    BallGraph,
    Graph,
    GrowthProfile,
    TerminalGraph,
    _row_slots,
    bfs_layers,
    boundary,
    boundary_sizes,
    connected_supersets,
    graph_growth_profile,
    growth_profile,
    mask_members,
    neighbor_masks,
    prefix_subgraph,
)

BK_EXHAUSTIVE_CAP = 20


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """One (computed quantity, formula bound) comparison.

    ``ratio`` is computed/bound.  ``status`` is PASS/FAIL only when the
    inequality carries no implied constant; INFO rows feed sweep-level
    boundedness checks instead.
    """

    quantity: str
    computed: float
    bound: float
    side: str
    ratio: float
    params: dict
    status: str

    @property
    def passed(self) -> bool:
        return self.status != "FAIL"


def make_report(quantity: str, computed: float, bound: float, side: str,
                params: dict, check: bool = True) -> BoundReport:
    if side not in ("lower", "upper"):
        raise BadArguments(f"side must be lower or upper, got {side!r}")
    if bound != 0:
        ratio = computed / bound
    else:
        ratio = math.inf if computed > 0 else 1.0
    if not check:
        status = "INFO"
    elif side == "lower":
        status = "PASS" if bound <= computed * (1 + 1e-9) else "FAIL"
    else:
        status = "PASS" if computed <= bound * (1 + 1e-9) else "FAIL"
    return BoundReport(quantity=quantity, computed=computed, bound=bound,
                       side=side, ratio=ratio, params=dict(params), status=status)


# ---------------------------------------------------------------------------
# Nash-Williams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutsetFamily:
    """Pairwise disjoint edge sets, each separating source from ground.

    ``validate_cutsets`` checks a family once: the frozen fields cannot
    change, so the first check's finding is cached on the instance, and a
    family summed at several p is checked only the first time.
    """

    cutsets: tuple[tuple[tuple[int, int, int], ...], ...]
    sizes: tuple[float, ...]
    graph: Graph
    source: tuple[int, ...]
    ground: tuple[int, ...]

    @functools.cached_property
    def _fault(self) -> Optional[str]:
        # cached_property writes the instance __dict__ directly, which a
        # frozen dataclass allows
        return _cutset_fault(self)


def _check_p(p: float, error: type[Exception] = BadArguments) -> None:
    if not math.isfinite(p) or p <= 1:
        raise error(f"p must be finite and > 1, got {p!r}")


def validate_cutsets(family: CutsetFamily) -> None:
    """Raise InvalidCutsets unless source and ground are disjoint nonempty
    sets of vertices, each cutset is a set of graph edges with their
    multiplicities, the cutsets are pairwise disjoint, each one separates
    source from ground, and ``sizes`` holds each cutset's multiplicity sum.

    Faults are reported in the order of an edge-by-edge scan: cutset by
    cutset, and within a cutset the edge checks first, in edge order.  The
    sizes are checked last.  Separation is decided for every cutset before
    the first faulty one by a single reachability pass
    (``_reach_past_cutsets``), not one search per cutset; any of them
    failing gives the same message, so the scan order is kept.  The finding
    is cached on the family, so a second call costs nothing.
    """
    if family._fault is not None:
        raise InvalidCutsets(family._fault)


def _cutset_fault(family: CutsetFamily) -> Optional[str]:
    """The message ``validate_cutsets`` raises for ``family``, or None."""
    g, n, cutsets = family.graph, family.graph.n, family.cutsets
    source = np.asarray(family.source, dtype=np.int64)
    ground = np.asarray(family.ground, dtype=np.int64)
    if not source.size or not ground.size:
        return "source and ground must be nonempty"
    if np.any((source < 0) | (source >= n)) or np.any((ground < 0) | (ground >= n)):
        return f"source or ground vertex out of range [0, {n})"
    if np.intersect1d(source, ground).size:
        return "source and ground overlap"
    eu, ev, em = g.edges
    lengths = [len(c) for c in cutsets]
    flat = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(cutsets)),
                       dtype=np.int64, count=3 * sum(lengths)).reshape(-1, 3)
    cid = np.repeat(np.arange(len(cutsets)), lengths)
    pairs = np.sort(flat[:, :2], axis=1)
    keys = pairs[:, 0] * n + pairs[:, 1]
    # graph keys ascend (rows ascend, each row's neighbours are sorted); the
    # sentinel keeps every search position a valid index
    graph_keys = np.append(eu * n + ev, np.iinfo(np.int64).max)
    pos = np.searchsorted(graph_keys, keys)
    present = (pairs[:, 0] >= 0) & (pairs[:, 1] < n) & (graph_keys[pos] == keys)
    mismatch = present & (np.append(em, 0)[pos] != flat[:, 2])
    # a stable sort puts earlier copies of a key first: a copy in the same
    # cutset is a repeat, one in an earlier cutset an overlap
    order = np.argsort(keys, kind="stable")
    again = np.zeros(len(keys), dtype=bool)
    again[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    same = np.zeros(len(keys), dtype=bool)
    same[order[1:]] = cid[order[1:]] == cid[order[:-1]]
    edge_fault = ~present | mismatch | (again & same)
    faulty = np.nonzero(edge_fault | again)[0]
    bad = int(cid[faulty[0]]) if len(faulty) else len(cutsets)
    # cutsets 0..bad-1 are pairwise disjoint sets of graph edges
    if bad:
        head = sum(lengths[:bad])
        if _reach_past_cutsets(g, source, pairs[:head], cid[:head], bad)[ground].any():
            return "a cutset fails to separate source from ground"
    if bad < len(cutsets):
        i = int(np.argmax(edge_fault))
        if not edge_fault[i] or cid[i] != bad:
            return "cutsets are not pairwise disjoint"
        key = (int(pairs[i, 0]), int(pairs[i, 1]))
        if not present[i]:
            return f"edge {key} not present in the graph"
        if mismatch[i]:
            return f"edge {key} multiplicity mismatch"
        return f"edge {key} repeated inside a cutset"
    sums = np.bincount(cid, weights=flat[:, 2], minlength=len(cutsets))
    if len(family.sizes) != len(cutsets) or np.any(np.asarray(family.sizes) != sums):
        return "cutset sizes are not their multiplicity sums"
    return None


def _reach_past_cutsets(g: Graph, source: np.ndarray, pairs: np.ndarray,
                        cid: np.ndarray, k: int) -> np.ndarray:
    """(n, ceil(k/64)) uint64 masks: bit j % 64 of word j // 64 of row v is
    set when v can be reached from ``source`` without crossing cutset j.

    ``pairs`` holds the (min, max) edges of cutsets 0..k-1 and ``cid`` the
    cutset of each.  The cutsets must be pairwise disjoint sets of graph
    edges, so each adjacency slot blocks at most one bit.  One pass finds
    every bit: each round, the vertices that gained a bit pass their masks,
    less each slot's blocked bit, to their neighbours.  Bit j reaches v in
    the round of v's distance from ``source`` with cutset j deleted, so the
    pass is a breadth-first search for all k cutsets at once.
    """
    n, words = g.n, -(-k // 64)
    full = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    if k % 64:
        full[-1] = (1 << (k % 64)) - 1
    # the cutset each slot crosses, or -1; slot keys u*n+v ascend, since
    # rows ascend and each row's neighbours are sorted
    deg = np.diff(g.indptr)
    keys = np.repeat(np.arange(n), deg) * n + g.nbr
    cut = np.full(keys.size, -1, dtype=np.int32)
    cut[np.searchsorted(keys, pairs[:, 0] * n + pairs[:, 1])] = cid
    cut[np.searchsorted(keys, pairs[:, 1] * n + pairs[:, 0])] = cid
    del keys
    reach = np.zeros((n, words), dtype=np.uint64)
    frontier = np.unique(source)
    reach[frontier] = full
    while frontier.size:
        pos = _row_slots(g.indptr, frontier)
        if not pos.size:
            break
        carry = reach[np.repeat(frontier, deg[frontier])]
        j = cut[pos]
        hit = np.flatnonzero(j >= 0)
        j = j[hit]
        carry[hit, j // 64] &= ~np.left_shift(np.uint64(1), (j % 64).astype(np.uint64))
        w = g.nbr[pos]
        order = np.argsort(w, kind="stable")
        w, carry = w[order], carry[order]
        first = np.flatnonzero(np.concatenate(([True], w[1:] != w[:-1])))
        w = w[first]
        got = np.bitwise_or.reduceat(carry, first, axis=0) | reach[w]
        grew = np.any(got != reach[w], axis=1)
        frontier = w[grew]
        reach[frontier] = got[grew]
    return reach


def nash_williams_bound(family: CutsetFamily, p: float, validate: bool = True) -> float:
    """(sum_i |Pi_i|^(-1/(p-1)))^(p-1), a lower bound for R_p(source <-> ground).

    An empty cutset, valid when source and ground are already disconnected,
    gives math.inf, which R_p is there.  ``validate=False`` skips the
    per-cutset checks, never the terminal ones.
    """
    _check_p(p)
    # without cutsets only the terminal checks remain
    validate_cutsets(family if validate
                     else dataclasses.replace(family, cutsets=(), sizes=()))
    if 0 in family.sizes:
        return math.inf
    q = 1.0 / (p - 1.0)
    return float(sum(s ** (-q) for s in family.sizes) ** (p - 1.0))


def sphere_cutsets(ball: BallGraph, r: int) -> CutsetFamily:
    """Edge boundaries of B(x,0),...,B(x,r-1): disjoint cutsets between x and S(x,r),
    on a full or an orbit ball; each size is the cut's ball edge count on either."""
    if r < 1:
        raise BadArguments("r must be >= 1")
    if ball.radius < r:
        raise RadiusTooSmall(f"need ball radius >= {r}, have {ball.radius}")
    g, layer = ball.base, ball.layer
    # B(x, r-1) is an id prefix, so its adjacency slots are a CSR prefix;
    # rows ascend, so the edges come out sphere by sphere, vertex by vertex
    inner = ball.prefix(r - 1)
    rows = np.repeat(np.arange(inner), np.diff(g.indptr[:inner + 1]))
    nbr, mult = g.nbr[:len(rows)], g.mult[:len(rows)]
    up = layer[nbr] == layer[rows] + 1
    rows, nbr, mult = rows[up], nbr[up], mult[up]
    cuts = np.searchsorted(layer[rows], np.arange(1, r))
    cutsets, sizes = [], []
    for u, v, m in zip(np.split(rows, cuts), np.split(nbr, cuts), np.split(mult, cuts)):
        cutsets.append(tuple(zip(u.tolist(), v.tolist(), m.tolist())))
        sizes.append(float(m.sum()))
    return CutsetFamily(cutsets=tuple(cutsets), sizes=tuple(sizes),
                        graph=g, source=(ball.center,),
                        ground=tuple(ball.sphere_ids(r).tolist()))


# ---------------------------------------------------------------------------
# Growth-based isoperimetric bound
# ---------------------------------------------------------------------------

def diameter_resistance_lower(p: float, deg_u: int, diam: int, edge_total: int) -> float:
    """Cutset lower bound on R_p between two vertices at maximal distance.

    Built from the sphere cutsets around u: the first has deg(u) edges and
    at least half of the rest have at most 2(|E|-deg(u))/(diam-1) edges.
    The constant is explicit, so the bound is a genuine inequality.
    """
    _check_p(p)
    if diam < 2 or edge_total <= deg_u:
        raise BadArguments("need diam >= 2 and more edges than deg(u)")
    q = 1.0 / (p - 1.0)
    head = (1.0 / deg_u) ** q
    tail = ((diam - 1.0) ** p / (4.0 * (edge_total - deg_u))) ** q
    return (head + tail) ** (p - 1.0)


def csc_bound(profile: GrowthProfile, m: int) -> float:
    """Lower bound m / (12 * phi(2m)) on the vertex boundary of any m-set.

    phi is the growth inverse: the least radius whose ball holds the given
    volume.  Valid for m at most half the ambient size.
    """
    if m < 1:
        raise BadArguments("set size must be >= 1")
    if 2 * m > profile.beta[-1]:
        raise OutOfProfileRange(
            f"need beta up to {2 * m}, profile reaches {profile.beta[-1]}")
    return m / (12.0 * profile.phi(2 * m))


# ---------------------------------------------------------------------------
# The j-quantity and the resistance upper bound built from it
# ---------------------------------------------------------------------------

def j_quantity(g: Graph, A, p: float, ambient_degree: Optional[int] = None) -> float:
    """min of the vertex- and edge-boundary expressions driving the upper bound.

    ``ambient_degree`` overrides deg(Gamma) when g is a truncated piece of a
    larger graph.
    """
    _check_p(p)
    info = boundary(g, A)
    deg = ambient_degree if ambient_degree is not None else g.max_degree
    return _j_value(len(set(int(x) for x in A)), info.vertex_size, info.edge_size, p, deg)


def _j_value(a: int, vb: int, eb: int, p: float, deg: int) -> float:
    """j of an a-set with boundary sizes vb, eb.  Takes Python numbers: numpy's
    power can differ from ``**`` in the last ulp."""
    if vb == 0 or eb == 0:
        raise EmptyBoundary("set has empty boundary")
    q1 = p / (p - 1.0)
    q2 = 1.0 / (p - 1.0)
    vterm = a / vb ** q1 + 1.0 / vb ** q2
    eterm = deg * a / eb ** q1 + 1.0 / eb ** q2
    return float(min(vterm, eterm))


def j_upper_from_profile(a: int, xi: float, p: float) -> float:
    """Upper bound on j for sets of size a with vertex boundary >= xi.

    Uses the two-term comparison with C = max(1, xi/a), so it is valid for
    any positive xi.
    """
    if xi <= 0:
        raise BadArguments("boundary lower bound must be positive")
    c = max(1.0, xi / a)
    return (1.0 + c) * a / xi ** (p / (p - 1.0))


def _is_simple_cycle(g: Graph) -> bool:
    return (g.n >= 3 and np.all(g.degree == 2) and np.all(g.mult == 1)
            and int((bfs_layers(g, [0]) >= 0).sum()) == g.n)


class BkBound(NamedTuple):
    value: float
    base: float
    block_maxima: tuple[float, ...]


def _dyadic_block(total: int, a: int) -> int:
    """Block index n with total/2^(n+1) < a <= total/2^n."""
    return int(math.floor(math.log2(total / a)))


def _blocks_exhaustive_rooted(g: Graph, root: int, allowed: int, total: int,
                              nmax: int, p: float, deg: int) -> list[float]:
    """Block maxima of j over the connected sets in ``allowed`` (a mask below
    total) that contain root; j depends on a set only through its size and
    boundary sizes, so it is evaluated once per distinct triple."""
    triples = set()
    sets = connected_supersets(neighbor_masks(g, total), root, allowed)
    for member in mask_members(sets, g.n):
        vb, eb = boundary_sizes(g, member)
        triples.update(zip(member.sum(axis=1).tolist(), vb.tolist(), eb.tolist()))
    maxima = [0.0] * (nmax + 1)
    for a, vb, eb in triples:
        n = _dyadic_block(total, a)
        if n <= nmax:
            maxima[n] = max(maxima[n], _j_value(a, vb, eb, p, deg))
    return maxima


def _blocks_cycle_arcs(total: int, nmax: int, p: float) -> list[float]:
    """On a simple cycle the connected proper subsets are arcs; one of a <= n-2
    vertices has vertex and edge boundary 2, and j grows with a, so a block's
    maximum is j at its largest arc."""
    maxima = [0.0] * (nmax + 1)
    for a in range(1, total - 1):
        n = _dyadic_block(total, a)
        if n <= nmax:
            maxima[n] = _j_value(a, 2, 2, p, 2)
    return maxima


def _blocks_from_profile(xi_of: Callable[[int], float], total: int, nmax: int,
                         p: float, first: int = 0) -> list[float]:
    """Block maxima from a boundary profile; blocks below ``first`` stay 0.0
    and are never evaluated."""
    maxima = [0.0] * (nmax + 1)
    for n in range(first, nmax + 1):
        lo = total / 2 ** (n + 1)
        hi = total / 2 ** n
        a_lo = int(math.floor(lo)) + 1
        a_hi = int(math.floor(hi))
        if a_hi < a_lo:
            continue
        count = a_hi - a_lo + 1
        if count <= 4096:
            sizes = range(a_lo, a_hi + 1)
        else:
            grid = np.unique(np.geomspace(a_lo, a_hi, 257).astype(np.int64))
            sizes = [int(a) for a in grid]
        best = 0.0
        for a in sizes:
            val = j_upper_from_profile(a, xi_of(a), p)
            if val > best:
                best = val
        maxima[n] = best
    return maxima


def bk_upper_bound(problem, p: float, strategy: str = "exhaustive") -> BkBound:
    """Right-hand side (implied constant 1) of the connected-set resistance
    upper bound.

    ``problem`` is either a (BallGraph, r) pair, bounding
    R_p(x <-> S(x, r+1)) through subsets of B(x, r), or a TerminalGraph with
    singleton terminals in a finite graph.  ``strategy`` selects exhaustive
    connected-subset enumeration (small graphs; arcs on cycles) or the
    growth-based lower bound on the vertex boundary of a set of each size
    (``csc_bound``), which reads only beta and so takes an ``orbit_ball``.
    The caller pairs the result with a measured resistance and reports the
    empirical ratio.

    Both forms are a list of roots (root, degree, allowed mask) and a first
    block: the ball form sums its one root's blocks from n = 0, the pair
    form each terminal's blocks from n = 1.
    """
    _check_p(p)
    if strategy not in ("exhaustive", "profile"):
        raise BadArguments(f"unknown strategy {strategy!r}")

    if isinstance(problem, tuple):
        ball, r = problem
        if ball.radius < r + 1:
            raise RadiusTooSmall("need ball radius >= r+1 so boundaries stay visible")
        if ball.beta(r + 1) == ball.beta(r):
            raise BadArguments("B(x,r) already covers the graph, its boundary is empty")
        if strategy == "exhaustive" and np.any(ball.size != 1):
            raise BadArguments("a subset's boundary is not an orbit quantity: need a full ball")
        total = ball.beta(r)
        deg = ball.spec.ambient_degree()
        roots = [(ball.center, deg, (1 << ball.prefix(r)) - 1)]
        first, j_deg, cycle = 0, deg, False
        # subsets of B(x, r) have their boundaries in B(x, r+1)
        subgraph = lambda: prefix_subgraph(ball.base, ball.prefix(r + 1))

        def growth() -> GrowthProfile:
            profile = growth_profile(ball)
            if profile.beta[-1] < 2 * total:
                raise ProfileUnavailable(
                    f"growth profile reaches {profile.beta[-1]}, need {2 * total}")
            ambient = ball.spec.ambient_size()
            if ambient is not None and 2 * total > ambient:
                raise ProfileUnavailable("sets may exceed half the ambient graph")
            return profile
    elif isinstance(problem, TerminalGraph):
        g, u, v = problem.graph, problem.source, problem.ground
        total = g.n
        full = (1 << total) - 1
        roots = [(u, int(g.degree[u]), full & ~(1 << v)),
                 (v, int(g.degree[v]), full & ~(1 << u))]
        # block 0 holds sets beyond half the graph, which the profile does
        # not reach and the pair form drops; csc_bound rejects larger sizes
        first, j_deg = 1, g.max_degree
        cycle = strategy == "exhaustive" and _is_simple_cycle(g)
        subgraph = lambda: g
        growth = lambda: graph_growth_profile(g)
    else:
        raise BadArguments("problem must be (BallGraph, r) or a TerminalGraph")

    base = sum(deg_root ** (-1.0 / (p - 1.0)) for _, deg_root, _ in roots)
    block_maxima: list[float] = []
    xi_of = functools.partial(csc_bound, growth()) if strategy == "profile" else None
    for root, deg_root, allowed in roots:
        nmax = _dyadic_block(total, deg_root) if total >= deg_root else -1
        if nmax < first:
            continue
        if strategy == "profile":
            maxima = _blocks_from_profile(xi_of, total, nmax, p, first)
        elif cycle:
            maxima = _blocks_cycle_arcs(total, nmax, p)
        elif total > BK_EXHAUSTIVE_CAP:
            raise SizeCapExceeded(f"exhaustive strategy capped at {BK_EXHAUSTIVE_CAP} vertices")
        else:
            maxima = _blocks_exhaustive_rooted(subgraph(), root, allowed, total, nmax,
                                               p, j_deg)
        block_maxima.extend(maxima[first:])
    value = (base + sum(block_maxima)) ** (p - 1.0)
    return BkBound(value, base, tuple(block_maxima))


# ---------------------------------------------------------------------------
# Exponent functions
# ---------------------------------------------------------------------------

class ExponentValues(NamedTuple):
    alpha: float
    h: float
    h_star: float
    b: float


def alpha_exponent(p: float) -> float:
    _check_p(p, DomainError)
    return 1.0 if p < 3 else 1.0 - p / (math.floor(p) + 1.0)


def homogeneous_dimension(d: int) -> int:
    """Largest homogeneous dimension of a nilpotent Lie group of dimension d."""
    if d < 0:
        raise DomainError("d must be >= 0")
    return 0 if d < 1 else 1 + d * (d - 1) // 2


def h_star(p: float) -> int:
    if p <= 0:
        raise DomainError("p must be positive")
    return homogeneous_dimension(math.ceil(p) - 1)


def b_exponent(q: float) -> float:
    if q < 0:
        raise DomainError("q must be >= 0")
    if q <= 3 or q == 4:
        return float(q)
    d = 1
    while homogeneous_dimension(d) <= q:
        d += 1
    return float(d)  # max d with h(d-1) <= q


def exponent_functions(p: float, q: float, d: int) -> ExponentValues:
    return ExponentValues(alpha=alpha_exponent(p),
                          h=float(homogeneous_dimension(d)),
                          h_star=float(h_star(p)),
                          b=b_exponent(q))


def growth_lower_rhs(n: int, r: int, q: float, beta_1: Optional[int] = None) -> float:
    """Growth lower-bound formula (implied constant 1) for beta(n).

    With ``beta_1`` absent this is the absolute form under beta(r) >= r^q:
    n^(floor(q)+1) below the crossover n = r^{q - floor(q)} and
    r^{q-floor(q)} * n^floor(q) above it.  With ``beta_1`` it is the
    relative form under beta(r) >= r^q * beta(1): n^b(q) * beta(1).
    """
    if not 1 <= n <= r:
        raise DomainError("need 1 <= n <= r")
    if q < 1:
        raise DomainError("need q >= 1")
    if beta_1 is not None:
        return n ** b_exponent(q) * beta_1
    fq = math.floor(q)
    crossover = r ** (q - fq)
    if n <= crossover:
        return float(n ** (fq + 1))
    return crossover * n ** fq


def linear_growth_lower(n: int, degree: int) -> float:
    """(degree+1) * n / 3, a ball-volume lower bound valid up to the radius
    of any connected regular graph (explicit constant, no hidden factor)."""
    if n < 1 or degree < 1:
        raise DomainError("need n >= 1 and degree >= 1")
    return (degree + 1) * n / 3.0


# ---------------------------------------------------------------------------
# Main-theorem right-hand sides
# ---------------------------------------------------------------------------

def _get(params: dict, *keys):
    out = []
    for k in keys:
        if k not in params:
            raise MissingParam(f"theorem formula needs parameter {k!r}")
        out.append(params[k])
    return out if len(out) > 1 else out[0]


def _case_formulas(p: float, deg: float, q: float, bulk: float, bulk_log: float,
                   eps: Optional[float]) -> float:
    """Shared case analysis of the two upper-bound propositions.

    ``bulk`` is diam^p/|G| (finite form) or r^p/beta(r) (ball form);
    ``bulk_log`` the same with the (log .../deg)^(p-1) factor.
    """
    fp = math.floor(p)
    eta_exp = 1.0 - p / (fp + 1.0)
    integer_p = (p == int(p))
    candidates = []
    if q >= fp + 1:
        candidates.append(deg ** (-eta_exp))
    if fp <= q < fp + 1:
        candidates.append(deg ** (-eta_exp) + bulk_log)
        if not integer_p:
            candidates.append(deg ** (-eta_exp) + bulk)
    if q <= p:
        candidates.append(1.0 / deg + bulk_log)
    if q < fp and not integer_p:
        candidates.append(bulk)
    if eps is not None and q <= p - eps:
        candidates.append(bulk)
    if not candidates:
        raise DomainError(f"no upper-bound case applies for p={p}, q={q}")
    return min(candidates)


def theorem_rhs(theorem: str, params: dict) -> float:
    """Evaluate a main-theorem bound formula with implied constant 1.

    Logarithms are natural throughout; base changes are absorbed by the
    implied constants and show up only in reported ratios.
    """
    if theorem in ("T1_8_lower", "T1_8_upper"):
        r, beta_r, deg = _get(params, "r", "beta_r", "deg")
        if theorem == "T1_8_lower":
            return 1.0 / deg + r * r / (deg * beta_r)
        return 1.0 / deg + r * r * math.log(r) / beta_r

    if theorem in ("T1_10_lower", "T1_10_upper_int", "T1_10_upper_nonint"):
        p, r, beta_r, deg = _get(params, "p", "r", "beta_r", "deg")
        if theorem == "T1_10_lower":
            return 1.0 / deg + r ** p / (deg * beta_r)
        head = deg ** (-alpha_exponent(p))
        if theorem == "T1_10_upper_int":
            return head + r ** p * math.log(r) ** (p - 1.0) / beta_r
        return head + r ** p / beta_r

    if theorem == "T1_11":
        p, diam, size, deg = _get(params, "p", "diam", "size", "deg")
        return deg ** (-alpha_exponent(p)) + diam ** p * math.log(size) ** (p - 1.0) / size

    if theorem == "T1_12":
        p, r, beta_r = _get(params, "p", "r", "beta_r")
        return r ** p / beta_r

    if theorem == "T1_13":
        p, diam, size = _get(params, "p", "diam", "size")
        return diam ** p / size

    if theorem == "T_var_converse":
        n, r, beta_n, deg = _get(params, "n", "r", "beta_n", "deg")
        if not 0 < n < r:
            raise DomainError("need 0 < n < r")
        return n * n * math.log(r / n) / (deg * beta_n)

    if theorem == "P7_2_cases":
        p, deg, diam, size = _get(params, "p", "deg", "diam", "size")
        q = math.inf if diam <= 1 else math.log(size) / math.log(diam)
        bulk = diam ** p / size
        bulk_log = bulk * math.log(size / deg) ** (p - 1.0)
        return _case_formulas(p, deg, q, bulk, bulk_log, params.get("eps"))

    if theorem == "P7_4_cases":
        p, deg, r, beta_r, beta_4r = _get(params, "p", "deg", "r", "beta_r", "beta_4r")
        q = math.log(beta_4r) / math.log(4 * r)
        bulk = r ** p / beta_r
        bulk_log = bulk * math.log(beta_r / deg) ** (p - 1.0)
        return _case_formulas(p, deg, q, bulk, bulk_log, params.get("eps"))

    raise BadArguments(f"unknown theorem {theorem!r}")


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x), for sweep regressions."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if len(lx) < 2:
        raise BadArguments("need at least two points")
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))
