"""Exact isoperimetric profiles and empirical checks of the growth-based
isoperimetric theorems.

Profiles are exhaustive minima of the vertex/edge boundary per set size
over every proper subset, with witnesses; the exhaustive checks read a
profile the caller computed, so one graph's subsets are enumerated once.
A profile takes every subset's boundaries from subset recurrences over
blocks of 2^SUBSET_BLOCK_BITS sets, so its memory is bounded for any size
cap; sets are int64 bitmasks, so profiles stop at 62 vertices.  Theorem
checks compare measured boundaries of candidate sets inside a ball (every
subset of a tiny ball, else the balls around the centre and the
coordinate cuts) against the formula right-hand sides at implied
constant 1, leaving boundedness of the ratios to sweep-level assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bounds import BoundReport, b_exponent, csc_bound, make_report
from .errors import BadArguments, SizeCapExceeded
from .graphs import (
    MASK_BITS,
    BallGraph,
    Graph,
    boundary_sizes,
    graph_growth_profile,
)

ALL_SETS_CAP = 14  # default profile cap, and the largest ball checked on every subset
SUBSET_BLOCK_BITS = 16  # the low vertex bits one recurrence block spans


class ProfileEntry(NamedTuple):
    min_vertex: int
    min_edge: int
    witness: tuple[int, ...]        # achieves min_vertex
    witness_edge: tuple[int, ...]   # achieves min_edge


@dataclass(frozen=True)
class IsoProfile:
    by_size: dict[int, ProfileEntry]
    size_range: tuple[int, int]


def _digit_sums(masks, digits: np.ndarray) -> np.ndarray:
    """Weight from each bitmask set to a target, given the binary digit masks
    of the target's weights: row d of ``digits`` is the bitmask of the
    vertices whose weight has digit d.  A row may hold one target per entry."""
    out = np.zeros(np.broadcast_shapes(np.shape(masks), digits.shape[1:]), dtype=np.int64)
    for d, row in enumerate(digits):
        out += np.bitwise_count(masks & row).astype(np.int64) << d
    return out


def _all_sets_minima(g: Graph) -> tuple[dict, dict]:
    """Each size's least vertex and edge boundary over all proper subsets,
    as size -> (boundary, witness), ties going to the greatest rank.

    A set S splits into its low part l, on the vertices below
    SUBSET_BLOCK_BITS, and its high part h.  Over the low parts, one
    recurrence on the top member v gives the neighbour mask
    N(l) = N(l - v) | nbr(v) and the edge boundary
    e(l) = e(l - v) + deg(v) - 2 w(v, l - v), where w(v, .) takes one bit
    count per binary digit of the multiplicities.  Each high part is one
    block: N(S) = N(l) | N(h) and e(S) = e(l) + e(h) - 2 w(l, h), with
    w(., h) a cross-weight vector over the low vertices.  The vertex
    boundary is |N(S) & ~S|.  Low parts are kept sorted by size, so each
    size's least boundary is one ``reduceat`` per block.
    """
    n = g.n
    bit = np.left_shift(1, np.arange(n, dtype=np.int64))
    # digits[d, v]: v's neighbours whose multiplicity has binary digit d
    width = int(g.mult.max(initial=0)).bit_length()
    on = (g.mult >> np.arange(width)[:, None]) & 1
    d, at = np.nonzero(on)
    digits = np.zeros((on.shape[0], n), dtype=np.int64)
    np.add.at(digits, (d, np.repeat(np.arange(n), np.diff(g.indptr))[at]), bit[g.nbr[at]])
    nbr = np.bitwise_or.reduce(digits, axis=0, initial=0)
    deg = g.degree
    low = min(n, SUBSET_BLOCK_BITS)
    sets = np.arange(1 << low, dtype=np.int64)
    nb, edge, rank = (np.zeros(1 << low, dtype=np.int64) for _ in range(3))
    for v in range(low):
        lo, hi = 1 << v, 2 << v
        nb[lo:hi] = nb[:lo] | nbr[v]
        edge[lo:hi] = edge[:lo] + (deg[v] - 2 * _digit_sums(sets[:lo], digits[:, v]))
        # a membership vector read from vertex 0 as a binary number
        rank[lo:hi] = rank[:lo] + bit[n - 1 - v]
    size = np.bitwise_count(sets)
    order = np.argsort(size, kind="stable")
    sets, nb, edge, rank = sets[order], nb[order], edge[order], rank[order]
    counts = np.bincount(size, minlength=low + 1)
    starts = np.cumsum(counts) - counts
    best: tuple[dict, dict] = ({}, {})  # size -> (boundary, -rank), vertex and edge
    for h in range(0, 1 << n, 1 << low):
        members = np.flatnonzero(h & bit)
        nb_h = np.bitwise_or.reduce(nbr[members], initial=0)
        edge_h = deg[members].sum() - _digit_sums(h, digits[:, members]).sum()
        # cross[d]: the low vertices whose weight into h has binary digit d
        into_h = _digit_sums(h, digits[:, :low])
        width = int(into_h.max(initial=0)).bit_length()
        cross = ((into_h >> np.arange(width)[:, None]) & 1) @ bit[:low]
        rank_h = int(bit[n - 1 - members].sum())
        bounds = (np.bitwise_count((nb | nb_h) & ~(sets | h)),
                  edge + (edge_h - 2 * _digit_sums(sets, cross)))
        for found, bound in zip(best, bounds):
            least = np.minimum.reduceat(bound, starts)
            tie = np.where(bound == np.repeat(least, counts), rank, -1)
            top = np.maximum.reduceat(tie, starts)
            for m, b, r in zip(range(members.size, n + 1), least.tolist(), top.tolist()):
                key = (b, -(r + rank_h))
                if 0 < m < n and (m not in found or key < found[m]):
                    found[m] = key
    return tuple({m: (b, tuple(np.flatnonzero(-neg_rank & bit[::-1]).tolist()))
                  for m, (b, neg_rank) in found.items()} for found in best)


def exact_profile(g: Graph, *, max_n: Optional[int] = None) -> IsoProfile:
    """Exhaustive minimum boundaries per set size, with witnesses.

    Scans every proper subset through subset recurrences
    (``_all_sets_minima``), with no membership matrix: it holds a few
    arrays of 2^SUBSET_BLOCK_BITS entries and O(n) tables whatever
    ``max_n`` (default ALL_SETS_CAP).  Sets are int64 bitmasks, so no cap
    admits a graph of more than MASK_BITS vertices.  Ties break to the
    lexicographically least witness: the set whose membership vector, read
    from vertex 0, is the greatest.
    """
    cap = max_n if max_n is not None else ALL_SETS_CAP
    if g.n > cap:
        raise SizeCapExceeded(f"{g.n} vertices exceeds profile cap {cap}")
    if g.n > MASK_BITS:
        raise SizeCapExceeded(f"{g.n} vertices exceeds the {MASK_BITS}-bit set masks")
    vbest, ebest = _all_sets_minima(g)
    by_size = {m: ProfileEntry(vbest[m][0], ebest[m][0], vbest[m][1], ebest[m][1])
               for m in sorted(vbest)}
    lo, hi = (min(by_size), max(by_size)) if by_size else (0, 0)
    return IsoProfile(by_size=by_size, size_range=(lo, hi))


def _check_sizes(profile: IsoProfile, n: int) -> None:
    """Refuse a profile that is not of an n-vertex graph: one of another
    graph would be read at the wrong sizes."""
    if list(profile.by_size) != list(range(1, n)):
        raise BadArguments(f"need the profile of a {n}-vertex graph, got sizes "
                           f"{profile.size_range}")


def verify_csc(g: Graph, profile: IsoProfile) -> list[BoundReport]:
    """Exhaustive check of the growth-based vertex-boundary lower bound.

    ``profile`` is g's profile.  One PASS/FAIL report per set
    size up to half the graph; the constant 12 is explicit, so these are
    genuine inequalities.
    """
    _check_sizes(profile, g.n)
    growth = graph_growth_profile(g)
    reports = []
    for m in range(1, g.n // 2 + 1):
        entry = profile.by_size[m]
        reports.append(make_report(
            "csc_vertex_boundary",
            computed=float(entry.min_vertex),
            bound=csc_bound(growth, m),
            side="lower",
            params={"size": m, "witness": entry.witness},
        ))
    return reports


def verify_cyclic_edge_iso(profile: IsoProfile, n: int, k: int) -> BoundReport:
    """Exhaustive edge-isoperimetry check for the chord graph on n vertices.

    ``profile`` is the profile of that graph.  Minimum |edge
    boundary| over k <= |A| <= n-k is compared against k^2/4 - 1 (an
    explicit inequality, PASS/FAIL).
    """
    if not 1 <= k < n / 2:
        raise BadArguments("need 1 <= k < n/2")
    _check_sizes(profile, n)
    best = math.inf
    witness: tuple[int, ...] = ()
    for m in range(k, n - k + 1):
        entry = profile.by_size[m]
        if entry.min_edge < best:
            best = entry.min_edge
            witness = entry.witness_edge
    return make_report(
        "cyclic_edge_isoperimetry",
        computed=float(best),
        bound=k * k / 4.0 - 1.0,
        side="lower",
        params={"n": n, "k": k, "witness": witness},
    )


# ---------------------------------------------------------------------------
# Theorem checks on balls
# ---------------------------------------------------------------------------

ISO_THEOREMS = ("T6_1", "T6_2", "T6_3", "C6_x", "L_iso_rel_lin", "P_iso_conv")


def _candidate_sets(ball: BallGraph, rho: int, smax: int) -> list[tuple[int, ...]]:
    """Subsets of B(x, rho) with sizes in [1, smax].

    Every such subset when B(x, rho) has at most ALL_SETS_CAP vertices;
    otherwise the balls around the center and the coordinate cuts, a
    structured heuristic that is never reported as exhaustive.
    """
    m = ball.prefix(rho)
    out: list[tuple[int, ...]] = []
    if m <= ALL_SETS_CAP:
        for s in range(1, 1 << m):
            if s.bit_count() <= smax:
                out.append(tuple(v for v in range(m) if (s >> v) & 1))
        return out
    # balls around the center
    for j in range(rho + 1):
        if 1 <= ball.prefix(j) <= smax:
            out.append(tuple(range(ball.prefix(j))))
    # coordinate cuts
    for col in ball.coords[:m].T:
        for cut in np.unique(col)[:-1]:
            ids = np.flatnonzero(col <= cut)
            if 1 <= ids.size <= smax:
                out.append(tuple(ids.tolist()))
    return list(dict.fromkeys(out))  # dedupe, preserving deterministic order


def _frac(q: float) -> float:
    return q - math.floor(q)


def check_iso_theorems(ball: BallGraph, which: str) -> list[BoundReport]:
    """Compare measured |boundary A| against one theorem's right-hand side.

    Works inside B(x, rho) with rho = radius - 1 so that boundaries are
    exact ambient boundaries.  The sets A are every subset when B(x, rho)
    has at most ALL_SETS_CAP vertices, else only the balls around the
    center and the coordinate cuts.  The growth exponent q is chosen to
    make the theorem's hypothesis exactly tight for this ball (strongest
    testable instance).  Rows are INFO except for the explicit-constant
    lemma.
    """
    if which not in ISO_THEOREMS:
        raise BadArguments(f"unknown theorem {which!r}")
    rho = ball.radius - 1
    if rho < 2:
        raise BadArguments("need ball radius >= 3")
    beta_r = ball.beta(rho)
    beta_1 = ball.beta(1)
    smax = beta_r // 2
    q_abs = math.log(beta_r) / math.log(rho)
    q_rel = math.log(beta_r / beta_1) / math.log(rho) if beta_r > beta_1 else 0.0

    if which == "P_iso_conv":
        return [_iso_converse_report(ball, rho, beta_r, q_abs)]
    if np.any(ball.size != 1):
        raise BadArguments("a subset's boundary is not an orbit quantity: need a full ball")

    rhs, check, base_params = _iso_rhs(which, rho, beta_r, beta_1, q_abs, q_rel)
    if rhs is None:
        return []
    sets = _candidate_sets(ball, rho, smax)
    member = np.zeros((len(sets), ball.base.n), dtype=bool)
    member[np.repeat(np.arange(len(sets)), [len(ids) for ids in sets]),
           np.concatenate(sets)] = True
    reports = []
    for ids, vb in zip(sets, boundary_sizes(ball.base, member)[0].tolist()):
        params = dict(base_params)
        params["size"] = len(ids)
        reports.append(make_report(which, computed=float(vb),
                                   bound=rhs(len(ids)), side="lower",
                                   params=params, check=check))
    return reports


def _iso_rhs(which: str, rho: int, beta_r: int, beta_1: int,
             q_abs: float, q_rel: float):
    """RHS closure, whether rows are strict PASS/FAIL, and shared params."""
    if which == "T6_1":
        if q_abs < 1:
            return None, False, {}
        fq = math.floor(q_abs)
        fr = _frac(q_abs)
        rhs = lambda a: min(a ** (fq / (fq + 1.0)),
                            rho ** (fr / fq) * a ** ((fq - 1.0) / fq))
        return rhs, False, {"q": q_abs, "r": rho}
    if which == "T6_2":
        if q_rel < 1:
            return None, False, {}
        b = b_exponent(q_rel)
        rhs = lambda a: beta_1 ** (1.0 / b) * a ** ((b - 1.0) / b)
        return rhs, False, {"q": q_rel, "b": b, "r": rho}
    if which == "T6_3":
        q = min(q_rel, 3.0)
        if q < 1:
            return None, False, {}
        fq = math.floor(q)
        fr = _frac(q)
        rhs = lambda a: min(beta_1 ** (1.0 / (fq + 1)) * a ** (fq / (fq + 1.0)),
                            beta_1 ** (1.0 / fq) * rho ** (fr / fq)
                            * a ** ((fq - 1.0) / fq))
        return rhs, False, {"q": q, "r": rho}
    if which == "C6_x":
        # specialization of the absolute bound at beta(r) = r^q, evaluated
        # at an exponent p with the same integer part as q
        if q_abs < 1:
            return None, False, {}
        fq = math.floor(q_abs)
        p = fq + _frac(q_abs) / 2.0 if _frac(q_abs) > 0 else float(fq)
        if p < 1:
            return None, False, {}
        rhs = lambda a: min(a ** (fq / (fq + 1.0)),
                            a ** (1.0 - 1.0 / p) * (beta_r / rho ** p) ** (1.0 / p)
                            * (beta_r / a) ** (1.0 / fq - 1.0 / p))
        return rhs, False, {"q": q_abs, "p": p, "r": rho}
    if which == "L_iso_rel_lin":
        rhs = lambda a: beta_1 / 32.0
        return rhs, True, {"r": rho}
    raise BadArguments(which)


def _iso_converse_report(ball: BallGraph, rho: int, beta_r: int,
                         q_abs: float) -> BoundReport:
    """Largest q whose sphere-boundary hypothesis holds, and the implied
    growth constant.  The vertex boundary of B(j) is the sphere S(j+1)."""
    q_star = math.inf
    for j in range(1, rho + 1):
        beta_n = ball.beta(j)
        if beta_n > beta_r / 2.0:
            continue
        ratio = math.log(ball.beta(j + 1) - beta_n) / math.log(beta_n)
        if ratio < 1:
            q_star = min(q_star, 1.0 / (1.0 - ratio))
    if not math.isfinite(q_star):
        q_star = q_abs
    return make_report("P_iso_conv", computed=float(beta_r),
                       bound=float(rho) ** q_star, side="lower",
                       params={"q_star": q_star, "r": rho}, check=False)
