"""Simple-random-walk simulation and the escape/resistance identity.

Escape probabilities P[x -> Y] (hit Y before returning to x) are estimated
by Monte Carlo and cross-checked against 1/(deg(x) * R_2(x <-> Y)).

Randomness comes from numpy's Philox generator, a named, versioned 64-bit
counter-based RNG, so runs are bit-reproducible across platforms.  Trials
are split into fixed-size chunks of ``CHUNK`` walks with per-chunk derived
keys, so each chunk's stream depends on nothing but the seed and its index.

Stream contract, which every seeded table depends on: within a chunk, each
step draws one uniform u per live walk, in walk order (finished walks drop
out, the rest keep their order), and a walk at v moves to slot floor(u*deg(v))
of v's neighbour row, which lists each neighbour ``mult`` times in CSR order.
All three estimators run the one kernel ``_walk``.

``_walk`` steps several chunks at once: a pool of about 1.25 chunks of live
walks takes in the next chunk whenever it has room, and every step each
live chunk draws its uniforms from its own generator into its own slice of
one buffer.  Interleaving chunks this way changes no draw, because a chunk
never reads another chunk's generator and its draws still go to its own
live walks in walk order, and a step cap counts a chunk's own steps.  So
the per-chunk stream contract above is unchanged, and since counts are sums
over walks, the order in which chunks finish does not matter either.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .energy import p_resistance
from .errors import BadArguments, EmptySet, RadiusTooSmall
from .graphs import BallGraph, Graph, dirichlet_problem

CHUNK = 16384
POOL = CHUNK + CHUNK // 4  # live walks stepped together, from one or more chunks
RNG_NAME = "philox4x64"
_TABLE_CELL_CAP = 100_000_000


@dataclass(frozen=True)
class EscapeEstimate:
    """Monte Carlo estimate of a hit-before-return probability.

    ``trials`` counts the walks that actually resolved; truncated walks are
    reported in ``censored`` and excluded from ``p_hat``.
    """

    p_hat: float
    trials: int
    stderr: float
    seed: int
    censored: int = 0


def _estimate(hits: int, done: int, seed: int, censored: int = 0) -> EscapeEstimate:
    p = hits / done if done else float("nan")
    se = math.sqrt(p * (1.0 - p) / done) if done else float("nan")
    return EscapeEstimate(p_hat=p, trials=done, stderr=se, seed=seed, censored=censored)


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), chunk]))


def _walk(g: Graph, start: int, score: np.ndarray, trials: int, seed: int,
          step_cap: float = math.inf) -> tuple[np.ndarray, int]:
    """Run ``trials`` walks from ``start`` until each steps onto a vertex of
    the largest ``score`` or back onto ``start``, whose score must be 0.

    Returns ``(counts, censored)``: ``counts[k]`` walks ended with k as the
    largest ``score`` of a vertex they stepped onto, and ``censored`` walks
    were still running after ``step_cap`` steps of their chunk.

    The vertices are renumbered by score, the start first, and a walk's
    state is the first slot ``v*W`` of its vertex's row in the flattened
    neighbour table of width W, so the score is nondecreasing in the state.
    A step onto the start lands on the sentinel -1 instead: read as an
    unsigned number it lies above every state, read as a signed one below.
    So a walk is done once its unsigned state is at least ``stop_at``, the
    first state of the largest score, and ``best``, the largest signed state
    it visited, gives its score, a return leaving it as it was.  A step is
    one gather, with no per-slot score or stop flag.  The degree is a scalar
    when every vertex a walk can step from has the same one (always so on a
    ball, whose walks stop before the boundary), else it is per walk and is
    gathered and compacted with the state.

    The chunks are stepped side by side in one pool of at most ``POOL``
    live walks, which takes in the next chunk, with its own generator,
    whenever it has room for all of it.  The pool holds the live chunks in
    chunk order and each chunk's live walks in walk order.  Each step, every
    live chunk fills its own slice of one draw buffer with one uniform per
    live walk; the scale, truncation, gather, stop test and compaction then
    run once over the pool.  A chunk's walks therefore get exactly the draws
    they would get if the chunk ran alone, and its own age, not the pool's,
    decides when it is censored.
    """
    deg = g.degree
    if deg[start] == 0:
        raise BadArguments(f"start vertex {start} has no neighbours")
    width = int(deg.max())
    if g.n * width > _TABLE_CELL_CAP:
        raise BadArguments("graph too large for the walk neighbour table")
    top = int(score.max())
    order = np.argsort(np.where(np.arange(g.n) == start, -1, score), kind="stable")
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    rows = np.repeat(np.arange(g.n), deg)
    cell = rank[rows] * width + np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg)
    target = np.repeat(g.nbr, g.mult)
    nxt = np.zeros(g.n * width, dtype=np.int32)  # states stay below 2**31: the table is capped
    nxt[cell] = np.where(target == start, -1, rank[target] * width)
    level = score[order].astype(np.int64)
    stop_at = int(np.searchsorted(level, top)) * width
    movable = deg[(score < top) | (np.arange(g.n) == start)]
    regular = movable.min() == movable.max()
    if not regular:
        deg_e = np.zeros(g.n * width, dtype=deg.dtype)
        deg_e[cell] = deg[target]
    counts = np.zeros(top + 1, dtype=np.int64)
    u = np.empty(POOL)
    s = best = np.zeros(0, dtype=np.int32)
    d = deg[start] if regular else np.zeros(0, dtype=deg.dtype)
    live = []  # [generator, live walks, step it joined at] per chunk, in chunk order
    n_chunks = -(-trials // CHUNK)
    chunk = steps = censored = 0
    while live or chunk < n_chunks:
        while chunk < n_chunks:
            size = min(CHUNK, trials - chunk * CHUNK)
            if s.size + size > POOL:
                break
            live.append([_chunk_rng(seed, chunk), size, steps])
            fresh = np.zeros(size, dtype=np.int32)
            s, best = np.concatenate((s, fresh)), np.concatenate((best, fresh))
            if not regular:
                d = np.concatenate((d, np.full(size, deg[start])))
            chunk += 1
        while live and steps - live[0][2] >= step_cap:
            size = live.pop(0)[1]
            censored += size
            s, best = s[size:], best[size:]
            if not regular:
                d = d[size:]
        firsts, first = [], 0
        for rng, size, _ in live:
            firsts.append(first)
            rng.random(out=u[first:first + size])
            first += size
        e = u[:first]
        e *= d
        e = e.astype(np.int64)
        e += s
        s = nxt[e]
        if not regular:
            d = deg_e[e]
        steps += 1
        np.maximum(best, s, out=best)
        done = s.view(np.uint32) >= stop_at
        ended = done.nonzero()[0]
        if ended.size:
            counts += np.bincount(level[best[ended] // width], minlength=top + 1)
            # a chunk's done walks lie between its first slot and the next chunk's
            for c, gone in zip(live, np.diff(np.searchsorted(ended, firsts + [first])).tolist()):
                c[1] -= gone
            live = [c for c in live if c[1]]
            keep = ~done
            s, best = s[keep], best[keep]
            if not regular:
                d = d[keep]
    return counts, censored


def simulate_escape(ball: BallGraph, r: int, trials: int, seed: int) -> EscapeEstimate:
    """Fraction of walks from the center that reach layer r before returning.

    Walks live on the ball graph; since they are absorbed on layer r, they
    only ever step from vertices whose full ambient neighbourhood the ball
    contains, so the estimate is exact for the ambient graph.  Every walk
    terminates, hence censored = 0.  The walks and the result are those of
    ``escape_profile(ball, r, trials, seed)[-1]``.
    """
    if r < 1:
        raise BadArguments("escape radius must be >= 1")
    return escape_profile(ball, r, trials, seed)[-1]


def escape_profile(ball: BallGraph, r_max: int, trials: int, seed: int) -> list[EscapeEstimate]:
    """Coupled estimates of P[x -> S(x,r)] for every r = 1..r_max.

    One walk per trial records the maximal layer reached before returning to
    the center; the estimate for radius r counts walks whose maximum is at
    least r.  Sharing walks across radii makes the estimates exactly
    nonincreasing in r.
    """
    if trials < 1:
        raise BadArguments("trials must be >= 1")
    if r_max < 1:
        raise BadArguments("r_max must be >= 1")
    if ball.radius < r_max:
        raise RadiusTooSmall(f"need ball radius >= {r_max}, have {ball.radius}")
    if r_max > ball.layer[-1]:
        raise EmptySet(f"sphere S(x, {r_max}) is empty: the graph ends at layer {ball.layer[-1]}")
    counts, _ = _walk(ball.base, ball.center, np.minimum(ball.layer, r_max), trials, seed)
    # walks with max layer >= r escaped S(x, r)
    tail = np.cumsum(counts[::-1])[::-1]
    return [_estimate(int(tail[r]), trials, seed) for r in range(1, r_max + 1)]


def escape_via_resistance(ball: BallGraph, r: int) -> float:
    """Exact escape probability 1/(deg(x) * R_2(x <-> S(x,r))) from the solver."""
    if r < 1:
        raise BadArguments("escape radius must be >= 1")
    if ball.radius < r:
        raise RadiusTooSmall(f"need ball radius >= {r}, have {ball.radius}")
    problem = dirichlet_problem(ball, r - 1)
    flow = p_resistance(problem, 2.0)
    deg = ball.spec.ambient_degree()
    return 1.0 / (deg * flow.resistance)


def hit_before_return(g: Graph, x: int, Y, trials: int, seed: int,
                      step_cap: int | None = None) -> EscapeEstimate:
    """Monte Carlo estimate of P[x -> Y] on a finite graph.

    Walks exceeding ``step_cap`` (default 100*n^2, the commute-time scale)
    are censored: excluded from p_hat and counted separately, with a
    warning.  On a finite connected graph the censored fraction vanishes as
    the cap grows.
    """
    y_ids = sorted(set(int(v) for v in Y))
    if not y_ids:
        raise BadArguments("Y must be nonempty")
    if x in y_ids:
        raise BadArguments("x must not lie in Y")
    if not (0 <= x < g.n) or y_ids[0] < 0 or y_ids[-1] >= g.n:
        raise BadArguments("vertex id out of range")
    if trials < 1:
        raise BadArguments("trials must be >= 1")
    if step_cap is None:
        step_cap = 100 * g.n * g.n
    in_y = np.zeros(g.n, dtype=bool)
    in_y[y_ids] = True
    counts, censored = _walk(g, x, in_y, trials, seed, step_cap)
    if censored:
        warnings.warn(f"{censored} walks exceeded the step cap and were censored",
                      stacklevel=2)
    return _estimate(int(counts[1]), trials - censored, seed, censored=censored)
