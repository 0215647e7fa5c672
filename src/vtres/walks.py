"""Simple-random-walk simulation and the escape/resistance identity.

Escape probabilities P[x -> Y] (hit Y before returning to x) are estimated
by Monte Carlo and cross-checked against 1/(deg(x) * R_2(x <-> Y)).

Randomness comes from numpy's Philox generator, a named, versioned 64-bit
counter-based RNG, so runs are bit-reproducible across platforms.  Trials
are split into fixed-size chunks with per-chunk derived keys; chunks are
reduced in index order, which keeps results deterministic no matter how the
chunks might be scheduled.

Stream contract, which every seeded table depends on: within a chunk, each
step draws one uniform u per live walk, in walk order (finished walks drop
out, the rest keep their order), and a walk at v moves to slot floor(u*deg(v))
of v's neighbour row, which lists each neighbour ``mult`` times in CSR order.
All three estimators run the one kernel ``_walk``.
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


def _walk(g: Graph, start: int, score: np.ndarray, stop: np.ndarray, trials: int,
          seed: int, step_cap: float = math.inf) -> tuple[np.ndarray, int]:
    """Run ``trials`` walks from ``start`` until each steps onto a ``stop``
    vertex or back onto ``start``.

    Returns ``(counts, censored)``: ``counts[k]`` walks ended with k as the
    largest nonnegative ``score`` of a vertex they stepped onto, and
    ``censored`` walks were still running after ``step_cap`` steps.

    A walk's state is the first slot ``v*W`` of its vertex's row in the
    flattened neighbour table of width W.  Per-slot copies of the target's
    row start, score and stop flag make a step three gathers.  The degree is a
    scalar when every vertex a walk can step from has the same one (always so
    on a ball, whose walks stop before the boundary), else it is per walk.
    """
    deg = g.degree
    if deg[start] == 0:
        raise BadArguments(f"start vertex {start} has no neighbours")
    width = int(deg.max())
    if g.n * width > _TABLE_CELL_CAP:
        raise BadArguments("graph too large for the walk neighbour table")
    nxt = np.zeros(g.n * width, dtype=np.int64)
    rows = np.repeat(np.arange(g.n), deg)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg)
    nxt[rows * width + rank] = np.repeat(g.nbr, g.mult)
    top = int(score.max())
    score_e = score.astype(np.min_scalar_type(top))[nxt]
    stop_e = stop[nxt] | (nxt == start)
    movable = deg[~stop | (np.arange(g.n) == start)]
    regular = movable.min() == movable.max()
    deg_e = None if regular else deg[nxt]
    nxt *= width
    counts = np.zeros(top + 1, dtype=np.int64)
    censored = 0
    for chunk, first in enumerate(range(0, trials, CHUNK)):
        rng = _chunk_rng(seed, chunk)
        s = np.full(min(CHUNK, trials - first), start * width, dtype=np.int64)
        best = np.zeros(s.size, dtype=score_e.dtype)
        d = deg[start] if regular else np.full(s.size, deg[start])
        steps = 0
        while s.size and steps < step_cap:
            u = rng.random(s.size)
            u *= d
            e = u.astype(np.int64)
            e += s
            s = nxt[e]
            np.maximum(best, score_e[e], out=best)
            done = stop_e[e]
            if not regular:
                d = deg_e[e]
            steps += 1
            if np.count_nonzero(done):
                counts += np.bincount(best[done], minlength=top + 1)
                keep = ~done
                s, best = s[keep], best[keep]
                if not regular:
                    d = d[keep]
        censored += s.size
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
    counts, _ = _walk(ball.base, ball.center, np.minimum(ball.layer, r_max),
                      ball.layer >= r_max, trials, seed)
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
    counts, censored = _walk(g, x, in_y, in_y, trials, seed, step_cap)
    if censored:
        warnings.warn(f"{censored} walks exceeded the step cap and were censored",
                      stacklevel=2)
    return _estimate(int(counts[1]), trials - censored, seed, censored=censored)
