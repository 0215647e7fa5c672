"""Simple-random-walk simulation and the escape/resistance identity.

Escape probabilities P[x -> Y] (hit Y before returning to x) are estimated
by Monte Carlo and cross-checked against 1/(deg(x) * R_2(x <-> Y)).

Randomness comes from numpy's Philox generator, a named, versioned 64-bit
counter-based RNG, so runs are bit-reproducible across platforms.  Trials
are split into fixed-size chunks with per-chunk derived keys; chunks are
reduced in index order, which keeps results deterministic no matter how the
chunks might be scheduled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .energy import p_resistance
from .errors import BadArguments, RadiusTooSmall
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


def _neighbor_table(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Padded neighbour table with rows repeated by multiplicity.

    Row v lists each neighbour of v ``mult`` times, so a uniform slot choice
    is a multiplicity-weighted uniform step.
    """
    deg = g.degree
    width = int(deg.max()) if g.n else 0
    if g.n * width > _TABLE_CELL_CAP:
        raise BadArguments("graph too large for the walk neighbour table")
    table = np.zeros((g.n, width), dtype=np.int64)
    rows = np.repeat(np.arange(g.n), deg)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg)
    table[rows, rank] = np.repeat(g.nbr, g.mult)
    return table, deg.astype(np.int64)


def _chunk_sizes(trials: int) -> list[int]:
    sizes = [CHUNK] * (trials // CHUNK)
    if trials % CHUNK:
        sizes.append(trials % CHUNK)
    return sizes


def simulate_escape(ball: BallGraph, r: int, trials: int, seed: int) -> EscapeEstimate:
    """Fraction of walks from the center that reach layer r before returning.

    Walks live on the ball graph; since they are absorbed on layer r, they
    only ever step from vertices whose full ambient neighbourhood the ball
    contains, so the estimate is exact for the ambient graph.  Every walk
    terminates, hence censored = 0.
    """
    if trials < 1:
        raise BadArguments("trials must be >= 1")
    if r < 1:
        raise BadArguments("escape radius must be >= 1")
    if ball.radius < r:
        raise RadiusTooSmall(f"need ball radius >= {r}, have {ball.radius}")
    table, deg = _neighbor_table(ball.base)
    layer = ball.layer
    center = ball.center
    hits = 0
    for chunk, size in enumerate(_chunk_sizes(trials)):
        rng = _chunk_rng(seed, chunk)
        pos = np.full(size, center, dtype=np.int64)
        while len(pos):
            slot = (rng.random(len(pos)) * deg[pos]).astype(np.int64)
            pos = table[pos, slot]
            escaped = layer[pos] >= r
            hits += int(escaped.sum())
            pos = pos[~escaped & (pos != center)]
    return _estimate(hits, trials, seed)


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
    table, deg = _neighbor_table(ball.base)
    layer = ball.layer
    center = ball.center
    reach_counts = np.zeros(r_max + 1, dtype=np.int64)  # index by max layer reached
    for chunk, size in enumerate(_chunk_sizes(trials)):
        rng = _chunk_rng(seed, chunk)
        pos = np.full(size, center, dtype=np.int64)
        maxlayer = np.zeros(size, dtype=np.int64)
        while len(pos):
            slot = (rng.random(len(pos)) * deg[pos]).astype(np.int64)
            pos = table[pos, slot]
            np.maximum(maxlayer, layer[pos], out=maxlayer)
            done = (layer[pos] >= r_max) | (pos == center)
            if done.any():
                np.add.at(reach_counts, maxlayer[done], 1)
                pos, maxlayer = pos[~done], maxlayer[~done]
    # walks with max layer >= r escaped S(x, r)
    tail = np.cumsum(reach_counts[::-1])[::-1]
    return [_estimate(int(tail[r]), trials, seed) for r in range(1, r_max + 1)]


def escape_via_resistance(ball: BallGraph, r: int) -> float:
    """Exact escape probability 1/(deg(x) * R_2(x <-> S(x,r))) from the solver."""
    if r < 1:
        raise BadArguments("escape radius must be >= 1")
    if ball.radius < r:
        raise RadiusTooSmall(f"need ball radius >= {r}, have {ball.radius}")
    problem = dirichlet_problem(ball, r - 1, mode="sphere")
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
    table, deg = _neighbor_table(g)
    hits = 0
    censored = 0
    for chunk, size in enumerate(_chunk_sizes(trials)):
        rng = _chunk_rng(seed, chunk)
        pos = np.full(size, x, dtype=np.int64)
        for _step in range(step_cap):
            if not len(pos):
                break
            slot = (rng.random(len(pos)) * deg[pos]).astype(np.int64)
            pos = table[pos, slot]
            hit = in_y[pos]
            hits += int(hit.sum())
            pos = pos[~hit & (pos != x)]
        censored += len(pos)
    if censored:
        warnings.warn(f"{censored} walks exceeded the step cap and were censored",
                      stacklevel=2)
    return _estimate(hits, trials - censored, seed, censored=censored)
