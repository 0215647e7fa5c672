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

``_walk`` steps several chunks at once: a pool of up to four chunks of live
walks takes in the next chunk whenever it has room, and every step each
live chunk draws its uniforms from its own generator into its own slice of
one buffer.  Interleaving chunks this way changes no draw, because a chunk
never reads another chunk's generator and its draws still go to its own
live walks in walk order, and a step cap counts a chunk's own steps.  So
the per-chunk stream contract above is unchanged, and since counts are sums
over walks, the order in which chunks finish does not matter either.  The
pool's width sets only how many walks share each step's numpy calls: a
chunk's walks end at widely spread steps, and a wide pool overlaps the
long tails of several chunks, so it takes fewer, fuller steps.

The same argument lets ``_walk`` spread the chunks over processes.  With k
CPUs usable and at least k chunks, k forked workers each run the pool over
every k-th chunk id, and the parent, which only waits, adds up their
integer counts.  Philox is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), so a chunk's draws are fixed by
(seed, chunk index) alone, whichever process makes them: every seeded table
is the same for any number of CPUs.  Processes rather than threads,
because much of a step is interpreter work between numpy calls, which
threads would take turns at.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import warnings
from dataclasses import dataclass

import numpy as np

# p_resistance is not called here, but stays a name of this module:
# perfbench/tracer.py wraps it where the runners look it up
from .energy import p_resistance, sphere_resistances
from .errors import BadArguments, EmptySet, RadiusTooSmall
from .graphs import BallGraph, Graph

CHUNK = 16384
POOL = 4 * CHUNK  # live walks stepped together, from one or more chunks
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


def check_seed(seed: int) -> None:
    """Refuse a seed that is not a Philox key word, so no two seeds alias."""
    if not 0 <= seed < 2**64:
        raise BadArguments(f"seed must lie in [0, 2**64), got {seed}")


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    # an explicit uint64 key: numpy reads a list holding an int >= 2**63 as
    # float64, which rounds the seed
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context():
    """The ``fork`` multiprocessing context, or None where this process
    cannot fork workers: the platform lacks fork, or it is itself a daemonic
    worker, such as one of a ``multiprocessing.Pool``.

    ``multiprocessing`` is imported here, not at module level, so that
    importing vtres does not pay for it.  ``fork`` is named because the default start method
    differs across platforms and Python versions, and the workers need the
    parent's arrays without pickling them.  Forking a process that has
    threads is safe here because the workers run only elementwise numpy and
    Philox, never BLAS, whose pool holds the only threads vtres starts.
    """
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return multiprocessing.get_context("fork")


def _serve(run, chunks: range, conn, parent: int) -> None:
    """A walk worker: send ``(True, run(chunks))``, or ``(False, error)``.

    ``parent`` is the pid of the process that forked it.  On Linux the
    worker asks to be killed when that process dies, so a parent killed by
    SIGKILL leaves no worker running; it exits at once if the parent died
    before the request took effect.
    """
    if sys.platform.startswith("linux"):
        import ctypes  # already loaded by numpy

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
        if os.getppid() != parent:
            os._exit(1)
    # an interrupt reaches the whole process group: the parent handles it
    # for all, by killing the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})  # blocked by _in_forks
    try:
        result = (True, run(chunks))
    except Exception as exc:  # raised again in the parent
        result = (False, exc)
    conn.send(result)


def _in_forks(ctx, run, shares: list[range]) -> list:
    """``[run(chunks) for chunks in shares]``, each share in its own worker
    forked from ``ctx``.

    The workers inherit ``run`` and the arrays it reads; only the chunk ids
    go to them, and only the results come back.  A worker's error is raised
    here.  No worker outlives the call, whether it returns, raises or is
    interrupted: on any exception the workers are killed, and they are
    always joined.

    SIGINT is blocked while the workers start.  An interrupt that lands in
    a fork would run its handler inside an at-fork hook (``logging``'s),
    where Python drops the KeyboardInterrupt; held back, it is raised once
    the last worker has started, and the workers inherit the block until
    ``_serve`` ignores SIGINT.
    """
    procs, pipes = [], []
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for chunks in shares:
            recv, send = ctx.Pipe(duplex=False)
            pipes.append(recv)
            proc = ctx.Process(target=_serve, args=(run, chunks, send, os.getpid()))
            try:
                proc.start()
            finally:
                send.close()  # the worker holds the only write end, so its death reads as EOF
            procs.append(proc)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = []
        for w, (proc, conn) in enumerate(zip(procs, pipes)):
            try:
                ok, value = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"walk worker {w} exited with code {proc.exitcode} "
                                   "before sending its counts") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.join()
            proc.close()
        for conn in pipes:
            conn.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _walk(g: Graph, start: int, score: np.ndarray, trials: int, seed: int,
          step_cap: float = math.inf, workers: int | None = None) -> tuple[np.ndarray, int]:
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
    live walks (four chunks), which takes in the next chunk, with its own
    generator, whenever it has room for all of it.  The pool holds the live
    chunks in chunk order and each chunk's live walks in walk order.  Each
    step, every live chunk fills its own slice of one draw buffer with one
    uniform per live walk; the scale, truncation, gather, stop test and
    compaction then run once over the pool.  A chunk's walks therefore get exactly the draws
    they would get if the chunk ran alone, and its own age, not the pool's,
    decides when it is censored.

    The chunk ids are striped over k = min(``workers``, chunks) forked
    processes, ``workers`` defaulting to the CPUs this process may use:
    worker i runs the pool over chunks i, i+k, i+2k, ...  The tables above
    are built once, before the fork, and every worker reads them.  Each
    chunk still draws from its own generator and is censored at its own
    age, so its walks end where they would in one pool, and the parent's
    sum of the workers' integer counts is exact for any k.  With k = 1, or
    where this process cannot fork, the pool runs over all chunks in-process.
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

    def run(chunks: range) -> tuple[np.ndarray, int]:
        counts = np.zeros(top + 1, dtype=np.int64)
        u = np.empty(POOL)
        s = best = np.zeros(0, dtype=np.int32)
        d = deg[start] if regular else np.zeros(0, dtype=deg.dtype)
        live = []  # [generator, live walks, step it joined at] per chunk, in chunk order
        i = steps = censored = 0
        while live or i < len(chunks):
            while i < len(chunks):
                size = min(CHUNK, trials - chunks[i] * CHUNK)
                if s.size + size > POOL:
                    break
                live.append([_chunk_rng(seed, chunks[i]), size, steps])
                fresh = np.zeros(size, dtype=np.int32)
                s, best = np.concatenate((s, fresh)), np.concatenate((best, fresh))
                if not regular:
                    d = np.concatenate((d, np.full(size, deg[start])))
                i += 1
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
            # in place: s is spent once e holds it, and every index is in range
            np.take(nxt, e, out=s, mode="clip")
            if not regular:
                d = deg_e[e]
            del e  # the largest buffer after the draws: gone before the compaction copies
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

    n_chunks = -(-trials // CHUNK)
    k = min(workers or _usable_cpus(), n_chunks)
    ctx = _fork_context() if k > 1 else None
    if ctx is None:
        return run(range(n_chunks))
    parts = _in_forks(ctx, run, [range(w, n_chunks, k) for w in range(k)])
    return sum(c for c, _ in parts), sum(n for _, n in parts)


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
    check_seed(seed)
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
    """Exact escape probability 1/(deg(x) * R_2(x <-> S(x,r))), with R_2 from
    ``energy.sphere_resistances``."""
    if r < 1:
        raise BadArguments("escape radius must be >= 1")
    if ball.radius < r:
        raise RadiusTooSmall(f"need ball radius >= {r}, have {ball.radius}")
    deg = ball.spec.ambient_degree()
    return 1.0 / (deg * next(sphere_resistances(ball, [r - 1])))


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
    check_seed(seed)
    if step_cap is None:
        step_cap = 100 * g.n * g.n
    in_y = np.zeros(g.n, dtype=bool)
    in_y[y_ids] = True
    counts, censored = _walk(g, x, in_y, trials, seed, step_cap)
    if censored:
        warnings.warn(f"{censored} walks exceeded the step cap and were censored",
                      stacklevel=2)
    return _estimate(int(counts[1]), trials - censored, seed, censored=censored)
