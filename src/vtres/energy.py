"""p-energy, p-Laplacian, and the convex minimization behind p-resistance.

The energy of a vertex function f is the sum over undirected edges of
multiplicity * |f(x)-f(y)|^p.  Minimizing it subject to terminal values
t on the source and 0 on the ground yields the p-potential; its energy is
the p-capacity and the reciprocal the p-resistance.

The p=2 problem is a sparse symmetric linear solve.  For general p > 1 we
run damped Newton on the free values, starting from the p=2 potential, with
iteratively reweighted quadratic models; the edge weight |f(x)-f(y)|^(p-2)
is regularized as (delta^2 + eps^2)^((p-2)/2) with eps continued from 1e-2
down to 1e-10, since the weight is singular at delta=0 for p < 2 and
degenerate for p > 2.

The solver takes no options: its settings are the module constants below,
read at call time.  Newton takes at most MAX_NEWTON_STEPS steps in all,
over the eps stages of EPS_SCHEDULE (at most 80 each); its line search
halves the step up to 40 times until the Armijo test with constant
ARMIJO_C1 holds.  The stages stop early once max |Delta_p f| over the free
vertices is at most 0.1 * TOL times the capacity scale E/t.

A Newton solve is accepted on one test, a bracket on R_p.  The iterate f,
with source value t, gives R_lo = t^p / E_p(f).  Its p-current
m |df|^(p-2) df, projected to zero divergence on the free vertices and
scaled to a unit flow theta, gives R_hi = (sum m^(1-q) |theta|^q)^(p-1)
with q = p/(p-1).  The solve is accepted when |R_hi - R_lo| <= GAP_TOL *
R_lo; the test is two-sided, since a bracket inverted beyond rounding means
a wrong energy.  The residual is kept as a diagnostic only: at p < 2 the
rounding of differences that are exactly zero across symmetric vertex pairs
leaves it near 1e-2 on a solve whose bracket is tight.  A p=2 solve is one
linear solve, accepted when its residual is at most 10 * TOL * E/t.

Each eps stage ends when the regularized gradient vanishes or when a Newton
step stops helping.  Near the optimum the decrease -g.d that the Newton
model predicts falls below the float64 resolution of the regularized energy
(NEWTON_DECREMENT_FLOOR * max(1, E)), where an Armijo test on energy cannot
tell a good step from a bad one.  There the full Newton step is taken and
judged by the max-norm of the regularized gradient: kept if the norm fell,
otherwise the stage ends.

Symmetric problems are shrunk on an ``orbit_ball`` before they get here.
``max_resistance`` on a Cayley graph takes one candidate pair per orbit of
vertex 0's stabilizer, read off the orbit ball of the group, and the
experiments solve sphere and annulus problems on one, about 1/8 of the
unknowns on Z^2.  Both are exact.  A quotient solve's R_p bracket
certifies the original R_p, since a unit flow on the quotient, spread
evenly over the edges each quotient edge merges, is one of the same cost
on the original.

``max_resistance`` takes Cayley graphs only.  At p=2 it reads every
R_2(0, v) off the spectrum; at other p it is a branch and bound over its
candidates.  The R_hi of each pair's p=2 potential, the Newton start, is an
upper bound on its R_p, and every candidate's comes from FFTs on the torus
Green function (``_cayley_pair_bounds``).  Pairs are solved in full in
decreasing order of that bound until the next bound is below the best R_p
so far by more than GAP_TOL relative; a skipped pair's R_p, and the R_lo
its solve would report, cannot then reach the maximum.  Both paths report
the first vertex v within 1e-12 relative of the maximum, so the skipped
pairs change neither value nor pair.  PAIR_SOLVE_CAP caps the full solves,
and the candidates are capped at DEFAULT_SIZE_CAP // n orbits, as each
bound costs about n log n.

A p=2 sphere resistance R_2(0 <-> S(r+1)) on a box ball needs neither a
solve nor a ball.  ``box_ball_separable`` decides from the spec and r alone
whether B(r) is an interval cube times fully covered cyclic factors, and
``box_ball_resistance`` sums the Dirichlet Green's function over sine x
character modes, one interval coordinate in closed form, refusing more
than ``size_cap`` terms before it allocates them.

Each two-terminal problem is set up once, as a ``_FreeLaplacian``.  It
checks the terminals (in range, distinct, every vertex joined to the
source) and holds the free vertices, edge ends, float multiplicities and
source that the p=2 solve, the Newton stages and the flow bound read.
Every linear solve goes through ``_solve_spd`` on its free/free block of
a weighted Laplacian, whose pattern is fixed for the whole solve.  Systems
of up to DIRECT_SOLVE_LIMIT unknowns are solved by banded Cholesky (LAPACK
``pbsv``, or ``ptsv`` on a tridiagonal band) with the free vertices in
reverse Cuthill-McKee order, which makes lattice blocks narrow: bandwidth
r + 1 on the Z^2 quotient of radius r, 36 (against 90 in vertex order) for
a pair of the 10x10 torus.  The order, and where each edge end's weight
and each free/free edge's lands in LAPACK's band storage, are found on the
block's first direct solve; after that a Newton step fills the band with
one bincount and solves it with one direct LAPACK call, bit for bit what
``scipy.linalg.solveh_banded`` returns on it.  The solve is exact, not
approximate: the order is a symmetric permutation, so the reordered block
is still symmetric positive definite and its solution is the old one
permuted; the band holds every nonzero; the Cholesky factor of a banded
matrix has no fill outside its band, so nothing is dropped; and Cholesky
needs no pivoting on a positive definite matrix.  A band that is not
positive definite, such as one with a vertex whose weights all underflowed
to 0, raises NonConvergence, on which Newton takes a gradient step.  Larger
systems go to Jacobi-preconditioned CG on the block as a CSR matrix,
assembled for each solve at a cost small beside CG's iterations.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BadArguments,
    DimensionMismatch,
    DisconnectedTerminals,
    NonConvergence,
    SizeCapExceeded,
)
from .graphs import (
    DEFAULT_SIZE_CAP,
    CayleyGraph,
    Graph,
    GraphSpec,
    TerminalGraph,
    _key_box,
    bfs_layers,
    collapse_terminals,
    orbit_ball,
    spec_explicit,
    step_keys,
)

DIRECT_SOLVE_LIMIT = 6000  # unknowns up to which solves are banded Cholesky, CG above
# full pair solves of a max_resistance at p != 2, checked after the first one
PAIR_SOLVE_CAP = 200
# relative float64 resolution of the regularized energy: a Newton step whose
# predicted decrease is below this times max(1, E) is judged by its gradient
NEWTON_DECREMENT_FLOOR = 1e-13
# residual scale, times E/t: Newton stages stop early at 0.1 * TOL, and a
# p=2 solve is accepted up to 10 * TOL
TOL = 1e-10
GAP_TOL = 1e-8  # accepted relative width of a Newton solve's R_p bracket
MAX_NEWTON_STEPS = 500  # over all eps stages
EPS_SCHEDULE = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
ARMIJO_C1 = 1e-4
SLAB_TERMS = 1 << 18  # outer modes per numpy pass of box_ball_resistance


def signed_power(x: np.ndarray | float, q: float):
    """|x|^q * sign(x), continuous at 0 for q > 0."""
    return np.sign(x) * np.abs(x) ** q


def p_energy(g: Graph, f: np.ndarray, p: float) -> float:
    """Sum over undirected edges of mult * |f(x)-f(y)|^p."""
    if not math.isfinite(p) or p < 1:
        raise BadArguments(f"p must be finite and >= 1, got {p!r}")
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise DimensionMismatch(f"expected {g.n} vertex values, got shape {f.shape}")
    eu, ev, em = g.edges
    return float(np.sum(em * np.abs(f[eu] - f[ev]) ** p))


def p_laplacian(g: Graph, f: np.ndarray, p: float) -> np.ndarray:
    """Delta_p f(x) = sum over neighbours of mult * |f(x)-f(y)|^(p-2) (f(x)-f(y))."""
    if not math.isfinite(p) or p <= 1:
        raise BadArguments(f"p must be finite and > 1, got {p!r}")
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise DimensionMismatch(f"expected {g.n} vertex values, got shape {f.shape}")
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    delta = f[rows] - f[g.nbr]
    return np.bincount(rows, weights=g.mult * signed_power(delta, p - 1), minlength=g.n)


def stokes_check(g: Graph, f: np.ndarray, p: float, A) -> float:
    """|sum_A Delta_p f  -  sum over boundary edges of the outward p-current|."""
    f = np.asarray(f, dtype=float)
    in_a = np.zeros(g.n, dtype=bool)
    in_a[np.asarray(list(A), dtype=np.int64)] = True
    lhs = float(p_laplacian(g, f, p)[in_a].sum())
    eu, ev, em = g.edges
    # +1 on edges leaving A at u, -1 on edges leaving it at v, 0 on the rest
    outward = in_a[eu].astype(np.int64) - in_a[ev]
    rhs = float(np.sum(outward * em * signed_power(f[eu] - f[ev], p - 1)))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    values: np.ndarray
    p: float
    source_value: float
    energy: float
    residual: float
    iterations: int
    problem: TerminalGraph


@dataclass(frozen=True)
class FlowResult:
    resistance: float
    capacity: float
    total_current: float
    potential: Potential


def _check_terminals(tg: TerminalGraph) -> None:
    n = tg.graph.n
    if not (0 <= tg.source < n and 0 <= tg.ground < n):
        raise BadArguments(f"terminals ({tg.source}, {tg.ground}) must lie in [0, {n})")
    if tg.source == tg.ground:
        raise BadArguments("source and ground must differ")
    dist = bfs_layers(tg.graph, [tg.source])
    if dist[tg.ground] < 0:
        raise DisconnectedTerminals("ground is not reachable from source")
    if np.any(dist < 0):
        # free component attached to neither terminal: energy is translation
        # invariant there and the minimizer is not unique
        raise DisconnectedTerminals("problem graph is not connected")


class _FreeLaplacian:
    """One two-terminal problem: its terminals, checked on construction
    (``_check_terminals``), its ``n`` vertices, the edge ends ``eu``, ``ev``
    with float multiplicities ``emf``, the ``free_idx`` of all non-terminal
    vertices, and the free/free block of the weighted graph Laplacian,
    whose pattern is fixed for a whole solve while its edge weights change.

    Direct solves take the block as a band in reverse Cuthill-McKee
    ``order`` (``band``), whose layout is found once; CG takes it as a CSR
    matrix (``matrix``).
    """

    def __init__(self, tg: TerminalGraph):
        _check_terminals(tg)
        g = tg.graph
        eu, ev, em = g.edges
        self.eu, self.ev, self.emf = eu, ev, em.astype(float)
        self.source, self.n = tg.source, g.n
        self._ends = np.concatenate([eu, ev])  # u ends, then v ends
        free_mask = np.ones(g.n, dtype=bool)
        free_mask[[tg.source, tg.ground]] = False
        self.free_idx = np.nonzero(free_mask)[0]
        pos = np.full(g.n, -1, dtype=np.int64)
        pos[self.free_idx] = np.arange(len(self.free_idx))
        # the free/free edges, and their ends as positions in free_idx
        self._both = np.nonzero(free_mask[eu] & free_mask[ev])[0]
        self._ur, self._uc = pos[eu[self._both]], pos[ev[self._both]]

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Reverse Cuthill-McKee order of the free vertices (positions in
        ``free_idx``), computed on the block's first direct solve."""
        # sp.csgraph loads on first use, so importing vtres does not pay for it
        pattern = self.matrix(np.ones(len(self.eu)))
        return sp.csgraph.reverse_cuthill_mckee(pattern, symmetric_mode=True)

    @functools.cached_property
    def _band_layout(self) -> tuple[np.ndarray, int]:
        """Where ``band`` adds each of its values in the column-major lower
        band storage of the block in ``order``, and the band's width (the
        number of diagonals kept).

        The places run over every edge end, u ends then v ends, to its
        vertex's diagonal entry, or to a dump slot just past the band at a
        terminal; then over the free/free edges, each to its off-diagonal
        entry.
        """
        nf = len(self.free_idx)
        rank = np.empty(nf, dtype=np.int64)
        rank[self.order] = np.arange(nf)
        hi = np.maximum(rank[self._ur], rank[self._uc])
        lo = np.minimum(rank[self._ur], rank[self._uc])
        width = 1 + int((hi - lo).max(initial=0))
        # entry (i, j), i >= j, sits in row i - j of column j
        diag = np.full(self.n, width * nf, dtype=np.int64)
        diag[self.free_idx] = rank * width
        return np.concatenate([diag[self._ends], lo * width + hi - lo]), width

    def band(self, w: np.ndarray) -> np.ndarray:
        """The block for edge weights ``w`` in ``order``, in LAPACK's lower
        band storage: a new (width, n) array, column j holding entries
        (j, j), (j + 1, j), ...

        One bincount fills it.  Each diagonal entry adds its vertex's
        weights in ``vertex_sums``' order, so it has the bits of
        ``matrix``'s diagonal.
        """
        places, width = self._band_layout
        size = width * len(self.free_idx)
        ab = np.bincount(places, np.concatenate([w, w, -w[self._both]]), minlength=size + 1)
        return ab[:size].reshape((width, -1), order="F")

    def matrix(self, w: np.ndarray) -> sp.csr_matrix:
        """The block for edge weights ``w``, as a new CSR matrix."""
        nf = len(self.free_idx)
        diag = np.arange(nf)
        off = -w[self._both]
        return sp.csr_matrix((np.concatenate([off, off, self.vertex_sums(w, w)]),
                              (np.concatenate([self._ur, self._uc, diag]),
                               np.concatenate([self._uc, self._ur, diag]))), shape=(nf, nf))

    def vertex_sums(self, at_u: np.ndarray, at_v: np.ndarray) -> np.ndarray:
        """Per free vertex, the sum of ``at_u`` over edges where it is u and
        of ``at_v`` over edges where it is v, in the order of an edge-by-edge
        accumulation (u ends first)."""
        return np.bincount(self._ends, weights=np.concatenate([at_u, at_v]),
                           minlength=self.n)[self.free_idx]

    def divergence(self, flow: np.ndarray) -> np.ndarray:
        """Net outflow at each free vertex of the edge values ``flow`` (u -> v)."""
        return self.vertex_sums(flow, -flow)


@functools.cache
def _banded_solvers():
    """LAPACK's float64 ``ptsv`` and ``pbsv``, the routines that
    ``scipy.linalg.solveh_banded`` calls for a band of width 2 and of any
    other width; looked up on the first direct solve."""
    return scipy.linalg.get_lapack_funcs(("ptsv", "pbsv"), (np.empty(0),))


def _solve_spd(lap: _FreeLaplacian, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the free block for edge weights ``w`` against ``b``.

    Up to DIRECT_SOLVE_LIMIT unknowns by banded Cholesky in the block's
    RCM order, raising NonConvergence if the band is not positive definite;
    above it by Jacobi-preconditioned CG.  The direct solve calls LAPACK as
    ``scipy.linalg.solveh_banded`` does, ``ptsv`` on a tridiagonal band
    (a path or a cycle) and ``pbsv`` on any other, with the same results,
    but skips its argument checks and copies.
    """
    if len(lap.free_idx) <= DIRECT_SOLVE_LIMIT:
        ab = lap.band(w)
        ptsv, pbsv = _banded_solvers()
        if len(ab) == 2:
            *_, y, info = ptsv(ab[0], ab[1, :-1], b[lap.order], overwrite_d=1,
                               overwrite_e=1, overwrite_b=1)
        else:
            _, y, info = pbsv(ab, b[lap.order], lower=1, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise NonConvergence(0, float("nan"), f"banded Cholesky failed: {info}th "
                                 f"leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK's banded solver")
        x = np.empty_like(y)
        x[lap.order] = y
        return x
    a = lap.matrix(w)
    d = a.diagonal()
    m = sp.diags(1.0 / np.where(d > 0, d, 1.0))
    x, info = spla.cg(a, b, rtol=1e-13, atol=0.0, maxiter=50000, M=m)
    if info != 0:
        raise NonConvergence(info if info > 0 else 0, float("nan"),
                             f"conjugate gradient failed (info={info})")
    return x


def _solve_p2(lap: _FreeLaplacian, t: float) -> np.ndarray:
    """Values of the p=2 potential: one sparse symmetric Dirichlet solve."""
    f = np.zeros(lap.n)
    f[lap.source] = t
    if len(lap.free_idx):
        w = lap.emf
        # f is zero on the free vertices, so b = -L_fc f_c sums clamped values
        b = lap.vertex_sums(w * f[lap.ev], w * f[lap.eu])
        f[lap.free_idx] = _solve_spd(lap, w, b)
    return f


def _true_residual(g: Graph, f: np.ndarray, p: float, free_idx: np.ndarray) -> float:
    if len(free_idx) == 0:
        return 0.0
    return float(np.abs(p_laplacian(g, f, p)[free_idx]).max())


def _reg_energy(delta: np.ndarray, em: np.ndarray, p: float, eps: float) -> float:
    return float((em * (delta * delta + eps * eps) ** (p / 2.0)).sum())


def _reg_gradient(delta: np.ndarray, p: float, eps: float, lap: _FreeLaplacian):
    """delta^2 + eps^2, and the free gradient of the regularized energy, for
    the edge differences delta = f(u) - f(v)."""
    d2e2 = delta * delta + eps * eps
    return d2e2, lap.divergence(lap.emf * p * delta * d2e2 ** ((p - 2.0) / 2.0))


def _newton_weights(emf: np.ndarray, p: float, eps: float, delta: np.ndarray,
                    d2e2: np.ndarray) -> np.ndarray:
    """Edge weights of the regularized energy's Hessian."""
    return emf * p * d2e2 ** ((p - 4.0) / 2.0) * ((p - 1.0) * delta * delta + eps * eps)


def solve_potential(tg: TerminalGraph, p: float, t: float = 1.0) -> Potential:
    """Minimize the p-energy over functions equal to t on source, 0 on ground.

    Returns the unique minimizer: at p=2 p-harmonic on the free vertices up
    to ``10 * TOL`` times the capacity scale, at other p with an R_p
    bracket no wider than ``GAP_TOL`` relative.  Raises NonConvergence
    with the iteration count, the residual and the per-stage step counts
    if the Newton loop stops short of that bracket, or at an energy that
    is 0 or not finite (at p in the thousands |df|^p underflows).
    """
    if not math.isfinite(p) or p <= 1:
        raise BadArguments(f"p must be finite and > 1, got {p!r}")
    if not (math.isfinite(t) and t > 0):
        raise BadArguments(f"t must be finite and > 0, got {t!r}")
    g = tg.graph
    lap = _FreeLaplacian(tg)
    free_idx = lap.free_idx
    f = _solve_p2(lap, t)

    if p == 2.0:
        del lap  # the pattern is dropped before the residual pass, which peaks in memory
        energy = p_energy(g, f, 2.0)
        residual = _true_residual(g, f, 2.0, free_idx)
        scale = max(energy / t, 1e-12)
        if residual > TOL * scale * 10:
            raise NonConvergence(1, residual, "direct p=2 solve left a large residual")
        return Potential(values=f, p=2.0, source_value=t, energy=energy,
                         residual=residual, iterations=1, problem=tg)

    iterations = 0
    stages: list[tuple[str, int, int]] = []
    stage_end = None  # E_p and residual of f as the last stage left it

    if len(free_idx):
        for eps in EPS_SCHEDULE:
            before = iterations
            iterations, backtracks = _newton_at_eps(lap, f, p, eps, iterations)
            stages.append((f"{eps:.0e}", iterations - before, backtracks))
            stage_end = None
            if iterations >= MAX_NEWTON_STEPS:
                break
            stage_end = p_energy(g, f, p), _true_residual(g, f, p, free_idx)
            if stage_end[1] <= 0.1 * TOL * max(stage_end[0] / t, 1e-12):
                break

    energy, residual = stage_end or (p_energy(g, f, p), _true_residual(g, f, p, free_idx))
    if not 0 < energy < math.inf:
        raise NonConvergence(iterations, residual, f"E_p(f) = {energy!r} is not "
                             f"positive and finite", stages=tuple(stages))
    r_lo, r_hi = t ** p / energy, _flow_bound(lap, f, p)
    if not abs(r_hi - r_lo) <= GAP_TOL * r_lo:
        raise NonConvergence(iterations, residual,
                             f"R_p bracket [{r_lo!r}, {r_hi!r}] is wider than "
                             f"{GAP_TOL:.0e} relative", stages=tuple(stages))
    return Potential(values=f, p=p, source_value=t, energy=energy,
                     residual=residual, iterations=iterations, problem=tg)


def _flow_bound(lap: _FreeLaplacian, f: np.ndarray, p: float) -> float:
    """Upper bound on R_p from the p-current of f made a unit flow.

    The current m |df|^(p-2) df is projected to zero divergence on the free
    vertices with one unweighted solve and divided by its net outflow at
    the source; any unit flow theta gives
    R_p <= (sum m^(1-q) |theta|^q)^(p-1) with q = p/(p-1).
    """
    eu, ev, emf = lap.eu, lap.ev, lap.emf
    theta = emf * signed_power(f[eu] - f[ev], p - 1.0)
    if len(lap.free_idx):
        phi = np.zeros(lap.n)
        phi[lap.free_idx] = _solve_spd(lap, emf, lap.divergence(theta))
        theta = theta - emf * (phi[eu] - phi[ev])
    out = theta[eu == lap.source].sum() - theta[ev == lap.source].sum()
    q = p / (p - 1.0)
    return float(np.sum(emf ** (1.0 - q) * np.abs(theta / out) ** q) ** (p - 1.0))


def _newton_at_eps(lap: _FreeLaplacian, f: np.ndarray, p: float, eps: float,
                   iterations: int) -> tuple[int, int]:
    """Damped Newton on the eps-regularized energy; mutates f in place.

    Returns the running iteration count and the number of rejected trial
    steps in this stage.
    """
    eu, ev, emf, free_idx = lap.eu, lap.ev, lap.emf, lap.free_idx
    backtracks = 0
    # the edge differences of f and, when known, its regularized energy,
    # carried over from the trial step that f took
    delta, e0 = f[eu] - f[ev], None
    for _ in range(80):
        if iterations >= MAX_NEWTON_STEPS:
            break
        d2e2, gfree = _reg_gradient(delta, p, eps, lap)
        gnorm = float(np.abs(gfree).max())
        if e0 is None:
            e0 = _reg_energy(delta, emf, p, eps)
        if gnorm <= 1e-14 * max(1.0, e0):
            break
        hw_newton = _newton_weights(emf, p, eps, delta, d2e2)
        if p < 2.0 and gnorm > 1e-2 * (1.0 + e0):
            # far from the optimum the reweighted quadratic majorant
            # (u^(p/2) concave in u = delta^2) guarantees descent; switch to
            # the true Newton model for the quadratic tail
            weight_choices = (emf * p * d2e2 ** ((p - 2.0) / 2.0), hw_newton)
        else:
            weight_choices = (hw_newton,)
        moved = False
        for hw in weight_choices:
            newton = hw is hw_newton
            try:
                d = _solve_spd(lap, hw, -gfree)
            except NonConvergence:
                d = -gfree / max(hw.max(), 1e-30)
                newton = False
            slope = float(gfree @ d)
            if slope >= 0 or not np.isfinite(d).all():
                d = -gfree
                slope = float(gfree @ d)
                newton = False
            # cap the step so a near-singular model cannot strand the line search
            step_cap = 10.0 * max(1.0, float(np.abs(f).max()))
            dmax = float(np.abs(d).max())
            if dmax > step_cap:
                d *= step_cap / dmax
                slope *= step_cap / dmax
            if newton and -slope <= NEWTON_DECREMENT_FLOOR * max(1.0, e0):
                # the predicted decrease is below the energy's float64
                # resolution, where Armijo cannot rank steps: take the full
                # step if it shrinks the gradient, else end the stage
                trial = f.copy()
                trial[free_idx] += d
                trial_delta = trial[eu] - trial[ev]
                if float(np.abs(_reg_gradient(trial_delta, p, eps, lap)[1]).max()) < gnorm:
                    f[:] = trial
                    delta, e0 = trial_delta, None
                    moved = True
                else:
                    backtracks += 1
                break
            alpha = 1.0
            for _bt in range(40):
                trial = f.copy()
                trial[free_idx] += alpha * d
                trial_delta = trial[eu] - trial[ev]
                e1 = _reg_energy(trial_delta, emf, p, eps)
                if e1 <= e0 + ARMIJO_C1 * alpha * slope:
                    f[:] = trial
                    delta, e0 = trial_delta, e1
                    moved = True
                    break
                alpha *= 0.5
                backtracks += 1
            if moved:
                break
        iterations += 1
        if not moved:
            break
    return iterations, backtracks


def p_resistance(tg: TerminalGraph, p: float) -> FlowResult:
    """Resistance, capacity and total current of the unit p-potential.

    capacity = E_p(f) for the unit potential f, the total current is the
    outward current through the source's edges, and resistance = 1/capacity.
    The solve's acceptance test already certifies the capacity, so the
    current is reported, not checked.
    """
    pot = solve_potential(tg, p, t=1.0)
    g = tg.graph
    capacity = pot.energy
    nb, mu = g.neighbors(tg.source)
    total_current = float(np.sum(mu * signed_power(1.0 - pot.values[nb], p - 1.0)))
    return FlowResult(resistance=1.0 / capacity, capacity=capacity,
                      total_current=total_current, potential=pot)


def pair_resistance(g: Graph, u: int, v: int, p: float) -> FlowResult:
    """R_p between two single vertices of a finite graph."""
    return p_resistance(collapse_terminals(g, [u], [v]), p)


def _half_angle(k, step, moduli) -> np.ndarray:
    """2 sin^2(pi theta) for the characters k, theta = sum_i k_i s_i / n_i.

    theta is summed exactly over lcm(n_i) and folded into [-1/2, 1/2], so
    the small values keep full precision (1 - cos would lose about 1e-4 at
    the smallest eigenvalue of a 5M-cycle).
    """
    den = math.lcm(*moduli)
    num = sum(ki * si % n * (den // n) for ki, si, n in zip(k, step, moduli)) % den
    num[2 * num > den] -= den
    return 2.0 * np.sin(np.pi * num / den) ** 2


def _cayley_green(g: CayleyGraph) -> tuple[np.ndarray, np.ndarray]:
    """The Laplacian spectrum lambda of a finite abelian Cayley graph, with
    lambda(0) = inf, and its Green function g0 = ifftn(1/lambda), both of
    shape ``g.dims``.

    Character k is a Laplacian eigenvector with eigenvalue lambda(k) =
    sum over s in S of 2 sin^2(pi theta), theta = sum_i k_i s_i / n_i (see
    ``_half_angle``), so L g0 = delta_0 - 1/n.
    """
    k = np.ix_(*[np.arange(n, dtype=np.int64) for n in g.dims])
    lam = np.zeros(g.dims)
    for s in g.offsets:
        lam += _half_angle(k, s, g.dims)
    lam.flat[0] = np.inf
    return lam, np.fft.ifftn(1.0 / lam).real


def cayley_resistances(g: CayleyGraph) -> np.ndarray:
    """R_2(0, v) for every vertex v of a finite abelian Cayley graph:
    2 (g0(0) - g0(v)) with g0 the Green function of ``_cayley_green``."""
    green = _cayley_green(g)[1].reshape(-1)
    return 2.0 * (green[0] - green)


def _cayley_pair_bounds(g: CayleyGraph, targets: list[int], p: float) -> np.ndarray:
    """For each v in ``targets``, the upper bound on R_p(0, v) that
    ``_flow_bound`` gives on the pair's p=2 potential, from FFTs in place
    of the two banded solves that would take.

    The edges are the pairs (x, x + s) over every vertex x and offset s,
    each undirected edge twice: the offsets are distinct, so every edge has
    multiplicity 1, and an offset with s = -s reaches its edges from both
    ends.  With g0 from ``_cayley_green``, the p=2
    potential of (0, v) is h = g0 - g0(. - v) up to its scale, since
    L h = delta_0 - delta_v; it makes f with f(0) = 1 and f(v) = 0 after
    dividing by h(0) - h(v).  Its p-current c = |df|^(p-2) df is projected
    as ``_flow_bound`` projects it, to zero divergence off {0, v}, with the
    capacitance method of Buzbee, Dorr, George and Golub (SIAM J. Numer.
    Anal. 8, 1971): let d0 be div c with its entries at 0 and v zeroed and
    psi = G d0 + a g0 + b g0(. - v), where G d0 = ifftn(fftn(d0)/lambda).
    Then L psi = d0 + a delta_0 + b delta_v - (sum d0 + a + b)/n, so
    a + b = -sum d0 makes it d0 off {0, v}, and a - b is fixed by
    psi(0) = psi(v), the Dirichlet condition up to a constant that dpsi
    does not see.  The bound is (sum |c - dpsi|^q / 2 / out^q)^(p-1), with
    q = p/(p-1) and out the net outflow at 0.

    This is the flow that two banded solves per pair give; the two routes
    agree to 3e-11 relative on the test graphs (at p=1.5; 5e-15 at p=3
    and 4).
    """
    lam, green = _cayley_green(g)
    g0, dims, axes = green.reshape(-1), g.dims, tuple(range(1, len(g.dims) + 1))
    _, width, strides = box = _key_box(dims)  # a key is a vertex id
    step = g.nbr.reshape(g.n, -1).T  # (deg, n): the neighbours x + s of each x
    q = p / (p - 1.0)
    targets = np.asarray(targets, dtype=np.int64)
    bounds = np.empty(len(targets))
    size = max(1, (1 << 19) // step.size)  # candidates per pass: 4 MB per edge array
    for lo in range(0, len(targets), size):
        v = targets[lo:lo + size]
        rows = np.arange(len(v))
        # (batch, n): the ids of x - v, and h
        back = step_keys(box, dims, np.arange(g.n), -(v[:, None] // strides) % width).T
        h = g0 - g0[back]
        drop = h[:, 0] - h[rows, v]
        cur = signed_power((h[:, None, :] - h[:, step]) / drop[:, None, None], p - 1.0)
        d0 = cur.sum(axis=1)
        d0[:, 0] = d0[rows, v] = 0.0
        psi = np.fft.ifftn(np.fft.fftn(d0.reshape(-1, *dims), axes=axes) / lam,
                          axes=axes).real.reshape(len(v), -1)
        plus = -d0.sum(axis=1)
        minus = (psi[rows, v] - psi[:, 0]) / (g0[0] - g0[v])
        psi += 0.5 * (plus + minus)[:, None] * g0 + 0.5 * (plus - minus)[:, None] * g0[back]
        cur -= psi[:, None, :] - psi[:, step]
        out = cur[:, :, 0].sum(axis=1)
        bounds[lo:lo + size] = (0.5 * (np.abs(cur) ** q).sum(axis=(1, 2))
                                / np.abs(out) ** q) ** (p - 1.0)
    return bounds


class BoxAxes(NamedTuple):
    """The coordinates of a box ball B(r) and its volume."""
    interval: list[int]
    cyclic: list[int]
    beta: int  # (2r+1)^|interval| * prod of the cyclic moduli


def _box_axes(offsets, factors, r: int) -> Optional[BoxAxes]:
    """Interval and cyclic coordinates of B(r) when S is a box along the
    interval ones, else None; ``beta`` is B(r)'s volume once B_C(r) covers
    the cyclic factors.

    An interval coordinate is a Z factor, or a finite one of modulus at
    least 2r + 2, along which B(r) does not wrap, with every signed offset
    component in {-1, 0, 1}.  The other coordinates are cyclic; they may not
    include a Z factor.  The box condition is S u {0} = {-1, 0, 1}^D x A_C
    as sets, with A_C the projection of S u {0} on the cyclic coordinates D
    leaves out.
    """
    rows = np.array(offsets, dtype=np.int64).reshape(len(offsets), len(factors))
    for j, n in enumerate(factors):
        if n is not None:
            rows[:, j] = np.where(2 * rows[:, j] > n, rows[:, j] - n, rows[:, j])
    interval = [j for j, n in enumerate(factors)
                if (n is None or n >= 2 * r + 2) and np.all(np.abs(rows[:, j]) <= 1)]
    cyclic = [j for j in range(len(factors)) if j not in interval]
    if not interval or any(factors[j] is None for j in cyclic):
        return None
    members = set(map(tuple, rows.tolist())) | {(0,) * len(factors)}
    projection = {tuple(t[j] for j in cyclic) for t in members}
    # S u {0} lies in {-1, 0, 1}^D x A_C, so equal sizes make the sets equal
    if len(members) != 3 ** len(interval) * len(projection):
        return None
    return BoxAxes(interval, cyclic,
                   (2 * r + 1) ** len(interval) * math.prod(factors[j] for j in cyclic))


@functools.lru_cache(maxsize=64)
def _cover_radius(steps: tuple[tuple[int, ...], ...], moduli: tuple[int, ...]) -> float:
    """Least r at which r-fold sums of ``steps`` (0 among them) cover
    prod Z_n, or inf if they never do: the eccentricity of 0, the last layer
    of an orbit ball that covers the group."""
    if not moduli:
        return 0
    nonzero = [s for s in steps if any(s)]
    if not nonzero:
        return math.inf
    ball = orbit_ball(spec_explicit(moduli, nonzero), math.prod(moduli))
    return int(ball.layer[-1]) if int(ball.size.sum()) == math.prod(moduli) else math.inf


def box_ball_separable(spec: GraphSpec, r: int) -> Optional[BoxAxes]:
    """The interval and cyclic coordinates of B(r), and its volume beta(r),
    when the Dirichlet problem of R_2(0 <-> S(r+1)) is diagonal in sines x
    characters, else None.

    Decided from the spec and r alone.  When S is a box along the interval
    coordinates D (see ``_box_axes``), S u {0} = {-1, 0, 1}^D x A_C, and the
    r-fold sumset of a product is the product of the sumsets: B(r) =
    [-r, r]^D x B_C(r), with B_C(r) the ball of A_C on the cyclic factors.
    That is separable when B_C(r) covers them, so that
    beta(r) = (2r+1)^|D| * prod of the cyclic moduli.  An orbit ball of
    A_C on the cyclic factors alone decides it (``_cover_radius``: 25
    vertices for Z x C5 x C5, none for Z^d); one on more than
    ``DEFAULT_SIZE_CAP`` of them is not built and the spec is refused, since
    its mode sum would pass that cap anyway.
    """
    if r < 0:
        return None
    offsets = spec.offsets
    axes = _box_axes(offsets, spec.factors, r)
    if axes is None:
        return None
    moduli = tuple(spec.factors[j] for j in axes.cyclic)
    if math.prod(moduli) > DEFAULT_SIZE_CAP:
        return None
    steps = tuple(sorted({tuple(s[j] for j in axes.cyclic) for s in offsets}))
    return axes if _cover_radius(steps, moduli) <= r else None


def box_ball_resistance(offsets, factors, r: int,
                        axes: Optional[BoxAxes] = None,
                        size_cap: int = DEFAULT_SIZE_CAP) -> float:
    """R_2(0 <-> S(r+1)) = G_D(0, 0) on a separable box ball, as a mode sum.

    On B(r) = [-r, r]^z x prod_C Z_n the Dirichlet Laplacian has the
    eigenvectors sin(k pi (x + r + 1)/(2r + 2)) along each interval
    coordinate times characters e^(2 pi i m x / n) along the cyclic ones,
    with eigenvalue mu = sum over s in S of 1 - prod_i cos(theta_i) cos(phi),
    theta_i = pi k_i/(2r + 2) over the interval coordinates that s moves
    and phi = 2 pi sum_j m_j s_j / n_j.  Even k vanish at the centre, so
    G_D(0, 0) = (r + 1)^-z / prod n * sum over odd k and all m of 1/mu.

    The odd modes of the first interval coordinate d are summed in closed
    form.  S is closed under negating d, so mu = a - 2b cos(theta_d), and
    (1/(r+1)) sum over odd k_d of 1/mu is the centre value of a 1D Dirichlet
    Green's function on 2r + 1 points, tanh((r+1) lam) / (2|b| sinh lam)
    with cosh lam = a/(2|b|); a negative b gives the same sum, as the odd
    modes are symmetric under k -> 2r + 2 - k.  With delta = a - 2|b| the
    smaller of mu at theta_d = 0 and pi, lam = 2 asinh(sqrt(delta/(4|b|)))
    and 2|b| sinh lam = sqrt(delta (delta + 4|b|)) keep full precision.
    b = 0 gives 1/a, and delta = 0 (z = 1 and the trivial outer character)
    the limit (r + 1)/(2|b|).  The (r+1)^(z-1) * prod n outer modes are
    summed in slabs of at most SLAB_TERMS; more than ``size_cap`` of them
    raise SizeCapExceeded before anything is allocated.

    Each mu is a sum of 1 - prod(1 - x) over x = 2 sin^2(theta/2) and
    2 sin^2(phi/2), taken as the telescoping sum of x_j prod_{l<j} (1 - x_l),
    positive term by term on the small modes; 1 - cos, or 3^d -
    prod(1 + 2 cos), loses about eps r^2 relative in the smallest one, and
    a naive delta = a - 2|b| 1.5e-14 at r = 200 and 9e-13 at r = 1000 on
    Z^2.  ``axes`` are the coordinates ``box_ball_separable`` returned for
    this spec and r; when not given they are found by that check, and a
    ball it refuses raises BadArguments.
    """
    if axes is None:
        axes = box_ball_separable(spec_explicit(factors, offsets), r)
        if axes is None:
            raise BadArguments(f"B({r}) is not a separable box ball")
    interval, cyclic, _ = axes
    d, outer = interval[0], interval[1:]
    moduli = [factors[j] for j in cyclic]
    shape = [r + 1] * len(outer) + moduli
    terms = math.prod(shape)
    if terms > size_cap:
        raise SizeCapExceeded(f"{terms} modes exceed size cap {size_cap}")
    half = 2.0 * np.sin(np.pi * (2 * np.arange(r + 1) + 1) / (4 * r + 4)) ** 2
    # offsets that move the same outer interval coordinates, move d or not,
    # and make the same cyclic step share a term of mu
    groups = Counter((tuple(i for i, j in enumerate(outer) if s[j]), s[d] != 0,
                      tuple(s[j] for j in cyclic)) for s in offsets)
    total = 0.0
    for lo in range(0, terms, SLAB_TERMS):
        flat = np.arange(lo, min(terms, lo + SLAB_TERMS))
        modes = np.unravel_index(flat, shape) if shape else ()
        sines = [half[k] for k in modes[:len(outer)]]
        phases = {step: _half_angle(modes[len(outer):], step, moduli)
                  for _, _, step in groups if any(step)}
        # mu at theta_d = 0, and b = (sum of the cosine products of the
        # offsets moving d) / 2; mu at theta_d = pi is mu0 + 4b
        mu0, b = 0.0, 0.0
        for (moved, moves_d, step), count in groups.items():
            xs = [sines[i] for i in moved] + ([phases[step]] if any(step) else [])
            term, keep = 0.0, 1.0
            for x in xs:
                term, keep = term + keep * x, keep * (1.0 - x)
            mu0 = mu0 + count * term
            if moves_d:
                b = b + 0.5 * count * keep
        ab = np.abs(b)
        # on a box set mu at theta_d = pi is at least 2 * 3^(z-1) * |A_C|,
        # so mu0 + 4b loses nothing to cancellation
        delta = np.where(b > 0, mu0, mu0 + 4.0 * b)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = 2.0 * np.arcsinh(np.sqrt(delta / (4.0 * ab)))
            green = np.tanh((r + 1) * lam) / np.sqrt(delta * (delta + 4.0 * ab))
            green = np.select([ab == 0, delta == 0], [1.0 / delta, (r + 1) / (2.0 * ab)], green)
        total += float(np.sum(green))
    return total / ((r + 1) ** len(outer) * math.prod(moduli))


def _first_near_max(values: np.ndarray) -> int:
    """Index of the first value within 1e-12 (relative) of the maximum."""
    return int(np.argmax(values >= values.max() * (1 - 1e-12)))


def max_resistance(g: CayleyGraph, p: float) -> tuple[float, tuple[int, int]]:
    """Maximum p-resistance between two vertices of a finite abelian Cayley
    graph, with an argmax pair (0, v).

    Being vertex-transitive, the graph needs pairs at 0 only, and the
    reported pair is the first (0, v), in vertex order, whose R_p is within
    1e-12 (relative) of the maximum, with that R_p.  At p=2 every R_2(0, v)
    comes from the spectrum (``cayley_resistances``).  At other p the
    candidates are one vertex per orbit other than {0} of vertex 0's
    stabilizer, at its smallest id (the ids of an ``orbit_ball`` past the
    diameter): an automorphism fixing 0 gives every v of an orbit the same
    R_p(0, v).  Any other ``Graph`` is refused with BadArguments, after
    the check of p; ``pair_resistance`` serves a single pair of any graph.

    At p != 2 not every candidate is solved.  Each gets an upper bound hi
    on R_p from its p=2 potential, with no Newton step, from FFTs on the
    Green function of the spectrum, every candidate at once
    (``_cayley_pair_bounds``).  Candidates are then solved in full, by
    ``pair_resistance``, in decreasing order of hi (non-finite hi first,
    equal hi in vertex order), until the next hi is below best * (1 -
    GAP_TOL), best being the largest R_p solved so far.  This is exact: a
    skipped pair's reported R_p, 1/E_p of a potential, is at most its true
    R_p by the Dirichlet principle, which is at most the exact bound.  A
    computed hi is that bound up to rounding well inside 1e-10 relative
    (it matches two banded solves per pair to 3e-11 on the test graphs, and
    the tests hold it to 1e-10), so the skipped pair's R_p is below
    best * (1 - GAP_TOL) / (1 - 1e-10) < best * (1 - 1e-12): it is not
    within 1e-12 of the maximum.  A NonConvergence of a full solve
    propagates; it is that of the first failing pair in solve order.

    The caps refuse work before it is done.  The bounds cost about
    candidates * n log n, so at most DEFAULT_SIZE_CAP // n orbits are
    taken, and the orbit BFS stops at the first one past that (the
    1000x1000 torus stops at 5).  PAIR_SOLVE_CAP caps the full solves:
    after the first, every pair still to be solved has hi at or above
    best * (1 - GAP_TOL), so more such candidates than the cap raise
    SizeCapExceeded at the cost of one solve.
    """
    if not math.isfinite(p) or p <= 1:
        raise BadArguments(f"p must be finite and > 1, got {p!r}")
    if not isinstance(g, CayleyGraph):
        raise BadArguments("max_resistance needs a CayleyGraph; "
                           "pair_resistance takes a pair of any Graph")
    if g.n < 2:
        raise BadArguments("graph needs at least two vertices")
    if p == 2.0:
        r = cayley_resistances(g)
        v = _first_near_max(r)
        return float(r[v]), (0, v)
    # each candidate's bound costs about n log n; an orbit past the cap
    # stops the BFS, before the rest of the ball
    orbits = DEFAULT_SIZE_CAP // g.n
    try:
        ball = orbit_ball(spec_explicit(g.dims, g.offsets), g.n, orbits)
    except SizeCapExceeded:
        raise SizeCapExceeded(f"more than {orbits - 1} candidate pairs on {g.n} "
                              f"vertices for p={p}") from None
    targets = np.sort(np.ravel_multi_index(ball.coords.T, g.dims))[1:].tolist()
    bounds = _cayley_pair_bounds(g, targets, p)
    values = np.full(len(targets), -np.inf)
    best = -math.inf
    # stable, so equal bounds keep vertex order; a non-finite bound goes first
    order = sorted(range(len(targets)),
                   key=lambda i: -bounds[i] if math.isfinite(bounds[i]) else -math.inf)
    for k, i in enumerate(order):
        if bounds[i] < best * (1 - GAP_TOL):
            break
        values[i] = pair_resistance(g, 0, targets[i], p).resistance
        best = max(best, values[i])
        if k == 0:
            # best only grows, so only pairs whose bound reaches it now
            # can be solved
            solves = int(np.count_nonzero(~(bounds < best * (1 - GAP_TOL))))
            if solves > PAIR_SOLVE_CAP:
                raise SizeCapExceeded(f"up to {solves} pair solves for p={p}, "
                                      f"more than the cap {PAIR_SOLVE_CAP}")
    i = _first_near_max(values)
    return float(values[i]), (0, targets[i])
