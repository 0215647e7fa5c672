"""p-energy, p-Laplacian, and the convex minimization behind p-resistance.

The energy of a vertex function f is the sum over undirected edges of
multiplicity * |f(x)-f(y)|^p.  Minimizing it subject to terminal values
t on the source and 0 on the ground yields the p-potential; its energy is
the p-capacity and the reciprocal the p-resistance.

The p=2 problem is a sparse symmetric linear solve.  For general p > 1 we
run damped Newton on the free values with iteratively reweighted quadratic
models; the edge weight |f(x)-f(y)|^(p-2) is regularized as
(delta^2 + eps^2)^((p-2)/2) with eps continued from 1e-2 down to 1e-10,
since the weight is singular at delta=0 for p < 2 and degenerate for p > 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BadArguments,
    DimensionMismatch,
    DisconnectedTerminals,
    NonConvergence,
    SizeCapExceeded,
)
from .graphs import Graph, TerminalGraph, bfs_layers, collapse_terminals

DIRECT_SOLVE_LIMIT = 6000  # above this, p=2 falls back to preconditioned CG


def signed_power(x: np.ndarray | float, q: float):
    """|x|^q * sign(x), continuous at 0 for q > 0."""
    return np.sign(x) * np.abs(x) ** q


def p_energy(g: Graph, f: np.ndarray, p: float) -> float:
    """Sum over undirected edges of mult * |f(x)-f(y)|^p."""
    if p < 1:
        raise BadArguments("p must be >= 1")
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise DimensionMismatch(f"expected {g.n} vertex values, got shape {f.shape}")
    eu, ev, em = g.edges
    return float(np.sum(em * np.abs(f[eu] - f[ev]) ** p))


def p_laplacian(g: Graph, f: np.ndarray, p: float) -> np.ndarray:
    """Delta_p f(x) = sum over neighbours of mult * |f(x)-f(y)|^(p-2) (f(x)-f(y))."""
    if p <= 1:
        raise BadArguments("p must be > 1")
    f = np.asarray(f, dtype=float)
    if f.shape != (g.n,):
        raise DimensionMismatch(f"expected {g.n} vertex values, got shape {f.shape}")
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    delta = f[rows] - f[g.nbr]
    out = np.zeros(g.n)
    np.add.at(out, rows, g.mult * signed_power(delta, p - 1))
    return out


def stokes_check(g: Graph, f: np.ndarray, p: float, A) -> float:
    """|sum_A Delta_p f  -  sum over boundary edges of the outward p-current|."""
    f = np.asarray(f, dtype=float)
    ids = sorted(set(int(a) for a in A))
    lhs = float(p_laplacian(g, f, p)[ids].sum())
    in_a = np.zeros(g.n, dtype=bool)
    in_a[ids] = True
    rhs = 0.0
    for u in ids:
        nb, mu = g.neighbors(u)
        outside = ~in_a[nb]
        rhs += float(np.sum(mu[outside] * signed_power(f[u] - f[nb[outside]], p - 1)))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10                 # residual target: max |Delta_p f| <= tol * scale
    max_iter: int = 500
    eps_schedule: tuple[float, ...] = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    armijo_c1: float = 1e-4
    max_backtracks: int = 40
    init: str = "p2"                   # p2 | zeros | flat | random
    seed: int = 0
    force_newton: bool = False         # run the general-p path even at p=2


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
    dist = bfs_layers(tg.graph, [tg.source])
    if dist[tg.ground] < 0:
        raise DisconnectedTerminals("ground is not reachable from source")
    if np.any(dist < 0):
        # free component attached to neither terminal: energy is translation
        # invariant there and the minimizer is not unique
        raise DisconnectedTerminals("problem graph is not connected")


def _initial_values(tg: TerminalGraph, p: float, t: float, cfg: SolverConfig) -> np.ndarray:
    f = np.zeros(tg.graph.n)
    f[tg.source] = t
    if cfg.init == "zeros":
        return f
    if cfg.init == "flat":
        free = np.ones(tg.graph.n, dtype=bool)
        free[[tg.source, tg.ground]] = False
        f[free] = t / 2.0
        return f
    if cfg.init == "random":
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed & (2**64 - 1), 0]))
        free = np.ones(tg.graph.n, dtype=bool)
        free[[tg.source, tg.ground]] = False
        f[free] = t * rng.random(int(free.sum()))
        return f
    if cfg.init == "p2":
        return _solve_p2(tg, t, cfg).values
    raise BadArguments(f"unknown init {cfg.init!r}")


def _laplacian_blocks(g: Graph, weights: np.ndarray, free_idx: np.ndarray):
    """Weighted-Laplacian blocks L_ff and L_fc for the free/clamped split."""
    eu, ev, _ = g.edges
    w = weights
    n = g.n
    pos = np.full(n, -1, dtype=np.int64)
    pos[free_idx] = np.arange(len(free_idx))
    fu, fv = pos[eu], pos[ev]
    diag = np.zeros(n)
    np.add.at(diag, eu, w)
    np.add.at(diag, ev, w)
    both = (fu >= 0) & (fv >= 0)
    a_ff = sp.coo_matrix(
        (np.concatenate([-w[both], -w[both], diag[free_idx]]),
         (np.concatenate([fu[both], fv[both], np.arange(len(free_idx))]),
          np.concatenate([fv[both], fu[both], np.arange(len(free_idx))]))),
        shape=(len(free_idx), len(free_idx)),
    ).tocsr()
    return a_ff


def _rhs_from_clamped(g: Graph, weights: np.ndarray, free_idx: np.ndarray,
                      f: np.ndarray, free_mask: np.ndarray) -> np.ndarray:
    eu, ev, em = g.edges
    rhs = np.zeros(g.n)
    mixed_u = free_mask[eu] & ~free_mask[ev]
    np.add.at(rhs, eu[mixed_u], weights[mixed_u] * f[ev[mixed_u]])
    mixed_v = free_mask[ev] & ~free_mask[eu]
    np.add.at(rhs, ev[mixed_v], weights[mixed_v] * f[eu[mixed_v]])
    return rhs[free_idx]


def _solve_spd(a: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    if a.shape[0] <= DIRECT_SOLVE_LIMIT:
        return spla.spsolve(a.tocsc(), b)
    d = a.diagonal()
    m = sp.diags(1.0 / np.where(d > 0, d, 1.0))
    x, info = spla.cg(a, b, rtol=1e-13, atol=0.0, maxiter=50000, M=m)
    if info != 0:
        raise NonConvergence(info if info > 0 else 0, float("nan"),
                             f"conjugate gradient failed (info={info})")
    return x


def _solve_p2(tg: TerminalGraph, t: float, cfg: SolverConfig) -> Potential:
    """Direct sparse symmetric solve of the Dirichlet Laplacian system."""
    g = tg.graph
    f = np.zeros(g.n)
    f[tg.source] = t
    free_mask = np.ones(g.n, dtype=bool)
    free_mask[[tg.source, tg.ground]] = False
    free_idx = np.nonzero(free_mask)[0]
    if len(free_idx):
        w = g.edges[2].astype(float)
        a_ff = _laplacian_blocks(g, w, free_idx)
        b = _rhs_from_clamped(g, w, free_idx, f, free_mask)
        f[free_idx] = _solve_spd(a_ff, b)
    energy = p_energy(g, f, 2.0)
    residual = _true_residual(g, f, 2.0, free_idx)
    return Potential(values=f, p=2.0, source_value=t, energy=energy,
                     residual=residual, iterations=1, problem=tg)


def _true_residual(g: Graph, f: np.ndarray, p: float, free_idx: np.ndarray) -> float:
    if len(free_idx) == 0:
        return 0.0
    return float(np.abs(p_laplacian(g, f, p)[free_idx]).max())


def _reg_energy(delta: np.ndarray, em: np.ndarray, p: float, eps: float) -> float:
    return float(np.sum(em * (delta * delta + eps * eps) ** (p / 2.0)))


def solve_potential(tg: TerminalGraph, p: float, t: float = 1.0,
                    cfg: Optional[SolverConfig] = None) -> Potential:
    """Minimize the p-energy over functions equal to t on source, 0 on ground.

    Returns the unique minimizer; it is p-harmonic on the free vertices up
    to ``cfg.tol`` times the capacity scale.  Raises NonConvergence with the
    iteration count and residual if the Newton loop stalls.
    """
    if p <= 1:
        raise BadArguments("p must be > 1")
    if t <= 0:
        raise BadArguments("t must be positive")
    cfg = cfg or SolverConfig()
    _check_terminals(tg)
    g = tg.graph

    if p == 2.0 and not cfg.force_newton:
        pot = _solve_p2(tg, t, cfg)
        scale = max(pot.energy / t, 1e-12)
        if pot.residual > cfg.tol * scale * 10:
            raise NonConvergence(1, pot.residual, "direct p=2 solve left a large residual")
        return pot

    free_mask = np.ones(g.n, dtype=bool)
    free_mask[[tg.source, tg.ground]] = False
    free_idx = np.nonzero(free_mask)[0]
    f = _initial_values(tg, p, t, cfg)
    emf = g.edges[2].astype(float)
    iterations = 0

    if len(free_idx):
        for eps in cfg.eps_schedule:
            iterations = _newton_at_eps(g, f, p, eps, emf, free_mask, free_idx,
                                        cfg, iterations)
            if iterations >= cfg.max_iter:
                break
            scale = max(p_energy(g, f, p) / t, 1e-12)
            if _true_residual(g, f, p, free_idx) <= 0.1 * cfg.tol * scale:
                break

    energy = p_energy(g, f, p)
    scale = max(energy / t, 1e-12)
    residual = _true_residual(g, f, p, free_idx)
    if residual > cfg.tol * scale and len(free_idx):
        # near the optimum the energy decrease per step falls below float64
        # resolution, so polish with Newton steps accepted on residual decrease
        iterations, residual = _polish_residual(g, f, p, cfg.eps_schedule[-1],
                                                emf, free_idx, cfg, iterations,
                                                cfg.tol * scale)
        energy = p_energy(g, f, p)
        scale = max(energy / t, 1e-12)
        if residual > cfg.tol * scale:
            raise NonConvergence(iterations, residual)
    return Potential(values=f, p=p, source_value=t, energy=energy,
                     residual=residual, iterations=iterations, problem=tg)


def _polish_residual(g: Graph, f: np.ndarray, p: float, eps: float,
                     emf: np.ndarray, free_idx: np.ndarray, cfg: SolverConfig,
                     iterations: int, target: float) -> tuple[int, float]:
    eu, ev, _ = g.edges
    residual = _true_residual(g, f, p, free_idx)
    while iterations < cfg.max_iter and residual > target:
        grad = p * p_laplacian(g, f, p)[free_idx]
        delta = f[eu] - f[ev]
        d2e2 = delta * delta + eps * eps
        hw = emf * p * d2e2 ** ((p - 4.0) / 2.0) * ((p - 1.0) * delta * delta
                                                    + eps * eps)
        a_ff = _laplacian_blocks(g, hw, free_idx)
        try:
            d = _solve_spd(a_ff, -grad)
        except NonConvergence:
            break
        if not np.all(np.isfinite(d)):
            break
        iterations += 1
        alpha = 1.0
        improved = False
        for _bt in range(10):
            trial = f.copy()
            trial[free_idx] += alpha * d
            r1 = _true_residual(g, trial, p, free_idx)
            if r1 < residual:
                f[:] = trial
                residual = r1
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return iterations, residual


def _newton_at_eps(g: Graph, f: np.ndarray, p: float, eps: float, emf: np.ndarray,
                   free_mask: np.ndarray, free_idx: np.ndarray, cfg: SolverConfig,
                   iterations: int, rounds: int = 80) -> int:
    """Damped Newton on the eps-regularized energy; mutates f in place."""
    eu, ev, _ = g.edges
    for _ in range(rounds):
        if iterations >= cfg.max_iter:
            break
        delta = f[eu] - f[ev]
        d2e2 = delta * delta + eps * eps
        grad_edge = emf * p * delta * d2e2 ** ((p - 2.0) / 2.0)
        grad = np.zeros(g.n)
        np.add.at(grad, eu, grad_edge)
        np.add.at(grad, ev, -grad_edge)
        gfree = grad[free_idx]
        gnorm = float(np.abs(gfree).max()) if len(gfree) else 0.0
        e0 = _reg_energy(delta, emf, p, eps)
        if gnorm <= 1e-14 * max(1.0, e0):
            break
        hw_newton = emf * p * d2e2 ** ((p - 4.0) / 2.0) * ((p - 1.0) * delta * delta
                                                           + eps * eps)
        if p < 2.0 and gnorm > 1e-2 * (1.0 + e0):
            # far from the optimum the reweighted quadratic majorant
            # (u^(p/2) concave in u = delta^2) guarantees descent; switch to
            # the true Newton model for the quadratic tail
            weight_choices = (emf * p * d2e2 ** ((p - 2.0) / 2.0), hw_newton)
        else:
            weight_choices = (hw_newton,)
        moved = False
        for hw in weight_choices:
            a_ff = _laplacian_blocks(g, hw, free_idx)
            try:
                d = _solve_spd(a_ff, -gfree)
            except NonConvergence:
                d = -gfree / max(hw.max(), 1e-30)
            slope = float(gfree @ d)
            if slope >= 0 or not np.all(np.isfinite(d)):
                d = -gfree
                slope = float(gfree @ d)
            # cap the step so a near-singular model cannot strand the line search
            step_cap = 10.0 * max(1.0, float(np.abs(f).max()))
            dmax = float(np.abs(d).max())
            if dmax > step_cap:
                d *= step_cap / dmax
                slope *= step_cap / dmax
            alpha = 1.0
            for _bt in range(cfg.max_backtracks):
                trial = f.copy()
                trial[free_idx] += alpha * d
                e1 = _reg_energy(trial[eu] - trial[ev], emf, p, eps)
                if e1 <= e0 + cfg.armijo_c1 * alpha * slope:
                    f[:] = trial
                    moved = True
                    break
                alpha *= 0.5
            if moved:
                break
        iterations += 1
        if not moved:
            break
    return iterations


def p_resistance(tg: TerminalGraph, p: float, cfg: Optional[SolverConfig] = None) -> FlowResult:
    """Resistance, capacity and total current of the unit p-potential.

    capacity = E_p(f) for the unit potential f, the total current is the
    outward current through the source's edges, and resistance = 1/capacity.
    The rescaling identity (current-normalized potential has R_p = t^(p-1)
    = E_p^(p-1)) is verified internally.
    """
    pot = solve_potential(tg, p, t=1.0, cfg=cfg)
    g = tg.graph
    capacity = pot.energy
    nb, mu = g.neighbors(tg.source)
    total_current = float(np.sum(mu * signed_power(1.0 - pot.values[nb], p - 1.0)))
    if total_current <= 0:
        raise NonConvergence(pot.iterations, pot.residual, "nonpositive total current")
    rel = abs(capacity - total_current) / max(capacity, 1e-300)
    if rel > 1e-6:
        raise NonConvergence(pot.iterations, pot.residual,
                             f"capacity/current mismatch: {rel:.2e}")
    resistance = 1.0 / capacity
    # Rescale so the current is 1: then R_p = t^(p-1) = E_p(f)^(p-1).
    lam = total_current ** (-1.0 / (p - 1.0))
    t2 = lam * 1.0
    e2 = lam ** p * capacity
    if abs(resistance - t2 ** (p - 1.0)) > 1e-6 * resistance or abs(e2 - t2) > 1e-6 * t2:
        raise NonConvergence(pot.iterations, pot.residual,
                             "current-normalized identity failed")
    return FlowResult(resistance=resistance, capacity=capacity,
                      total_current=total_current, potential=pot)


def pair_resistance(g: Graph, u: int, v: int, p: float,
                    cfg: Optional[SolverConfig] = None) -> FlowResult:
    """R_p between two single vertices of a finite graph."""
    tg = collapse_terminals(g, [u], [v], label=f"pair({u},{v})")
    return p_resistance(tg, p, cfg)


def max_resistance(g: Graph, p: float, transitive: bool = False,
                   pair_cap: int = 200, p2_cap: int = 2000,
                   cfg: Optional[SolverConfig] = None) -> tuple[float, tuple[int, int]]:
    """Maximum p-resistance between two vertices, with an argmax pair.

    With ``transitive`` one endpoint is fixed at vertex 0, which is exact on
    vertex-transitive graphs and halves (here: linearizes) the work.
    """
    if g.n < 2:
        raise BadArguments("graph needs at least two vertices")
    if p == 2.0:
        if g.n > p2_cap:
            raise SizeCapExceeded(f"{g.n} vertices exceeds p=2 cap {p2_cap}")
        lap = np.zeros((g.n, g.n))
        eu, ev, em = g.edges
        for u, v, m in zip(eu, ev, em):
            lap[u, u] += m
            lap[v, v] += m
            lap[u, v] -= m
            lap[v, u] -= m
        lp = np.linalg.pinv(lap, hermitian=True)
        d = np.diag(lp)
        r = d[:, None] + d[None, :] - 2 * lp
        if transitive:
            v = int(np.argmax(r[0, 1:])) + 1
            return float(r[0, v]), (0, v)
        iu = np.triu_indices(g.n, k=1)
        k = int(np.argmax(r[iu]))
        return float(r[iu][k]), (int(iu[0][k]), int(iu[1][k]))
    if g.n > pair_cap:
        raise SizeCapExceeded(f"{g.n} vertices exceeds cap {pair_cap} for p={p}")
    best, best_pair = -1.0, (0, 1)
    pairs = (((0, v) for v in range(1, g.n)) if transitive
             else ((u, v) for u in range(g.n) for v in range(u + 1, g.n)))
    for u, v in pairs:
        r = pair_resistance(g, u, v, p, cfg).resistance
        if r > best + 1e-15:
            best, best_pair = r, (u, v)
    return best, best_pair
