"""Spans and counters recorded around vtres's public layer functions.

Every wrapper is installed from this file, never by editing the package:
it replaces a function at the module attribute its callers look it up by
(``vtres.manifest.build_ball`` for the experiment runners,
``vtres.energy.bfs_layers`` for the solver's connectivity check, ...).
Counts are taken from arguments, return values and exceptions only.

A span is ``[name, start, end, parent]``; spans live in memory until the
repetition ends.  A span's self time is its duration minus the durations
of its direct children (calls are nested, the program is single-threaded).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # hook targets that no longer exist; a traced run with any is wrong
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanned call; record names that are gone."""
        label = f"{owner if isinstance(owner, str) else owner.__name__}.{attr}"
        if isinstance(owner, str):
            try:
                owner = importlib.import_module(owner)
            except ImportError:
                self.missing.append(label)
                return
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(label)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = error = None
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                if count is not None:
                    count(self.counts, args, kwargs, result, error)

        setattr(owner, attr, traced)

    def durations(self) -> tuple[Counter, Counter]:
        """(inclusive, self) seconds summed per span name."""
        total, child = Counter(), Counter()
        for name, t0, t1, parent in self.spans:
            total[name] += t1 - t0
            if parent is not None:
                child[parent] += t1 - t0
        own = Counter()
        for i, (name, t0, t1, _) in enumerate(self.spans):
            own[name] += (t1 - t0) - child[i]
        return total, own


def _arg(args, kwargs, pos: int, key: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _count_ball(counts, args, kwargs, ball, error):
    if ball is not None:
        counts["graphs.build_ball.vertices"] += ball.base.n


def _count_dirichlet(counts, args, kwargs, tg, error):
    if tg is not None:
        counts["graphs.dirichlet_problem.edges"] += int(tg.graph.indptr[-1]) // 2


def _count_cayley(counts, args, kwargs, g, error):
    if g is not None:
        counts["graphs.build_cayley_graph.vertices"] += g.n


def _calls(metric):
    def count(counts, args, kwargs, result, error):
        counts[metric] += 1
    return count


def _count_bfs(counts, args, kwargs, dist, error):
    if dist is not None:
        counts["energy.connectivity_bfs.vertices"] += len(dist)


def _count_p_resistance(direct_limit):
    def count(counts, args, kwargs, flow, error):
        tg, p = _arg(args, kwargs, 0, "tg"), float(_arg(args, kwargs, 1, "p"))
        counts["energy.p_resistance.calls"] += 1
        counts["energy.p_resistance.vertices"] += tg.graph.n
        if error is not None:
            counts["energy.p_resistance.failed"] += 1
        if p == 2.0:
            # the p=2 path picks its linear solver by the free-vertex count
            free = tg.graph.n - 2
            direct = direct_limit is None or free <= direct_limit
            counts["energy.p2.direct_calls" if direct else "energy.p2.cg_calls"] += 1
        elif flow is not None:
            counts["energy.newton.iters"] += flow.potential.iterations
        else:
            counts["energy.newton.iters"] += getattr(error, "iterations", 0) or 0
    return count


def _count_escape(counts, args, kwargs, profile, error):
    if profile:
        counts["walks.escape_profile.trials"] += profile[0].trials


def _count_subsets(counts, args, kwargs, profile, error):
    g, mode = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "mode", "all_sets")
    if profile is not None and mode == "all_sets":
        counts["isoperimetry.exact_profile.subsets"] += 2 ** g.n - 2


def _count_emit(counts, args, kwargs, paths, error):
    if paths:
        counts["manifest.emit.bytes"] += sum(os.path.getsize(p) for p in paths)


class _SolverModule:
    """Stand-in for ``scipy.sparse.linalg`` as seen from ``vtres.energy``.

    Only the energy module's reference is replaced, so SuperLU and CG calls
    made from elsewhere stay unspanned.
    """

    __name__ = "vtres.energy.spla"

    def __init__(self, real):
        self._real = real

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions at the names the runners call them by."""
    import vtres.cli
    import vtres.energy

    m = "vtres.manifest"
    tracer.wrap(vtres.cli, "run", "manifest.run")
    tracer.wrap(m, "emit", "manifest.emit", _count_emit)

    tracer.wrap(m, "build_ball", "graphs.build_ball", _count_ball)
    tracer.wrap(m, "dirichlet_problem", "graphs.dirichlet_problem", _count_dirichlet)
    tracer.wrap(m, "annulus_problem", "graphs.annulus_problem")
    tracer.wrap("vtres.graphs", "spec_offsets", "graphs.spec_offsets",
                _calls("graphs.spec_offsets.calls"))
    tracer.wrap(m, "build_cayley_graph", "graphs.build_cayley_graph", _count_cayley)
    for owner in ("vtres.graphs", "vtres.energy"):
        tracer.wrap(owner, "collapse_terminals", "graphs.collapse_terminals",
                    _calls("graphs.collapse_terminals.calls"))

    tracer.wrap("vtres.energy", "bfs_layers", "energy.connectivity_bfs", _count_bfs)
    for attr in ("DIRECT_SOLVE_LIMIT", "spla"):
        if not hasattr(vtres.energy, attr):
            tracer.missing.append(f"vtres.energy.{attr}")
    count_flow = _count_p_resistance(getattr(vtres.energy, "DIRECT_SOLVE_LIMIT", None))
    for owner in (m, "vtres.energy", "vtres.walks"):
        tracer.wrap(owner, "p_resistance", "energy.p_resistance", count_flow)
    if hasattr(vtres.energy, "spla"):
        solvers = _SolverModule(vtres.energy.spla)
        for attr in ("spsolve", "cg"):
            tracer.wrap(solvers, attr, "energy.linear_solve",
                        _calls("energy.linear_solve.calls"))
        vtres.energy.spla = solvers
    tracer.wrap(m, "max_resistance", "energy.max_resistance")
    tracer.wrap("vtres.energy", "pair_resistance", "energy.pair_resistance",
                _calls("energy.pair_resistance.calls"))

    tracer.wrap(m, "escape_profile", "walks.escape_profile", _count_escape)

    b = "vtres.bounds"
    tracer.wrap(b, "sphere_cutsets", "bounds.sphere_cutsets")
    tracer.wrap(b, "validate_cutsets", "bounds.validate_cutsets")
    tracer.wrap(b, "bfs_layers", "bounds.cutset_bfs")
    tracer.wrap(b, "nash_williams_bound", "bounds.nash_williams_bound")

    for owner in (m, "vtres.isoperimetry"):
        tracer.wrap(owner, "exact_profile", "isoperimetry.exact_profile", _count_subsets)
    tracer.wrap(m, "verify_csc", "isoperimetry.verify_csc")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    total, own = tracer.durations()
    out = {f"{name}.s": seconds for name, seconds in own.items()}
    # "cli" is the span the worker opens around each vtres.cli.main call
    out["manifest.run.s"] = total["manifest.run"]
    out["manifest.self.s"] = own["manifest.run"]
    out["cli.self.s"] = own["cli"]
    out.update(tracer.counts)
    walk_s = own["walks.escape_profile"]
    out["walks.trials_per_s"] = (tracer.counts["walks.escape_profile.trials"] / walk_s
                                 if walk_s > 0 else 0.0)
    return out


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time summed per layer (the span name up to its first dot)."""
    _, own = tracer.durations()
    layers: Counter = Counter()
    for name, seconds in own.items():
        layers[name.split(".")[0]] += seconds
    return dict(layers)
