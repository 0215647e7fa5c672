"""Experiment manifests and the reproduction harness.

A manifest pins one experiment: the graph spec, the parameter record, and
the output destination.  Running it produces a deterministic artifact
directory; every output file embeds the manifest hash and tool version, so
byte-identical manifests yield byte-identical artifacts.

Each experiment is declared once, in ``_EXPERIMENTS`` at the bottom of the
module: its runner, whether it needs a graph spec, and its parameter
schema.  Manifest validation, emission and ``run`` read that entry, and the
CLI builds a subcommand's flags from the same schema.  The four claim
tables (``sandwich``, ``table1``, ``sharpness_nw``, ``var_converse``) are
``_sweep`` declarations: a table name, its columns, a row generator, and
optionally a group key, named fits per group and a per-row check.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bounds as bnd
from .energy import (
    annulus_resistances,
    box_ball_resistance,
    box_ball_separable,
    max_resistance,
    p_resistance,
    sphere_resistances,
)
from .errors import BadArguments, IoError, MissingParam
# annulus_problem is not called here, but stays a name of this module:
# perfbench/tracer.py wraps it, with dirichlet_problem, where the runners
# look them up
from .graphs import (
    DEFAULT_SIZE_CAP,
    BallGraph,
    GraphSpec,
    annulus_problem,
    build_ball,
    build_cayley_graph,
    dirichlet_problem,
    growth_profile,
    orbit_ball,
    spec_cyclic_chords,
    spec_torus,
)
from .isoperimetry import exact_profile, verify_csc, verify_cyclic_edge_iso
from .textspec import (
    document_hash,
    emit_document,
    graphspec_from_doc,
    graphspec_hash,
    graphspec_items,
    parse_document,
)
from .walks import RNG_NAME, check_seed, escape_profile

TOOL_VERSION = "vtres-0.1.0"


@dataclass(frozen=True)
class ExperimentManifest:
    experiment: str
    graph: Optional[GraphSpec]
    params: dict
    out_path: str = "out"
    out_format: str = "csv"

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise BadArguments(f"unknown experiment {self.experiment!r}")
        if self.out_format not in ("csv", "structured-text", "plotdata"):
            raise BadArguments(f"unknown format {self.out_format!r}")
        _, needs_graph, schema = _EXPERIMENTS[self.experiment]
        for key in self.params:
            if key not in schema:
                raise BadArguments(
                    f"parameter {key!r} is not consumed by {self.experiment}")
        for key, (typ, required) in schema.items():
            if key not in self.params:
                if required:
                    raise MissingParam(f"{self.experiment} needs parameter {key!r}")
                continue
            _check_type(key, self.params[key], typ)
        # every p is solved for or bounded at p > 1: refuse the rest before
        # any ball is built
        for p in self.params.get("p", []):
            if not (math.isfinite(p) and p > 1):
                raise BadArguments(f"p must be finite and > 1, got {p!r}")
        # table1's fiber size ceil(n^(1 - eps)) is then at most n
        eps = self.params.get("eps", 0.5)
        if not (math.isfinite(eps) and eps >= 0):
            raise BadArguments(f"eps must be finite and >= 0, got {eps!r}")
        if needs_graph and self.graph is None:
            raise BadArguments(f"{self.experiment} needs a graph spec")


def _check_type(key: str, value, typ: str) -> None:
    kinds = int if typ.startswith("int") else (int, float)
    items = value if typ.endswith("_list") else [value]
    # bool is an int subclass, but true and false are not numbers
    if not (isinstance(items, list)
            and all(isinstance(x, kinds) and not isinstance(x, bool) for x in items)):
        raise BadArguments(f"parameter {key!r} must have type {typ}")


def manifest_items(man: ExperimentManifest) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [("experiment", man.experiment)]
    if man.graph is not None:
        items.extend(graphspec_items(man.graph, prefix="graph."))
    for key in _EXPERIMENTS[man.experiment][2]:
        if key in man.params:
            v = man.params[key]
            items.append((f"params.{key}", list(v) if isinstance(v, list) else v))
    items.append(("output.path", man.out_path))
    items.append(("output.format", man.out_format))
    return items


def emit_manifest(man: ExperimentManifest) -> str:
    return emit_document(manifest_items(man))


def parse_manifest(text: str) -> ExperimentManifest:
    doc = parse_document(text)
    if "experiment" not in doc:
        raise BadArguments("manifest needs an experiment key")
    experiment = str(doc.pop("experiment"))
    graph_doc = {k: doc.pop(k) for k in list(doc) if k.startswith("graph.")}
    graph = graphspec_from_doc(graph_doc, prefix="graph.") if graph_doc else None
    params = {k[len("params."):]: doc.pop(k) for k in list(doc) if k.startswith("params.")}
    out_path = str(doc.pop("output.path", "out"))
    out_format = str(doc.pop("output.format", "csv"))
    if doc:
        raise BadArguments(f"unknown manifest keys: {sorted(doc)}")
    return ExperimentManifest(experiment=experiment, graph=graph, params=params,
                              out_path=out_path, out_format=out_format)


def manifest_hash(man: ExperimentManifest) -> str:
    return document_hash(emit_manifest(man))


# ---------------------------------------------------------------------------
# Result tables and emission
# ---------------------------------------------------------------------------

@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, tuple):
        return "-".join(str(int(x)) for x in v)
    return str(v)


def _header_lines(man_hash: str) -> list[str]:
    return [f"# manifest_hash = {man_hash}", f"# tool_version = {TOOL_VERSION}"]


def emit(results: list[Table], out_format: str, out_dir: str, man_hash: str) -> list[str]:
    """Write result tables as csv, structured-text, or plotdata files."""
    if not results:
        raise IoError("results are empty")
    ext = {"csv": "csv", "structured-text": "txt", "plotdata": "dat"}[out_format]
    paths = []
    os.makedirs(out_dir, exist_ok=True)
    for table in results:
        lines = _header_lines(man_hash)
        lines += [f"# {k} = {_fmt_cell(v)}" for k, v in sorted(table.meta.items())]
        if out_format == "csv":
            lines.append(",".join(table.columns))
            lines += [",".join(_fmt_cell(v) for v in row) for row in table.rows]
        elif out_format == "structured-text":
            lines.append(f"table = {table.name}")
            lines.append("columns = [" + ", ".join(table.columns) + "]")
            lines += ["row = [" + ", ".join(_fmt_cell(v) for v in row) + "]"
                      for row in table.rows]
        else:  # plotdata: first column is x, one series per remaining column
            for j, col in enumerate(table.columns[1:], start=1):
                lines.append(f"# series: {col}")
                lines += [f"{_fmt_cell(row[0])} {_fmt_cell(row[j])}"
                          for row in table.rows]
                lines.append("")
        path = os.path.join(out_dir, f"{table.name}.{ext}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines).rstrip("\n") + "\n")
        paths.append(path)
    return paths


def _report_table(name: str, reports: list[bnd.BoundReport],
                  param_keys: tuple[str, ...]) -> Table:
    cols = ["quantity", *param_keys, "computed", "bound", "side", "ratio", "status"]
    rows = []
    for r in reports:
        rows.append((r.quantity, *(_fmt_cell(r.params.get(k, "")) for k in param_keys),
                     r.computed, r.bound, r.side, r.ratio, r.status))
    return Table(name=name, columns=cols, rows=rows)


class RunResult(NamedTuple):
    exit_code: int
    files: list[str]
    reports: list
    metrics: dict


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

def flow_items(flow) -> list[tuple[str, object]]:
    """Flat structured-text record of a FlowResult and its potential."""
    pot = flow.potential
    items: list[tuple[str, object]] = [
        ("p", float(pot.p)),
        ("source_value", float(pot.source_value)),
        ("resistance", float(flow.resistance)),
        ("capacity", float(flow.capacity)),
        ("total_current", float(flow.total_current)),
        ("energy", float(pot.energy)),
        ("residual", float(pot.residual)),
        ("source", int(pot.problem.source)),
        ("ground", int(pot.problem.ground)),
    ]
    items += [(f"values.v{i}", float(v)) for i, v in enumerate(pot.values)]
    return items


def _sphere_resistances(spec: GraphSpec, rs: list[int], p: float,
                        ball: Callable[[], BallGraph], size_cap: int):
    """beta(r) and R_p(x <-> S(x, r+1)) for each r of ``rs``, in order.

    At p=2, for each r that ``box_ball_separable`` accepts on the spec,
    both come from the spec and r alone: beta from the box formula, R_2
    from the mode sum.  Otherwise ``ball()`` gives an ``orbit_ball`` of
    radius above r, which sums beta from its orbit sizes and has the full
    ball's R_p: at p=2 every such r of ``rs`` comes from one
    ``sphere_resistances`` pass, at other p each from its own solve.
    """
    axes = [box_ball_separable(spec, r) if p == 2.0 else None for r in rs]
    on_ball = None
    for r, ax in zip(rs, axes):
        if ax:
            yield ax.beta, box_ball_resistance(spec.offsets, spec.factors, r, ax, size_cap)
            continue
        b = ball()
        if p != 2.0:
            yield b.beta(r), p_resistance(dirichlet_problem(b, r), p).resistance
            continue
        if on_ball is None:
            on_ball = sphere_resistances(b, [r for r, ax in zip(rs, axes) if not ax], size_cap)
        yield b.beta(r), next(on_ball)


def _run_resistance(man: ExperimentManifest, size_cap: int):
    spec = man.graph
    ps = [float(p) for p in man.params["p"]]
    extra_docs: list[tuple[str, str]] = []
    dump = bool(man.params.get("dump_potential", 0))
    if "r" in man.params:
        rs = sorted(set(int(r) for r in man.params["r"]))
        if not rs or rs[0] < 0:
            raise BadArguments("resistance radii must be a nonempty list of r >= 0")
        if dump:  # each dump is named by its p's key
            _check_p_keys(ps)
        # built on first use: only p != 2, a spec that is not separable, or a
        # potential dump needs it, and only a dump the full ball
        builder = build_ball if dump else orbit_ball
        ball = functools.cache(lambda: builder(spec, rs[-1] + 1, size_cap))
        rows = []
        for p in ps:
            if not dump:
                rows += [(p, r, *row) for r, row in
                         zip(rs, _sphere_resistances(spec, rs, p, ball, size_cap))]
                continue
            for r in rs:
                flow = p_resistance(dirichlet_problem(ball(), r), p)
                rows.append((p, r, ball().beta(r), flow.resistance))
                extra_docs.append((f"potential_{_p_key(p)}_r{r}",
                                   emit_document(flow_items(flow))))
        table = Table("resistance", ["p", "r", "beta_r", "resistance"], rows)
    else:
        g = build_cayley_graph(spec, size_cap)
        rows = []
        for p in ps:
            value, (u, v) = max_resistance(g, p)
            rows.append((p, value, u, v))
        table = Table("resistance", ["p", "max_resistance", "argmax_u", "argmax_v"], rows)
    return [table], [], {}, extra_docs


def _run_escape(man: ExperimentManifest, size_cap: int):
    spec = man.graph
    rs = sorted(set(int(r) for r in man.params["r"]))
    if rs[0] < 1:
        raise BadArguments("escape radii must be >= 1")
    trials = int(man.params["trials"])
    seed = int(man.params["seed"])
    check_seed(seed)
    ball = build_ball(spec, max(rs), size_cap)
    prof = escape_profile(ball, max(rs), trials, seed)
    spec_hash = graphspec_hash(spec)
    rows = [(spec_hash, r, prof[r - 1].trials, prof[r - 1].p_hat,
             prof[r - 1].stderr, seed) for r in rs]
    table = Table("escape", ["spec_hash", "r", "trials", "p_hat", "stderr", "seed"],
                  rows, meta={"rng": RNG_NAME})
    return [table], [], {}, []


def _run_growth(man: ExperimentManifest, size_cap: int):
    spec = man.graph
    if spec.radius is None:
        raise BadArguments("growth experiment needs graph.radius")
    gp = growth_profile(orbit_ball(spec, spec.radius, size_cap))
    rows = [(r, gp.beta[r], gp.sigma[r]) for r in range(gp.radius + 1)]
    meta = {"degree": gp.degree,
            "diameter": gp.diameter if gp.diameter is not None else "none"}
    return [Table("growth", ["r", "beta", "sigma"], rows, meta)], [], {}, []


def _run_isoperimetry(man: ExperimentManifest, size_cap: int):
    spec = man.graph
    g = build_cayley_graph(spec, size_cap)
    max_n = int(man.params.get("max_n", 14))
    profile = exact_profile(g, max_n=max_n)
    rows = []
    for size, entry in profile.by_size.items():
        mask = sum(1 << v for v in entry.witness)
        rows.append((size, entry.min_vertex, entry.min_edge, f"{mask:x}"))
    tables = [Table("profile", ["size", "min_vertex_boundary", "min_edge_boundary",
                                "witness_mask"], rows)]
    reports = verify_csc(g, profile)
    # the chord lemma applies only when the generators are exactly one
    # chord set, not a chord atom among others
    n = spec.factors[0]
    k = next((a[1] for a in spec.generators if a[0] == "chords"), None)
    if (k is not None and 1 <= k < n / 2
            and g.offsets == spec_cyclic_chords(n, k).offsets):
        reports.append(verify_cyclic_edge_iso(profile, n, k))
    tables.append(_report_table("csc", reports, ("size", "n", "k")))
    return tables, reports, {}, []


def _sweep(name: str, columns: tuple[str, ...], group: Optional[Callable] = None,
           fits: tuple = (), check: Optional[Callable] = None):
    """Declare a claim table; the decorated ``rows(man, size_cap)`` becomes its runner.

    ``rows`` yields one tuple per row in ``columns`` order, and refuses a bad
    grid before the first ball.  ``group(*row)`` is a row's group key.  Each
    (name, fit) in ``fits`` maps one group's columns (name -> values) to the
    metric ``{group}.{name}`` (``{name}`` with no group) or to None.
    ``check(*row)``, if given, makes the row's BoundReport.
    """
    def declare(rows: Callable) -> Callable:
        def runner(man: ExperimentManifest, size_cap: int):
            table = Table(name, list(columns), list(rows(man, size_cap)))
            groups: dict = {}
            for row in table.rows:
                groups.setdefault(group(*row) if group else "", []).append(row)
            metrics = {}
            for key, grp in groups.items():
                cols = dict(zip(columns, zip(*grp)))
                for fit, fn in fits:
                    if (value := fn(cols)) is not None:
                        metrics[f"{key}.{fit}" if key else fit] = value
            reports = [check(*row) for row in table.rows] if check else []
            return [table], reports, metrics, []
        return runner
    return declare


def _spread(values) -> Optional[float]:
    return max(values) / min(values) if values else None


def _slope_on_log_r(rs, values) -> Optional[float]:
    """Least-squares slope of log value against log log r; None unless two or more r, all >= 2."""
    if len(rs) < 2 or rs[0] < 2:
        return None
    return bnd.loglog_slope([math.log(r) for r in rs], values)


def _p_key(p: float, *_) -> str:
    return "p" + f"{p:g}".replace(".", "_")


def _check_p_keys(ps) -> None:
    """Refuse two distinct p of ``ps`` that share a ``_p_key``."""
    keys: dict = {}
    for p in map(float, ps):
        if (first := keys.setdefault(_p_key(p), p)) != p:
            raise BadArguments(f"p = {first!r} and p = {p!r} share the metric key {_p_key(p)}")


@_sweep("sandwich", ("p", "r", "beta_r", "lower_rhs", "computed", "upper_rhs",
                     "lower_over_computed", "computed_over_upper"),
        group=_p_key,
        fits=(("log_regime_spread", lambda c: _spread(
                  [v / math.log(r) for r, v in zip(c["r"], c["computed"]) if r >= 2])),
              ("slope_computed", lambda c: _slope_on_log_r(c["r"], c["computed"])),
              ("slope_upper", lambda c: _slope_on_log_r(c["r"], c["upper_rhs"])),
              ("max_lower_over_computed", lambda c: max(c["lower_over_computed"])),
              ("max_computed_over_upper", lambda c: max(c["computed_over_upper"]))))
def _run_sandwich(man: ExperimentManifest, size_cap: int):
    spec = man.graph
    r_min, r_max = int(man.params["r_min"]), int(man.params["r_max"])
    if not 1 <= r_min <= r_max:
        raise BadArguments("need 1 <= r_min <= r_max")
    _check_p_keys(man.params["p"])  # each p's metrics are keyed by _p_key
    ball = functools.cache(lambda: orbit_ball(spec, r_max + 1, size_cap))
    deg = spec.ambient_degree()
    for p in map(float, man.params["p"]):
        lower_thm, upper_thm = (("T1_8_lower", "T1_8_upper") if p == 2.0 else (
            "T1_10_lower", "T1_10_upper_int" if p == int(p) else "T1_10_upper_nonint"))
        rs = list(range(r_min, r_max + 1))
        for r, (beta_r, computed) in zip(rs, _sphere_resistances(spec, rs, p, ball, size_cap)):
            base = {"p": p, "r": r, "beta_r": beta_r, "deg": deg}
            lower, upper = bnd.theorem_rhs(lower_thm, base), bnd.theorem_rhs(upper_thm, base)
            yield p, r, beta_r, lower, computed, upper, lower / computed, computed / upper


def _torus_with_fiber(d: int, n: int, k: int) -> GraphSpec:
    return spec_torus(*[n] * d) if k == 1 else spec_torus(*[n] * d, k, full_last=True)


def _even_tori(experiment: str, grid):
    """The torus of each (d, n, k) in ``grid``, refusing an odd n first."""
    for d, n, k in grid:
        if n % 2:
            raise BadArguments(f"{experiment} needs even n")
        yield _torus_with_fiber(d, n, k)


@_sweep("table1", ("p", "d", "k", "n", "deg", "nw_bound", "exact", "nw_over_exact",
                   "regime", "regime_value", "nw_over_regime"),
        group=lambda p, d, *_: f"d{d}",
        fits=(("regime_spread", lambda c: _spread(c["nw_over_regime"])),),
        check=lambda p, d, k, n, deg, nw, exact, *_: bnd.make_report(
            "nash_williams_vs_exact", computed=exact, bound=nw, side="lower",
            params={"p": p, "d": d, "k": k, "n": n}))
def _run_table1(man: ExperimentManifest, size_cap: int):
    p = 2.0
    eps = float(man.params.get("eps", 0.5))
    grid = [(d, int(n), 1) for d, key in ((2, "n2"), (3, "n3"))
            for n in man.params.get(key, [])]
    grid += [(1, int(n), max(2, math.ceil(int(n) ** (1.0 - eps))))
             for n in man.params.get("nlin", [])]
    if not grid:
        raise BadArguments("table1 needs a nonempty list n2, n3 or nlin")
    for (d, n, k), spec in zip(grid, list(_even_tori("table1", grid))):
        half = n // 2
        ball = orbit_ball(spec, half, size_cap)
        nw = bnd.nash_williams_bound(bnd.sphere_cutsets(ball, half), p)
        (_, exact), = _sphere_resistances(spec, [half - 1], p, lambda: ball, size_cap)
        regime, regime_value = (("log_n", math.log(n)) if d == int(p) else
                                ("const", 1.0) if d > p else ("poly", n ** (p - d) / k))
        yield (p, d, k, n, spec.ambient_degree(), nw, exact, nw / exact,
               regime, regime_value, nw / regime_value)


@_sweep("sharpness_nw", ("p", "d", "k", "n", "nw_measured", "nw_formula",
                         "measured_over_formula"))
def _run_sharpness_nw(man: ExperimentManifest, size_cap: int):
    k = int(man.params.get("k", 1))
    grid = [(int(d), int(n)) for d in man.params["d"] for n in man.params["n"]]
    specs = dict(zip(grid, _even_tori("sharpness_nw", [(d, n, k) for d, n in grid])))
    # one ball and cutset family per (d, n), for every p
    cutsets = functools.cache(lambda d, n: bnd.sphere_cutsets(
        orbit_ball(specs[d, n], n // 2, size_cap), n // 2))
    for p in map(float, man.params["p"]):
        for d, n in grid:
            measured = bnd.nash_williams_bound(cutsets(d, n), p)
            exponent = (1.0 - d) / (p - 1.0)
            formula = (1.0 / k) * sum(i ** exponent for i in range(1, n // 2 + 1)) ** (p - 1.0)
            yield p, d, k, n, measured, formula, measured / formula


@_sweep("var_converse", ("n", "r", "beta_n", "computed", "rhs", "computed_over_rhs",
                         "computed_over_log"),
        fits=(("log_regime_spread", lambda c: _spread(c["computed_over_log"])),))
def _run_var_converse(man: ExperimentManifest, size_cap: int):
    spec = man.graph
    n = int(man.params["n"])
    rs = sorted(set(int(r) for r in man.params["r"]))
    if rs[0] <= n:
        raise BadArguments("need every r > n")
    if n < 1:
        raise BadArguments("need 0 < n < r")
    ball = orbit_ball(spec, max(rs), size_cap)
    deg = spec.ambient_degree()
    beta_n = ball.beta(n)
    for r, computed in zip(rs, annulus_resistances(ball, n, rs, size_cap)):
        rhs = bnd.theorem_rhs("T_var_converse",
                              {"n": n, "r": r, "beta_n": beta_n, "deg": deg})
        yield n, r, beta_n, computed, rhs, computed / rhs, computed / math.log(r / n)


def run(man: ExperimentManifest, base_dir: Optional[str] = None,
        size_cap: int = DEFAULT_SIZE_CAP) -> RunResult:
    """Execute a manifest and write its artifact directory.

    Exit code 0 means every contained report PASSed and every solve
    converged; 1 means some report FAILed.  Validation and convergence
    errors raise and are turned into exit code 2 by the CLI.
    """
    # hashing validates the manifest's values, so a bad one fails before the run
    man_hash = manifest_hash(man)
    # and a sweep whose table would have no rows fails before any ball is built
    runner, _, schema = _EXPERIMENTS[man.experiment]
    for key, (typ, required) in schema.items():
        if required and typ.endswith("_list") and not man.params[key]:
            raise BadArguments(f"{man.experiment} needs a nonempty list {key!r}")
    tables, reports, metrics, extra_docs = runner(man, size_cap)
    out_dir = os.path.join(base_dir, man.out_path) if base_dir else man.out_path
    files = emit(tables, man.out_format, out_dir, man_hash)
    for name, body in extra_docs:
        path = os.path.join(out_dir, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(_header_lines(man_hash)) + "\n" + body)
        files.append(path)

    failed = [r for r in reports if r.status == "FAIL"]
    summary_items: list[tuple[str, object]] = [
        ("experiment", man.experiment),
        ("status", "FAIL" if failed else "PASS"),
        ("checks.total", len(reports)),
        ("checks.failed", len(failed)),
    ]
    for key in sorted(metrics):
        summary_items.append((f"metrics.{key}", metrics[key]))
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w") as fh:
        fh.write("\n".join(_header_lines(man_hash)) + "\n")
        fh.write(emit_document(summary_items))
    files.append(summary_path)
    return RunResult(exit_code=1 if failed else 0, files=files,
                     reports=reports, metrics=metrics)


# experiment -> (runner, needs a graph spec, {param: (type, required)}).  A
# runner returns (tables, reports, metrics, extra documents); params not in
# the schema are rejected, and a manifest lists them in schema order.
_EXPERIMENTS: dict[str, tuple[Callable, bool, dict[str, tuple[str, bool]]]] = {
    "resistance": (_run_resistance, True,
                   {"p": ("float_list", True), "r": ("int_list", False),
                    "dump_potential": ("int", False)}),
    "escape": (_run_escape, True,
               {"r": ("int_list", True), "trials": ("int", True), "seed": ("int", True)}),
    "growth": (_run_growth, True, {}),
    "isoperimetry": (_run_isoperimetry, True, {"max_n": ("int", False)}),
    "sandwich": (_run_sandwich, True,
                 {"p": ("float_list", True), "r_min": ("int", True), "r_max": ("int", True)}),
    "table1": (_run_table1, False,
               {"n2": ("int_list", False), "n3": ("int_list", False),
                "nlin": ("int_list", False), "eps": ("float", False)}),
    "sharpness_nw": (_run_sharpness_nw, False,
                     {"p": ("float_list", True), "n": ("int_list", True),
                      "d": ("int_list", True), "k": ("int", False)}),
    "var_converse": (_run_var_converse, True, {"r": ("int_list", True), "n": ("int", True)}),
}
