"""The benchmark's workloads: vtres CLI op lists, oracles and output checks.

Each workload is a fixed list of ``vtres`` invocations.  The workload seed
reaches the program only as the global ``--seed`` flag, which the Monte
Carlo walks consume and the deterministic experiments ignore.

Oracles are computed in the benchmark's own process before any
repetition is timed.  A check returns a list of problems; an empty list
means the op's outputs are correct.
"""

from __future__ import annotations

import csv
import itertools
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

Z2 = ("--family", "explicit", "--factors", "inf,inf", "--generators", "box")
Z3 = ("--family", "explicit", "--factors", "inf,inf,inf", "--generators", "box")

# (p, r) of the newton-z2 ops; p=1.1 and p=1.2 at r=20 end in NonConvergence
# at the commit that introduced the benchmark, which fail_ratio reports
NEWTON_CASES = [(p, r) for p in ("1.1", "1.2", "1.5", "3") for r in (10, 20)] + [("3", 40)]
ESCAPE_R_MAX = 16
ESCAPE_TRIALS = 1_000_000
TORUS_SIDE = 44


def ops(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv) per op; the name also names the op's output directory."""
    s = ["--seed", str(seed)]
    if workload == "ball-p2":
        return [
            ("verify", ["verify", *Z3, "--p", "2", "--r-max", "16", *s]),
            ("var-converse", ["repro", "var-converse", "--family", "z_times_torus",
                              "--factors", "inf,5,5", "--generators", "box", "--n", "8",
                              "--r", "16,32,64", *s]),
        ]
    if workload == "newton-z2":
        return [(f"p{p}-r{r}", ["resist", *Z2, "--p", p, "--r", str(r), *s])
                for p, r in NEWTON_CASES]
    if workload == "escape-mc":
        return [("escape", ["escape", *Z2, "--r", f"1:{ESCAPE_R_MAX}",
                            "--trials", str(ESCAPE_TRIALS), *s])]
    if workload == "finite-graphs":
        torus = ("--family", "torus_product", "--generators", "box")
        return [
            ("torus44-p2", ["resist", *torus, "--factors", f"{TORUS_SIDE},{TORUS_SIDE}",
                            "--p", "2", *s]),
            ("torus10-p3", ["resist", *torus, "--factors", "10,10", "--p", "3", *s]),
            ("sharpness", ["repro", "sharpness", "--p", "2,3", "--d", "2,3",
                           "--n", "8,12,16", *s]),
            ("table1", ["repro", "table1", *s]),
            ("iso", ["iso", "--family", "cyclic_chords", "--factors", "14",
                     "--generators", "chords:3", *s]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _z2_ball(radius: int):
    from vtres.graphs import build_ball, spec_lattice
    return build_ball(spec_lattice(2), radius)


def _nash_williams(cases) -> dict[tuple[str, int], float]:
    """Cutset lower bound for R_p(x <-> S(x, r+1)), the quantity `resist` reports."""
    from vtres.bounds import nash_williams_bound, sphere_cutsets
    out = {}
    for r in sorted({r for _, r in cases}):
        family = sphere_cutsets(_z2_ball(r + 1), r + 1)
        for i, p in enumerate(sorted({p for p, rr in cases if rr == r})):
            out[p, r] = nash_williams_bound(family, float(p), validate=i == 0)
    return out


def _escape_exact() -> list[float]:
    from vtres.walks import escape_via_resistance
    ball = _z2_ball(ESCAPE_R_MAX)
    return [escape_via_resistance(ball, r) for r in range(1, ESCAPE_R_MAX + 1)]


def fourier_resistance(moduli: tuple[int, ...]):
    """R_2(0, v) for every v of the box-generated torus, from its spectrum.

    The Laplacian's eigenvalues are lambda(k) = sum_s (1 - cos 2 pi k.s/n);
    with G = ifftn(1/lambda) (the k=0 term dropped), R_2(0, v) = 2(G(0) - G(v)).
    """
    import numpy as np
    d = len(moduli)
    offsets = [s for s in itertools.product((-1, 0, 1), repeat=d) if any(s)]
    k = np.meshgrid(*[np.arange(n) for n in moduli], indexing="ij")
    lam = sum(1.0 - np.cos(2 * np.pi * sum(ki * si / n for ki, si, n in zip(k, s, moduli)))
              for s in offsets)
    inv = np.zeros_like(lam)
    inv[lam > 1e-12] = 1.0 / lam[lam > 1e-12]
    g = np.fft.ifftn(inv).real
    return 2.0 * (g.flat[0] - g)


def oracles(workload: str) -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        out = {"expected": json.load(fh).get(workload, {})}
    if workload == "newton-z2":
        out["nash_williams"] = _nash_williams(NEWTON_CASES)
    elif workload == "escape-mc":
        out["escape_exact"] = _escape_exact()
    elif workload == "finite-graphs":
        out["torus44"] = fourier_resistance((TORUS_SIDE, TORUS_SIDE))
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def read_table(path: str) -> list[dict[str, str]]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare(rows, keys, cols, expected: dict, rtol: float) -> list[str]:
    """Match table rows keyed by ``keys`` against recorded ``cols`` values."""
    got = {",".join(row[k] for k in keys): [float(row[c]) for c in cols] for row in rows}
    if sorted(got) != sorted(expected):
        return [f"rows {sorted(got)} differ from expected {sorted(expected)}"]
    return [f"{key} {c} = {h!r}, expected {w!r}"
            for key, want in expected.items()
            for c, h, w in zip(cols, got[key], want) if not _close(h, w, rtol)]


def _typed_error(stderr: str) -> str | None:
    """The VtresError subclass named on the CLI's ``error.type`` line, if any."""
    import vtres.errors
    for line in stderr.splitlines():
        if line.startswith("error.type = "):
            name = line.split(" = ", 1)[1].strip()
            cls = getattr(vtres.errors, name, None)
            if isinstance(cls, type) and issubclass(cls, vtres.errors.VtresError):
                return name
    return None


def check(workload: str, name: str, outcome: dict, oracle: dict, seed: int) -> list[str]:
    """Problems with one op's outcome; ``outcome`` holds rc, stderr, crash, out."""
    try:
        return _problems(workload, name, outcome, oracle, seed)
    except (OSError, KeyError, ValueError) as exc:
        # a missing table, column or row is a wrong output, not a benchmark error
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _problems(workload, name, outcome, oracle, seed) -> list[str]:
    if outcome["crash"]:
        return [f"crashed: {outcome['crash']}"]
    expected = oracle["expected"]
    if workload == "newton-z2":
        return _check_newton(name, outcome, oracle, expected)
    if outcome["rc"] != 0:
        return [f"exit code {outcome['rc']}: {outcome['stderr'].strip()}"]
    out = outcome["out"]
    if workload == "ball-p2":
        if name == "verify":
            rows = read_table(os.path.join(out, "sandwich.csv"))
            problems = [f"r={row['r']}: computed outside [lower_rhs, upper_rhs]"
                        for row in rows
                        if not float(row["lower_rhs"]) <= float(row["computed"])
                        <= float(row["upper_rhs"])]
            return problems + compare(rows, ("p", "r"), ("computed",), expected[name], 1e-9)
        # past radius 2 a sphere of Z x C5 x C5 is two 25-vertex slices, and
        # consecutive slices are joined by 225 edges: two parallel chains of
        # r-8 bundles, so R_2(S(8) <-> S(r)) = (r-8)/450 exactly
        rows = read_table(os.path.join(out, "var_converse.csv"))
        want = {row["r"]: [(int(row["r"]) - 8) / 450] for row in rows}
        return compare(rows, ("r",), ("computed",), want, 1e-9) + (
            [] if sorted(int(row["r"]) for row in rows) == [16, 32, 64]
            else ["var-converse rows are not r=16,32,64"])
    if workload == "escape-mc":
        rows = read_table(os.path.join(out, "escape.csv"))
        exact = oracle["escape_exact"]
        if [int(row["r"]) for row in rows] != list(range(1, ESCAPE_R_MAX + 1)):
            return ["escape rows are not r=1..16"]
        problems = []
        for row, want in zip(rows, exact):
            p_hat, se = float(row["p_hat"]), float(row["stderr"])
            if int(row["trials"]) != ESCAPE_TRIALS or int(row["seed"]) != seed:
                problems.append(f"r={row['r']}: trials or seed not as requested")
            if abs(p_hat - want) > 5 * se + 1e-9:
                problems.append(f"r={row['r']}: p_hat {p_hat} is more than 5 stderr "
                                f"({se}) from {want}")
        return problems
    if workload == "finite-graphs":
        return _check_finite(name, out, oracle, expected)
    raise ValueError(f"unknown workload {workload!r}")


def _check_newton(name, outcome, oracle, expected) -> list[str]:
    # an op that converged at the recorded commit must converge to the same
    # value; one that failed there may fail again, but only with a typed error
    want = expected[name]
    if outcome["rc"] != 0:
        if want is not None:
            return [f"exit code {outcome['rc']}, expected convergence: "
                    f"{outcome['stderr'].strip()}"]
        if outcome["rc"] != 2 or _typed_error(outcome["stderr"]) is None:
            return [f"failed without a typed VtresError: {outcome['stderr'].strip()}"]
        return []
    (row,) = read_table(os.path.join(outcome["out"], "resistance.csv"))
    value = float(row["resistance"])
    p, r = name[1:].split("-r")
    lower = oracle["nash_williams"][p, int(r)]
    problems = [] if value >= lower * (1 - 1e-12) else [
        f"R_p {value} is below the Nash-Williams bound {lower}"]
    if want is not None and not _close(value, want, 1e-8):
        problems.append(f"R_p {value!r}, expected {want!r}")
    return problems


def _check_finite(name, out, oracle, expected) -> list[str]:
    if name == "torus44-p2":
        (row,) = read_table(os.path.join(out, "resistance.csv"))
        value, v = float(row["max_resistance"]), int(row["argmax_v"])
        fourier = oracle["torus44"]
        problems = []
        if not _close(value, float(fourier.max()), 1e-9):
            problems.append(f"max R_2 {value!r}, Fourier maximum {float(fourier.max())!r}")
        if int(row["argmax_u"]) != 0 or not _close(value, float(fourier.flat[v]), 1e-9):
            problems.append(f"argmax ({row['argmax_u']}, {v}) does not attain the maximum")
        return problems
    if name == "torus10-p3":
        return compare(read_table(os.path.join(out, "resistance.csv")), ("p",),
                       ("max_resistance", "argmax_u", "argmax_v"), expected[name], 1e-8)
    if name == "sharpness":
        return compare(read_table(os.path.join(out, "sharpness_nw.csv")),
                       ("p", "d", "k", "n"), ("nw_measured", "nw_formula"),
                       expected[name], 1e-9)
    if name == "table1":
        return compare(read_table(os.path.join(out, "table1.csv")), ("d", "k", "n"),
                       ("nw_bound", "exact"), expected[name], 1e-9)
    if name == "iso":
        return compare(read_table(os.path.join(out, "profile.csv")), ("size",),
                       ("min_vertex_boundary", "min_edge_boundary"), expected[name], 0.0)
    raise ValueError(f"unknown op {name!r}")
