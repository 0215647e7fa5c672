"""Command-line entry point.

Subcommands build an experiment manifest from flags and run it, so every
invocation corresponds to a manifest file that reproduces it; with
``--emit-manifest`` that file is printed instead of running.  ``run``
executes a manifest file directly.

Global flags: --seed, --out, --format, --size-cap.  Environment variables
with the VTRES_ prefix (VTRES_SEED, VTRES_OUT, VTRES_FORMAT, VTRES_SIZE_CAP)
supply defaults for the matching flags.

Errors go to stderr as ``error.type`` and ``error.message`` lines.  A
NonConvergence adds ``error.iterations`` and, for a general-p Newton solve,
``error.stage_iterations``: one ``stage:steps:rejected`` entry per eps
stage run (named by its eps), where ``rejected`` counts the trial steps
the stage turned down.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import BadArguments, MissingParam, NonConvergence, VtresError
from .graphs import DEFAULT_SIZE_CAP, GraphSpec
from .manifest import ExperimentManifest, emit_manifest, parse_manifest, run
from .textspec import generators_from_value, parse_graphspec

ENV_PREFIX = "VTRES_"


def _env_default(name: str, fallback):
    var = ENV_PREFIX + name.upper().replace("-", "_")
    raw = os.environ.get(var)
    if raw is None:
        return fallback
    if isinstance(fallback, int):
        try:
            return int(raw)
        except ValueError:
            raise BadArguments(f"{var} must be an integer, got {raw!r}") from None
    return raw


def _parse_int_list(text: str) -> list[int]:
    out: list[int] = []
    try:
        for part in text.split(","):
            a, colon, b = part.partition(":")
            out.extend(range(int(a), int(b if colon else a) + 1))
    except ValueError:
        raise BadArguments(f"expected integers or a:b ranges, got {text!r}") from None
    return out


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise BadArguments(f"expected a comma list of numbers, got {text!r}") from None


def _spec_from_args(args) -> GraphSpec:
    if args.spec:
        with open(args.spec) as fh:
            return parse_graphspec(fh.read())
    if not (args.family and args.factors and args.generators):
        raise MissingParam("give --spec FILE or all of --family/--factors/--generators")
    try:
        factors = tuple(None if f.strip() == "inf" else int(f)
                        for f in args.factors.split(","))
    except ValueError:
        raise BadArguments(f"expected moduli or 'inf', got {args.factors!r}") from None
    gens = generators_from_value(args.generators, len(factors))
    return GraphSpec(family=args.family, factors=factors, generators=gens,
                     radius=args.radius)


def _add_spec_flags(sub):
    sub.add_argument("--spec", help="graph spec file")
    sub.add_argument("--family", choices=("torus_product", "cyclic_chords",
                                          "z_times_torus", "explicit"))
    sub.add_argument("--factors", help="comma list of moduli, 'inf' for a Z factor")
    sub.add_argument("--generators",
                     help="'+'-joined atoms: box, box:i-j, full:i, chords:k")
    sub.add_argument("--radius", type=int, default=None)


_GLOBAL_DEFAULTS = {
    "seed": ("seed", 0),
    "out": ("out", "out"),
    "format": ("format", "csv"),
    "size_cap": ("size_cap", DEFAULT_SIZE_CAP),
    "emit_manifest": (None, False),
}


def _global_flags() -> argparse.ArgumentParser:
    # defaults are SUPPRESSed so a subcommand-position flag does not get
    # clobbered when the subparser runs; real defaults are filled afterwards
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.add_argument("--format", default=argparse.SUPPRESS,
                   choices=("csv", "structured-text", "plotdata"))
    p.add_argument("--size-cap", type=int, default=argparse.SUPPRESS)
    p.add_argument("--emit-manifest", action="store_true", default=argparse.SUPPRESS,
                   help="print the manifest instead of running it")
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    ap = argparse.ArgumentParser(prog="vtres", parents=[common])
    sp = ap.add_subparsers(dest="command", required=True)

    b = sp.add_parser("build", parents=[common],
                      help="construct a graph or ball and report growth")
    _add_spec_flags(b)

    r = sp.add_parser("resist", parents=[common],
                      help="p-resistances of balls or finite graphs")
    _add_spec_flags(r)
    r.add_argument("--p", required=True, help="comma list of exponents")
    r.add_argument("--r", help="comma list or a:b range of radii (ball mode)")

    e = sp.add_parser("escape", parents=[common],
                      help="Monte Carlo escape probabilities")
    _add_spec_flags(e)
    e.add_argument("--r", required=True)
    e.add_argument("--trials", type=int, default=100_000)

    g = sp.add_parser("growth", parents=[common],
                      help="ball and sphere growth sequences")
    _add_spec_flags(g)

    i = sp.add_parser("iso", parents=[common],
                      help="exact isoperimetric profile and checks")
    _add_spec_flags(i)
    i.add_argument("--max-n", type=int, default=14)

    v = sp.add_parser("verify", parents=[common],
                      help="sandwich bound sweep on a ball family")
    _add_spec_flags(v)
    v.add_argument("--p", default="2")
    v.add_argument("--r-min", type=int, default=2)
    v.add_argument("--r-max", type=int, required=True)

    rp = sp.add_parser("repro", help="reproduce the sharpness-example computations")
    rsub = rp.add_subparsers(dest="repro_kind", required=True)
    t1 = rsub.add_parser("table1", parents=[common])
    t1.add_argument("--n2", default="8,12,16")
    t1.add_argument("--n3", default="6,8")
    t1.add_argument("--nlin", default="")
    t1.add_argument("--eps", type=float, default=0.5)
    sh = rsub.add_parser("sharpness", parents=[common])
    sh.add_argument("--p", default="2")
    sh.add_argument("--d", default="2,3")
    sh.add_argument("--k", type=int, default=1)
    sh.add_argument("--n", default="8,12,16")
    vc = rsub.add_parser("var-converse", parents=[common])
    _add_spec_flags(vc)
    vc.add_argument("--n", type=int, required=True)
    vc.add_argument("--r", required=True)

    rn = sp.add_parser("run", parents=[common], help="run a manifest file")
    rn.add_argument("manifest")
    return ap


def _fill_global_defaults(args: argparse.Namespace) -> None:
    for attr, (env_name, fallback) in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, attr):
            value = _env_default(env_name, fallback) if env_name else fallback
            setattr(args, attr, value)


def _manifest_from_args(args) -> ExperimentManifest:
    fmt = args.format
    out = args.out
    if args.command == "build":
        spec = _spec_from_args(args)
        if spec.radius is None:
            size = spec.ambient_size()
            if size is None:
                raise MissingParam("build needs --radius for infinite graphs")
            # the BFS stops as soon as the graph is exhausted
            spec = GraphSpec(spec.family, spec.factors, spec.generators,
                             radius=size)
        return ExperimentManifest("growth", spec, {}, out, fmt)
    if args.command == "resist":
        params: dict = {"p": _parse_float_list(args.p)}
        if args.r:
            params["r"] = _parse_int_list(args.r)
        return ExperimentManifest("resistance", _spec_from_args(args), params, out, fmt)
    if args.command == "escape":
        params = {"r": _parse_int_list(args.r), "trials": args.trials,
                  "seed": args.seed}
        return ExperimentManifest("escape", _spec_from_args(args), params, out, fmt)
    if args.command == "growth":
        return ExperimentManifest("growth", _spec_from_args(args), {}, out, fmt)
    if args.command == "iso":
        return ExperimentManifest("isoperimetry", _spec_from_args(args),
                                  {"max_n": args.max_n}, out, fmt)
    if args.command == "verify":
        params = {"p": _parse_float_list(args.p), "r_min": args.r_min,
                  "r_max": args.r_max}
        return ExperimentManifest("sandwich", _spec_from_args(args), params, out, fmt)
    if args.command == "repro":
        if args.repro_kind == "table1":
            params = {"n2": _parse_int_list(args.n2), "n3": _parse_int_list(args.n3),
                      "eps": args.eps}
            if args.nlin:
                params["nlin"] = _parse_int_list(args.nlin)
            return ExperimentManifest("table1", None, params, out, fmt)
        if args.repro_kind == "sharpness":
            params = {"p": _parse_float_list(args.p), "d": _parse_int_list(args.d),
                      "k": args.k, "n": _parse_int_list(args.n)}
            return ExperimentManifest("sharpness_nw", None, params, out, fmt)
        params = {"n": args.n, "r": _parse_int_list(args.r)}
        return ExperimentManifest("var_converse", _spec_from_args(args), params,
                                  out, fmt)
    raise VtresError(f"unhandled command {args.command}")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill_global_defaults(args)
        if args.command == "run":
            with open(args.manifest) as fh:
                man = parse_manifest(fh.read())
        else:
            man = _manifest_from_args(args)
        if args.emit_manifest:
            sys.stdout.write(emit_manifest(man))
            return 0
        result = run(man, size_cap=args.size_cap)
        for path in result.files:
            print(path)
        print(f"status = {'PASS' if result.exit_code == 0 else 'FAIL'}")
        return result.exit_code
    except VtresError as exc:
        sys.stderr.write(f"error.type = {type(exc).__name__}\n")
        sys.stderr.write(f"error.message = {exc}\n")
        if isinstance(exc, NonConvergence):
            sys.stderr.write(f"error.iterations = {exc.iterations}\n")
            if exc.stages:
                stages = ", ".join(f"{s}:{n}:{b}" for s, n, b in exc.stages)
                sys.stderr.write(f"error.stage_iterations = {stages}\n")
        return 2
    except OSError as exc:
        sys.stderr.write("error.type = IoError\n")
        sys.stderr.write(f"error.message = {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
