"""Command-line entry point.

Subcommands build an experiment manifest from flags and run it, so every
invocation corresponds to a manifest file that reproduces it; with
``--emit-manifest`` that file is printed instead of running.  ``run``
executes a manifest file directly.

A subcommand is one row of ``_COMMANDS`` or ``_REPRO_COMMANDS``: its
experiment, its CLI defaults and its help.  Its flags are the experiment's
parameter schema in ``manifest._EXPERIMENTS`` (``max_n`` is ``--max-n``),
plus, for an experiment with a graph, the spec flags: each replaces its key
of a --spec file (``_spec_from_args``).  A flag without a CLI default is
required, and one whose default is None is left out of the manifest unless
given.  Scalar flags are parsed by argparse; list flags are
comma lists (``a:b`` ranges for integers, a <= b), and an empty list or a
reversed range is BadArguments.  ``seed`` is the global --seed, and
``dump_potential`` is set in a manifest file only.

Global flags: --seed, --out, --format, --size-cap.  Environment variables
with the VTRES_ prefix (VTRES_SEED, VTRES_OUT, VTRES_FORMAT, VTRES_SIZE_CAP)
supply defaults for the matching flags, read on each ``main`` call; the
parser itself is built once per process.

Errors go to stderr as ``error.type`` and ``error.message`` lines.  A
NonConvergence adds ``error.iterations`` and, for a general-p Newton solve,
``error.stage_iterations``: one ``stage:steps:rejected`` entry per eps
stage run (named by its eps), where ``rejected`` counts the trial steps
the stage turned down.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from .errors import BadArguments, MissingParam, NonConvergence, VtresError
from .graphs import DEFAULT_SIZE_CAP, FAMILIES, GraphSpec
from .manifest import _EXPERIMENTS, ExperimentManifest, emit_manifest, parse_manifest, run
from .textspec import ATOM_FIELDS, graphspec_from_doc, parse_document, parse_value

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
    for part in text.split(","):
        a, colon, b = part.partition(":")
        try:
            lo, hi = int(a), int(b if colon else a)
        except ValueError:
            raise BadArguments(f"expected integers or a:b ranges, got {text!r}") from None
        if hi < lo:
            raise BadArguments(f"range {part!r} in {text!r} is reversed")
        out.extend(range(lo, hi + 1))
    return out


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise BadArguments(f"expected a comma list of numbers, got {text!r}") from None


def _spec_from_args(args) -> GraphSpec:
    """The --spec file's document, each given flag in place of its key; a
    flag takes what a spec file's value takes (--factors without brackets)."""
    doc = {}
    if args.spec:
        with open(args.spec) as fh:
            doc = parse_document(fh.read())
    elif not (args.family and args.factors and args.generators):
        raise MissingParam("give --spec FILE or all of --family/--factors/--generators")
    for key in ("family", "factors", "generators", "radius"):
        if (text := getattr(args, key)) is not None:
            doc[key] = parse_value(f"[{text}]" if key == "factors" else text)
    return graphspec_from_doc(doc)


def _add_spec_flags(sub):
    sub.add_argument("--spec", help="graph spec file; the flags below replace its keys")
    sub.add_argument("--family", choices=FAMILIES)
    sub.add_argument("--factors", help="comma list of moduli, 'inf' for a Z factor")
    atoms = ", ".join(":".join((kind, *fields)) for kind, fields in ATOM_FIELDS.items())
    sub.add_argument("--generators", help=f"'+'-joined atoms box, {atoms}, or offset tuples")
    sub.add_argument("--radius")


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


# subcommand -> (experiment, {param: CLI default}, help)
_COMMANDS = {
    "build": ("growth", {}, "construct a graph or ball and report growth"),
    "resist": ("resistance", {"r": None}, "p-resistances of balls or finite graphs"),
    "escape": ("escape", {"trials": 100_000}, "Monte Carlo escape probabilities"),
    "growth": ("growth", {}, "ball and sphere growth sequences"),
    "iso": ("isoperimetry", {"max_n": 14}, "exact isoperimetric profile and checks"),
    "verify": ("sandwich", {"p": "2", "r_min": 2}, "sandwich bound sweep on a ball family"),
}
_REPRO_COMMANDS = {
    "table1": ("table1", {"n2": "8,12,16", "n3": "6,8", "nlin": None, "eps": 0.5},
               "Nash-Williams bound against the exact R_2 on tori"),
    "sharpness": ("sharpness_nw", {"p": "2", "d": "2,3", "k": 1, "n": "8,12,16"},
                  "Nash-Williams bound against its closed form"),
    "var-converse": ("var_converse", {}, "annulus resistance against the converse bound"),
}
_SCALAR_TYPES = {"int": int, "float": float}
_LIST_PARSERS = {"int_list": _parse_int_list, "float_list": _parse_float_list}
_LIST_HELP = {"int_list": "comma list of integers or a:b ranges",
              "float_list": "comma list of numbers"}
_NOT_FLAGS = ("seed", "dump_potential")  # the global --seed; manifest files only


def _add_commands(subparsers, table: dict, common) -> None:
    for command, (experiment, defaults, help_) in table.items():
        sub = subparsers.add_parser(command, parents=[common], help=help_)
        sub.set_defaults(experiment=experiment)
        _, needs_graph, schema = _EXPERIMENTS[experiment]
        if needs_graph:
            _add_spec_flags(sub)
        for key, (typ, _) in schema.items():
            if key in _NOT_FLAGS:
                continue
            default = ({"default": defaults[key]} if key in defaults
                       else {"required": True})
            sub.add_argument("--" + key.replace("_", "-"), type=_SCALAR_TYPES.get(typ),
                             help=_LIST_HELP.get(typ), **default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: it holds no environment
    value, since ``_fill_global_defaults`` reads those at parse time."""
    common = _global_flags()
    ap = argparse.ArgumentParser(prog="vtres", parents=[common])
    sp = ap.add_subparsers(dest="command", required=True)
    _add_commands(sp, _COMMANDS, common)
    rp = sp.add_parser("repro", parents=[common],
                       help="reproduce the sharpness-example computations")
    _add_commands(rp.add_subparsers(dest="repro_kind", required=True),
                  _REPRO_COMMANDS, common)
    rn = sp.add_parser("run", parents=[common], help="run a manifest file")
    rn.add_argument("manifest")
    return ap


def _fill_global_defaults(args: argparse.Namespace) -> None:
    for attr, (env_name, fallback) in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, attr):
            value = _env_default(env_name, fallback) if env_name else fallback
            setattr(args, attr, value)


def _manifest_from_args(args) -> ExperimentManifest:
    _, needs_graph, schema = _EXPERIMENTS[args.experiment]
    params = {}
    for key, (typ, _) in schema.items():
        value = getattr(args, key, None)
        if value is not None:
            params[key] = _LIST_PARSERS[typ](value) if typ in _LIST_PARSERS else value
    spec = _spec_from_args(args) if needs_graph else None
    if args.command == "build" and spec.radius is None:
        size = spec.ambient_size()
        if size is None:
            raise MissingParam("build needs --radius for infinite graphs")
        # the BFS stops as soon as the graph is exhausted
        spec = GraphSpec(spec.family, spec.factors, spec.generators, radius=size)
    return ExperimentManifest(args.experiment, spec, params, args.out, args.format)


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
