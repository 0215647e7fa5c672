"""The structured-text grammar shared by graph specs and experiment manifests.

A document is a sequence of ``key = value`` lines; ``#`` starts a comment
and blank lines are ignored.  Keys are dotted lowercase identifiers.
Values are integers, floats, bare tokens, offset tuples ``(a, b)``, or
flat lists ``[v1, v2, ...]`` of those.  Emission is canonical (fixed key
order, shortest round-trip float repr), so identical inputs serialize to
identical bytes and documents can be hashed.

Generator sets serialize as ``+``-joined atoms, whose kinds and fields
``ATOM_FIELDS`` declares, or as an explicit list of offset tuples.
``graphspec_from_doc`` is the only reader of a spec: a malformed factor,
radius or atom is BadArguments there.
"""

from __future__ import annotations

import hashlib
import re

from .errors import BadArguments
from .graphs import INFINITE, GraphSpec

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
_INT_RE = re.compile(r"^-?[0-9]+$")
_FLOAT_RE = re.compile(r"^-?(\d+\.\d*|\.\d+)([eE][+-]?\d+)?$|^-?\d+[eE][+-]?\d+$")
_TOKEN_RE = re.compile(r"^[A-Za-z0-9_:+\-./]+$")


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, str):
        if not _TOKEN_RE.match(v):
            raise BadArguments(f"value {v!r} is not a bare token")
        return v
    if isinstance(v, tuple):
        return "(" + ", ".join(str(int(x)) for x in v) + ")"
    if isinstance(v, (list,)):
        return "[" + ", ".join(format_value(x) for x in v) + "]"
    raise BadArguments(f"cannot serialize value of type {type(v).__name__}")


def _split_top(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _whole(what: str, value) -> int:
    # bool is an int subclass, but true and false are not integers
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadArguments(f"{what} must be an integer, got {value!r}")
    return value


def parse_scalar(s: str):
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        return tuple(_whole(f"entry of {s}", parse_scalar(x)) for x in _split_top(s[1:-1]))
    if _INT_RE.match(s):
        return int(s)
    if _FLOAT_RE.match(s):
        return float(s)
    if s == "true":
        return True
    if s == "false":
        return False
    if _TOKEN_RE.match(s):
        return s
    raise BadArguments(f"cannot parse value {s!r}")


def parse_value(s: str):
    s = s.strip()
    if s.startswith("[") and s.endswith("]"):
        inner = s[1:-1].strip()
        return [parse_scalar(x) for x in _split_top(inner)] if inner else []
    return parse_scalar(s)


def parse_document(text: str) -> dict:
    """Parse a structured-text document into an ordered key -> value dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BadArguments(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise BadArguments(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise BadArguments(f"line {lineno}: duplicate key {key!r}")
        out[key] = parse_value(value)
    return out


def emit_document(items: list[tuple[str, object]]) -> str:
    return "".join(f"{k} = {format_value(v)}\n" for k, v in items)


def document_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# GraphSpec serialization
# ---------------------------------------------------------------------------

# atom kind -> its ':'-separated fields: "i-j" a '-'-joined index tuple,
# "k" an integer.  A bare ``box`` is the box on every factor.
ATOM_FIELDS = {"box": ("i-j",), "full": ("k",), "chords": ("k",), "boxfull": ("i-j", "k")}


def generators_to_value(spec: GraphSpec):
    parts = []
    for kind, *fields in spec.generators:
        if kind == "explicit":  # alone in its spec (GraphSpec)
            return [tuple(t) for t in fields[0]]
        if kind == "box" and (not fields or fields[0] is None
                              or tuple(fields[0]) == tuple(range(spec.dim))):
            parts.append("box")
            continue
        parts.append(":".join([kind, *("-".join(map(str, f)) if typ == "i-j" else str(f)
                                      for typ, f in zip(ATOM_FIELDS[kind], fields))]))
    return "+".join(parts)


def generators_from_value(value, dim: int) -> tuple[tuple, ...]:
    if isinstance(value, list):
        if not all(isinstance(t, tuple) for t in value):
            raise BadArguments(f"explicit generators must be offset tuples, got {value!r}")
        return (("explicit", tuple(value)),)
    if not isinstance(value, str):
        raise BadArguments(f"bad generators value {value!r}")
    atoms = []
    for part in map(str.strip, value.split("+")):
        kind, *fields = part.split(":")
        if kind == "box" and not fields:
            atoms.append(("box", tuple(range(dim))))
        elif kind in ATOM_FIELDS and len(fields) == len(ATOM_FIELDS[kind]):
            def whole(text: str) -> int:
                return _whole(f"generator atom {part!r}", parse_scalar(text))
            atoms.append((kind, *(tuple(map(whole, f.split("-"))) if typ == "i-j" else whole(f)
                                  for typ, f in zip(ATOM_FIELDS[kind], fields))))
        else:
            raise BadArguments(f"unknown generator atom {part!r}")
    return tuple(atoms)


def graphspec_items(spec: GraphSpec, prefix: str = "") -> list[tuple[str, object]]:
    factors = ["inf" if f is INFINITE else int(f) for f in spec.factors]
    items = [
        (prefix + "family", spec.family),
        (prefix + "factors", factors),
        (prefix + "generators", generators_to_value(spec)),
    ]
    if spec.radius is not None:
        items.append((prefix + "radius", int(spec.radius)))
    return items


def emit_graphspec(spec: GraphSpec) -> str:
    return emit_document(graphspec_items(spec))


def graphspec_from_doc(doc: dict, prefix: str = "") -> GraphSpec:
    for key in ("family", "factors", "generators"):
        if prefix + key not in doc:
            raise BadArguments(f"graph spec needs key {prefix + key!r}")
    raw_factors = doc[prefix + "factors"]
    if not isinstance(raw_factors, list):
        raise BadArguments("factors must be a list")
    factors = tuple(INFINITE if f == "inf" else _whole(prefix + "factors", f)
                    for f in raw_factors)
    gens = generators_from_value(doc[prefix + "generators"], len(factors))
    radius = doc.get(prefix + "radius")
    radius = None if radius is None else _whole(prefix + "radius", radius)
    return GraphSpec(family=str(doc[prefix + "family"]), factors=factors,
                     generators=gens, radius=radius)


def parse_graphspec(text: str) -> GraphSpec:
    return graphspec_from_doc(parse_document(text))


def graphspec_hash(spec: GraphSpec) -> str:
    return document_hash(emit_graphspec(spec))
