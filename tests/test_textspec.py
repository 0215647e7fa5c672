import pytest

from vtres import (
    emit_graphspec,
    graphspec_hash,
    parse_graphspec,
    spec_cycle,
    spec_cyclic_chords,
    spec_explicit,
    spec_lattice,
    spec_line,
    spec_torus,
    spec_z_times_torus,
)
from vtres.errors import BadArguments
from vtres.graphs import spec_fibered_torus
from vtres.textspec import emit_document, parse_document, parse_value

SPECS = [
    spec_cycle(8),
    spec_torus(4, 4, 3, full_last=True),
    spec_fibered_torus(6, 6, 2),
    spec_cyclic_chords(10, 4),
    spec_z_times_torus(5, 5),
    spec_line(),
    spec_lattice(3),
    spec_explicit((4,), [(1,), (3,)], radius=2),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family + str(s.factors))
def test_graphspec_round_trip(spec):
    text = emit_graphspec(spec)
    assert parse_graphspec(text) == spec
    # byte-stable: emitting the parsed spec reproduces the exact bytes
    assert emit_graphspec(parse_graphspec(text)) == text


def test_hash_distinguishes_specs():
    hashes = {graphspec_hash(s) for s in SPECS}
    assert len(hashes) == len(SPECS)


def test_parse_values():
    assert parse_value("42") == 42
    assert parse_value("-3") == -3
    assert parse_value("2.5") == 2.5
    assert parse_value("1e-3") == 1e-3
    assert parse_value("inf") == "inf"
    assert parse_value("box") == "box"
    assert parse_value("[1, 2, 3]") == [1, 2, 3]
    assert parse_value("[(1, 0), (-1, 0)]") == [(1, 0), (-1, 0)]
    assert parse_value("[]") == []
    assert parse_value("true") is True


def test_parse_document_rejects_garbage():
    with pytest.raises(BadArguments):
        parse_document("no equals sign here")
    with pytest.raises(BadArguments):
        parse_document("UPPER = 1")
    with pytest.raises(BadArguments):
        parse_document("a = 1\na = 2")


def test_comments_and_blanks_ignored():
    doc = parse_document("# a comment\n\nfamily = torus_product\n")
    assert doc == {"family": "torus_product"}


def test_emit_document_is_plain_lines():
    text = emit_document([("a", 1), ("b", [1, 2]), ("c", "tok")])
    assert text == "a = 1\nb = [1, 2]\nc = tok\n"


def test_infinite_factor_token():
    text = emit_graphspec(spec_line())
    assert "factors = [inf]" in text


@pytest.mark.parametrize("text", [
    "factors = [abc, 5]\ngenerators = box",
    "factors = [5.5, 5]\ngenerators = box",
    "factors = [true, 5]\ngenerators = box",
    "factors = [(5, 5)]\ngenerators = box",
    "factors = [5, 5]\ngenerators = box\nradius = 2.5",
    "factors = [5, 5]\ngenerators = box\nradius = false",
    "factors = [5, 5]\ngenerators = box\nradius = inf",
    "factors = [5, 5]\ngenerators = [(1, x)]",
    "factors = [5, 5]\ngenerators = [1, 4]",
    "factors = [5, 5]\ngenerators = box:x",
    "factors = [5, 5]\ngenerators = box:0-",
    "factors = [5, 5]\ngenerators = full:",
    "factors = [5, 5]\ngenerators = full:1.5",
    "factors = [5]\ngenerators = chords:a",
    "factors = [5, 5]\ngenerators = boxfull:0:",
    "factors = [5, 5]\ngenerators = boxfull:0",
    "factors = [5, 5]\ngenerators = explicit",
    "factors = [5, 5]\ngenerators = knight:1",
], ids=lambda text: text.replace("\n", "; "))
def test_malformed_spec_values_are_bad_arguments(text):
    # floats, bools and words are refused, not truncated or crashed on
    with pytest.raises(BadArguments):
        parse_graphspec("family = explicit\n" + text + "\n")


def test_every_atom_kind_reads_back():
    spec = parse_graphspec("family = torus_product\nfactors = [6, 5, 4, 3]\n"
                           "generators = box:0-1+full:2+boxfull:0:3\n")
    assert spec.generators == (("box", (0, 1)), ("full", 2), ("boxfull", (0,), 3))
    assert parse_graphspec(emit_graphspec(spec)) == spec
    chords = parse_graphspec("family = cyclic_chords\nfactors = [9]\ngenerators = chords:2+box\n")
    assert chords.generators == (("chords", 2), ("box", (0,)))
