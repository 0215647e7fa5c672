import itertools
import tracemalloc

import pytest

from vtres import (
    boundary,
    build_ball,
    build_cayley_graph,
    check_iso_theorems,
    exact_profile,
    spec_cycle,
    spec_cyclic_chords,
    spec_explicit,
    spec_lattice,
    spec_torus,
    spec_z_times_torus,
    verify_csc,
    verify_cyclic_edge_iso,
)
import vtres.isoperimetry
from vtres.errors import BadArguments, SizeCapExceeded
from vtres.graphs import from_edge_list, orbit_ball
from vtres.isoperimetry import ISO_THEOREMS, ProfileEntry

from conftest import complete_graph


def test_cycle_profile_all_arcs():
    prof = exact_profile(build_cayley_graph(spec_cycle(6)))
    for m in range(1, 5):
        assert prof.by_size[m].min_vertex == 2
        assert prof.by_size[m].min_edge == 2
    assert prof.size_range == (1, 5)


def test_complete_graph_profile():
    prof = exact_profile(complete_graph(4))
    assert prof.by_size[2].min_vertex == 2
    assert prof.by_size[2].min_edge == 4


def test_chord_graph_profile_respects_edge_lemma():
    prof = exact_profile(build_cayley_graph(spec_cyclic_chords(10, 4)))
    assert prof.by_size[5].min_edge >= 4 * 4 / 4 - 1


def test_witnesses_revalidate():
    g = build_cayley_graph(spec_torus(3, 3))
    prof = exact_profile(g)
    for size, entry in prof.by_size.items():
        assert boundary(g, entry.witness).vertex_size == entry.min_vertex
        assert boundary(g, entry.witness_edge).edge_size == entry.min_edge


def test_profile_matches_bruteforce_on_cycle():
    g = build_cayley_graph(spec_cycle(7))
    prof = exact_profile(g)
    for size in range(1, 7):
        best_v = min(boundary(g, c).vertex_size
                     for c in itertools.combinations(range(7), size))
        best_e = min(boundary(g, c).edge_size
                     for c in itertools.combinations(range(7), size))
        assert prof.by_size[size].min_vertex == best_v
        assert prof.by_size[size].min_edge == best_e


def test_profile_matches_bruteforce_on_multigraph():
    # multiplicities weight the edge boundary; combinations come in
    # lexicographic order, so min() keeps the least witness among ties
    g = from_edge_list(7, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 4, 1), (4, 5, 2),
                           (5, 6, 1), (6, 0, 3), (0, 3, 1), (2, 5, 2), (1, 4, 1)])
    prof = exact_profile(g)
    for size in range(1, 7):
        sets = list(itertools.combinations(range(7), size))
        info = {c: boundary(g, c) for c in sets}
        best_v = min(sets, key=lambda c: info[c].vertex_size)
        best_e = min(sets, key=lambda c: info[c].edge_size)
        assert prof.by_size[size] == (info[best_v].vertex_size, info[best_e].edge_size,
                                      best_v, best_e)


def _looped_profile(g):
    """Each size's least boundaries over every proper subset, by a Python loop
    over each mask's members; ties keep the least witness tuple."""
    best_v, best_e = {}, {}
    for mask in range(1, (1 << g.n) - 1):
        ids = tuple(v for v in range(g.n) if mask >> v & 1)
        outside, edge = set(), 0
        for u in ids:
            for w, m in zip(*(a.tolist() for a in g.neighbors(u))):
                if not mask >> w & 1:
                    outside.add(w)
                    edge += m
        for best, key in ((best_v, (len(outside), ids)), (best_e, (edge, ids))):
            if len(ids) not in best or key < best[len(ids)]:
                best[len(ids)] = key
    return {m: ProfileEntry(best_v[m][0], best_e[m][0], best_v[m][1], best_e[m][1])
            for m in sorted(best_v)}


# even multiplicities: a neighbour mask taken from the lowest multiplicity
# digit would miss 1-2, 3-4, 5-0 and 0-4
EVEN_MULTIGRAPH = [(0, 1, 3), (1, 2, 2), (2, 3, 5), (3, 4, 4), (4, 5, 1), (5, 0, 6),
                   (0, 3, 1), (1, 4, 3), (0, 4, 8)]
# ten vertices, multiplicities up to 5, so a 3-bit block's cross weights
# take several binary digits
MULTIGRAPH_10 = [(v, (v + 1) % 10, 1 + v % 5) for v in range(10)] + \
    [(v, (v + 3) % 10, 5 - v % 5) for v in range(10)] + [(0, 5, 4), (2, 7, 2)]


@pytest.mark.parametrize("g", [
    complete_graph(5),
    build_cayley_graph(spec_cyclic_chords(11, 3)),  # many ties per size
    from_edge_list(6, EVEN_MULTIGRAPH),
], ids=["K5", "chords11_3", "even_multigraph"])
def test_recurrence_matches_looped_profile(g):
    assert exact_profile(g).by_size == _looped_profile(g)


@pytest.mark.parametrize("edges", [
    MULTIGRAPH_10, [(v, (v + k) % 10, 1) for v in range(10) for k in (1, 2)],
], ids=["multigraph", "chords10_2"])
def test_recurrence_blocks_match_looped_profile(monkeypatch, edges):
    # blocks of 3 vertex bits: 128 blocks, each with its own high part
    g = from_edge_list(10, edges)
    monkeypatch.setattr(vtres.isoperimetry, "SUBSET_BLOCK_BITS", 3)
    assert exact_profile(g).by_size == _looped_profile(g)


def test_all_sets_memory_is_bounded():
    # 2^20 subsets in 16 blocks: no array spans them all, so the peak stays
    # below one int64 table of 2^20 entries
    g = build_cayley_graph(spec_cyclic_chords(20, 4))
    tracemalloc.start()
    try:
        exact_profile(g, max_n=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_witness_tie_break_is_lexicographic():
    prof = exact_profile(build_cayley_graph(spec_cycle(6)))
    assert prof.by_size[2].witness == (0, 1)


def test_profile_size_cap():
    g = build_cayley_graph(spec_torus(4, 4))
    with pytest.raises(SizeCapExceeded):
        exact_profile(g)  # default cap is 14
    exact_profile(g, max_n=16)
    # sets are int64 bitmasks, so no cap lets a 63-cycle through
    with pytest.raises(SizeCapExceeded):
        exact_profile(build_cayley_graph(spec_cycle(63)), max_n=100)


def test_recentred_witness_gives_same_minima():
    # vertex-transitivity: translating a witness preserves its boundaries
    g = build_cayley_graph(spec_torus(3, 3))
    prof = exact_profile(g)
    for size, entry in prof.by_size.items():
        shifted = [(v + 3) % 9 for v in entry.witness]  # add (1,0) in Z3 x Z3
        assert boundary(g, shifted).vertex_size == entry.min_vertex


@pytest.mark.parametrize("spec,max_n", [
    (spec_cycle(12), 14), (spec_torus(4, 4), 16), (spec_torus(2, 2), 14),
])
def test_verify_csc_passes(spec, max_n):
    g = build_cayley_graph(spec)
    reports = verify_csc(g, exact_profile(g, max_n=max_n))
    assert reports and all(r.status == "PASS" for r in reports)


def test_verify_csc_two_vertex_graph():
    g = build_cayley_graph(spec_cycle(2))
    reports = verify_csc(g, exact_profile(g))
    assert all(r.status == "PASS" for r in reports)


def test_verify_csc_one_vertex_graph():
    # no proper subset, so nothing to check
    g = from_edge_list(1, [])
    assert verify_csc(g, exact_profile(g)) == []


def test_verify_csc_refuses_a_restricted_profile():
    # a profile of another graph would be read at the wrong sizes
    g = build_cayley_graph(spec_cycle(8))
    for other in (build_cayley_graph(spec_cycle(7)), build_cayley_graph(spec_cycle(9)),
                  from_edge_list(1, [])):
        with pytest.raises(BadArguments, match="8-vertex graph"):
            verify_csc(g, exact_profile(other))


def _chord_profile(n, k):
    return exact_profile(build_cayley_graph(spec_cyclic_chords(n, k)))


@pytest.mark.parametrize("n,k", [(10, 4), (8, 2), (12, 5)])
def test_cyclic_edge_lemma(n, k):
    report = verify_cyclic_edge_iso(_chord_profile(n, k), n, k)
    assert report.status == "PASS"
    assert report.bound == k * k / 4 - 1


def test_cyclic_edge_lemma_guards():
    with pytest.raises(SizeCapExceeded):  # raised by the profile
        verify_cyclic_edge_iso(_chord_profile(20, 4), 20, 4)
    with pytest.raises(BadArguments):
        verify_cyclic_edge_iso(_chord_profile(10, 5), 10, 5)


def test_cyclic_edge_lemma_refuses_a_restricted_profile():
    with pytest.raises(BadArguments, match="12-vertex graph"):
        verify_cyclic_edge_iso(_chord_profile(10, 4), 12, 4)


def test_iso_theorem_checks_on_z2_ball():
    ball = build_ball(spec_lattice(2), 7)
    for which in ISO_THEOREMS:
        reports = check_iso_theorems(ball, which)
        assert reports, which
        assert all(r.status != "FAIL" for r in reports), which
        if which not in ("P_iso_conv",):
            # implied-constant bounds: the measured/bound ratio stays away from 0
            assert min(r.ratio for r in reports) > 0.1


def test_iso_rel_lin_rows_are_strict():
    ball = build_ball(spec_lattice(2), 6)
    reports = check_iso_theorems(ball, "L_iso_rel_lin")
    assert all(r.status == "PASS" for r in reports)
    assert all(r.bound == 9 / 32.0 for r in reports)


def test_iso_converse_reports_constant():
    ball = build_ball(spec_lattice(2), 9)
    (report,) = check_iso_theorems(ball, "P_iso_conv")
    assert report.params["q_star"] == pytest.approx(5.186940113063962, rel=1e-12)
    assert report.ratio > 0


def test_ratio_stable_across_radius_sweep():
    # mixed family: ball-set ratios against the relative bound stay within
    # a fixed band as the working radius grows
    spreads = []
    for radius in (4, 6, 8):
        ball = build_ball(spec_z_times_torus(3, 3), radius)
        reports = check_iso_theorems(ball, "T6_1")
        balls_only = [r for r in reports
                      if r.params["size"] in {ball.beta(j) for j in range(radius)}]
        assert balls_only
        spreads.append(min(r.ratio for r in balls_only))
    assert max(spreads) / min(spreads) < 3.0


def test_singleton_candidates_have_degree_boundary():
    ball = build_ball(spec_z_times_torus(3, 3), 4)
    reports = check_iso_theorems(ball, "T6_1")
    singles = [r for r in reports if r.params["size"] == 1]
    assert singles and all(r.computed == ball.spec.ambient_degree() for r in singles)


def test_exhaustive_candidates_on_tiny_ball():
    ball = build_ball(spec_cycle(9), 3)  # working radius 2, beta = 5 vertices
    reports = check_iso_theorems(ball, "L_iso_rel_lin")
    sizes = sorted(set(r.params["size"] for r in reports))
    assert sizes == [1, 2]  # smax = beta(rho)//2 = 2
    assert len(reports) == 5 + 10


def test_iso_theorems_refuse_an_orbit_ball():
    # a subset's boundary is not an orbit quantity
    for which in ISO_THEOREMS:
        with pytest.raises(BadArguments, match="full ball"):
            check_iso_theorems(orbit_ball(spec_lattice(2), 5), which)


Z2_AXES = spec_explicit((None, None), [(1, 0), (-1, 0), (0, 1), (0, -1)])


@pytest.mark.parametrize("spec,radius", [
    (spec_lattice(1), 7), (spec_z_times_torus(2), 3), (spec_cycle(9), 3), (Z2_AXES, 3),
], ids=["Z_B7", "ZxC2_B3", "C9_B3", "Z2_axes_B3"])
def test_structured_rows_are_exhaustive_rows(monkeypatch, spec, radius):
    # the balls and coordinate cuts are a heuristic: each of their rows is
    # one of the exhaustive rows, so the exhaustive minimum is no larger,
    # and may be smaller (T6_1 on Z^2 axes B(3): 2.3476 against 2.3926)
    ball = build_ball(spec, radius)
    assert ball.prefix(radius - 1) <= vtres.isoperimetry.ALL_SETS_CAP

    def rows(which):
        return [(r.params["size"], r.computed, r.bound)
                for r in check_iso_theorems(ball, which)]

    theorems = [w for w in ISO_THEOREMS if w != "P_iso_conv"]
    exhaustive = {w: rows(w) for w in theorems}
    monkeypatch.setattr(vtres.isoperimetry, "ALL_SETS_CAP", 0)
    for which in theorems:
        structured = rows(which)
        assert set(structured) <= set(exhaustive[which]), which
        assert len(structured) < len(exhaustive[which]) or not structured, which


# least ratio over the balls and coordinate cuts, and P_iso_conv's q_star
@pytest.mark.parametrize("spec,radius,least", [
    (spec_lattice(2), 31, {"T6_1": 2.0129622569576817, "T6_2": 1.6999765909406788,
                           "T6_3": 1.3658536585365855, "P_iso_conv": 3.1984133257503324}),
    (spec_z_times_torus(5, 5), 31, {"T6_1": 1.4025737466365533, "T6_2": 1.099420022471341,
                                    "T6_3": 0.9836065573770493,
                                    "P_iso_conv": 2.462904093333435}),
    (spec_lattice(3), 11, {"T6_1": 3.473369629607989, "T6_2": 3.0271867119282003,
                           "T6_3": 2.466606787165196, "P_iso_conv": 10.33722085685661}),
], ids=["Z2_B31", "ZxC5sq_B31", "Z3_B11"])
def test_least_ratios_on_large_balls(spec, radius, least):
    ball = build_ball(spec, radius)
    for which in ISO_THEOREMS:
        reports = check_iso_theorems(ball, which)
        assert reports and all(r.status != "FAIL" for r in reports), which
        if which in least:
            got = (reports[0].params["q_star"] if which == "P_iso_conv"
                   else min(r.ratio for r in reports))
            assert got == pytest.approx(least[which], rel=1e-12), which
