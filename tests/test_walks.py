import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from vtres import (
    box_ball_resistance,
    build_ball,
    escape_profile,
    escape_via_resistance,
    build_cayley_graph,
    dirichlet_problem,
    hit_before_return,
    max_resistance,
    p_resistance,
    simulate_escape,
    spec_cycle,
    spec_cyclic_chords,
    spec_lattice,
    spec_line,
    spec_torus,
    spec_z_times_torus,
)
from vtres import walks
from vtres.errors import BadArguments, EmptySet, RadiusTooSmall
from vtres.graphs import from_edge_list, spec_offsets
from vtres.walks import CHUNK, _chunk_rng, _estimate, _walk

from conftest import complete_graph


def test_escape_radius_one_is_certain():
    b = build_ball(spec_cycle(20), 3)
    est = simulate_escape(b, 1, trials=500, seed=3)
    assert est.p_hat == 1.0
    assert est.censored == 0
    assert est.stderr == 0.0


def test_escape_via_resistance_cycle():
    b = build_ball(spec_cycle(20), 10)
    # two parallel 5-edge arcs: R = 5/2, deg = 2
    assert abs(escape_via_resistance(b, 5) - 0.2) < 1e-9


def test_escape_via_resistance_radius_one_any_graph():
    for spec in (spec_cycle(12), spec_lattice(2), spec_line()):
        b = build_ball(spec, 2)
        assert abs(escape_via_resistance(b, 1) - 1.0) < 1e-10


@pytest.mark.parametrize("spec, radius", [
    (spec_lattice(2), 16), (spec_z_times_torus(5, 5), 12), (spec_lattice(3), 6),
])
def test_escape_via_resistance_matches_per_radius_solves(spec, radius):
    # the band's R_2 against a solve of each radius's own Dirichlet problem
    b = build_ball(spec, radius)
    deg = spec.ambient_degree()
    for r in range(1, radius + 1):
        want = 1.0 / (deg * p_resistance(dirichlet_problem(b, r - 1), 2.0).resistance)
        assert escape_via_resistance(b, r) == pytest.approx(want, rel=1e-12)


def test_escape_via_resistance_line():
    b = build_ball(spec_line(), 10)
    assert abs(escape_via_resistance(b, 10) - 0.1) < 1e-9


def test_simulated_escape_matches_identity_cycle():
    b = build_ball(spec_cycle(20), 5)
    est = simulate_escape(b, 5, trials=100_000, seed=7)
    assert abs(est.p_hat - 0.2) <= 4 * est.stderr
    assert est.p_hat * est.trials == round(est.p_hat * est.trials)


def test_seeded_determinism():
    b = build_ball(spec_cycle(20), 5)
    a = simulate_escape(b, 5, trials=20_000, seed=42)
    c = simulate_escape(b, 5, trials=20_000, seed=42)
    assert a == c
    d = simulate_escape(b, 5, trials=20_000, seed=43)
    assert d.p_hat != a.p_hat  # different stream


def test_profile_is_exactly_monotone():
    b = build_ball(spec_lattice(2), 6)
    prof = escape_profile(b, 6, trials=20_000, seed=5)
    ps = [e.p_hat for e in prof]
    assert all(ps[i] >= ps[i + 1] for i in range(len(ps) - 1))
    assert ps[0] == 1.0


def test_profile_head_matches_single_radius_event():
    # the profile estimate at r_max uses the same absorption rule as the
    # single-radius simulation, so both are unbiased for the same event
    b = build_ball(spec_cycle(16), 6)
    prof = escape_profile(b, 6, trials=50_000, seed=9)
    single = simulate_escape(b, 6, trials=50_000, seed=9)
    exact = escape_via_resistance(b, 6)
    assert abs(prof[-1].p_hat - exact) <= 4 * prof[-1].stderr
    assert abs(single.p_hat - exact) <= 4 * single.stderr


def test_hit_before_return_complete_graph():
    k4 = complete_graph(4)
    est = hit_before_return(k4, 0, [1], trials=100_000, seed=2)
    assert abs(est.p_hat - 2 / 3) <= 4 * est.stderr
    assert est.censored == 0


def test_hit_before_return_neighbors_certain(c8):
    est = hit_before_return(c8, 0, [1, 7], trials=1000, seed=4)
    assert est.p_hat == 1.0


def test_hit_before_return_antipode(c8):
    est = hit_before_return(c8, 0, [4], trials=100_000, seed=6)
    assert abs(est.p_hat - 0.25) <= 4 * est.stderr


WALK_ORACLE_SPECS = {
    "torus12x12": (spec_torus(12, 12), 41),
    "c60_chords3": (spec_cyclic_chords(60, 3), 42),
    "torus6x8x3_full": (spec_torus(6, 8, 3, full_last=True), 43),
}


@pytest.mark.parametrize("name", sorted(WALK_ORACLE_SPECS))
def test_hit_before_return_matches_resistance(name):
    # on a Cayley graph P_0(hit v before returning to 0) = 1 / (deg R_2(0, v))
    spec, seed = WALK_ORACLE_SPECS[name]
    g = build_cayley_graph(spec)
    r, (_, v) = max_resistance(g, 2.0)
    est = hit_before_return(g, 0, [v], trials=50_000, seed=seed)
    assert est.censored == 0
    assert abs(est.p_hat - 1.0 / (g.max_degree * r)) <= 4 * est.stderr


def test_hit_before_return_censoring(c8):
    with pytest.warns(UserWarning):
        est = hit_before_return(c8, 0, [4], trials=2000, seed=8, step_cap=2)
    assert est.censored > 0
    assert est.trials == 2000 - est.censored
    assert 0.0 <= est.p_hat <= 1.0


def test_walk_argument_validation(c8):
    b = build_ball(spec_cycle(8), 2)
    with pytest.raises(RadiusTooSmall):
        simulate_escape(b, 3, 10, seed=0)
    with pytest.raises(BadArguments):
        simulate_escape(b, 0, 10, seed=0)
    with pytest.raises(BadArguments):
        hit_before_return(c8, 0, [], 10, seed=0)
    with pytest.raises(BadArguments):
        hit_before_return(c8, 0, [0, 1], 10, seed=0)


def test_escape_identity_chord_graph():
    from vtres import spec_cyclic_chords
    b = build_ball(spec_cyclic_chords(24, 2), 4)
    truth = escape_via_resistance(b, 4)
    est = simulate_escape(b, 4, trials=50_000, seed=17)
    assert abs(est.p_hat - truth) <= 4 * est.stderr


def test_escape_identity_z3():
    b = build_ball(spec_lattice(3), 8)
    truth = escape_via_resistance(b, 8)
    est = simulate_escape(b, 8, trials=50_000, seed=13)
    assert abs(est.p_hat - truth) <= 4 * est.stderr


def test_escape_identity_mode_sum_z2_r64():
    # P[0 -> S(64)] = 1/(deg R_2(0 <-> S(64))), and that R_2 is the mode sum on B(63)
    spec = spec_lattice(2)
    truth = 1.0 / (8 * box_ball_resistance(spec_offsets(spec), spec.factors, 63))
    est = simulate_escape(build_ball(spec, 64), 64, trials=60_000, seed=64)
    assert abs(est.p_hat - truth) <= 4 * est.stderr


# --- reference: the per-estimator loops that preceded the shared kernel ---

def _ref_table(g):
    deg = g.degree
    table = np.zeros((g.n, int(deg.max())), dtype=np.int64)
    rows = np.repeat(np.arange(g.n), deg)
    rank = np.arange(rows.size) - np.repeat(np.cumsum(deg) - deg, deg)
    table[rows, rank] = np.repeat(g.nbr, g.mult)
    return table, deg.astype(np.int64)


def _ref_chunks(trials, seed):
    for chunk, first in enumerate(range(0, trials, CHUNK)):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
        yield rng, min(CHUNK, trials - first)


def _ref_simulate_escape(ball, r, trials, seed):
    table, deg = _ref_table(ball.base)
    hits = 0
    for rng, size in _ref_chunks(trials, seed):
        pos = np.full(size, ball.center, dtype=np.int64)
        while len(pos):
            slot = (rng.random(len(pos)) * deg[pos]).astype(np.int64)
            pos = table[pos, slot]
            escaped = ball.layer[pos] >= r
            hits += int(escaped.sum())
            pos = pos[~escaped & (pos != ball.center)]
    return _estimate(hits, trials, seed)


def _ref_escape_profile(ball, r_max, trials, seed):
    table, deg = _ref_table(ball.base)
    reach_counts = np.zeros(r_max + 1, dtype=np.int64)
    for rng, size in _ref_chunks(trials, seed):
        pos = np.full(size, ball.center, dtype=np.int64)
        maxlayer = np.zeros(size, dtype=np.int64)
        while len(pos):
            slot = (rng.random(len(pos)) * deg[pos]).astype(np.int64)
            pos = table[pos, slot]
            np.maximum(maxlayer, ball.layer[pos], out=maxlayer)
            done = (ball.layer[pos] >= r_max) | (pos == ball.center)
            if done.any():
                np.add.at(reach_counts, maxlayer[done], 1)
                pos, maxlayer = pos[~done], maxlayer[~done]
    tail = np.cumsum(reach_counts[::-1])[::-1]
    return [_estimate(int(tail[r]), trials, seed) for r in range(1, r_max + 1)]


def _ref_hit_before_return(g, x, Y, trials, seed, step_cap):
    in_y = np.zeros(g.n, dtype=bool)
    in_y[list(Y)] = True
    table, deg = _ref_table(g)
    hits = censored = 0
    for rng, size in _ref_chunks(trials, seed):
        pos = np.full(size, x, dtype=np.int64)
        for _step in range(step_cap):
            if not len(pos):
                break
            slot = (rng.random(len(pos)) * deg[pos]).astype(np.int64)
            pos = table[pos, slot]
            hit = in_y[pos]
            hits += int(hit.sum())
            pos = pos[~hit & (pos != x)]
        censored += len(pos)
    return _estimate(hits, trials - censored, seed, censored=censored)


@pytest.mark.parametrize("spec, radius, r, trials, seed", [
    (spec_lattice(2), 6, 6, 40_000, 21),
    (spec_lattice(2), 9, 5, 20_000, 22),          # ball wider than r
    (spec_lattice(3), 5, 5, 20_000, 23),
    (spec_cycle(20), 7, 7, 20_000, 24),
    (spec_cyclic_chords(24, 2), 5, 4, 20_000, 25),
    (spec_z_times_torus(5, 5), 6, 6, 20_000, 26),
    (spec_line(), 130, 130, 2_000, 27),           # scores past int8
])
def test_escape_matches_loop_reference(spec, radius, r, trials, seed):
    b = build_ball(spec, radius)
    assert escape_profile(b, r, trials, seed) == _ref_escape_profile(b, r, trials, seed)
    assert simulate_escape(b, r, trials, seed) == _ref_simulate_escape(b, r, trials, seed)


def _irregular_graph():
    # degrees 3, 4, 4, 5, 2, with multiplicities above one
    return from_edge_list(5, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 4, 1),
                              (0, 4, 1), (1, 3, 1)])


@pytest.mark.parametrize("case, x, Y, step_cap", [
    ("c8", 0, [4], 100 * 64),
    ("c8", 0, [4], 2),
    ("c8", 3, [0, 5], 100 * 64),
    ("k4", 0, [1], 100 * 16),
    ("irregular", 0, [3], 100 * 25),
    ("irregular", 4, [1, 2], 3),
])
def test_hit_before_return_matches_loop_reference(c8, case, x, Y, step_cap):
    g = {"c8": c8, "k4": complete_graph(4), "irregular": _irregular_graph()}[case]
    want = _ref_hit_before_return(g, x, Y, 30_000, 31, step_cap)
    if want.censored:
        with pytest.warns(UserWarning):
            got = hit_before_return(g, x, Y, 30_000, 31, step_cap=step_cap)
    else:
        got = hit_before_return(g, x, Y, 30_000, 31, step_cap=step_cap)
    assert got == want


# --- the pool: chunks join it at different steps, each with its own stream ---

@pytest.mark.parametrize("spec, radius, trials, seed", [
    (spec_lattice(2), 6, 3 * CHUNK + 5, 32),      # partial last chunk, staggered joins
    (spec_lattice(3), 4, CHUNK - 1, 33),          # a single partial chunk
    (spec_cycle(20), 5, 1000, 34),
])
def test_escape_pool_matches_loop_reference(spec, radius, trials, seed):
    b = build_ball(spec, radius)
    assert escape_profile(b, radius, trials, seed) == _ref_escape_profile(b, radius, trials, seed)


@pytest.mark.parametrize("case, x, Y, trials, step_cap", [
    # on C8 a chunk outlives the next one's joining, so chunks are censored
    # at their own ages while later ones keep walking
    ("c8", 0, [4], 3 * CHUNK + 5, 8),
    ("c8", 0, [4], 3 * CHUNK + 5, 10),
    # per-walk degrees are compacted along with the pool
    ("irregular", 0, [3], 2 * CHUNK + 7, 100 * 25),
    ("irregular", 4, [1, 2], 2 * CHUNK + 7, 3),
    ("irregular", 0, [3], 999, 100 * 25),
    # caps that censor thousands of walks mid-chunk, so the per-walk degrees
    # are compacted on a censoring
    ("irregular", 0, [3], 2 * CHUNK + 7, 2),
    ("irregular", 0, [3], 3 * CHUNK + 5, 3),
    ("irregular", 1, [4], 3 * CHUNK + 11, 5),
])
def test_hit_before_return_pool_matches_loop_reference(c8, case, x, Y, trials, step_cap):
    g = {"c8": c8, "irregular": _irregular_graph()}[case]
    want = _ref_hit_before_return(g, x, Y, trials, 35, step_cap)
    if want.censored:
        with pytest.warns(UserWarning):
            got = hit_before_return(g, x, Y, trials, 35, step_cap=step_cap)
    else:
        got = hit_before_return(g, x, Y, trials, 35, step_cap=step_cap)
    assert got == want


def test_walk_pool_memory_is_bounded():
    # the pool holds at most four chunks of walks, however many trials run
    import tracemalloc
    # in-process: tracemalloc cannot see a forked worker's allocations
    b = build_ball(spec_lattice(2), 4)
    tracemalloc.start()
    try:
        _walk(b.base, b.center, b.layer, 16 * CHUNK, 1, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# --- the workers: chunk ids striped over forked processes ---

def _walk_case(case, c8):
    """``(graph, start, score, trials, seed, step_cap)`` of a pool case above."""
    if case == "z2-staggered":
        b = build_ball(spec_lattice(2), 6)
        return b.base, b.center, b.layer, 3 * CHUNK + 5, 32, np.inf
    g, x, Y, trials, cap = {
        "c8-cap8": (c8, 0, [4], 3 * CHUNK + 5, 8),
        "c8-cap10": (c8, 0, [4], 3 * CHUNK + 5, 10),
        "irregular": (_irregular_graph(), 0, [3], 2 * CHUNK + 7, 100 * 25),
        "irregular-cap3": (_irregular_graph(), 4, [1, 2], 2 * CHUNK + 7, 3),
    }[case]
    in_y = np.zeros(g.n, dtype=bool)
    in_y[Y] = True
    return g, x, in_y, trials, 35, cap


def _assert_no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child at all, not even a zombie
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", ["z2-staggered", "c8-cap8", "c8-cap10",
                                  "irregular", "irregular-cap3"])
def test_walk_counts_do_not_depend_on_the_worker_count(c8, case):
    args = _walk_case(case, c8)
    n_chunks = -(-args[3] // CHUNK)
    counts, censored = _walk(*args, workers=1)
    assert censored > 0 or not case.startswith("c8")  # both C8 caps censor walks
    for k in (2, 3, n_chunks + 1):
        got_counts, got_censored = _walk(*args, workers=k)
        assert got_counts.tolist() == counts.tolist() and got_censored == censored, k
        _assert_no_children()


@pytest.mark.parametrize("case", ["z2-staggered", "c8-cap8", "c8-cap10",
                                  "irregular", "irregular-cap3"])
def test_walk_counts_do_not_depend_on_the_pool_width(monkeypatch, c8, case):
    # at 4 * CHUNK every chunk of these cases joins the pool at step 0, and
    # the loop-reference tests above check that width; at 1.25 chunks the
    # chunks join at different steps, and on C8 the caps censor one chunk
    # while later ones keep walking; at one chunk they run one after another
    args = _walk_case(case, c8)
    widths = (CHUNK, CHUNK + CHUNK // 4, 4 * CHUNK)
    got = []
    for pool in widths:
        monkeypatch.setattr(walks, "POOL", pool)
        counts, censored = _walk(*args, workers=1)
        got.append((counts.tolist(), censored))
    assert got == [got[-1]] * len(widths)
    assert got[0][1] > 0 or not case.startswith("c8")


def _failing_chunk_rng(monkeypatch, fail):
    real = walks._chunk_rng

    def chunk_rng(seed, chunk):
        if chunk == 1:
            fail()
        return real(seed, chunk)
    monkeypatch.setattr(walks, "_chunk_rng", chunk_rng)


def _raise():
    raise ValueError("chunk 1 failed")


@pytest.mark.parametrize("fail, error, match", [
    (_raise, ValueError, "chunk 1 failed"),                 # raised in the worker
    (lambda: os._exit(3), RuntimeError, "exited with code 3"),  # the worker dies
])
def test_failing_walk_worker_raises_in_the_parent(monkeypatch, c8, fail, error, match):
    _failing_chunk_rng(monkeypatch, fail)
    with pytest.raises(error, match=match):
        _walk(*_walk_case("c8-cap10", c8), workers=3)
    _assert_no_children()


def test_interrupted_walk_kills_its_workers(monkeypatch, c8):
    # the worker of chunk 1 interrupts the parent, then hangs
    def interrupt():
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60)
    _failing_chunk_rng(monkeypatch, interrupt)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _walk(*_walk_case("z2-staggered", c8), workers=2)
    assert time.monotonic() - t0 < 30
    _assert_no_children()


def _proc_state(pid: int) -> str:
    """The state letter of /proc/<pid>/stat, or "gone" once the pid is reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return "gone"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or walks._usable_cpus() < 2,
                    reason="needs /proc and two usable CPUs")
def test_walk_workers_die_with_a_killed_parent(tmp_path):
    # SIGKILL leaves the parent no chance to kill its workers; each worker
    # asked the kernel to kill it when the parent dies
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "vtres", "escape", "--family", "explicit",
         "--factors", "inf,inf", "--generators", "box", "--r", "1:16",
         "--trials", "4000000", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"
        if not os.path.exists(children):
            pytest.skip("kernel does not list children in /proc")
        workers, deadline = [], time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            with open(children) as fh:
                workers = [int(pid) for pid in fh.read().split()]
            time.sleep(0.02)
        assert len(workers) >= 2, "the escape run forked no walk workers"
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2
        while time.monotonic() < deadline:
            states = [_proc_state(pid) for pid in workers]
            if all(state in ("gone", "Z") for state in states):
                break
            time.sleep(0.01)
        assert all(state in ("gone", "Z") for state in states), states
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)


def test_walk_in_a_daemonic_worker_runs_in_process():
    # a Pool worker may not fork children of its own
    b = build_ball(spec_lattice(2), 6)
    want = escape_profile(b, 6, 3 * CHUNK + 5, 32)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(escape_profile, (b, 6, 3 * CHUNK + 5, 32)) == want


# --- seeds: each in [0, 2**64) is its own Philox key ---

@pytest.mark.parametrize("seed", [-1, 2**64])
def test_walk_estimators_refuse_seeds_outside_the_key_range(c8, seed):
    b = build_ball(spec_cycle(8), 2)
    for estimate in (lambda: escape_profile(b, 2, 10, seed),
                     lambda: simulate_escape(b, 2, 10, seed),
                     lambda: hit_before_return(c8, 0, [4], 10, seed)):
        with pytest.raises(BadArguments, match="seed"):
            estimate()


def test_walk_seeds_at_the_ends_of_the_key_range():
    b = build_ball(spec_lattice(2), 3)
    seeds = (0, 2**63, 2**63 + 1, 2**64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the key is cast exactly, never through float64
        for seed in seeds:
            assert escape_profile(b, 3, 2000, seed)[0].p_hat == 1.0
        firsts = {_chunk_rng(seed, 0).random() for seed in seeds}
    assert len(firsts) == len(seeds)


def test_escape_profile_stream_is_pinned():
    # hit counts recorded with the per-estimator loops; any change to the
    # draw order or the slot rule of the walk stream changes them
    prof = escape_profile(build_ball(spec_lattice(2), 8), 8, 50_000, 3)
    assert [round(e.p_hat * e.trials) for e in prof] == [
        50000, 39863, 35232, 32493, 30676, 29240, 28174, 27256]
    prof = escape_profile(build_ball(spec_line(), 130), 130, 20_000, 4)
    hits = [round(e.p_hat * e.trials) for e in prof]
    assert hits[:5] == [20000, 10043, 6675, 5023, 4025]
    assert hits[125:] == [167, 165, 165, 165, 163]


def test_escape_profile_past_the_last_layer_is_empty_set():
    # the 6x6 box torus ends at layer 3, so S(x, 4) and S(x, 5) are empty
    ball = build_ball(spec_torus(6, 6), 5)
    assert len(escape_profile(ball, 3, 1000, 1)) == 3
    for r_max in (4, 5):
        with pytest.raises(EmptySet, match=rf"S\(x, {r_max}\) is empty"):
            escape_profile(ball, r_max, 1000, 1)


def test_hit_before_return_rejects_isolated_start():
    g = from_edge_list(4, [(0, 1, 1), (1, 3, 1)])
    with pytest.raises(BadArguments):
        hit_before_return(g, 2, [3], 1000, 1)
