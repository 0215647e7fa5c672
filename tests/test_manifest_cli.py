import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from vtres import (
    ExperimentManifest,
    build_ball,
    emit_manifest,
    parse_manifest,
    run,
    spec_cycle,
    spec_cyclic_chords,
    spec_explicit,
    spec_lattice,
    spec_z_times_torus,
)
from vtres.errors import BadArguments, MissingParam
from vtres.graphs import DEFAULT_SIZE_CAP, orbit_ball
from vtres.manifest import Table, emit
from vtres.textspec import parse_document

from conftest import box_torus_fourier_resistance, reference_orbits

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _cli(*args, cwd=None, env_extra=None, timeout=None, preexec_fn=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "vtres", *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=timeout, preexec_fn=preexec_fn)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_manifest_round_trip():
    man = ExperimentManifest("escape", spec_cycle(20),
                             {"r": [1, 2, 5], "trials": 1000, "seed": 7},
                             "artifacts", "csv")
    assert parse_manifest(emit_manifest(man)) == man
    assert emit_manifest(parse_manifest(emit_manifest(man))) == emit_manifest(man)


def test_round_trip_with_every_param():
    man = ExperimentManifest(
        "resistance", spec_lattice(2),
        {"p": [2.0, 3.5], "r": [2, 4], "dump_potential": 1},
        "arts", "structured-text")
    assert parse_manifest(emit_manifest(man)) == man


def test_manifest_rejects_unknown_params():
    with pytest.raises(BadArguments):
        ExperimentManifest("escape", spec_cycle(8),
                           {"r": [1], "trials": 10, "seed": 0, "bogus": 1})
    with pytest.raises(MissingParam):
        ExperimentManifest("escape", spec_cycle(8), {"r": [1], "seed": 0})
    with pytest.raises(BadArguments):
        ExperimentManifest("sandwich", None,
                           {"p": [2.0], "r_min": 1, "r_max": 2})


def test_manifest_rejects_unknown_keys():
    man = ExperimentManifest("growth", spec_cycle(8, ), {}, "o", "csv")
    text = emit_manifest(man) + "mystery.key = 1\n"
    with pytest.raises(BadArguments):
        parse_manifest(text)


def test_run_escape_row_shape(tmp_path):
    spec = spec_cycle(20)
    man = ExperimentManifest("escape", spec,
                             {"r": [1, 5], "trials": 2000, "seed": 7},
                             "e", "csv")
    result = run(man, base_dir=str(tmp_path))
    assert result.exit_code == 0
    csv = _read(result.files[0]).decode().splitlines()
    assert csv[0].startswith("# manifest_hash = ")
    assert csv[1] == "# tool_version = vtres-0.1.0"
    assert csv[2] == "# rng = philox4x64"
    assert csv[3] == "spec_hash,r,trials,p_hat,stderr,seed"
    assert len(csv) == 6
    r5 = csv[5].split(",")
    assert float(r5[3]) == pytest.approx(0.2, abs=0.05)


def test_runs_are_byte_identical(tmp_path):
    man = ExperimentManifest("escape", spec_cycle(12),
                             {"r": [1, 2, 3], "trials": 3000, "seed": 11},
                             "e", "csv")
    r1 = run(man, base_dir=str(tmp_path / "a"))
    r2 = run(man, base_dir=str(tmp_path / "b"))
    for f1, f2 in zip(r1.files, r2.files):
        assert _read(f1) == _read(f2)


def test_run_growth(tmp_path):
    spec = spec_lattice(3)
    spec = type(spec)(spec.family, spec.factors, spec.generators, radius=4)
    man = ExperimentManifest("growth", spec, {}, "g", "csv")
    result = run(man, base_dir=str(tmp_path))
    rows = [l for l in _read(result.files[0]).decode().splitlines()
            if l and not l.startswith("#") and not l.startswith("r,")]
    betas = [int(r.split(",")[1]) for r in rows]
    assert betas == [(2 * r + 1) ** 3 for r in range(5)]


def test_run_isoperimetry_status(tmp_path):
    man = ExperimentManifest("isoperimetry", spec_cyclic_chords(10, 4),
                             {"max_n": 14}, "iso", "csv")
    result = run(man, base_dir=str(tmp_path))
    assert result.exit_code == 0
    assert any(r.quantity == "cyclic_edge_isoperimetry" for r in result.reports)
    summary = _read(result.files[-1]).decode()
    assert "status = PASS" in summary


@pytest.mark.parametrize("spec_args,digests", [
    (("--family", "cyclic_chords", "--factors", "14", "--generators", "chords:3"),
     {"profile.csv": "b2a4d6d200791093e7dba133403c62b95c7c935245572e9c28dfa4d9e6147474",
      "csc.csv": "4a033f9cd9eb7001b8386c483adbbb0bc41904b8fbd4f890df063049aa19ec95"}),
    (("--family", "torus_product", "--factors", "4,4", "--generators", "box",
      "--max-n", "16"),
     {"profile.csv": "6c37041ab142e2a7b84839bfed68cbee143df51e3eebb7a4cfea6f1c48682378",
      "csc.csv": "aa0367629769f12c4a050d64ac2e579bc98d03476ee9980f25df2abe3d7ed729"}),
])
def test_cli_iso_tables_are_golden(tmp_path, spec_args, digests):
    # pins minima and witness masks byte for byte; the out path is part of
    # the manifest, whose hash heads every table
    proc = _cli("iso", *spec_args, "--out", "iso", cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name, digest in digests.items():
        assert hashlib.sha256(_read(tmp_path / "iso" / name)).hexdigest() == digest, name


@pytest.mark.parametrize("generators,has_row", [
    ("chords:3", True), ("chords:3+full:0", False), ("chords:2+chords:3", False),
])
def test_cli_iso_chord_lemma_only_on_pure_chord_graphs(tmp_path, generators, has_row):
    # chords:3+full:0 generates K12 and chords:2+chords:3 the width-3 graph;
    # a k=2 or k=3 lemma row would describe a graph that was never profiled
    proc = _cli("iso", "--family", "cyclic_chords", "--factors", "12",
                "--generators", generators, "--out", str(tmp_path / "i"))
    assert proc.returncode == 0, proc.stderr
    csc = _read(tmp_path / "i" / "csc.csv").decode()
    assert ("cyclic_edge_isoperimetry" in csc) == has_row


def test_cli_iso_rejects_graphs_wider_than_a_mask(tmp_path):
    proc = _cli("iso", "--family", "torus_product", "--factors", "64",
                "--generators", "box", "--max-n", "100", "--out", str(tmp_path / "i"),
                timeout=60)
    assert proc.returncode == 2
    assert "error.type = SizeCapExceeded" in proc.stderr


def test_run_sandwich_metrics(tmp_path):
    man = ExperimentManifest("sandwich", spec_lattice(2),
                             {"p": [2.0], "r_min": 2, "r_max": 6}, "s", "csv")
    result = run(man, base_dir=str(tmp_path))
    assert "p2.log_regime_spread" in result.metrics
    assert result.metrics["p2.max_computed_over_upper"] <= 1.0


def test_run_var_converse(tmp_path):
    man = ExperimentManifest("var_converse", spec_z_times_torus(3, 3),
                             {"n": 4, "r": [8, 12]}, "v", "csv")
    result = run(man, base_dir=str(tmp_path))
    rows = [l.split(",") for l in _read(result.files[0]).decode().splitlines()[3:]]
    assert all(float(row[5]) >= 1.0 for row in rows)  # computed >= formula RHS


def test_run_table1_reports(tmp_path):
    man = ExperimentManifest("table1", None, {"n2": [8], "n3": [6]}, "t", "csv")
    result = run(man, base_dir=str(tmp_path))
    assert result.exit_code == 0
    assert all(r.status == "PASS" for r in result.reports)


def _csv_rows(path):
    lines = [line for line in _read(path).decode().splitlines() if not line.startswith("#")]

    def cell(text):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                pass
        return text
    return [dict(zip(lines[0].split(","), map(cell, line.split(",")))) for line in lines[1:]]


def _claim_metrics(experiment, rows):
    """Every summary metric of a claim table, recomputed from its rows."""
    out = {}
    if experiment == "sandwich":
        for p in dict.fromkeys(row["p"] for row in rows):
            group = [row for row in rows if row["p"] == p]
            key = "p" + f"{p:g}".replace(".", "_")
            rs = [row["r"] for row in group]
            regime = [row["computed"] / math.log(row["r"]) for row in group if row["r"] >= 2]
            if regime:
                out[f"{key}.log_regime_spread"] = max(regime) / min(regime)
            if len(rs) >= 2 and min(rs) >= 2:
                for name, col in (("slope_computed", "computed"), ("slope_upper", "upper_rhs")):
                    out[f"{key}.{name}"] = np.polyfit(
                        np.log(np.log(rs)), np.log([row[col] for row in group]), 1)[0]
            out[f"{key}.max_lower_over_computed"] = max(
                row["lower_rhs"] / row["computed"] for row in group)
            out[f"{key}.max_computed_over_upper"] = max(
                row["computed"] / row["upper_rhs"] for row in group)
    elif experiment == "table1":
        for d in {row["d"] for row in rows}:
            vals = [row["nw_bound"] / row["regime_value"] for row in rows if row["d"] == d]
            out[f"d{d}.regime_spread"] = max(vals) / min(vals)
    elif experiment == "var_converse":
        vals = [row["computed"] / math.log(row["r"] / row["n"]) for row in rows]
        out["log_regime_spread"] = max(vals) / min(vals)
    return out


CLAIM_GRIDS = {
    "sandwich": (spec_lattice(2), {"p": [2.0, 2.5], "r_min": 2, "r_max": 5}),
    "sandwich-from-r1": (spec_lattice(2), {"p": [2.0, 3.0], "r_min": 1, "r_max": 4}),
    "sandwich-one-radius": (spec_lattice(2), {"p": [2.0], "r_min": 1, "r_max": 1}),
    "sandwich-two-radii": (spec_lattice(3), {"p": [2.0], "r_min": 2, "r_max": 3}),
    "table1": (None, {"n2": [6, 8], "n3": [4], "nlin": [8, 12]}),
    "table1-one-row": (None, {"n2": [8]}),
    "var_converse": (spec_z_times_torus(3, 3), {"n": 2, "r": [4, 6, 8]}),
    "sharpness_nw": (None, {"p": [2.0, 3.0], "d": [2], "n": [4, 6]}),
}


@pytest.mark.parametrize("case", sorted(CLAIM_GRIDS))
def test_claim_metrics_recompute_from_the_emitted_rows(tmp_path, case):
    experiment = case.split("-")[0]
    spec, params = CLAIM_GRIDS[case]
    result = run(ExperimentManifest(experiment, spec, params, "o", "csv"),
                 base_dir=str(tmp_path))
    rows = _csv_rows(tmp_path / "o" / f"{experiment}.csv")
    summary = parse_document((tmp_path / "o" / "summary.txt").read_text())
    got = {k[len("metrics."):]: v for k, v in summary.items() if k.startswith("metrics.")}
    want = _claim_metrics(experiment, rows)
    assert sorted(got) == sorted(want) == sorted(result.metrics)
    for key, value in want.items():
        assert math.isclose(got[key], value, rel_tol=1e-12), (key, got[key], value)
    if case == "sandwich-one-radius":
        assert sorted(got) == ["p2.max_computed_over_upper", "p2.max_lower_over_computed"]
    if case == "table1-one-row":
        assert got == {"d2.regime_spread": 1.0}
    if case == "sharpness_nw":
        assert got == {} and len(rows) == 4


def test_run_resistance_dump_potential(tmp_path):
    man = ExperimentManifest("resistance", spec_lattice(2),
                             {"p": [2.5], "r": [2], "dump_potential": 1},
                             "r", "csv")
    result = run(man, base_dir=str(tmp_path))
    (pot_file,) = [f for f in result.files if "potential" in f]
    body = _read(pot_file).decode()
    assert "resistance = " in body and "values.v0 = 1.0" in body
    from vtres.textspec import parse_document
    doc = parse_document(body)
    assert doc["capacity"] * doc["resistance"] == pytest.approx(1.0)


def test_emit_plotdata(tmp_path):
    table = Table("demo", ["x", "y"], [(1, 2.0), (2, 4.0)])
    (path,) = emit([table], "plotdata", str(tmp_path), "cafe")
    text = _read(path).decode()
    assert "# series: y" in text
    assert "1 2.0" in text


def test_cli_escape_and_status(tmp_path):
    out = tmp_path / "o"
    proc = _cli("escape", "--family", "torus_product", "--factors", "20",
                "--generators", "box", "--r", "1:4", "--trials", "2000",
                "--seed", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "status = PASS" in proc.stdout
    assert (out / "escape.csv").exists()


def test_escape_rejects_radius_below_one(tmp_path):
    proc = _cli("escape", "--family", "torus_product", "--factors", "20",
                "--generators", "box", "--r", "0,3", "--trials", "100",
                "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "error.type = BadArguments" in proc.stderr
    assert "status = PASS" not in proc.stdout
    man = ExperimentManifest("escape", spec_cycle(20),
                             {"r": [-2, 3], "trials": 100, "seed": 0}, "e", "csv")
    with pytest.raises(BadArguments):
        run(man, base_dir=str(tmp_path))


@pytest.mark.parametrize("seed", ["-1", str(2**64 + 7)])
def test_escape_refuses_a_seed_outside_the_key_range_before_building(monkeypatch, capsys,
                                                                     tmp_path, seed):
    import vtres.manifest
    from vtres.cli import main

    def unreachable(*args, **kwargs):
        raise AssertionError("a ball was built for a seed the walks refuse")

    monkeypatch.setattr(vtres.manifest, "build_ball", unreachable)
    argv = [f"--seed={seed}", "escape", "--family", "explicit", "--factors", "inf,inf",
            "--generators", "box", "--r", "1:3", "--trials", "2000"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["error.type = BadArguments",
                       f"error.message = seed must lie in [0, 2**64), got {seed}"]


def _tree(root):
    return {os.path.relpath(os.path.join(d, f), root): _read(os.path.join(d, f))
            for d, _, files in os.walk(root) for f in files}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_escape_output_does_not_depend_on_the_cpu_count(tmp_path):
    # criterion 11 across CPU counts: one CPU walks every chunk in-process,
    # the full set forks a worker per CPU
    from vtres.walks import CHUNK
    one = min(os.sched_getaffinity(0))
    args = ("escape", "--family", "explicit", "--factors", "inf,inf", "--generators", "box",
            "--r", "1:6", "--trials", str(3 * CHUNK + 5), "--seed", "7")
    out = tmp_path / "o"  # the manifest hash covers the output path
    pinned = _cli(*args, "--out", str(out), preexec_fn=lambda: os.sched_setaffinity(0, {one}))
    assert pinned.returncode == 0, pinned.stderr
    want = _tree(out)
    assert "escape.csv" in want
    out.rename(tmp_path / "pinned")
    full = _cli(*args, "--out", str(out))
    assert full.returncode == 0, full.stderr
    assert full.stdout == pinned.stdout
    assert _tree(out) == want


Z3_AXES = spec_explicit((None,) * 3, [s for i in range(3) for s in (
    tuple(int(j == i) for j in range(3)), tuple(-int(j == i) for j in range(3)))])


@pytest.mark.parametrize("experiment, spec, params, cap", [
    # Z^3 with axis generators has no closed form: every radius is on the band
    ("sandwich", Z3_AXES, {"p": [2.0], "r_min": 30, "r_max": 40}, 200_000),
    ("var_converse", spec_lattice(2), {"n": 8, "r": [100, 120, 128]}, 1_000_000)],
    ids=["sandwich_z3_axes", "var_converse_z2"])
def test_p2_sweep_output_does_not_depend_on_the_size_cap(experiment, spec, params, cap,
                                                         tmp_path):
    # criterion 11 across size caps: the band's budget is fixed, so a cap
    # that admits the ball leaves every radius on the path it takes by default
    man = ExperimentManifest(experiment, spec, params, "o", "csv")
    run(man, base_dir=str(tmp_path))
    want = _tree(tmp_path / "o")
    assert f"{experiment}.csv" in want
    run(man, base_dir=str(tmp_path), size_cap=cap)
    assert _tree(tmp_path / "o") == want


def test_potential_dump_does_not_change_the_resistance_rows(tmp_path):
    # the rows come from one path with or without a dump, and the dump's
    # full-ball solve agrees with its row
    chords = spec_explicit((None, None), [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
    params = {"p": [2.0, 3.0], "r": [3, 5, 8]}

    def rows(out):
        lines = _read(tmp_path / out / "resistance.csv").decode().splitlines()
        return [line for line in lines if not line.startswith("#")]

    run(ExperimentManifest("resistance", chords, params, "plain", "csv"), base_dir=str(tmp_path))
    run(ExperimentManifest("resistance", chords, {**params, "dump_potential": 1}, "dump", "csv"),
        base_dir=str(tmp_path))
    assert rows("dump") == rows("plain")
    header, *body = rows("dump")
    assert header == "p,r,beta_r,resistance" and len(body) == 6
    for row in body:
        p, r, _, value = row.split(",")
        dump = tmp_path / "dump" / f"potential_p{float(p):g}_r{r}.txt"
        doc = parse_document(_read(dump).decode())
        assert doc["p"] == float(p)
        assert abs(doc["resistance"] - float(value)) <= 1e-12 * float(value), row


def test_cli_emit_manifest_round_trip(tmp_path):
    proc = _cli("escape", "--family", "torus_product", "--factors", "12",
                "--generators", "box", "--r", "1,2", "--trials", "100",
                "--seed", "1", "--emit-manifest")
    assert proc.returncode == 0, proc.stderr
    man = parse_manifest(proc.stdout)
    assert man.experiment == "escape"
    man_file = tmp_path / "m.txt"
    man_file.write_text(proc.stdout)
    proc2 = _cli("run", str(man_file), cwd=str(tmp_path))
    assert proc2.returncode == 0, proc2.stderr
    assert (tmp_path / "out" / "escape.csv").exists()


def test_cli_error_record():
    proc = _cli("escape", "--family", "torus_product", "--factors", "1",
                "--generators", "box", "--r", "1", "--trials", "10")
    assert proc.returncode == 2
    assert "error.type = BadArguments" in proc.stderr
    assert "error.message" in proc.stderr


@pytest.mark.parametrize("p,error", [("inf", "BadArguments"), ("nan", "BadArguments"),
                                     ("5000", "NonConvergence")])
def test_cli_non_finite_and_huge_p_are_typed_errors(tmp_path, p, error):
    # at p = 5000 every |df|^p of the iterate underflows, so E_p(f) = 0
    z2 = ("--family", "explicit", "--factors", "inf,inf", "--generators", "box")
    proc = _cli("resist", *z2, "--p", p, "--r", "3", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert f"error.type = {error}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("eps", ["nan", "-1000"])
def test_cli_table1_bad_eps_is_a_typed_error(capsys, tmp_path, eps):
    # the fiber size ceil(8^(1 - eps)) is a ValueError at nan and an
    # OverflowError at -1000
    from vtres.cli import main
    assert main(["repro", "table1", "--nlin", "8", f"--eps={eps}",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error.type = BadArguments", err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("p", ["0.5", "1", "-inf", "inf", "nan", "2,0.5"])
def test_cli_bad_p_fails_before_any_ball_is_built(monkeypatch, capsys, tmp_path, p):
    import vtres.manifest
    from vtres.cli import main

    def unreachable(*args, **kwargs):
        raise AssertionError("a ball was built for a p the solver refuses")

    monkeypatch.setattr(vtres.manifest, "build_ball", unreachable)
    monkeypatch.setattr(vtres.manifest, "orbit_ball", unreachable)
    z2 = ["--family", "explicit", "--factors", "inf,inf", "--generators", "box"]
    for argv in (["resist", *z2, f"--p={p}", "--r", "600"],
                 ["verify", *z2, f"--p={p}", "--r-min", "1", "--r-max", "600"]):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error.type = BadArguments", (argv, err)
    assert not (tmp_path / "o").exists()
    for experiment, params in (("resistance", {"p": [float(x) for x in p.split(",")]}),
                               ("sharpness_nw", {"p": [float(x) for x in p.split(",")],
                                                 "d": [2], "n": [8]})):
        with pytest.raises(BadArguments):
            ExperimentManifest(experiment, None if experiment == "sharpness_nw"
                               else spec_cycle(8), params)


@pytest.mark.parametrize("argv,sphere", [
    (["escape", "--family", "torus_product", "--factors", "6,6", "--generators", "box",
      "--r", "1:5", "--trials", "1000"], 5),
    (["resist", "--family", "cyclic_chords", "--factors", "7", "--generators", "chords:3",
      "--p", "2", "--r", "1"], 2),
    (["verify", "--family", "torus_product", "--factors", "6,6", "--generators", "box",
      "--r-max", "4"], 4),
], ids=["escape", "resist", "verify"])
def test_cli_empty_sphere_is_a_typed_error(tmp_path, argv, sphere):
    # each asks for a sphere past the last layer of a finite graph
    proc = _cli(*argv, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[:2] == [
        "error.type = EmptySet", f"error.message = sphere S(x, {sphere}) is empty"
        + (": the graph ends at layer 3" if argv[0] == "escape" else "")]


def test_cli_resist_size_cap_counts_orbits(tmp_path):
    # B(10) of Z^3 has 9,261 vertices but 286 orbits, under a cap of 1,000
    z3 = ("--family", "explicit", "--factors", "inf,inf,inf", "--generators", "box")
    proc = _cli("resist", *z3, "--p", "3", "--r", "9", "--size-cap", "1000",
                "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    header, row = _read(tmp_path / "o" / "resistance.csv").decode().splitlines()[-2:]
    assert dict(zip(header.split(","), row.split(",")))["beta_r"] == str(19 ** 3)


def test_cli_growth_size_cap_counts_orbits(tmp_path):
    # B(9) of Z^3 has 6,859 vertices but 220 orbits, under a cap of 1,000
    z3 = ("--family", "explicit", "--factors", "inf,inf,inf", "--generators", "box")
    proc = _cli("growth", *z3, "--radius", "9", "--size-cap", "1000",
                "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in _read(tmp_path / "o" / "growth.csv").decode().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "r,beta,sigma"
    assert lines[-1] == f"9,{19 ** 3},{19 ** 3 - 17 ** 3}"


@pytest.mark.parametrize("argv,message", [
    (["build", "--family", "explicit", "--factors", "inf,inf", "--generators", "box"],
     "build needs --radius for infinite graphs"),
    (["resist", "--p", "2"], "give --spec FILE or all of --family/--factors/--generators"),
], ids=["build-radius", "resist-spec"])
def test_cli_missing_flags_are_missing_param(tmp_path, argv, message):
    proc = _cli(*argv, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error.type = MissingParam",
                                        f"error.message = {message}"]


def test_cli_run_rejects_boolean_numbers(tmp_path):
    man = ExperimentManifest("escape", spec_cycle(20), {"r": [1, 2], "trials": 10, "seed": 3})
    text = (emit_manifest(man).replace("params.trials = 10", "params.trials = true")
            .replace("params.seed = 3", "params.seed = false"))
    path = tmp_path / "bools.txt"
    path.write_text(text)
    proc = _cli("run", str(path), cwd=str(tmp_path))
    assert proc.returncode == 2
    assert "error.type = BadArguments" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_env_override(tmp_path):
    out = tmp_path / "env_out"
    proc = _cli("growth", "--family", "torus_product", "--factors", "8",
                "--generators", "box", "--radius", "3",
                env_extra={"VTRES_OUT": str(out), "VTRES_FORMAT": "structured-text"})
    assert proc.returncode == 0, proc.stderr
    assert (out / "growth.txt").exists()


def test_cli_parser_is_built_once_and_reads_env_per_call(monkeypatch, capsys, tmp_path):
    # the cached parser holds no VTRES_* value: each main() call reads its own
    from vtres.cli import build_parser
    assert build_parser() is build_parser()
    monkeypatch.chdir(tmp_path)
    argv = ["growth", "--family", "torus_product", "--factors", "8",
            "--generators", "box", "--radius", "3"]
    for fmt in ("structured-text", "plotdata", "csv"):
        monkeypatch.setenv("VTRES_FORMAT", fmt)
        assert parse_manifest(_emitted(capsys, argv)).out_format == fmt


def test_cli_malformed_env_value_is_bad_arguments(tmp_path):
    proc = _cli("growth", "--family", "torus_product", "--factors", "8",
                "--generators", "box", "--radius", "2", "--out", str(tmp_path / "g"),
                env_extra={"VTRES_SEED": "x"})
    assert proc.returncode == 2
    assert proc.stderr.startswith("error.type = BadArguments"), proc.stderr
    assert "VTRES_SEED" in proc.stderr


def test_cli_threads_flag_is_gone(tmp_path):
    proc = _cli("growth", "--family", "torus_product", "--factors", "8", "--generators",
                "box", "--radius", "2", "--threads", "2", "--out", str(tmp_path / "g"))
    assert proc.returncode == 2
    assert "unrecognized arguments: --threads 2" in proc.stderr


def test_cli_verify_subcommand(tmp_path):
    out = tmp_path / "v"
    proc = _cli("verify", "--family", "explicit", "--factors", "inf,inf",
                "--generators", "box", "--p", "2", "--r-max", "5",
                "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "sandwich.csv").exists()


def test_cli_repro_var_converse(tmp_path):
    out = tmp_path / "vc"
    proc = _cli("repro", "var-converse", "--family", "z_times_torus",
                "--factors", "inf,3,3", "--generators", "box",
                "--n", "4", "--r", "8,12", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "var_converse.csv").exists()


def test_cli_nonconvergence_reports_stage_counts(monkeypatch, capsys, tmp_path):
    import vtres.manifest
    from vtres.cli import main
    from vtres.errors import NonConvergence

    def stalled(*args, **kwargs):
        raise NonConvergence(9, 1e-3, stages=(("1e-02", 5, 2), ("1e-04", 4, 7)))

    monkeypatch.setattr(vtres.manifest, "p_resistance", stalled)
    rc = main(["resist", "--family", "explicit", "--factors", "inf,inf",
               "--generators", "box", "--p", "1.5", "--r", "2", "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err[:2] == ["error.type = NonConvergence",
                       "error.message = solver did not converge after 9 iterations "
                       "(residual 1.000e-03)"]
    assert err[2:] == ["error.iterations = 9",
                       "error.stage_iterations = 1e-02:5:2, 1e-04:4:7"]


def test_cli_bad_out_fails_before_the_run(monkeypatch, capsys, tmp_path):
    import vtres.manifest
    from vtres.cli import main

    def unreachable(*args, **kwargs):
        raise AssertionError("the runner ran before --out was checked")

    _, needs_graph, schema = vtres.manifest._EXPERIMENTS["resistance"]
    monkeypatch.setitem(vtres.manifest._EXPERIMENTS, "resistance",
                        (unreachable, needs_graph, schema))
    rc = main(["resist", "--family", "explicit", "--factors", "inf,inf",
               "--generators", "box", "--p", "1.5", "--r", "2",
               "--out", str(tmp_path / "a,b")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err[0] == "error.type = BadArguments"
    assert not (tmp_path / "a,b").exists()


def test_cli_malformed_lists_are_bad_arguments(capsys, tmp_path):
    from vtres.cli import main
    torus = ("--family", "torus_product", "--generators", "box")
    for args in (("resist", *torus, "--factors", "8", "--p", "2,x"),
                 ("resist", *torus, "--factors", "8,x", "--p", "2"),
                 ("escape", *torus, "--factors", "8", "--r", "1:2:3"),
                 ("repro", "var-converse", "--family", "z_times_torus",
                  "--factors", "inf,3,3", "--generators", "box", "--n", "4", "--r", ""),
                 # an empty optional list is refused, not read as a missing flag
                 ("resist", *torus, "--factors", "6,6", "--p", "2", "--r", ""),
                 ("repro", "table1", "--nlin", "")):
        assert main([*args, "--out", str(tmp_path)]) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error.type = BadArguments"), (args, err)


def test_empty_radius_lists_are_bad_arguments(tmp_path):
    for experiment, params in (("resistance", {"p": [2.0], "r": []}),
                               ("var_converse", {"n": 4, "r": []})):
        man = ExperimentManifest(experiment, spec_z_times_torus(3, 3), params, "e", "csv")
        with pytest.raises(BadArguments):
            run(man, base_dir=str(tmp_path))


@pytest.mark.parametrize("argv,part", [
    (["repro", "table1", "--n2", "5:3", "--n3", "9:8"], "'5:3' in '5:3'"),
    (["repro", "sharpness", "--n", "9:8"], "'9:8' in '9:8'"),
    (["repro", "table1", "--n2", "1,5:3"], "'5:3' in '1,5:3'")],
    ids=["table1", "sharpness", "table1-mixed"])
def test_cli_reversed_ranges_are_bad_arguments(capsys, tmp_path, argv, part):
    # a reversed range is refused, not read as an empty sweep
    from vtres.cli import main
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error.type = BadArguments", f"error.message = range {part} is reversed"]
    assert not (tmp_path / "o").exists()


EMPTY_SWEEPS = {
    "resistance": (spec_cycle(8), {"p": []}),
    "sandwich": (spec_lattice(2), {"p": [], "r_min": 1, "r_max": 4}),
    "sharpness_nw": (None, {"p": [2.0], "d": [], "n": [8]}),
    "table1": (None, {"n2": [], "n3": [], "nlin": []}),
}
# grids with rows that no ball can serve: each is refused before the first ball
BAD_GRIDS = {
    "sharpness_nw-no-factor": (None, {"p": [2.0], "d": [2, 0], "n": [8]}),
    "table1-odd-n": (None, {"n2": [8, 9]}),
    "var_converse-n0": (spec_lattice(2), {"n": 0, "r": [1500]}),
    "var_converse-negative-n": (spec_lattice(2), {"n": -5, "r": [10]}),
}


@pytest.mark.parametrize("experiment",
                         sorted(EMPTY_SWEEPS) + ["table1-no-lists"] + sorted(BAD_GRIDS))
def test_manifests_without_rows_fail_before_any_ball_is_built(monkeypatch, capsys, tmp_path,
                                                              experiment):
    import vtres.manifest
    from vtres.cli import main

    def unreachable(*args, **kwargs):
        raise AssertionError("a ball was built for a table without rows")

    for name in ("build_ball", "orbit_ball", "build_cayley_graph"):
        monkeypatch.setattr(vtres.manifest, name, unreachable)
    spec, params = {**EMPTY_SWEEPS, **BAD_GRIDS}.get(experiment, (None, {}))
    man = ExperimentManifest(experiment.split("-")[0], spec, params, str(tmp_path / "o"))
    path = tmp_path / "m.txt"
    path.write_text(emit_manifest(man))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error.type = BadArguments", err
    assert not (tmp_path / "o").exists()


def test_manifest_transitive_key_is_not_consumed(tmp_path):
    man = ExperimentManifest("resistance", spec_cycle(8), {"p": [2.0]}, "o", "csv")
    path = tmp_path / "m.txt"
    path.write_text(emit_manifest(man) + "params.transitive = 0\n")
    proc = _cli("run", str(path), cwd=str(tmp_path))
    assert proc.returncode == 2
    assert "error.type = BadArguments" in proc.stderr
    assert "'transitive' is not consumed" in proc.stderr


def test_cli_resist_torus_50x50_matches_fourier(tmp_path):
    # 2,500 vertices, past the cap of the dense inverse this path replaced
    out = tmp_path / "t"
    proc = _cli("resist", "--family", "torus_product", "--factors", "50,50",
                "--generators", "box", "--p", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, row = _read(out / "resistance.csv").decode().splitlines()[-2:]
    rec = dict(zip(header.split(","), row.split(",")))
    fourier = box_torus_fourier_resistance((50, 50))
    value, v = float(rec["max_resistance"]), int(rec["argmax_v"])
    assert abs(value - fourier.max()) <= 1e-9 * fourier.max()
    assert int(rec["argmax_u"]) == 0
    assert abs(fourier.flat[v] - fourier.max()) <= 1e-9 * fourier.max()


def test_sphere_resistance_solves_only_where_not_separable(tmp_path, monkeypatch):
    # the runners reach the solvers and the ball builders through
    # vtres.manifest's names, so wrapping them there sees every solve the
    # mode sum does not replace and every ball it does not need; at p=2 a
    # ball's radii are one sphere_resistances or annulus_resistances pass
    import vtres.manifest as manifest
    solved, balls = [], []
    real = manifest.p_resistance
    monkeypatch.setattr(manifest, "p_resistance",
                        lambda tg, p: solved.append(p) or real(tg, p))
    spheres, annuli = manifest.sphere_resistances, manifest.annulus_resistances
    monkeypatch.setattr(manifest, "sphere_resistances", lambda ball, rs: solved.append(
        ("spheres", list(rs))) or spheres(ball, rs))
    monkeypatch.setattr(manifest, "annulus_resistances", lambda ball, n, rs: solved.append(
        ("annuli", n, list(rs))) or annuli(ball, n, rs))
    for name in ("build_ball", "orbit_ball"):
        monkeypatch.setattr(manifest, name, lambda *args, name=name, real=getattr(
            manifest, name): balls.append(name) or real(*args))
    z2, z3, z_c5_c5 = spec_lattice(2), spec_lattice(3), spec_z_times_torus(5, 5)
    knight = spec_explicit((None, None), [(a, b) for a in (-2, -1, 1, 2)
                                          for b in (-2, -1, 1, 2) if abs(a) != abs(b)])
    z_c5_step2 = spec_explicit((None, 5), [(a, b) for a in (-1, 0, 1) for b in (0, 2, 3)
                                           if (a, b) != (0, 0)])
    # experiment, spec, params, solved p, ball builds: only a potential dump
    # takes the full ball; growth and the cutsets of table1 and sharpness_nw
    # count on an orbit ball, one per table1 row and per sharpness (d, n)
    full, orbits = "build_ball", "orbit_ball"
    cases = [("sandwich", z2, {"p": [2.0], "r_min": 1, "r_max": 4}, [], []),
             ("sandwich", z3, {"p": [2.0], "r_min": 2, "r_max": 5}, [], []),
             ("sandwich", z_c5_c5, {"p": [2.0], "r_min": 2, "r_max": 5}, [], []),
             # B(1) of this Z x C5 leaves out two elements of C5, B(2) covers it
             ("sandwich", z_c5_step2, {"p": [2.0], "r_min": 1, "r_max": 3},
              [("spheres", [1])], [orbits]),
             ("sandwich", z2, {"p": [3.0], "r_min": 2, "r_max": 3}, [3.0] * 2, [orbits]),
             ("resistance", z2, {"p": [2.0], "r": [3, 5]}, [], []),
             ("resistance", z3, {"p": [2.0], "r": [2, 4]}, [], []),
             ("resistance", z_c5_c5, {"p": [2.0], "r": [2, 6]}, [], []),
             ("resistance", z2, {"p": [2.0, 3.0], "r": [3]}, [3.0], [orbits]),
             ("resistance", z2, {"p": [2.0], "r": [3], "dump_potential": 1}, [2.0], [full]),
             ("resistance", knight, {"p": [2.0], "r": [2, 3]}, [("spheres", [2, 3])], [orbits]),
             ("table1", None, {"n2": [8], "n3": [], "nlin": [8]}, [("spheres", [3])],
              [orbits, orbits]),
             ("sharpness_nw", None, {"p": [2.0, 3.0], "d": [2, 3], "k": 2, "n": [6]}, [],
              [orbits, orbits]),
             ("growth", dataclasses.replace(z_c5_c5, radius=9), {}, [], [orbits]),
             ("var_converse", z_c5_c5, {"n": 2, "r": [4, 6]}, [("annuli", 2, [4, 6])],
              [orbits])]
    for i, (experiment, spec, params, want, builds) in enumerate(cases):
        solved.clear()
        balls.clear()
        run(ExperimentManifest(experiment, spec, params, f"o{i}", "csv"),
            base_dir=str(tmp_path))
        assert solved == want, (experiment, params)
        assert balls == builds, (experiment, params)
    # a negative radius is refused before any ball would be built
    balls.clear()
    with pytest.raises(BadArguments):
        run(ExperimentManifest("resistance", z2, {"p": [2.0], "r": [-1, 3]}, "neg", "csv"),
            base_dir=str(tmp_path))
    assert balls == []


def test_cli_resist_p2_far_past_the_ball_cap(tmp_path):
    # B(10^5) of Z^2 has 4e10 vertices, far past the default cap of 5M, so
    # the run succeeds only if it builds no ball: the closed form sums 10^5 + 1
    # terms.  A size cap below that count is refused.
    out = tmp_path / "far"
    z2 = ("--family", "explicit", "--factors", "inf,inf", "--generators", "box")
    proc = _cli("resist", *z2, "--p", "2", "--r", "100000", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, row = _read(out / "resistance.csv").decode().splitlines()[-2:]
    rec = dict(zip(header.split(","), row.split(",")))
    assert int(rec["beta_r"]) == 200001 ** 2
    assert abs(float(rec["resistance"]) - 0.72972) <= 1e-5
    proc = _cli("resist", *z2, "--p", "2", "--r", "100000", "--size-cap", "100000",
                "--out", str(tmp_path / "capped"))
    assert proc.returncode == 2
    assert "error.type = SizeCapExceeded" in proc.stderr


def test_sphere_resistance_solves_the_orbit_quotient(monkeypatch, tmp_path):
    # the problem handed to the solver has one vertex per orbit of B(r),
    # counted on a ball of radius r, plus the ground.  At p=2 the one band
    # has one unknown per orbit of B(r) but the center, and var-converse's
    # one per orbit of the layers n+1..r-1 of its largest r
    import vtres.energy as energy
    import vtres.manifest as manifest
    sizes = []
    real = manifest.p_resistance
    monkeypatch.setattr(manifest, "p_resistance",
                        lambda tg, p: sizes.append(tg.graph.n) or real(tg, p))
    band = energy._prefix_conductances
    monkeypatch.setattr(energy, "_prefix_conductances", lambda g, source, first, last:
                        sizes.append(last - first) or band(g, source, first, last))
    knight = spec_explicit((None, None), [(a, b) for a in (-2, -1, 1, 2)
                                          for b in (-2, -1, 1, 2) if abs(a) != abs(b)])
    for spec, p in [(spec_lattice(2), 3.0), (knight, 2.0), (spec_z_times_torus(5, 5), 1.5)]:
        ball = orbit_ball(spec, 6)
        for r in (1, 2, 5):
            sizes.clear()
            list(manifest._sphere_resistances(spec, [r], p, lambda: ball, DEFAULT_SIZE_CAP))
            orbits = len(np.unique(reference_orbits(build_ball(spec, r))))
            assert sizes == [orbits - 1 if p == 2.0 else orbits + 1]
            if spec == spec_lattice(2):
                assert sizes == [(r + 1) * (r + 2) // 2 + 1]
        n, rs = 2, [4, 6]
        sizes.clear()
        run(ExperimentManifest("var_converse", spec, {"n": n, "r": rs}, "v", "csv"),
            base_dir=str(tmp_path))
        small = build_ball(spec, rs[-1])
        free = (small.layer > n) & (small.layer < rs[-1])
        assert sizes == [len(np.unique(reference_orbits(small)[free]))]
        if spec == spec_lattice(2):
            assert sizes == [sum(range(n + 2, rs[-1] + 1))]


def test_benchmark_hooks_exist():
    # perfbench/tracer.py wraps functions by module attribute name; a rename
    # it does not follow would leave a traced benchmark run incorrect.
    # install patches modules, so it runs in its own interpreter.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    script = ("import tracer\n"
              "t = tracer.Tracer()\n"
              "tracer.install(t)\n"
              "print(repr(t.missing))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.path.join(root, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_T6 = ("--family", "torus_product", "--factors", "6,6", "--generators", "box")
_Z2_R9 = ("--family", "explicit", "--factors", "inf,inf", "--generators", "box",
          "--radius", "9")
_ZT33 = ("--family", "z_times_torus", "--factors", "inf,3,3", "--generators", "box")
_GLOBALS = ("--out", "arts", "--format", "structured-text", "--size-cap", "4000")
# subcommand -> (argv with defaults, argv with every flag); the files g.spec
# and m.txt are written by the test
_EMIT_CASES = {
    "build": (("build", *_T6), ("build", *_Z2_R9, *_GLOBALS)),
    "resist": (("resist", *_T6, "--p", "2"),
               ("resist", *_Z2_R9, "--p", "2,3.5", "--r", "1:3,6", *_GLOBALS)),
    "resist-spec": (("resist", "--spec", "g.spec", "--p", "3"),
                    ("resist", "--spec", "g.spec", "--p", "3", "--r", "2", *_GLOBALS)),
    "escape": (("escape", *_T6, "--r", "1:2"),
               ("escape", *_Z2_R9, "--r", "1,4", "--trials", "500", *_GLOBALS)),
    "growth": (("growth", *_T6), ("growth", *_Z2_R9, *_GLOBALS)),
    "iso": (("iso", *_T6), ("iso", *_T6, "--radius", "3", "--max-n", "12", *_GLOBALS)),
    "verify": (("verify", *_T6, "--r-max", "2"),
               ("verify", *_Z2_R9, "--p", "2,3", "--r-min", "1", "--r-max", "6",
                *_GLOBALS)),
    "table1": (("repro", "table1"),
               ("repro", "table1", "--n2", "8", "--n3", "6", "--nlin", "8,16",
                "--eps", "0.25", *_GLOBALS)),
    "sharpness": (("repro", "sharpness"),
                  ("repro", "sharpness", "--p", "2,3", "--d", "1,2", "--k", "2",
                   "--n", "6,8", *_GLOBALS)),
    "var-converse": (("repro", "var-converse", *_ZT33, "--n", "4", "--r", "8,12"),
                     ("repro", "var-converse", *_ZT33, "--radius", "20", "--n", "4",
                      "--r", "8:10", *_GLOBALS)),
    "run": (("run", "m.txt"), ("run", "m.txt", *_GLOBALS)),
}
_EMIT_DIGESTS = {
    ("build", "defaults"): "f3bb535342144b9a5b91a5c344e8bee14819117e9a07e8a43fc747a6b47e15bf",
    ("build", "full"): "864ec433877fbb5ee89f6f588d4552f41f9cf538eb334f030e0e158497254e21",
    ("resist", "defaults"): "f6854bd1f378626aa3603be99150c86c688c171623b2cbfa3f55c4fe94a3a994",
    ("resist", "full"): "cf296608f3c5bdc98f429c86a28585527d94b4e725194b382a5aa256a8004c7c",
    ("escape", "defaults"): "cdcc9709a0e2c7f367e2a7a38181428d696f66787f12d299fb80f71e0093b533",
    ("escape", "full"): "8751f666e1af2aa77030bf8135d7bf42f37e9cc9cd2e7872df9a86964d46cdba",
    ("growth", "defaults"): "6b3e32a92068b0747675f8cc1618634a1808b6b1e7e77a10ad7298107271b0d4",
    ("growth", "full"): "864ec433877fbb5ee89f6f588d4552f41f9cf538eb334f030e0e158497254e21",
    ("iso", "defaults"): "480ee790661404ebbe783c36a93e9726bb0492b3954f59b727e741f2cfe1e774",
    ("iso", "full"): "53338e3cbdd513138ea79d9b43a245ecce093b30bc29af234961697df00eea60",
    ("verify", "defaults"): "c14f16e9e1d325f1f37c9a299977f8f88197e4038fec682a47729a4d424b9acd",
    ("verify", "full"): "ba31000d84b11867a524f4336a5dc9b9a20bea4cf6104b8592cee609064cf462",
    ("table1", "defaults"): "8e97119a53d700bdb8b47409e130983562950ab2419f354c732776895729a34a",
    ("table1", "full"): "862735554d8833a312c9845cb0c0a3825cd5bbb31bcc4246c23b660cd14d0ca1",
    ("sharpness", "defaults"):
        "f6b7c87b9a2a575f590c083c1c1d22654961b407362f9160bb2d672370dc553c",
    ("sharpness", "full"): "1c48cd50505c9a7595e770bb327ae0762e82a7e5f7860d39675e784cef35e31b",
    ("var-converse", "defaults"):
        "be0b2019c8ea4b95a2c6de71ad470ccdc3775bf9b35b168509f7f8f593a3d2f2",
    ("var-converse", "full"):
        "f35c8428e589f95bb30cd5bb15d4ebe12975a4cd52470220f554aeaa6fef06d6",
    ("resist-spec", "defaults"):
        "36ffda92b8d430ff764d0e5174820360f17392628831e3d8d00ab1a3c4f12a5f",
    ("resist-spec", "full"):
        "1564c61637d1447595d22a976d9ae3e4a0d61051c4a6bd279ce153de5d3c3b5d",
    # the manifest file's output record wins over the global flags
    ("run", "defaults"): "471c622ac29ec9e73db36e54f3b782be255cb6aeeae50db232a8a1d19e35fc83",
    ("run", "full"): "471c622ac29ec9e73db36e54f3b782be255cb6aeeae50db232a8a1d19e35fc83",
}


def _emit_files(directory):
    """Write the spec and manifest files the ``_EMIT_CASES`` argv name."""
    (directory / "g.spec").write_text(
        "family = cyclic_chords\nfactors = [12]\ngenerators = chords:3\nradius = 4\n")
    man = ExperimentManifest("var_converse", spec_z_times_torus(3, 3), {"n": 4, "r": [8]})
    (directory / "m.txt").write_text(emit_manifest(man))


def _emitted(capsys, argv):
    from vtres.cli import main
    assert main([*argv, "--emit-manifest"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("kind", ["defaults", "full"])
@pytest.mark.parametrize("name", sorted(_EMIT_CASES))
def test_cli_emitted_manifests_are_golden(monkeypatch, capsys, tmp_path, name, kind):
    # pins the manifest every subcommand builds from its flags, hence its
    # hash; the global --seed goes before the subcommand with the defaults
    # and after it with every flag
    for var in [v for v in os.environ if v.startswith("VTRES_")]:
        monkeypatch.delenv(var)
    monkeypatch.chdir(tmp_path)
    _emit_files(tmp_path)
    defaults, full = _EMIT_CASES[name]
    out = _emitted(capsys, ["--seed", "3", *defaults] if kind == "defaults"
                   else [*full, "--seed", "5"])
    assert hashlib.sha256(out.encode()).hexdigest() == _EMIT_DIGESTS[name, kind]


def test_cli_global_flags_between_repro_and_its_kind(monkeypatch, capsys, tmp_path):
    # a global flag may also sit between `repro` and the kind
    monkeypatch.chdir(tmp_path)
    want = _emitted(capsys, ["repro", "table1", "--seed", "3"])
    assert _emitted(capsys, ["repro", "--seed", "3", "table1"]) == want
    want = _emitted(capsys, ["repro", "table1", "--out", "o"])
    assert _emitted(capsys, ["repro", "--out", "o", "table1"]) == want
    assert parse_manifest(want).out_path == "o"


def test_every_experiment_is_reached_and_round_trips(monkeypatch, capsys, tmp_path):
    # every declared experiment has a subcommand, and the manifest it emits
    # parses back to itself, also through `run`
    from vtres.cli import _COMMANDS, _REPRO_COMMANDS
    from vtres.manifest import _EXPERIMENTS
    monkeypatch.chdir(tmp_path)
    _emit_files(tmp_path)
    assert set(_EMIT_CASES) - {"resist-spec", "run"} == {*_COMMANDS, *_REPRO_COMMANDS}
    reached = set()
    for name, (defaults, _) in _EMIT_CASES.items():
        text = _emitted(capsys, defaults)
        man = parse_manifest(text)
        reached.add(man.experiment)
        assert emit_manifest(man) == text, name
        (tmp_path / "again.txt").write_text(text)
        assert _emitted(capsys, ["run", "again.txt"]) == text, name
    assert reached == set(_EXPERIMENTS)


_T55 = {"--family": "torus_product", "--factors": "5,5", "--generators": "box",
        "--radius": "2"}


@pytest.mark.parametrize("flag,value", [
    ("--generators", "box:x"), ("--generators", "full:"), ("--generators", "chords:a"),
    ("--generators", "boxfull:0:"), ("--factors", "5,x"), ("--factors", "+5,5"),
    ("--radius", "2.5"),
])
def test_cli_malformed_spec_flags_are_bad_arguments(tmp_path, flag, value):
    # the flags are read by the spec file reader: a bad integer is refused
    # there, not a traceback, and no output directory is made
    argv = [x for key, v in {**_T55, flag: value}.items() for x in (key, v)]
    proc = _cli("growth", *argv, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error.type = BadArguments\n"), proc.stderr
    assert not (tmp_path / "o").exists()


_GROWTH_C5 = emit_manifest(ExperimentManifest(
    "growth", dataclasses.replace(spec_cycle(5), radius=2), {}, "o"))


@pytest.mark.parametrize("path,text", [
    ("g.spec", "family = explicit\nfactors = [5, 5]\ngenerators = [(1, x)]\n"),
    ("m.txt", _GROWTH_C5.replace("factors = [5]", "factors = [abc, 5]")),
    ("m.txt", _GROWTH_C5.replace("factors = [5]", "factors = [5.5, 5]")),
    ("m.txt", _GROWTH_C5.replace("radius = 2", "radius = 2.5")),
], ids=["spec-offset", "factors-word", "factors-float", "radius-float"])
def test_cli_malformed_spec_files_are_bad_arguments(tmp_path, path, text):
    # a spec file and a manifest's graph.* keys go through the same reader;
    # before, [5.5, 5] ran on C5 x C5 and the others crashed
    (tmp_path / path).write_text(text)
    argv = ["growth", "--spec", path, "--out", "o"] if path == "g.spec" else ["run", path]
    proc = _cli(*argv, cwd=str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error.type = BadArguments\n"), proc.stderr
    assert not (tmp_path / "o").exists()


def test_cli_spec_flags_replace_spec_file_keys(monkeypatch, capsys, tmp_path):
    # --radius used to be dropped when --spec was given
    monkeypatch.chdir(tmp_path)
    _emit_files(tmp_path)
    flags = ["--family", "cyclic_chords", "--factors", "12", "--generators", "chords:3"]
    want = _emitted(capsys, ["growth", *flags, "--radius", "3"])
    assert "graph.radius = 3\n" in want
    assert _emitted(capsys, ["growth", "--spec", "g.spec", "--radius", "3"]) == want
    # every key replaced: the file's values do not show
    assert _emitted(capsys, ["growth", "--spec", "g.spec", "--family", "explicit",
                             "--factors", "inf", "--generators", "[(1), (-1)]",
                             "--radius", "3"]) == _emitted(
        capsys, ["growth", "--family", "explicit", "--factors", "inf",
                 "--generators", "[(1), (-1)]", "--radius", "3"])


def test_cli_generators_help_lists_every_atom():
    from vtres.textspec import ATOM_FIELDS
    proc = _cli("growth", "--help")
    assert proc.returncode == 0
    help_text = " ".join(proc.stdout.split())
    for kind, fields in ATOM_FIELDS.items():
        assert ":".join((kind, *fields)) in help_text


def test_sandwich_refuses_p_values_sharing_a_metric_key(tmp_path):
    # p2 would name the metrics of both p = 2 and p = 2.0000001
    z2 = ("--family", "explicit", "--factors", "inf,inf", "--generators", "box")
    proc = _cli("verify", *z2, "--p", "2,2.0000001", "--r-min", "2", "--r-max", "4",
                "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error.type = BadArguments",
        "error.message = p = 2.0 and p = 2.0000001 share the metric key p2"]
    assert not (tmp_path / "o").exists()
    # a p listed twice is one p
    proc = _cli("verify", *z2, "--p", "2,2", "--r-min", "2", "--r-max", "3",
                "--out", str(tmp_path / "twice"))
    assert proc.returncode == 0, proc.stderr


def test_cli_potential_dumps_refuse_p_values_sharing_a_name(tmp_path):
    # a dump is named potential_{p key}_r{r}, so p = 2 and p = 2.0000001
    # would write one file; dump_potential is set in a manifest file only
    def manifest_file(name, ps):
        man = ExperimentManifest("resistance", spec_lattice(2),
                                 {"p": ps, "r": [2], "dump_potential": 1},
                                 str(tmp_path / name), "csv")
        path = tmp_path / f"{name}.txt"
        path.write_text(emit_manifest(man))
        return str(path)

    proc = _cli("run", manifest_file("shared", [2.0, 2.0000001]))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error.type = BadArguments",
        "error.message = p = 2.0 and p = 2.0000001 share the metric key p2"]
    assert not (tmp_path / "shared").exists()
    # a p listed twice is one p, and one file
    proc = _cli("run", manifest_file("twice", [2.0, 2.0]))
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path / "twice")) == [
        "potential_p2_r2.txt", "resistance.csv", "summary.txt"]


def test_var_converse_loads_no_graph_reordering(tmp_path):
    # the annulus radii come from one factorization in id order, so the
    # reverse Cuthill-McKee order of scipy.sparse.csgraph is never loaded
    script = ("import sys, vtres.cli\n"
              "rc = vtres.cli.main(['repro', 'var-converse', '--family', 'z_times_torus',\n"
              "                     '--factors', 'inf,5,5', '--generators', 'box', '--n', '8',\n"
              "                     '--r', '16,32,64', '--out', sys.argv[1]])\n"
              "print(rc, 'scipy.sparse.csgraph' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "o")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
