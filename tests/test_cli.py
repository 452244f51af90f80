import json
import os
import shlex
import subprocess
import sys

import pytest

import percolab
import percolab.estimators
import percolab.exact
from percolab.cli import LATTICES, build_parser, cmd_verify_tail_bound, main
from percolab.estimators import EstimateCI, tail_bound_verdict
from percolab.exact import exact_magnetization, psi_table
from percolab.lattices import build_ball


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_domination_default_ball(tmp_path):
    out = tmp_path / "dom"
    code = main(["verify-domination", "--lattice", "z1", "--radius", "2",
                 "--out", str(out)])
    assert code == 0
    report = _read_json(out / "domination_report.json")
    assert report["ok"]
    assert len(report["points"]) == 9
    manifest = _read_json(out / "manifest.json")
    assert "domination_report.json" in manifest["outputs"]


def test_verify_domination_empty_grid(tmp_path):
    # an empty grid checks nothing, so it is a usage error, not a pass
    out = tmp_path / "empty"
    with pytest.raises(SystemExit) as exc:
        main(["verify-domination", "--lattice", "z1", "--radius", "1",
              "--p", "", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("grid", ["", ",", "abc"])
@pytest.mark.parametrize("argv", [
    ["verify-domination", "--lattice", "z1", "--radius", "1", "--p"],
    ["verify-domination", "--lattice", "z1", "--radius", "1", "--h"],
    ["verify-tail-bound", "--lattice", "z1", "--radius", "1", "--p"],
    ["verify-tail-bound", "--lattice", "z1", "--radius", "1", "--h"],
    ["meanfield", "--p"],
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_grid_flags_need_a_float(tmp_path, argv, grid):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + [grid, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["decay", "--lattice", "z2", "--samples", "0"],
    ["decay", "--lattice", "z2", "--samples", "-3"],
    ["verify-tail-bound-mc", "--lattice", "z2", "--p", "0.3", "--h", "0.2",
     "--samples", "0"],
    ["meanfield", "--p", "0.6", "--samples", "0"],
])
def test_samples_below_one_is_a_usage_error(tmp_path, capsys, argv):
    # exit 1 is kept for failed checks; no output is written
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "argument --samples: must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-domination", "verify-tail-bound"])
def test_p_outside_the_unit_interval_is_a_usage_error(tmp_path, command):
    out = tmp_path / "out"
    assert main([command, "--lattice", "z1", "--radius", "1", "--p", "1.5",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["decay", "--lattice", "z2", "--n-max", "60", "--samples", "50"],
    ["meanfield", "--samples", "30"],
    ["verify-tail-bound-mc", "--lattice", "z2", "--n-max", "20", "--samples", "50"],
], ids=lambda argv: argv[0])
def test_monte_carlo_p_outside_the_unit_interval_is_a_usage_error(tmp_path, argv):
    # an edge opens with probability p, so p = 1.5 would run as p = 1 and pass
    out = tmp_path / "out"
    assert main(argv + ["--p", "1.5", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-domination", "couple-demo"])
@pytest.mark.parametrize("q", ["1.5", "-0.1", "nan"])
def test_q_override_outside_the_unit_interval_is_a_usage_error(tmp_path, capsys,
                                                               command, q):
    # the error names the flag, not the p it would have been checked as
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--lattice", "z1", "--radius", "1", "--p", "0.5", "--h", "0.5",
              "--q-override", q, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --q-override: must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_q_override_produces_failure_witness(tmp_path):
    out = tmp_path / "override"
    code = main(["verify-domination", "--lattice", "z1", "--radius", "1",
                 "--p", "0.5", "--h", "0.5", "--q-override", "0.99",
                 "--out", str(out)])
    assert code == 1
    report = _read_json(out / "domination_report.json")
    assert not report["ok"]
    point = report["failures"][0]["point"]
    assert point["dominates"] is False
    assert point["certificate"]["event_min_elements"]


def test_verify_tail_bound_exact(tmp_path):
    # a repeated grid value keeps its place and its rows
    out = tmp_path / "tail"
    code = main(["verify-tail-bound", "--lattice", "z1", "--radius", "2",
                 "--p", "0.8,0.2,0.8", "--out", str(out)])
    assert code == 0
    rows = (out / "tail_bound.csv").read_text().splitlines()
    assert rows[0] == "p,h,n,lhs,rhs,slack,verdict"
    assert all(line.endswith("PASS") for line in rows[1:])
    ball = build_ball(LATTICES["z1"], 2)
    grid = [(p, h) for p in (0.8, 0.2, 0.8) for h in (0.1, 0.5, 1.0)]
    assert [tuple(map(float, line.split(",")[:2])) for line in rows[1::6]] == grid
    psi_rows = (out / "psi_exact.csv").read_text().splitlines()
    assert psi_rows[0] == "p,n,psi"
    assert psi_rows[1:] == [f"{p:.12g},{n},{psi:.12g}" for p in (0.8, 0.2, 0.8)
                            for n, psi in psi_table(ball, p)]  # n = 0..5
    mag_rows = (out / "magnetization_exact.csv").read_text().splitlines()
    assert mag_rows[0] == "p,h,m"
    assert mag_rows[1:] == [f"{p:.12g},{h:.12g},{exact_magnetization(ball, p, h):.12g}"
                            for p, h in grid]


@pytest.mark.parametrize("command", ["verify-tail-bound", "verify-domination",
                                     "couple-demo"])
def test_exact_commands_reject_negative_h(tmp_path, command):
    # a usage error, not a failed check, and nothing is written
    out = tmp_path / "neg"
    assert main([command, "--lattice", "z1", "--radius", "1", "--p", "0.5",
                 "--h=-0.05", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--lattice", "z1", "--radius", "0", "--p", "0.5", "--h", "50"],
    ["--lattice", "z2", "--radius", "1", "--p", "0", "--h", "40"],
    ["--lattice", "z1", "--radius", "1", "--p", "0.5", "--h", "1000"],
    ["--lattice", "z1", "--radius", "1", "--h", "inf"],
    ["--lattice", "tree3", "--radius", "1", "--p", "0.5", "--h", "0.5,inf"],
])
def test_verify_tail_bound_magnetization_of_one_is_a_usage_error(tmp_path, args):
    # the bound divides by 1 - m, so a grid point where m rounds to 1 is a
    # usage error, not a crash, and nothing is written
    out = tmp_path / "m1"
    assert main(["verify-tail-bound", *args, "--out", str(out)]) == 2
    assert not out.exists()


def test_verify_tail_bound_mc(tmp_path):
    out = tmp_path / "tailmc"
    code = main(["verify-tail-bound-mc", "--lattice", "z2",
                 "--p", "0.3", "--h", "0.2", "--n-max", "20",
                 "--samples", "1500", "--out", str(out)])
    assert code == 0
    rows = (out / "tail_bound.csv").read_text().splitlines()
    assert len(rows) == 3  # header + n in {10, 20}


def test_decay_command(tmp_path):
    out = tmp_path / "decay"
    code = main(["decay", "--lattice", "z2", "--p", "0.4", "--n-max", "60",
                 "--samples", "4000", "--out", str(out)])
    assert code == 0
    fit = _read_json(out / "decay_fit.json")
    assert fit["rate"] > 0
    assert (out / "decay_curve.csv").exists()


def test_meanfield_command(tmp_path):
    out = tmp_path / "mf"
    code = main(["meanfield", "--p", "0.0,1.0", "--h", "0.05",
                 "--samples", "60", "--lattice", "z2", "--out", str(out)])
    assert code == 0
    rows = (out / "meanfield.csv").read_text().splitlines()
    assert all(line.endswith("PASS") for line in rows[1:])


@pytest.mark.parametrize("argv", [["meanfield"], ["verify-tail-bound-mc"]],
                         ids=lambda argv: argv[0])
def test_magnetization_commands_take_no_cap(tmp_path, argv):
    # growth stops where 1 - e^{-h size} saturates, at most at 100,000
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cap", "500", "--samples", "4", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("h", ["nan", "0", "-0.05"])
@pytest.mark.parametrize("argv", [["meanfield"], ["verify-tail-bound-mc"]],
                         ids=lambda argv: argv[0])
def test_magnetization_commands_need_a_positive_h(tmp_path, capsys, argv, h):
    out = tmp_path / "out"
    assert main(argv + [f"--h={h}", "--samples", "4", "--out", str(out)]) == 2
    assert "h must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_meanfield_runs_on_the_square_lattice_only(tmp_path):
    # its reference threshold is the square lattice's, so z2 is the default
    out = tmp_path / "mf"
    assert main(["meanfield", "--p", "1.0", "--samples", "30",
                 "--out", str(out)]) == 0
    assert _read_json(out / "manifest.json")["args"]["lattice"] == "z2"
    with pytest.raises(SystemExit) as exc:
        main(["meanfield", "--lattice", "z1", "--out", str(tmp_path / "z1")])
    assert exc.value.code == 2
    assert not (tmp_path / "z1").exists()


def test_couple_demo_q_zero(tmp_path):
    out = tmp_path / "demo"
    code = main(["couple-demo", "--lattice", "z1", "--radius", "1",
                 "--p", "0.5", "--h", "0.5", "--q-override", "0.0",
                 "--out", str(out)])
    assert code == 0
    doc = _read_json(out / "couple_demo.json")
    assert doc["q"] == 0.0
    assert not any(doc["lower"])


def test_couple_demo_h_zero_identical_margins(tmp_path):
    # h = 0 leaves the conditional law equal to the product law, so with the
    # default q = p the lower and upper runs coincide
    out = tmp_path / "demo0"
    code = main(["couple-demo", "--lattice", "z1", "--radius", "1",
                 "--p", "0.5", "--h", "0.0", "--out", str(out)])
    assert code == 0
    doc = _read_json(out / "couple_demo.json")
    assert doc["q"] == 0.5
    assert doc["lower"] == doc["upper"]


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify-tail-bound-mc", "--lattice", "z2",
              "--p", "not-a-number", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_cap_violation_exit_code(tmp_path):
    code = main(["verify-domination", "--lattice", "tri", "--radius", "1",
                 "--p", "0.5", "--h", "0.5", "--out", str(tmp_path / "cap")])
    assert code == 2  # 12 edges exceed the trace-enumeration cap
    assert not (tmp_path / "cap").exists()


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": "0.5", "h": "0.5", "radius": 1}))
    out = tmp_path / "cfgout"
    code = main(["verify-domination", "--lattice", "z1",
                 "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = _read_json(out / "domination_report.json")
    assert len(report["points"]) == 1
    assert report["points"][0]["p"] == 0.5


def test_config_values_are_validated_like_flags(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lattice": "z9"}))
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--config", str(bad), "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    # a key that names no flag is rejected like an unknown flag
    values = {"samples": "100", "lattice": "z2", "n_max": 60, "cap": None}
    cfg = tmp_path / "unknown.json"
    cfg.write_text(json.dumps({**values, "unknown": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--config", str(cfg), "--out", str(tmp_path / "unknown")])
    assert exc.value.code == 2
    assert not (tmp_path / "unknown").exists()
    # a string value is parsed like the same flag typed on the command line
    cfg = tmp_path / "samples.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "samples"
    assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["args"]["samples"] == 100


@pytest.mark.parametrize("command, key", [
    ("verify-domination", {"threads": 4}),
    ("verify-tail-bound", {"mode": "mc"}),
    ("verify-tail-bound-mc", {"mode": "mc"}),
], ids=["verify-domination", "verify-tail-bound", "verify-tail-bound-mc"])
def test_config_keys_that_name_no_flag_are_usage_errors(tmp_path, command, key):
    # the same value as a flag exits 2, so as a config key it may not be
    # dropped and the run go on
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(key))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--lattice", "z1", "--p", "0.3", "--h", "0.2",
              "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("form", ["flag", "config"])
def test_abbreviated_flags_and_config_keys_are_usage_errors(tmp_path, form):
    # argparse would take --rad for --radius; flags and keys are spelled in full
    argv = ["verify-tail-bound", "--lattice", "z1", "--p", "0.3", "--h", "0.2"]
    if form == "flag":
        argv += ["--rad", "1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rad": 1}))
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify-tail-bound-mc", "--n-max", "5"],
    ["verify-tail-bound-mc", "--threads", "0"],
    ["decay", "--threads", "0"],
    ["meanfield", "--threads", "0"],
    ["meanfield", "--samples", "1"],
    ["verify-tail-bound-mc", "--samples", "1"],
    ["verify-domination", "--radius", "-1"],
    ["verify-tail-bound", "--radius", "-1"],
    ["couple-demo", "--radius", "-1"],
])
def test_integer_flags_below_their_minimum_are_usage_errors(tmp_path, capsys, argv):
    # --n-max 5 would check no n and pass; --threads 0 would run serially; one
    # magnetization draw gives a zero-width interval, so its verdicts mean
    # nothing; a negative radius failed inside build_ball, naming no flag
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {argv[1]}: must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify-domination"],
    ["verify-tail-bound"],
    ["verify-tail-bound-mc", "--samples", "2000"],
    ["decay", "--samples", "10000"],
    ["meanfield", "--samples", "200"],
    ["couple-demo"],
], ids=lambda argv: argv[0])
def test_every_command_passes_at_its_defaults(tmp_path, argv):
    # only --samples is lowered, to keep the run short
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, seed):
    # seeds act modulo 2^64, so -1 and 2^64 - 1 would write the same outputs
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--samples", "10000", "--seed", seed, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: must be at" in capsys.readouterr().err
    assert not out.exists()
    assert build_parser().parse_args(["decay", "--seed", str(2**64 - 1)]).seed == 2**64 - 1


def test_decay_rejects_short_fit_range_before_growing(tmp_path):
    out = tmp_path / "short"
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--lattice", "z2", "--n-max", "40", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_decay_cap_past_the_budget_starts_no_pool(tmp_path, pool_sizes):
    out = tmp_path / "huge"
    assert main(["decay", "--lattice", "z2", "--n-max", "1000010", "--threads", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert pool_sizes == []


def test_decay_past_the_key_range_starts_no_pool(tmp_path, pool_sizes):
    # z3 keys of a cap past 262,144 vertices do not fit the batch packing
    out = tmp_path / "deep"
    assert main(["decay", "--lattice", "z3", "--n-max", "300000", "--threads", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert pool_sizes == []


def test_decay_fit_failure_writes_nothing(tmp_path):
    # on z1 at this sample count no tail past n = 20 is seen, so the fit has
    # no points; the curve is not written without it
    out = tmp_path / "decay"
    assert main(["decay", "--lattice", "z1", "--p", "0.4", "--samples", "200",
                 "--seed", "0", "--out", str(out)]) == 2
    assert not out.exists()


def test_manifest_rerun_config(tmp_path):
    # a manifest doubles as a config file for reruns
    out1 = tmp_path / "run1"
    main(["verify-domination", "--lattice", "z1", "--radius", "1",
          "--p", "0.5", "--h", "0.5", "--out", str(out1)])
    out2 = tmp_path / "run2"
    code = main(["verify-domination", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)])
    assert code == 0
    r1 = (out1 / "domination_report.json").read_bytes()
    r2 = (out2 / "domination_report.json").read_bytes()
    assert r1 == r2


def test_byte_identical_reruns(tmp_path):
    args = ["decay", "--lattice", "z2", "--p", "0.45", "--n-max", "70",
            "--samples", "800", "--seed", "99"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("decay_curve.csv", "decay_fit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = _read_json(out1 / "manifest.json")
    m2 = _read_json(out2 / "manifest.json")
    assert m1["outputs"] == m2["outputs"]
    assert m1["args"] == m2["args"]


def test_decay_threads_match_serial(tmp_path):
    args = ["decay", "--lattice", "z2", "--p", "0.4", "--n-max", "60",
            "--samples", "600", "--seed", "5"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--threads", "2", "--out", str(pooled)]) == 0
    for name in ("decay_curve.csv", "decay_fit.json"):
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


@pytest.mark.parametrize("argv, name", [
    (["meanfield", "--p", "0.55,0.8", "--samples", "80"], "meanfield.csv"),
    (["verify-tail-bound-mc", "--lattice", "z2", "--n-max", "30", "--samples", "300"],
     "tail_bound.csv"),
], ids=["meanfield", "verify-tail-bound-mc"])
def test_threads_do_not_change_outputs(tmp_path, argv, name):
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(argv + ["--seed", "5", "--out", str(serial)]) == 0
    assert main(argv + ["--seed", "5", "--threads", "2", "--out", str(pooled)]) == 0
    assert (serial / name).read_bytes() == (pooled / name).read_bytes()


def test_exact_commands_reject_threads(tmp_path):
    # the exact commands run serially; accepting the flag would ignore it
    for command in ("verify-domination", "couple-demo", "verify-tail-bound"):
        out = tmp_path / command
        with pytest.raises(SystemExit) as exc:
            main([command, "--threads", "2", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


def test_verify_tail_bound_takes_no_seed(tmp_path):
    # the exact tail check draws no randomness, so a seed would change nothing;
    # verify-domination reads none either but keeps --seed, which perfbench passes
    out = tmp_path / "tail"
    with pytest.raises(SystemExit) as exc:
        main(["verify-tail-bound", "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    # a manifest from when it took --seed records one, and its replay fails loudly
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"args": {"lattice": "z1", "radius": 1, "seed": 0}}))
    with pytest.raises(SystemExit) as exc:
        main(["verify-tail-bound", "--config", str(old), "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    dom = tmp_path / "dom"
    assert main(["verify-domination", "--radius", "1", "--seed", "7",
                 "--out", str(dom)]) == 0
    assert _read_json(dom / "manifest.json")["seed"] == 7


TAIL_EXACT = ["verify-tail-bound", "--lattice", "z1", "--radius", "1"]
TAIL_MC = ["verify-tail-bound-mc", "--lattice", "z2", "--p", "0.3", "--h", "0.2",
           "--n-max", "20", "--samples", "1500"]


@pytest.mark.parametrize("argv", [
    TAIL_EXACT + ["--n-max", "50"],
    TAIL_EXACT + ["--samples", "5"],
    TAIL_EXACT + ["--cap", "10"],
    TAIL_EXACT + ["--threads", "1"],
    TAIL_MC + ["--radius", "1"],
])
def test_verify_tail_bound_rejects_flags_of_the_other_mode(tmp_path, argv):
    # each tail command takes only the flags it reads: the exact check none
    # of the Monte Carlo ones, the Monte Carlo check no --radius
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, unread", [
    (TAIL_EXACT, {"n_max", "samples", "cap", "threads", "seed"}),
    (TAIL_MC, {"radius"}),
])
def test_verify_tail_bound_records_and_replays_only_read_flags(tmp_path, argv, unread):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = _read_json(out / "manifest.json")
    assert not (unread | {"mode"}) & set(manifest["args"])
    rerun = tmp_path / "rerun"
    assert main([argv[0], "--config", str(out / "manifest.json"),
                 "--out", str(rerun)]) == 0
    replayed = _read_json(rerun / "manifest.json")
    assert replayed["args"] == manifest["args"]
    assert replayed["outputs"] == manifest["outputs"]
    # a manifest from when one command took both checks under --mode records
    # every flag and the mode; it fails loudly rather than run another check
    old = tmp_path / "old.json"
    defaults = {"radius": 2, "n_max": 100, "samples": 10_000, "cap": 100_000,
                "threads": 1}
    mode = "mc" if argv[0].endswith("-mc") else "exact"
    old.write_text(json.dumps(
        {**manifest, "args": {**defaults, **manifest["args"], "mode": mode}}))
    stale = tmp_path / "stale"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(old), "--out", str(stale)])
    assert exc.value.code == 2
    assert not stale.exists()


def test_verify_tail_bound_mc_fails_when_the_left_side_lies_above(tmp_path, monkeypatch):
    # psi at p is faked to 0 and psi at q = p(1 - m_lo) < p to 0.5, so each
    # left interval lies wholly above its right side
    def psi_curve(spec, p, n_list, samples, *args, **kwargs):
        v = 0.0 if p == 0.3 else 0.5
        return {n: EstimateCI(v, v, v, samples) for n in n_list}

    monkeypatch.setattr(percolab.estimators, "psi_curve", psi_curve)
    report = tail_bound_verdict(LATTICES["z2"], 0.3, 0.2, [10, 20], 1500, 0)
    assert report.verdicts == ("FAIL", "FAIL")
    assert report.failed
    out = tmp_path / "fail"
    assert main(TAIL_MC + ["--out", str(out)]) == 1
    rows = (out / "tail_bound.csv").read_text().splitlines()
    assert len(rows) == 3 and all(row.endswith(",FAIL") for row in rows[1:])
    assert "tail_bound.csv" in _read_json(out / "manifest.json")["outputs"]


def test_verify_domination_labels_each_configuration_once(tmp_path, monkeypatch):
    calls = []
    labels = percolab.exact._cluster_labels

    def counted(ball):
        calls.append(ball)
        return labels(ball)

    monkeypatch.setattr(percolab.exact, "_cluster_labels", counted)
    assert main(["verify-domination", "--lattice", "z1", "--radius", "2",
                 "--out", str(tmp_path / "dom")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["decay", "--p", "0.3,0.4"],
    ["meanfield", "--h", "0.05,0.1"],
    ["couple-demo", "--p", "0.3,0.4"],
    ["couple-demo", "--h", "0.5,1.0"],
    ["verify-tail-bound-mc", "--p", "0.3,0.4"],
    ["verify-tail-bound-mc", "--h", "0.2,0.3"],
])
def test_single_value_flags_reject_lists(tmp_path, argv):
    # each of these runs at one value; a list used to run only its first
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_manifest_args_are_the_parsed_flags(tmp_path):
    out = tmp_path / "demo"
    assert main(["couple-demo", "--lattice", "z1", "--radius", "1",
                 "--p", "0.6", "--out", str(out)]) == 0
    args = _read_json(out / "manifest.json")["args"]
    assert args == {"lattice": "z1", "radius": 1, "p": 0.6, "h": 0.5,
                    "seed": 0, "q_override": None}
    # a manifest written before --p and --h were scalars still replays
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"args": {**args, "p": "0.6", "h": "0.5"}}))
    rerun = tmp_path / "rerun"
    assert main(["couple-demo", "--config", str(old), "--out", str(rerun)]) == 0
    assert ((out / "couple_demo.json").read_bytes()
            == (rerun / "couple_demo.json").read_bytes())


def test_commands_return_their_files_and_write_nothing(tmp_path):
    # a command only computes; main writes its files and the manifest after
    # it returns, so no command can leave a partial --out behind
    out = tmp_path / "tail"
    ns = build_parser().parse_args(["verify-tail-bound", "--lattice", "z1",
                                    "--radius", "1", "--out", str(out)])
    code, files = cmd_verify_tail_bound(ns)
    assert code == 0
    assert set(files) == {"psi_exact.csv", "magnetization_exact.csv", "tail_bound.csv"}
    header, rows = files["tail_bound.csv"]
    assert header == ["p", "h", "n", "lhs", "rhs", "slack", "verdict"]
    assert rows and all(row[-1] == "PASS" for row in rows)
    assert not out.exists()


def test_manifest_records_grids_as_floats(tmp_path):
    out = tmp_path / "dom"
    assert main(["verify-domination", "--lattice", "z1", "--radius", "1",
                 "--out", str(out)]) == 0
    args = _read_json(out / "manifest.json")["args"]
    assert args["p"] == [0.2, 0.5, 0.8]
    assert all(isinstance(v, float) for v in args["p"] + args["h"])
    # the new manifest and one written when grids were recorded as their
    # comma-separated text both replay to the same report
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"args": {**args, "p": "0.2,0.5,0.8", "h": "0.1,0.5,1.0"}}))
    for name, config in [("new", out / "manifest.json"), ("old", old)]:
        rerun = tmp_path / f"rerun-{name}"
        assert main(["verify-domination", "--config", str(config),
                     "--out", str(rerun)]) == 0
        assert ((rerun / "domination_report.json").read_bytes()
                == (out / "domination_report.json").read_bytes())


def test_config_lists_read_as_their_items(tmp_path):
    # a list config value is its items joined by commas: two values on a
    # single-value flag are a usage error, one value reads as that value
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps({"p": [0.3, 0.4]}))
    out = tmp_path / "decay"
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"p": [0.6]}))
    out = tmp_path / "demo"
    assert main(["couple-demo", "--config", str(cfg), "--out", str(out)]) == 0
    assert _read_json(out / "manifest.json")["args"]["p"] == 0.6


def test_monte_carlo_commands_default_to_z2(tmp_path):
    # on the line the default tail check resolves psi_n past n = 10 only with
    # far more samples, so every command that takes --threads runs on z2
    parser = build_parser()
    defaults = {command: parser.parse_args([command]).lattice for command in (
        "verify-domination", "verify-tail-bound", "couple-demo",
        "verify-tail-bound-mc", "decay", "meanfield")}
    assert defaults == {"verify-domination": "z1", "verify-tail-bound": "z1",
                        "couple-demo": "z1", "verify-tail-bound-mc": "z2",
                        "decay": "z2", "meanfield": "z2"}
    out = tmp_path / "tailmc"
    assert main(["verify-tail-bound-mc", "--samples", "2000", "--out", str(out)]) == 0
    assert _read_json(out / "manifest.json")["args"]["lattice"] == "z2"
    rows = (out / "tail_bound.csv").read_text().splitlines()
    assert rows[2].startswith("0.45,0.1,20,") and rows[2].endswith(",PASS")


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(percolab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, percolab.cli; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _readme_block(section, language):
    """The first ``language`` code block under the README's ``section``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    return text.split(section, 1)[1].split("```" + language, 1)[1].split("```", 1)[0]


def _readme_commands():
    block = _readme_block("## Command line", "bash")
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("percolab ")]


def test_readme_commands_parse():
    # parse only: the commands stay in step with the parser's names and flags
    commands = _readme_commands()
    assert {argv[1] for argv in commands} >= {
        "verify-domination", "verify-tail-bound", "verify-tail-bound-mc",
        "decay", "meanfield", "couple-demo"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_readme_library_tour_runs(capsys):
    # the tour's Python block runs as written, asserts included
    block = _readme_block("## Library tour", "python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
