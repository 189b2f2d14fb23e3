"""Command-line interface: solving, sweeping, verifying, exit codes."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import helpers
from qbrach import dynamics, solvers
from qbrach.algebra import MAX_DIM
from qbrach.cli import _write_json, main
from qbrach.solvers import (
    solve_closed_subalgebra,
    solve_m1_two_level,
    solve_two_qubit_example,
    sweep_m1,
)

SQ2 = 1.0 / math.sqrt(2.0)

DESIGNED_OB = 0.6732909377195485
DESIGNED_PHI = -2.953791334823616
DESIGNED_T = 0.37613750263324641


def pairs(values):
    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


@pytest.fixture()
def free_file(tmp_path):
    doc = {
        "version": 1,
        "dimension": 2,
        "omega": 1.0,
        "basis": "gellmann",
        "psi_i": pairs([1.0, 0.0]),
        "psi_f": pairs([0.0, 1.0]),
    }
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def trivial_file(tmp_path):
    # identical endpoints: the free problem's T = 0 answer
    doc = {
        "version": 1,
        "dimension": 2,
        "omega": 1.0,
        "basis": "gellmann",
        "psi_i": pairs([1.0, 0.0]),
        "psi_f": pairs([1.0, 0.0]),
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def closed_file(tmp_path):
    doc = {
        "version": 1,
        "dimension": 2,
        "omega": 10.0,
        "basis": "gellmann",
        "psi_i": pairs([SQ2, SQ2]),
        "forbidden": [2],
        "solver_params": {
            "H0": [[[0.0, 0.0], [0.0, -10.0]], [[0.0, 10.0], [0.0, 0.0]]],
            "lambda0": 1.0,
            "lambdas": [2.5],
            "t_max": 0.5,
        },
    }
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- solving


def test_solve_free_to_stdout(free_file, capsys):
    assert main(["solve-free", "-i", free_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "free"
    assert doc["T"] == 1.5707963267948966
    assert doc["report"]["verdict"]["overall"] is True


def test_solve_free_output_is_byte_identical(free_file, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["solve-free", "-i", free_file, "-o", a]) == 0
    assert main(["solve-free", "-i", free_file, "-o", b]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_solve_closed_with_csv(closed_file, tmp_path, capsys):
    out = str(tmp_path / "sol.json")
    csv = tmp_path / "sol.csv"
    assert main(["solve-closed", "-i", closed_file, "-o", out, "--csv", str(csv)]) == 0
    doc = json.loads((tmp_path / "sol.json").read_text())
    assert doc["kind"] == "closed_subalgebra"
    assert doc["T"] == pytest.approx(0.07619481378479523, abs=1e-12)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,lambda0,lambda_d1,delta_e,resid_traceless,resid_norm,resid_term_max"
    assert len(lines) == len(doc["trajectory"]["times"]) + 1


def test_solve_closed_t_max_flag_overrides(closed_file, capsys):
    # a window too short to contain the first endpoint root
    assert main(["solve-closed", "-i", closed_file, "--t-max", "0.01"]) == 2


def test_solve_m1_flags(capsys):
    code = main(
        [
            "solve-m1",
            "--omega-b",
            repr(DESIGNED_OB),
            "--phi",
            repr(DESIGNED_PHI),
            "--omega",
            "10.0",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "m1_two_level"
    assert doc["n_branches"] == 1
    assert doc["T_min"] == pytest.approx(DESIGNED_T, abs=1e-12)
    assert doc["branches"][0]["branch"] == [2, 0]


def test_solve_2qubit(capsys):
    assert main(["solve-2qubit", "--omega-b", "1.5707963", "--omega", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["T"] == pytest.approx(0.22214414311854772, abs=1e-15)
    assert doc["report"]["verdict"]["overall"] is True


def test_shoot_subcommand(closed_file, tmp_path, capsys):
    # the same seed shot forward lands on the same extremal time
    data = json.loads(open(closed_file).read())
    data["solver"] = "shot"
    shot_file = tmp_path / "shot.json"
    shot_file.write_text(json.dumps(data))
    assert main(["shoot", "-i", str(shot_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "shot"
    assert doc["T"] == pytest.approx(0.07619481378479523, abs=1e-9)


def test_shoot_step_caps_the_certified_step_on_a_closed_set(closed_file, capsys):
    # the pass step does not coarsen the certified grid past 1e-3/omega,
    # where the aa residual would fail its 1e-6 omega verdict
    assert main(["solve-closed", "-i", closed_file]) == 0
    closed = json.loads(capsys.readouterr().out)
    assert main(["shoot", "-i", closed_file, "--dt", "1e-3"]) == 0
    shot = json.loads(capsys.readouterr().out)
    assert shot["T"] == pytest.approx(closed["T"], abs=1e-12)
    assert shot["report"]["verdict"]["aa"] is True


def test_shoot_refuses_a_step_beyond_the_work_cap(closed_file, capsys):
    # 5e8 steps over t_max = 0.5: refused before any step, as invalid input
    assert main(["shoot", "-i", closed_file, "--dt", "1e-9"]) == 1
    assert "more than 200000" in capsys.readouterr().err


def test_solve_2qubit_dt_caps_the_certified_step(capsys):
    # a step coarser than the default 1e-3/omega is capped, not used, so
    # the solution passes its certificate and is written
    argv = ["solve-2qubit", "--omega-b", "1.5707963", "--omega", "10"]
    assert main(argv + ["--dt", "1e-3"]) == 0
    capped = capsys.readouterr().out
    assert main(argv) == 0
    assert capped == capsys.readouterr().out


def test_solve_free_refuses_a_step_beyond_the_work_cap(free_file, capsys):
    # T = pi/2 at dt = 1e-7 is 1.6e7 samples: refused as invalid input
    assert main(["solve-free", "-i", free_file, "--dt", "1e-7"]) == 1
    assert "more than 200000" in capsys.readouterr().err


def test_a_dt_beyond_the_work_cap_is_refused_by_every_solver(
    free_file, closed_file, monkeypatch, capsys
):
    # --dt stays a cap: one needing more samples than _MAX_SAMPLES (made
    # small, so that no test starts the work it bounds) is invalid input,
    # never lifted to a coarser step
    monkeypatch.setattr(solvers, "_MAX_SAMPLES", 1000)
    for argv in (
        ["solve-free", "-i", free_file],
        ["solve-closed", "-i", closed_file],
        ["solve-2qubit", "--omega-b", "1.5707963", "--omega", "10"],
    ):
        assert main(argv + ["--dt", "1e-5"]) == 1, argv[0]
        assert "more than 1000" in capsys.readouterr().err


def test_shoot_halving_beyond_the_work_cap_exits_3(tmp_path, monkeypatch, capsys):
    # recipe seed 7 drifts at dt = 0.3; with the cap made small, the
    # halving restart it needs is a numerical failure naming the step
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    doc = {
        "version": 1,
        "dimension": 4,
        "omega": 1.0,
        "basis": "gellmann",
        "psi_i": pairs(problem.psi_i.amplitudes),
        "forbidden": list(problem.forbidden),
        "solver_params": {"H0": pairs(h0), "lambda0": 1.0, "lambdas": m0.lambdas.tolist()},
    }
    path = tmp_path / "seed7.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 100)
    assert main(["shoot", "-i", str(path), "--t-max", "30", "--dt", "0.3"]) == 3
    assert "step size 3.000e-01" in capsys.readouterr().err


@pytest.mark.parametrize("seed, closest, t", [(144, 3.85e-2, 1.454), (168, 9.13e-3, 1.435)])
def test_shoot_without_a_root_exits_2_naming_the_closest_approach(
    seed, closest, t, tmp_path, capsys
):
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    doc = {
        "version": 1,
        "dimension": 4,
        "omega": 1.0,
        "basis": "gellmann",
        "psi_i": pairs(problem.psi_i.amplitudes),
        "forbidden": list(problem.forbidden),
        "solver_params": {
            "H0": pairs(h0), "lambda0": 1.0, "lambdas": m0.lambdas.tolist(), "t_max": 3.0
        },
    }
    path = tmp_path / f"seed{seed}.json"
    path.write_text(json.dumps(doc))
    assert main(["shoot", "-i", str(path)]) == 2
    found = re.search(
        r"closest approach \|s\| = (\S+) omega\^2 at t = (\S+), no sign change",
        capsys.readouterr().err,
    )
    assert float(found.group(1)) == pytest.approx(closest, rel=1e-2)
    assert float(found.group(2)) == pytest.approx(t, abs=2e-3)


# ------------------------------------------------------------------ sweeps


def test_sweep_m1_grid_forms(tmp_path, capsys):
    assert main(["sweep-m1", "--grid", "0,0.02,3 x 0.1,0.3,4", "--omega", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "sweep_m1"
    assert len(doc["lambda1_tilde"]) == 3
    assert len(doc["T"]) == 4
    assert len(doc["amplitude"]) == 3
    assert len(doc["amplitude"][0]) == 4
    # multiplication-sign and flat six-number forms parse identically
    assert main(["sweep-m1", "--grid", "0,0.02,3 × 0.1,0.3,4"]) == 0
    flat = capsys.readouterr().out
    assert main(["sweep-m1", "--grid", "0,0.02,3,0.1,0.3,4"]) == 0
    assert capsys.readouterr().out == flat


def test_sweep_m1_csv(tmp_path):
    csv = tmp_path / "sweep.csv"
    assert (
        main(["sweep-m1", "--grid", "0,0.02,3x0.1,0.3,4", "--csv", str(csv), "-o", str(tmp_path / "s.json")])
        == 0
    )
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "lambda1_tilde,T,amplitude,im_field,re_field"
    assert len(lines) == 3 * 4 + 1


@pytest.mark.parametrize(
    "grid", ["0,0.02 x 0.1,0.3,4", "1,2,3,4,5", "0,1,0 x 0,1,2", ""]
)
def test_sweep_m1_bad_grids(grid):
    assert main(["sweep-m1", "--grid", grid]) == 1


# ------------------------------------------------------------ JSON output


def assert_same_floats(got, want, path="doc"):
    """`got` (parsed output) has the structure of `want`, every float equal by float.hex."""
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same_floats(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_floats(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float and got.hex() == want.hex(), path
    else:
        assert got == want, path


def test_json_output_floats_are_exact(capsys):
    argv = ["solve-m1", "--omega-b", repr(DESIGNED_OB), "--phi", repr(DESIGNED_PHI),
            "--omega", "10.0"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    branches = solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, 10.0)
    assert_same_floats(doc["T_min"], branches[0].T)
    assert_same_floats(doc["branches"], [sol.to_dict() for sol in branches])

    assert main(["solve-2qubit", "--omega-b", "1.5707963", "--omega", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert_same_floats(doc, solve_two_qubit_example(1.5707963, 10.0).to_dict())

    assert main(["sweep-m1", "--grid", "0,0.02,3 x 0.1,0.3,4", "--omega", "7.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    fields = sweep_m1(np.linspace(0, 0.02, 3), np.linspace(0.1, 0.3, 4), omega=7.5)
    assert_same_floats(doc["omega"], 7.5)
    for name, values in fields.items():
        assert_same_floats(doc[name], values.tolist(), name)


def test_json_writer_keeps_non_finite_tokens(tmp_path):
    path = tmp_path / "tokens.json"
    _write_json({"x": [float("nan"), float("inf"), -float("inf"), 0.1]}, str(path))
    assert path.read_text() == '{"x":[NaN,Infinity,-Infinity,0.1]}'


# ------------------------------------------------------------------ verify


def test_verify_round_trip(closed_file, tmp_path, capsys):
    out = str(tmp_path / "sol.json")
    assert main(["solve-closed", "-i", closed_file, "-o", out]) == 0
    capsys.readouterr()
    assert main(["verify", out, "--tol", "analytic"]) == 0
    text = capsys.readouterr().out
    assert "overall" in text
    assert "PASS" in text
    assert "FAIL" not in text
    assert "round-trip agreement with embedded report: max deviation 0.000e+00" in text


def test_verify_bare_trajectory(closed_file, tmp_path, capsys):
    out = str(tmp_path / "sol.json")
    main(["solve-closed", "-i", closed_file, "-o", out])
    sol = json.loads((tmp_path / "sol.json").read_text())
    bare = tmp_path / "traj.json"
    bare.write_text(json.dumps(sol["trajectory"]))
    capsys.readouterr()
    assert main(["verify", str(bare)]) == 0
    text = capsys.readouterr().out
    assert "round-trip" not in text
    assert text.strip().endswith("PASS")


def test_verify_branch_list(tmp_path, capsys):
    out = str(tmp_path / "branches.json")
    assert (
        main(
            [
                "solve-m1",
                "--omega-b",
                repr(DESIGNED_OB),
                "--phi",
                repr(DESIGNED_PHI),
                "--omega",
                "10.0",
                "-o",
                out,
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["verify", out, "--tol", "analytic"]) == 0
    text = capsys.readouterr().out
    assert "-- branch 0 --" in text


def test_verify_detects_tampered_hamiltonian(closed_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    main(["solve-closed", "-i", closed_file, "-o", str(out)])
    sol = json.loads(out.read_text())
    sol["trajectory"]["H"][5][0][1][0] += 0.02
    out.write_text(json.dumps(sol))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert "round-trip FAIL" in text


def test_verify_flags_nan_in_embedded_report(closed_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    main(["solve-closed", "-i", closed_file, "-o", str(out)])
    sol = json.loads(out.read_text())
    sol["report"]["chko_residual"] = float("nan")
    out.write_text(json.dumps(sol))
    capsys.readouterr()
    assert main(["verify", str(out), "--tol", "analytic"]) == 1
    text = capsys.readouterr().out
    assert "max deviation nan" in text
    assert "round-trip FAIL" in text


def test_verify_rejects_degenerate_solution(tmp_path, capsys):
    doc = {
        "version": 1,
        "dimension": 2,
        "omega": 1.0,
        "psi_i": pairs([1.0, 0.0]),
        "psi_f": pairs([1.0, 0.0]),
    }
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    out = str(tmp_path / "sol.json")
    assert main(["solve-free", "-i", str(prob), "-o", out]) == 0
    assert json.loads((tmp_path / "sol.json").read_text())["trajectory"] is None
    assert main(["verify", out]) == 1


# -------------------------------------------------------------- exit codes


def test_exit_code_no_solution():
    argv = [
        "solve-m1",
        "--omega-b",
        repr(math.pi / 3),
        "--phi",
        repr(math.pi / 2),
        "--omega",
        "1.0",
    ]
    assert main(argv) == 2


def test_exit_code_validation_errors(tmp_path, free_file, closed_file):
    assert main(["solve-free", "-i", str(tmp_path / "missing.json")]) == 1
    # declared solver conflicts with the subcommand
    data = json.loads(open(free_file).read())
    data["solver"] = "free"
    conflicted = tmp_path / "conflict.json"
    conflicted.write_text(json.dumps(data))
    assert main(["solve-closed", "-i", str(conflicted)]) == 1
    # unsupported problem-file version
    data = json.loads(open(free_file).read())
    data["version"] = 2
    versioned = tmp_path / "v2.json"
    versioned.write_text(json.dumps(data))
    assert main(["solve-free", "-i", str(versioned)]) == 1
    # psi_f missing for the free solver
    data = json.loads(open(free_file).read())
    del data["psi_f"]
    nof = tmp_path / "nof.json"
    nof.write_text(json.dumps(data))
    assert main(["solve-free", "-i", str(nof)]) == 1
    # malformed JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["solve-free", "-i", str(broken)]) == 1
    # missing seed Hamiltonian for solve-closed
    data = json.loads(open(closed_file).read())
    del data["solver_params"]["H0"]
    noseed = tmp_path / "noseed.json"
    noseed.write_text(json.dumps(data))
    assert main(["solve-closed", "-i", str(noseed)]) == 1
    # solve-m1 without its required numbers
    assert main(["solve-m1"]) == 1
    # solve-m1 has no step to cap: --dt is refused, not ignored
    m1 = ["solve-m1", "--omega-b", repr(DESIGNED_OB), "--phi", repr(DESIGNED_PHI), "--omega", "10"]
    assert main(m1 + ["--dt", "1e-9"]) == 1


def _m1_file(tmp_path, **fields):
    doc = {"omega": 10.0, "solver_params": {"omega_b": DESIGNED_OB, "phi": DESIGNED_PHI}}
    for key, value in fields.items():
        (doc if key == "omega" else doc["solver_params"])[key] = value
    path = tmp_path / "m1.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.filterwarnings("error")
def test_exit_code_solve_m1_problem_file_fields(tmp_path, monkeypatch, capsys):
    # every field of an m1 problem file is parsed as a number (the counts as
    # whole numbers) and refused as invalid input otherwise; a count of
    # branch pairs (k_max + 1)(2 l_max + 1) above _MAX_SAMPLES, made small
    # here so that no test starts the work it bounds, is refused before any
    assert main(["solve-m1", "-i", _m1_file(tmp_path, k_max=3.0, l_max=3)]) == 0
    assert json.loads(capsys.readouterr().out)["T_min"] == pytest.approx(DESIGNED_T, abs=1e-12)
    monkeypatch.setattr(solvers, "_MAX_SAMPLES", 1000)
    for fields in (
        {"omega_b": [0.67]},
        {"omega": [10]},
        {"phi": "x"},
        {"l_max": math.inf},
        {"k_max": math.nan},
        {"k_max": 2.5},
        {"k_max": -1},
        {"l_max": [20]},
        {"k_max": 200},
    ):
        assert main(["solve-m1", "-i", _m1_file(tmp_path, **fields)]) == 1, fields
        assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("dimension", [MAX_DIM + 1, 10**6])
@pytest.mark.parametrize("command", ["solve-free", "shoot"])
def test_exit_code_dimension_above_the_cap(dimension, command, free_file, tmp_path, capsys):
    # a basis of su(N) holds (N^2 - 1) N^2 complex numbers, so the dimension
    # is refused before the basis is built
    data = json.loads(open(free_file).read())
    data["dimension"] = dimension
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    assert main([command, "-i", str(big)]) == 1
    assert "largest supported" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid", [f"0,1,{dynamics._MAX_SAMPLES + 1} x 0.1,0.3,1", "0,1,1000 x 0.1,0.3,1000"]
)
def test_exit_code_sweep_grid_above_the_cap(grid, capsys):
    assert main(["sweep-m1", "--grid", grid]) == 1
    assert "cells" in capsys.readouterr().err


def test_sweep_m1_refuses_a_grid_above_the_cap():
    with pytest.raises(ValueError, match="cells"):
        sweep_m1(np.zeros(dynamics._MAX_SAMPLES + 1), [1.0])
    with pytest.raises(ValueError, match="cells"):
        sweep_m1(np.zeros(1000), np.ones(1000))


def test_exit_code_nan_amplitude(free_file, tmp_path, capsys):
    data = json.loads(open(free_file).read())
    data["psi_i"][0][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["solve-free", "-i", str(bad)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_exit_code_csv_for_degenerate_solution(tmp_path):
    doc = {
        "version": 1,
        "dimension": 2,
        "omega": 1.0,
        "psi_i": pairs([1.0, 0.0]),
        "psi_f": pairs([1.0, 0.0]),
    }
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    argv = ["solve-free", "-i", str(prob), "--csv", str(tmp_path / "x.csv")]
    assert main(argv) == 1


def test_exit_code_numerical_failure(free_file, monkeypatch):
    def boom(*args, **kwargs):
        raise ArithmeticError("synthetic numerical failure")

    monkeypatch.setattr("qbrach.cli.solve_free", boom)
    assert main(["solve-free", "-i", free_file]) == 3


def test_failing_certificate_is_refused(closed_file, tmp_path, monkeypatch, capsys):
    # a solution whose report fails is a numerical failure: exit 3, the
    # failed verdicts named, no file written
    def failing(*args, **kwargs):
        sol = solve_closed_subalgebra(*args, **kwargs)
        verdict = dict(sol.report.verdict, initial_cond=False, overall=False)
        return dataclasses.replace(sol, report=dataclasses.replace(sol.report, verdict=verdict))

    monkeypatch.setattr("qbrach.cli.solve_closed_subalgebra", failing)
    out = tmp_path / "sol.json"
    assert main(["solve-closed", "-i", closed_file, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "initial_cond" in err and "overall" not in err
    assert not out.exists()


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv, bad_field",
    [
        (["sweep-m1", "--grid", "0,0.02,3 x 0.1,0.3,4", "--omega", "0"], None),
        (["sweep-m1", "--grid", "0,0.02,3 x 0.1,0.3,4", "--omega", "inf"], None),
        (["solve-m1", "--omega-b", repr(DESIGNED_OB), "--phi", repr(DESIGNED_PHI),
          "--omega", "inf"], None),
        (["shoot", "-i", "{closed}", "--t-max", "inf"], None),
        (["solve-closed", "-i", "{closed}", "--t-max", "inf"], None),
        (["solve-free", "-i", "{free}"], ("free", "omega", math.inf)),
        (["solve-closed", "-i", "{closed}"], ("closed", "omega", math.inf)),
        (["solve-free", "-i", "{free}"], ("free", "omega", 1e-300)),
        (["solve-free", "-i", "{free}"], ("free", "omega", 1e300)),
        (["shoot", "-i", "{closed}"], ("closed", "omega", 1e300)),
        (["solve-closed", "-i", "{closed}"], ("closed", "lambda0", 0.0)),
        (["shoot", "-i", "{closed}"], ("closed", "lambda0", 0.0)),
        (["solve-free", "-i", "{free}", "--dt", "0"], None),
        (["solve-free", "-i", "{trivial}", "--dt", "0"], None),
        (["solve-2qubit", "--omega-b", "1", "--omega", "10", "--dt", "0"], None),
        (["solve-closed", "-i", "{closed}", "--dt", "0"], None),
        (["solve-free", "-i", "{free}", "--dt", "-5"], None),
        (["solve-2qubit", "--omega-b", "1", "--omega", "10", "--dt", "-5"], None),
        (["solve-free", "-i", "{free}", "--dt", "inf"], None),
        (["solve-closed", "-i", "{closed}", "--dt", "inf"], None),
        (["sweep-m1", "--grid", "0,0.02,2 x nan,0.3,2"], None),
        (["sweep-m1", "--grid", "0,inf,2 x 0.1,0.3,2"], None),
    ],
    ids=[
        "sweep-omega-0",
        "sweep-omega-inf",
        "m1-omega-inf",
        "shoot-t-max-inf",
        "closed-t-max-inf",
        "free-file-omega-inf",
        "closed-file-omega-inf",
        "free-file-omega-1e-300",
        "free-file-omega-1e300",
        "shoot-file-omega-1e300",
        "closed-file-lambda0-0",
        "shoot-file-lambda0-0",
        "free-dt-0",
        "free-trivial-dt-0",
        "2qubit-dt-0",
        "closed-dt-0",
        "free-dt-negative",
        "2qubit-dt-negative",
        "free-dt-inf",
        "closed-dt-inf",
        "sweep-grid-nan",
        "sweep-grid-inf",
    ],
)
@pytest.mark.filterwarnings("error")
def test_exit_code_non_finite_scale(
    argv, bad_field, tmp_path, free_file, trivial_file, closed_file, capsys
):
    # a non-finite or non-positive omega, t_max, dt or sweep grid value, an
    # omega whose square or inverse square is not a normal float, and the
    # singular gauge lambda0 = 0 are validation errors, rejected before any
    # arithmetic can warn
    files = {"free": free_file, "trivial": trivial_file, "closed": closed_file}
    if bad_field is not None:
        name, key, value = bad_field
        with open(files[name]) as fh:
            data = json.load(fh)
        (data if key == "omega" else data["solver_params"])[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        files[name] = str(bad)
    assert main([arg.format(**files) for arg in argv]) == 1
    assert "invalid input" in capsys.readouterr().err


# ------------------------------------------------------ fuzzed problem files

_JUNK = [None, "x", [], {}, [[1.0]], True]
_BAD_NUMBERS = [0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, "1.0"]

# per field of a problem file, values that are malformed, out of range or
# non-finite; a list entry is taken as it is
_MALFORMED_FIELDS = {
    "version": [2, "x"],
    "dimension": [MAX_DIM + 1, 10**6, 0, 1, -3, 2.5, "2", 5] + _BAD_NUMBERS + _JUNK,
    "omega": _BAD_NUMBERS + _JUNK,
    "basis": ["pauli_strings", "nope", 5, None],
    "psi_i": [[0.6, 0.8], [[[0.6, 0.0], [0.8, 0.0]]], [[1.0, 0.0]], [[1e300, 0.0], [0.0, 0.0]],
              [[math.nan, 0.0], [1.0, 0.0]], [[math.inf, 0.0], [0.0, math.inf]],
              [[1.0, 0.0], [1.0, 0.0]]] + _JUNK,
    "forbidden": [[-1], [100], ["zz"], ["d1"], [0, 0], 5, [[1]], [1.5]] + _JUNK,
    "solver_params": _JUNK + [5],
    "H0": [[[1.0, 0.0]], [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
           [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
           [[[math.inf, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-math.inf, 0.0]]]] + _JUNK,
    "lambda0": _BAD_NUMBERS + _JUNK,
    "lambdas": [[1.0] * 7, [math.nan], [math.inf, 1.0, 1.0]] + _JUNK,
    "t_max": _BAD_NUMBERS + _JUNK,
    "dt": [1e-9] + _BAD_NUMBERS + _JUNK,
    "target_bures_angle": [0.5, 2.0] + _BAD_NUMBERS,
}
_PARAM_KEYS = ("H0", "lambda0", "lambdas", "t_max", "dt", "target_bures_angle")


@st.composite
def _problem_files(draw):
    """A well-formed problem for every subcommand it is handed to, with up
    to three fields then replaced by malformed values."""
    n = draw(st.sampled_from([2, 3, 4]))
    basis = helpers.build_gellmann_basis(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    omega = draw(st.floats(min_value=0.25, max_value=2.0))
    forbidden = sorted(draw(st.sets(st.integers(0, basis.size - 1), max_size=min(3, n * n - 2))))
    allowed = [m for m in range(basis.size) if m not in forbidden]
    h0 = np.tensordot(rng.normal(size=len(allowed)), basis.generators[allowed], axes=1)
    h0 *= math.sqrt(2.0) * omega / math.sqrt(np.real(np.trace(h0 @ h0)))
    doc = {
        "version": 1,
        "dimension": n,
        "omega": omega,
        "basis": "gellmann",
        "psi_i": pairs(helpers.random_state(rng, n).amplitudes),
        "psi_f": pairs(helpers.random_state(rng, n).amplitudes),
        "forbidden": forbidden,
        "solver_params": {
            "H0": pairs(h0),
            "lambda0": 1.0,
            "lambdas": (0.5 * rng.normal(size=len(forbidden))).tolist(),
            "t_max": draw(st.sampled_from([0.05, 0.3])),
        },
    }
    for key in draw(st.sets(st.sampled_from(sorted(_MALFORMED_FIELDS)), max_size=3)):
        value = draw(st.sampled_from(_MALFORMED_FIELDS[key]))
        if key in _PARAM_KEYS:
            if isinstance(doc["solver_params"], dict):
                doc["solver_params"][key] = value
        else:
            doc["psi_f" if key == "psi_i" and draw(st.booleans()) else key] = value
    return doc


@settings(
    max_examples=100,
    deadline=5000,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from(["solve-free", "solve-closed", "shoot"]), doc=_problem_files())
def test_fuzzed_problem_file_exits_with_a_documented_code(command, doc, tmp_path):
    # whatever a problem file holds, the CLI answers with exit code 0, 1, 2
    # or 3 and never lets an exception escape; the windows and energy
    # scales drawn here keep every valid problem to a few hundred steps
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main([command, "-i", str(path), "-o", str(out)]) in (0, 1, 2, 3)
