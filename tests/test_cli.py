"""Command-line interface: solving, sweeping, verifying, exit codes."""

import argparse
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import helpers
from qbrach import cli, dynamics, solvers
from qbrach.algebra import MAX_DIM
from qbrach.cli import _write_json, main
from qbrach.solvers import (
    solve_closed_subalgebra,
    solve_m1_two_level,
    solve_two_qubit_example,
    sweep_m1,
)
from qbrach.verify import _constraint_profiles, speed_profile

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


@pytest.fixture()
def shot_file(tmp_path):
    # recipe seed 7: its forbidden set is not closed, so shoot steps it
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    doc = {
        "version": 1,
        "dimension": 4,
        "omega": 1.0,
        "basis": "gellmann",
        "psi_i": pairs(problem.psi_i.amplitudes),
        "forbidden": list(problem.forbidden),
        "solver_params": {
            "H0": pairs(h0), "lambda0": 1.0, "lambdas": m0.lambdas.tolist(), "t_max": 3.0,
        },
    }
    path = tmp_path / "shot.json"
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


@pytest.mark.parametrize("command", ["solve-closed", "shoot"])
def test_closed_window_beyond_the_root_scan_cap_exits_1(command, closed_file, tmp_path, capsys):
    # the exact pass takes the stepped pass's grid, steps of 0.075/r on at
    # most 200,000 steps: a window that needs more is refused as invalid
    # input, nothing written
    out = tmp_path / "out.json"
    assert main([command, "-i", closed_file, "--t-max", "2000", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    problem = helpers.m1_problem(10.0)  # the problem of closed_file
    h0 = np.array([[0.0, -10.0j], [10.0j, 0.0]])
    seed = solvers._project_seed(problem, h0, dynamics.MultiplierVector(1.0, [2.5]))
    assert helpers.grid_refusal(2000.0, helpers.own_step(problem, *seed)) in err
    assert "more than 200000; use a coarser dt or a shorter window" in err
    assert not out.exists()


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
    # the pass step does not coarsen the certified grid past its own
    # step, which keeps the aa residual in its 1e-6 omega verdict
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
    # a step coarser than the grid's own step (about 4.5e-3 here) is
    # capped, not used, so the solution passes its certificate and is written
    argv = ["solve-2qubit", "--omega-b", "1.5707963", "--omega", "10"]
    assert main(argv + ["--dt", "1e-2"]) == 0
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
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 1000)
    for argv in (
        ["solve-free", "-i", free_file],
        ["solve-closed", "-i", closed_file],
        ["solve-2qubit", "--omega-b", "1.5707963", "--omega", "10"],
    ):
        assert main(argv + ["--dt", "1e-5"]) == 1, argv[0]
        assert "more than 1000" in capsys.readouterr().err


def test_shoot_dt_coarser_than_the_window_is_the_default_pass(shot_file, capsys):
    # dt only caps the pass step, also where it exceeds t_max = 3: the
    # solution is the default one byte for byte (its T is the Adams pass's at
    # 0.1/r, 4.6e-14 relative from the 0.9053082589150137 of a pass at 0.0125/r)
    assert main(["shoot", "-i", shot_file]) == 0
    default = capsys.readouterr().out
    assert main(["shoot", "-i", shot_file, "--dt", "5"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["T"] == 0.9053082589149721


def test_shoot_drift_exits_3_and_the_work_cap_exits_1(shot_file, monkeypatch, capsys):
    # recipe seed 7's pass at its own step needs more than 100 steps over t_max = 3
    argv = ["shoot", "-i", shot_file]
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    step = helpers.own_step(problem, *solvers._project_seed(problem, h0, m0))
    refusal = helpers.grid_refusal(3.0, step)
    # a frame that drifts beyond the validation's 1e-8 at a checkpoint (at
    # a step of 2/r) is a numerical failure naming the step
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_STEP_PER_RATE", 2.0)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert re.search(r"numerical failure: frame unitarity drifted .* step size", err)
    # with the cap made small, the window at its own step and a user's
    # finer dt are each refused as invalid input, naming the step
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 100)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert refusal + ", more than 100" in err
    assert main(argv + ["--dt", "0.01"]) == 1
    assert "[0, 3] at steps of at most 0.01 needs 300 steps" in capsys.readouterr().err


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
    fields = sweep_m1(np.linspace(0, 0.02, 3), np.linspace(0.1, 0.3, 4), omega=10.0)
    names = ("amplitude", "im_field", "re_field")
    rows = [
        [lam, t, *(fields[name][i, j] for name in names)]
        for i, lam in enumerate(fields["lambda1_tilde"])
        for j, t in enumerate(fields["T"])
    ]
    assert len(rows) == 3 * 4
    header = "lambda1_tilde,T,amplitude,im_field,re_field"
    assert csv.read_bytes() == row_loop_csv(header, rows)


def row_loop_csv(header, rows):
    """The bytes of a CSV table formatted row by row, each number as %.17g."""
    lines = [header] + [",".join(f"{x:.17g}" for x in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def test_trajectory_csv_matches_a_row_loop(tmp_path):
    # the Pauli-string labels of solve-2qubit's header are not Latin-1
    traj = solve_two_qubit_example(1.5707963, 10.0).trajectory
    path = tmp_path / "q2.csv"
    traj.to_csv(str(path))
    labels = [f"lambda_{traj.basis.labels[j]}" for j in traj.forbidden]
    header = ",".join(["t", "lambda0", *labels, "delta_e", "resid_traceless", "resid_norm",
                       "resid_term_max"])
    assert max(map(ord, header)) > 255
    de, _ = speed_profile(traj, traj.omega)
    table = np.column_stack(
        [traj.times, traj.lambda0, traj.lambdas, de, *_constraint_profiles(traj, traj.omega)]
    )
    assert path.read_bytes() == row_loop_csv(header, table)


@pytest.mark.parametrize(
    "grid", ["0,0.02 x 0.1,0.3,4", "1,2,3,4,5", "0,1,0 x 0,1,2", ""]
)
def test_sweep_m1_bad_grids(grid):
    assert main(["sweep-m1", "--grid", grid]) == 1


# ------------------------------------------------------------ JSON output


def assert_same_floats(got, want, path="doc"):
    """`got` (parsed output) has the structure of `want`, every float equal by float.hex."""
    if isinstance(want, np.ndarray):
        want = want.tolist()
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
        assert_same_floats(doc[name], values, name)


def test_json_writer_keeps_non_finite_tokens(tmp_path):
    path = tmp_path / "tokens.json"
    _write_json({"x": [float("nan"), float("inf"), -float("inf"), 0.1]}, str(path))
    assert path.read_text() == '{"x":[NaN,Infinity,-Infinity,0.1]}'


def _listed(doc):
    """`doc` with every array leaf replaced by its tolist()."""
    if isinstance(doc, dict):
        return {key: _listed(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_listed(value) for value in doc]
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def _written(doc, tmp_path):
    path = tmp_path / "doc.json"
    _write_json(doc, str(path))
    return path.read_text()


CLI_DOCUMENTS = [
    (["solve-free", "-i"], "free_file"),
    (["solve-closed", "-i"], "closed_file"),
    (["shoot", "-i"], "closed_file"),
    (["solve-2qubit", "--omega-b", "1.5707963", "--omega", "10"], None),
    (["solve-m1", "--omega-b", repr(DESIGNED_OB), "--phi", repr(DESIGNED_PHI),
      "--omega", "10.0"], None),
    (["sweep-m1", "--grid", "0,0.02,3 x 0.1,0.3,4", "--omega", "7.5"], None),
]


@pytest.mark.parametrize("argv, fixture", CLI_DOCUMENTS)
def test_json_writer_matches_json_dumps_on_every_cli_document(
    argv, fixture, request, tmp_path, monkeypatch
):
    # the writer's text is json.dumps of the same document with its arrays
    # as nested lists, byte for byte
    if fixture is not None:
        argv = argv + [request.getfixturevalue(fixture)]
    docs = []
    monkeypatch.setattr(cli, "_write_json", lambda doc, path: docs.append(doc))
    assert main(argv) == 0
    (doc,) = docs
    assert _written(doc, tmp_path) == json.dumps(_listed(doc), separators=(",", ":"))
    if argv[0] == "solve-free":
        # M = 0: the multipliers are an array of shape (K, 0)
        lambdas = doc["trajectory"]["lambdas"]
        assert lambdas.shape == (len(doc["trajectory"]["times"]), 0)


@pytest.mark.parametrize(
    "array",
    [
        np.array([-0.0, 5e-324, 1e-5, 1e-4, 0.1, 1e16, 1e22, math.nan, math.inf, -math.inf]),
        np.array([[0.1, -math.inf], [math.nan, 2.5e-300]]),
        np.array(1.5),
        np.array([0.1, 1e-7], dtype=np.float32),
        np.zeros(0),
        np.zeros((3, 0)),
        np.zeros((0, 2)),
        np.array([True, False]),
        np.array([[1, -2], [3, 2**40]]),
        np.zeros(0, dtype=bool),
        # each distinct float is rendered once, told apart by its bits: 0.0
        # and -0.0 stay two values, and every NaN is the one NaN token
        np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0]),
        np.array([[math.nan, math.inf], [-math.inf, math.nan], [-math.nan, -math.inf]] * 3),
        np.array([0.1, 1e-7, 0.1, -0.0, 0.1, 1e-7, 0.0], dtype=np.float32),
        np.random.default_rng(5).choice([0.1, -0.0, 0.0, 1e-300, 100.0, -2.5], size=(200, 200)),
    ],
)
def test_json_writer_matches_json_dumps_on_array_leaves(array, tmp_path):
    doc = {"a": array, "rows": [array, {"k": array}], "n": 1}
    assert _written(doc, tmp_path) == json.dumps(_listed(doc), separators=(",", ":"))


@pytest.mark.parametrize(
    "leaf",
    [np.array([1j]), np.array([0.5, None], dtype=object)]
    # a long double wider than float64 has no float repr
    + ([np.array([0.5], dtype=np.longdouble)] if np.dtype(np.longdouble).itemsize > 8 else []),
)
def test_json_writer_refuses_a_complex_or_object_array(leaf, tmp_path):
    # complex arrays are written as [re, im] pairs; the refusal comes before
    # the file is opened
    path = tmp_path / "x.json"
    with pytest.raises(TypeError):
        _write_json({"ok": np.zeros(2), "x": leaf}, str(path))
    assert not path.exists()


def test_json_writer_refuses_a_string_equal_to_its_array_placeholder(tmp_path):
    # the string would be taken for an array's place in the text
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match="placeholder"):
        _write_json({"s": "\0", "a": np.zeros(2)}, str(path))
    assert not path.exists()


# ------------------------------------------------------------- JSON input

# the canonical compact text, json.dumps' default (the layout of a file a
# script edits and writes back) and an indented one
LAYOUTS = {"compact": {"separators": (",", ":")}, "default": {}, "indent": {"indent": 1}}


@pytest.mark.parametrize(
    "argv, fixture", [(argv, fixture) for argv, fixture in CLI_DOCUMENTS if argv[0] != "sweep-m1"]
)
def test_verify_reads_every_cli_document_in_every_layout(argv, fixture, request, tmp_path, capsys):
    # each layout reads back every float bit for bit: verify prints the same
    # certificate, which matches the embedded report exactly
    if fixture is not None:
        argv = argv + [request.getfixturevalue(fixture)]
    out = tmp_path / "doc.json"
    assert main(argv + ["-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    printed = {}
    for layout, options in LAYOUTS.items():
        path = tmp_path / f"{layout}.json"
        path.write_text(json.dumps(doc, **options))
        capsys.readouterr()
        assert main(["verify", str(path), "--tol", "analytic"]) == 0, layout
        printed[layout] = capsys.readouterr().out
    n_reports = len(doc.get("branches", [doc]))
    assert printed["compact"].count("max deviation 0.000e+00\n") == n_reports
    assert printed["default"] == printed["indent"] == printed["compact"]


# the fields of every trajectory a document holds: the pass's frame V and
# gauge time tau_acc are not among them, since U = V e^{-i F(0) tau} carries both
TRAJECTORY_FIELDS = {"version", "dimension", "omega", "basis", "forbidden", "renormalized",
                     "times", "lambda0", "lambdas", "psi", "U", "H", "F"}


@pytest.mark.parametrize(
    "argv, fixture", [(argv, fixture) for argv, fixture in CLI_DOCUMENTS if argv[0] != "sweep-m1"]
)
def test_every_cli_trajectory_holds_the_documented_fields(argv, fixture, request, capsys):
    if fixture is not None:
        argv = argv + [request.getfixturevalue(fixture)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    for branch in doc.get("branches", [doc]):
        assert branch["trajectory"].keys() == TRAJECTORY_FIELDS


# ------------------------------------------------------------------ verify

# solve-closed's document of the README's closed-subalgebra problem, written
# when every trajectory still carried V and tau_acc
FRAMED_DOC = Path(__file__).parent / "data" / "closed_sol_with_frame.json"


def test_verify_reads_a_document_that_carries_the_frame(capsys):
    # verify reads a trajectory's fields by name: it ignores V and tau_acc
    # and certifies the rest, reproducing the embedded report
    assert {"V", "tau_acc"} <= json.loads(FRAMED_DOC.read_text())["trajectory"].keys()
    assert main(["verify", str(FRAMED_DOC), "--tol", "analytic"]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert float(re.search(r"max deviation (\S+)\n", text).group(1)) <= 1e-12


def test_a_trajectory_that_carries_the_frame_loads_without_it():
    # the bare trajectory of that document loads, and writes back every
    # field it read, bit for bit, but V and tau_acc
    old = json.loads(FRAMED_DOC.read_text())["trajectory"]
    new = dynamics.Trajectory.from_dict(old).to_dict()
    assert new.keys() == old.keys() - {"V", "tau_acc"} == TRAJECTORY_FIELDS
    for key, value in new.items():
        np.testing.assert_array_equal(np.asarray(value), np.asarray(old[key]), err_msg=key)


def test_verify_round_trip(closed_file, tmp_path, capsys):
    out = str(tmp_path / "sol.json")
    assert main(["solve-closed", "-i", closed_file, "-o", out]) == 0
    capsys.readouterr()
    assert main(["verify", out, "--tol", "analytic"]) == 0
    text = capsys.readouterr().out
    assert "overall" in text
    assert "PASS" in text
    assert "FAIL" not in text
    assert text.endswith("PASS\nround-trip agreement with embedded report: max deviation 0.000e+00\n")


# each edit of closed_sol.json's report, and the start of the round-trip
# FAIL line that names the first field it leaves differing
REPORT_TAMPERS = {
    "overall-false": (lambda d: d["report"]["verdict"].update(overall=False),
                      "verdict.overall is false, recomputed true"),
    "chko-string": (lambda d: d["report"]["verdict"].update(chko="no"),
                    'verdict.chko is "no", recomputed true'),
    "renormalized-string": (lambda d: d["report"].update(renormalized="false"),
                            'renormalized is "false", recomputed true'),
    "all-three": (lambda d: (d["report"]["verdict"].update(overall=False, chko="no"),
                             d["report"].update(renormalized="false")),
                  'renormalized is "false", recomputed true'),
    "empty": (lambda d: d["report"].clear(), "traceless_max is missing, recomputed "),
    "null": (lambda d: d.update(report=None), "traceless_max is missing, recomputed "),
    "absent": (lambda d: d.pop("report"), "traceless_max is missing, recomputed "),
    "missing-field": (lambda d: d["report"].pop("speed_efficiency"),
                      "speed_efficiency is missing, recomputed "),
    "extra-field": (lambda d: d["report"].update(gate=1.0), "gate is 1.0, recomputed missing"),
    # the member documents carried before u_defect is not recomputed either
    "old-u_mismatch": (lambda d: d["report"].update(u_mismatch=0.0),
                       "u_mismatch is 0.0, recomputed missing"),
    "extra-verdict": (lambda d: d["report"]["verdict"].update(gate=True),
                      "verdict.gate is true, recomputed missing"),
    "verdict-not-a-dict": (lambda d: d["report"].update(verdict=True),
                           "verdict.traceless is missing, recomputed true"),
}


@pytest.mark.parametrize("tamper, named", REPORT_TAMPERS.values(), ids=REPORT_TAMPERS)
def test_verify_fails_a_report_whose_fields_differ(tamper, named, closed_file, tmp_path, capsys):
    # booleans, strings and the set of fields must match the recomputed
    # report exactly: every verdict of the table passes and every number
    # agrees, yet the round trip fails and names the first field that differs
    out = tmp_path / "sol.json"
    assert main(["solve-closed", "-i", closed_file, "-o", str(out)]) == 0
    sol = json.loads(out.read_text())
    tamper(sol)
    out.write_text(json.dumps(sol))
    capsys.readouterr()
    assert main(["verify", str(out), "--tol", "analytic"]) == 1
    text = capsys.readouterr().out
    assert re.findall(r"^(\S+) +\S+  FAIL$", text, re.M) == []
    assert "round-trip agreement with embedded report: max deviation 0.000e+00\n" in text
    fails = re.findall(r"^round-trip FAIL: .*$", text, re.M)
    assert len(fails) == 1 and fails[0].startswith(f"round-trip FAIL: the embedded report's {named}")


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


def test_verify_detects_a_u_that_does_not_solve_its_h(shot_file, tmp_path, capsys):
    # recipe seed 7's shot solution with every U(t) replaced by
    # U(t) e^{-iAt/2}, A Hermitian and supported off psi_i: U stays unitary
    # and psi(t) = U(t) psi_i is unchanged, so of all the verdicts only the
    # check of i dU/dt = H U fails
    out = tmp_path / "shot_sol.json"
    assert main(["shoot", "-i", shot_file, "-o", str(out)]) == 0
    sol = json.loads(out.read_text())
    traj = sol["trajectory"]
    U = dynamics._from_pairs(traj["U"])
    psi_i = dynamics._from_pairs(traj["psi"])[0]
    rng = np.random.default_rng(0)
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Q = np.eye(4) - np.outer(psi_i, psi_i.conj())
    A = Q @ (B + B.conj().T) @ Q
    w, q = np.linalg.eigh(A)
    drift = (q * np.exp(-0.5j * np.outer(traj["times"], w))[:, None, :]) @ q.conj().T
    assert float(np.abs(U @ drift - U).max()) > 0.1
    traj["U"] = pairs(U @ drift)
    out.write_text(json.dumps(sol))
    capsys.readouterr()
    assert main(["verify", str(out), "--tol", "integrated"]) == 1
    text = capsys.readouterr().out
    assert re.findall(r"^(\S+) +\S+  FAIL$", text, re.M) == ["u_mismatch"]
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
    assert "round-trip FAIL: recomputed chko_residual deviates" in text


def test_verify_names_the_field_that_deviates_most(closed_file, tmp_path, capsys):
    # an embedded residual moved by 1e-9 and another by 1e-11: the round
    # trip fails, the deviation line keeps its form, and the FAIL line
    # names the field that deviates most
    out = tmp_path / "sol.json"
    assert main(["solve-closed", "-i", closed_file, "-o", str(out)]) == 0
    sol = json.loads(out.read_text())
    sol["report"]["aa_identity_max"] += 1e-9
    sol["report"]["chko_residual"] += 1e-11
    out.write_text(json.dumps(sol))
    capsys.readouterr()
    assert main(["verify", str(out), "--tol", "analytic"]) == 1
    text = capsys.readouterr().out
    assert re.search(r"max deviation 1\.0\d\de-09$", text, re.M)
    assert re.search(r"^round-trip FAIL: recomputed aa_identity_max deviates .* beyond 1e-12$",
                     text, re.M)
    assert re.findall(r"^(\S+) +\S+  FAIL$", text, re.M) == []


def test_verify_refuses_a_trajectory_on_a_non_uniform_grid(closed_file, tmp_path, capsys):
    # certify differences and interpolates with uniform-grid weights: one
    # sample time moved by 1e-6 of a step is invalid input, exit 1
    out = tmp_path / "sol.json"
    assert main(["solve-closed", "-i", closed_file, "-o", str(out)]) == 0
    sol = json.loads(out.read_text())
    times = sol["trajectory"]["times"]
    times[7] += 1e-6 * (times[1] - times[0])
    out.write_text(json.dumps(sol))
    capsys.readouterr()
    assert main(["verify", str(out), "--tol", "analytic"]) == 1
    assert "time grid must be uniform" in capsys.readouterr().err


def _edited(change):
    """An edit of a written solution's text: `change` applied to its document."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc, separators=(",", ":"))
    return edit


def _ragged_h(doc):
    doc["trajectory"]["H"][3].pop()


def _string_in_u(doc):
    doc["trajectory"]["U"][2][0][1][0] = "x"


def _first_time_as(token):
    return lambda text: text.replace('"times":[0.0,', f'"times":[{token},', 1)


def _first_entry_as(field, token):
    return lambda text: re.sub(rf'("{field}":\[+)[-+.0-9eE]+', rf"\g<1>{token}", text, count=1)


def _replaced_once(old, new):
    return lambda text: text.replace(old, new, 1)


@pytest.mark.parametrize(
    "doc, message",
    [
        # a value other than an object, one whose text names a key included
        *[(value, "a solution file holds one JSON object")
          for value in ("trajectory", "times", ["times"], 1.5, None)],
        ({"trajectory": [1]}, "malformed"),
        ({"branches": [1]}, "malformed"),
        ({"branches": {"a": 1}}, "malformed"),
        ({"branches": []}, "malformed"),
        (_edited(lambda doc: doc.update(report=[1])), "malformed"),  # a report that is no object
        (_edited(_ragged_h), "trajectory field 'H': setting an array element with a sequence"),
        (_edited(_string_in_u), "trajectory field 'U': could not convert string to float"),
        (_edited(lambda doc: doc["trajectory"]["lambdas"].pop()),  # one row short
         "trajectory field 'lambdas': cannot reshape"),
        (_edited(lambda doc: doc["trajectory"].update(dimension=2.7)),  # int() would read 2
         "dimension must be a whole number, got 2.7"),
        # a number or flag written as a JSON string: float() and bool() would read it
        (_edited(lambda doc: doc["trajectory"].update(omega="10.0")),
         "omega must be a number, got '10.0'"),
        (_edited(lambda doc: doc["trajectory"].update(dimension="2")),
         "dimension must be a number, got '2'"),
        (_edited(lambda doc: doc["trajectory"].update(renormalized="false")),
         "renormalized must be true or false, got 'false'"),
        # tokens float() reads but JSON does not
        *[(_first_time_as(token), None) for token in ("01.5", ".5", "1.", "+1", "nan")],
        (lambda text: text[: text.index('"H":') + 1000], None),  # truncated mid-array
        # JSON's syntax errors: a number after ']' or before '[', a trailing
        # comma, an unclosed object, data after it, a raw control character
        (_replaced_once("],[", "]0.5,["), None),
        (_replaced_once(",[", ",0.5["), None),
        (_replaced_once("]", ",]"), None),
        (lambda text: text[:-1], None),
        (lambda text: text + "[0.5]", None),
        (_replaced_once('"times"', '"ti\x00mes"'), None),
        # tokens json.load reads but JSON does not: a non-finite entry
        (_first_time_as("NaN"), "times has a non-finite entry"),
        (_first_time_as("-Infinity"), "times has a non-finite entry"),
        (_first_entry_as("U", "NaN"), "U has a non-finite entry"),
        (_first_entry_as("H", "Infinity"), "H has a non-finite entry"),
    ],
    ids=["string", "string-times", "list", "number", "null", "list-trajectory", "number-branch",
         "branch-object", "no-branch", "list-report", "ragged-H", "string-in-U", "short-lambdas",
         "dimension-2.7", "omega-string", "dimension-string", "renormalized-string",
         "times-01.5", "times-.5", "times-1.", "times-+1", "times-nan",
         "truncated", "after-close", "before-open", "trailing-comma", "unclosed", "extra-data",
         "control-character", "times-NaN", "times-Infinity", "U-NaN", "H-Infinity"],
)
def test_verify_refuses_a_malformed_file_as_invalid_input(
    doc, message, closed_file, tmp_path, capsys
):
    # a callable edits the text of a valid solution; a message of None
    # stands for json's own on the file's syntax error
    path = tmp_path / "bad.json"
    if callable(doc):
        main(["solve-closed", "-i", closed_file, "-o", str(path)])
        written = path.read_text()
        text = doc(written)
        assert text != written
    else:
        text = json.dumps(doc)
    path.write_text(text)
    if message is None:
        with pytest.raises(json.JSONDecodeError) as syntax:
            json.loads(text)
        message = str(syntax.value)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert f"invalid input: {message}" in capsys.readouterr().err


def test_verify_refuses_a_sweep_document(tmp_path, capsys):
    # a sweep's fields carry no trajectory to certify
    path = tmp_path / "sweep.json"
    assert main(["sweep-m1", "--grid", "0,0.02,3 x 0.1,0.3,4", "--omega", "7.5",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "invalid input: unrecognized file" in capsys.readouterr().err


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
def test_verify_refuses_a_solution_file_not_in_utf8(encoding, closed_file, tmp_path, capsys):
    # json.loads of bytes would take a byte-order mark or UTF-16; json.load
    # of the file read as UTF-8 takes neither
    path = tmp_path / "sol.json"
    main(["solve-closed", "-i", closed_file, "-o", str(path)])
    path.write_bytes(path.read_text().encode(encoding))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "invalid input:" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "fields",
    [{"version": 1.9}, {"dimension": 2.7}, {"version": 1.9, "dimension": 2.7}],
    ids=["version", "dimension", "both"],
)
@pytest.mark.parametrize("command, fixture", [("solve-free", "free_file"),
                                              ("solve-closed", "closed_file")])
def test_problem_file_refuses_a_fractional_version_or_dimension(
    fields, command, fixture, request, tmp_path, capsys
):
    # int() would truncate either to a problem the file does not state
    data = json.loads(open(request.getfixturevalue(fixture)).read())
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**data, **fields}))
    capsys.readouterr()
    assert main([command, "-i", str(path)]) == 1
    assert "must be a whole number" in capsys.readouterr().err
    path.write_text(json.dumps({**data, "version": 1.0, "dimension": 2.0}))
    assert main([command, "-i", str(path)]) == 0


@pytest.mark.parametrize(
    "field, value",
    [("dimension", "2"), ("omega", "10.0"), ("lambda0", "1.0"), ("t_max", True),
     ("lambdas", ["0.5"]), ("lambdas", [True])],
    ids=["dimension-string", "omega-string", "lambda0-string", "t_max-boolean",
         "lambdas-string", "lambdas-boolean"],
)
def test_problem_file_refuses_a_number_written_as_a_string_or_boolean(
    field, value, closed_file, tmp_path, capsys
):
    # float() and a float array conversion read "10.0" and true as numbers;
    # a problem file's numbers are JSON numbers, and the refusal names its field
    data = json.loads(open(closed_file).read())
    (data["solver_params"] if field in _PARAM_KEYS else data)[field] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["solve-closed", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err and field in err


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
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 1000)
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


def test_solve_m1_refuses_a_branch_whose_certificate_fails(tmp_path, monkeypatch, capsys):
    # with _MAX_SAMPLES made small, each branch's certified grid is lifted
    # to 30 steps (from 49), too coarse for its conservation residuals:
    # solve-m1 keeps the rule of every solver, exit 3 with the failed
    # verdicts named and nothing written.  The 4 x 7 branch pairs, which
    # hold the global minimum, stay within that cap
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 30)
    out = tmp_path / "m1.json"
    problem = tmp_path / "m1_problem.json"
    problem.write_text(json.dumps({"omega": 10.0, "solver_params": {"k_max": 3, "l_max": 3}}))
    argv = ["solve-m1", "-i", str(problem), "--omega-b", repr(DESIGNED_OB)]
    assert main(argv + ["--phi", repr(DESIGNED_PHI), "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "fails its certificate (" in err and "chko" in err
    assert not out.exists()


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify"], 1),
        (["shoot", "--dt", "abc"], 1),
        (["verify", "q2.json", "--bogus"], 1),
        (["verify", "m1.json", "--gate"], 1),
        (["sweep-m1"], 1),
        (["--help"], 0),
        (["verify", "--help"], 0),
    ],
    ids=[
        "verify-no-path", "shoot-dt-abc", "verify-bogus", "verify-gate", "sweep-no-grid",
        "help", "verify-help",
    ],
)
def test_usage_errors_exit_1_and_help_exits_0(argv, code, capsys):
    # argparse's own usage exit is 2, the no-solution code; a usage error
    # is invalid input, exit 1, in every subcommand
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert "usage: qbrach" in (err if code else out)


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    # a second call of main constructs no ArgumentParser, the subcommands'
    # included, and its parse gives the first call's document
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    argv = ["sweep-m1", "--grid", "0,0.02,2 x 0.1,0.3,2", "-o", str(tmp_path / "first.json")]
    assert main(argv) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv[-1] = str(tmp_path / "second.json")
    assert main(argv) == 0
    assert built == []
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()


# the README seed 10 sigma_y with one diagonal entry -inf
_H0_NEG_INF = [[[-math.inf, 0.0], [0.0, -10.0]], [[0.0, 10.0], [0.0, 0.0]]]


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
        (["sweep-m1", "--grid", "0,1e200,2 x 0.1,0.3,2", "--omega", "10"], None),
        (["sweep-m1", "--grid", "0,1e100,2 x 0.1,1e300,2", "--omega", "10"], None),
        (["sweep-m1", "--grid", "0,0.02,3 x 0.1,0.3,4", "--omega", "1e200"], None),
        (["sweep-m1", "--grid", "0,0.02,3 x 0.1,0.3,4", "--omega", "1e-200"], None),
        (["shoot", "-i", "{closed}"], ("closed", "H0", _H0_NEG_INF)),
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
        "sweep-lambda-squared-overflows",
        "sweep-phase-overflows",
        "sweep-omega-1e200",
        "sweep-omega-1e-200",
        "shoot-file-H0-neg-inf",
    ],
)
@pytest.mark.filterwarnings("error")
def test_exit_code_non_finite_scale(
    argv, bad_field, tmp_path, free_file, trivial_file, closed_file, capsys
):
    # a non-finite or non-positive omega, t_max, dt, seed entry or sweep grid
    # value, an omega whose square or inverse square is not a normal float, a
    # sweep whose lambda_1^2 or phases overflow, and the singular gauge
    # lambda0 = 0 are validation errors, rejected before any arithmetic can warn
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
