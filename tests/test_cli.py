import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ncprob import circle, cli, idiv, transforms
from ncprob.cli import (
    EXIT_DISAGREEMENT,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    parse_sigma_arg,
)
from ncprob.convolutions import free_convolve
from ncprob.errors import RecoveryError, ValidationError
from ncprob.idiv import (LevyTriple, flow_map, free_idiv_eval, monotone_idiv_atom,
                         monotone_idiv_eval)
from ncprob.measures import FiniteAtomicMeasure
from ncprob.transforms import eps_line_grid, line_density


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def bernoulli_scenario(tmp_path, **overrides):
    scenario = {
        "space": "real",
        "array": {"family": "bernoulli_clt", "n_values": [16, 32, 64]},
        "triple": {"m": 1.0, "gamma": 0.0, "sigma": [[0.0, 1.0]]},
        "tolerance": 0.05,
    }
    scenario.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def test_parse_sigma_arg():
    mu = parse_sigma_arg("0:1,2.5:0.5")
    assert mu.atoms == ((0.0, 1.0), (2.5, 0.5))
    assert parse_sigma_arg("").is_zero
    with pytest.raises(ValidationError):
        parse_sigma_arg("nonsense")


def test_idiv_boolean_atoms(tmp_path):
    out = tmp_path / "run"
    assert run(["idiv", "--m", 1, "--gamma", 0, "--sigma", "0:1",
                "--op", "boolean", "--output", out]) == EXIT_OK
    atoms = read_json(f"{out}_atoms.json")["atoms"]
    assert atoms == [[-1.0, 0.5], [1.0, 0.5]]


def test_idiv_boolean_atoms_csv_format(tmp_path):
    out = tmp_path / "runcsv"
    assert run(["idiv", "--m", 1, "--gamma", 0, "--sigma", "0:1",
                "--op", "boolean", "--output", out, "--format", "csv"]) == EXIT_OK
    rows = [line.strip() for line in open(f"{out}_atoms.csv")
            if not line.startswith("#")]
    assert rows == ["-1.0,0.5", "1.0,0.5"]


@pytest.mark.parametrize("op", ["free", "monotone"])
def test_idiv_sweep_atoms_csv_format(tmp_path, op):
    # a small far sigma atom leaves both laws an atom of weight about 0.89 near 0
    base = ["idiv", "--op", op, "--sigma", "3:0.1", "--bins", 41]
    assert run(base + ["--output", tmp_path / "j"]) == EXIT_OK
    assert run(base + ["--output", tmp_path / "c", "--format", "csv"]) == EXIT_OK
    assert not (tmp_path / "c_atoms.json").exists()
    atoms = read_json(tmp_path / "j_atoms.json")["atoms"]
    rows = [[float(v) for v in line.split(",")] for line in open(tmp_path / "c_atoms.csv")
            if not line.startswith("#")]
    assert rows == atoms and atoms


def test_convolve_free_rejects_csv_format(tmp_path, capsys):
    ma = tmp_path / "a.json"
    ma.write_text(json.dumps([[-1.0, 0.5], [1.0, 0.5]]))
    assert run(["convolve", "--op", "free", "--a", ma, "--b", ma, "--format", "csv",
                "--output", tmp_path / "fc"]) == EXIT_VALIDATION
    assert "--format" in capsys.readouterr().err
    assert not list(tmp_path.glob("fc_*"))


@pytest.mark.parametrize("atoms, named", [
    ([[1]], "atom [1] "),
    ({"x": 1}, "atom 'x' "),
    ([[0, "a"]], "atom (0, 'a') "),
    ([[0, 0.5, 2]], "atom [0, 0.5, 2] "),
    (5, "got 5"),
    (None, "got None"),
    ([[0, None]], "atom (0, None) "),
    ([[0, -0.5]], "negative weight -0.5"),
], ids=["short_pair", "object", "string_weight", "triple", "number", "null", "null_weight",
        "negative_weight"])
def test_convolve_rejects_malformed_measure_file(tmp_path, capsys, atoms, named):
    """A measure file other than [[position, weight], ...] exits 2 with the bad entry named."""
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(atoms))
    good.write_text(json.dumps([[-1.0, 0.5], [1.0, 0.5]]))
    assert run(["convolve", "--op", "classical", "--a", bad, "--b", good,
                "--output", tmp_path / "c"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and named in err
    assert not list(tmp_path.glob("c_*"))


def test_idiv_boolean_pure_drift(tmp_path):
    out = tmp_path / "drift"
    assert run(["idiv", "--gamma", 2, "--sigma", "", "--op", "boolean",
                "--output", out]) == EXIT_OK
    atoms = read_json(f"{out}_atoms.json")["atoms"]
    assert atoms == [[2.0, 1.0]]


def test_idiv_monotone_density(tmp_path):
    out = tmp_path / "mono"
    assert run(["idiv", "--m", 1, "--gamma", 0, "--sigma", "0:1",
                "--op", "monotone", "--output", out,
                "--x-window=-3:3", "--bins", 301, "--svg"]) == EXIT_OK
    rows = [line for line in open(f"{out}_density.csv") if not line.startswith("#")]
    xs_ds = [tuple(map(float, r.split(","))) for r in rows]
    mid = min(xs_ds, key=lambda p: abs(p[0]))
    assert mid[1] == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), abs=1e-3)
    assert (tmp_path / "mono_density.svg").exists()
    header = open(f"{out}_density.csv").readline()
    assert header.startswith("#")


def test_idiv_monotone_sweep_matches_pointwise_flow(tmp_path):
    """The CLI sweep's density is line_density's over monotone_idiv_eval; its atom
    is monotone_idiv_atom's.

    RK4 at the default step cross-checks the densities: on these 41 bins
    they differ by at most 1.3e-7 relative, RK4's own error.
    """
    out = tmp_path / "sweep"
    assert run(["idiv", "--op", "monotone", "--m", 0.8, "--gamma", 0.3, "--sigma", "1:0.3",
                "--bins", 41, "--output", out]) == EXIT_OK
    triple = LevyTriple.from_parts(0.8, 0.3, [(1.0, 0.3)])
    ref = line_density(lambda z: 1.0 / monotone_idiv_eval(triple, z), 1e-3, (-6.0, 6.0), 41)
    rows = [tuple(map(float, line.split(","))) for line in open(f"{out}_density.csv")
            if not line.startswith("#")]
    assert [x for x, _ in rows] == [x for x, _ in ref]
    for (_, d), (_, d_ref) in zip(rows, ref):
        assert abs(d - d_ref) <= 1e-12 * abs(d_ref)
    atoms = read_json(f"{out}_atoms.json")["atoms"]
    assert atoms == [list(monotone_idiv_atom(triple))]
    rk4 = flow_map(triple, 1.0, eps_line_grid((-6.0, 6.0), 41, 1e-3))
    for (_, d), f in zip(rows, rk4):
        assert abs(d + (1.0 / f).imag / math.pi) <= 1e-6 * abs(d)


@pytest.mark.parametrize("argv, want", [
    # an atom off the grid's local maxima, which the golden search missed
    (["--op", "free", "--gamma=0.060636538272285545",
      "--sigma=-0.5595902628868121:0.1729706684855219", "--bins", 301],
     [0.36973889397304677, 0.27465668280868183]),
    (["--op", "free", "--gamma", 0.5, "--sigma=", "--bins", 41], [0.5, 1.0]),
    (["--op", "monotone", "--sigma=", "--gamma", 0], [0.0, 1.0]),
    # the density-like triple of seed 33 in test_idiv.py, against its 30-digit oracle
    (["--op", "monotone", "--m", 0.9085019299416368, "--gamma=-0.1336254873321931",
      "--sigma=0.21098526941061957:0.3264465991157557", "--bins", 301],
     [-0.6566622175205344, 0.23483597789618704]),
], ids=["free_off_the_grid_maxima", "free_dirac", "monotone_dirac", "monotone_seed_33"])
def test_idiv_sweep_writes_the_closed_form_atom(tmp_path, argv, want):
    out = tmp_path / "atom"
    assert run(["idiv", *argv, "--output", out]) == EXIT_OK
    assert read_json(f"{out}_atoms.json")["atoms"] == [pytest.approx(want, rel=1e-14, abs=1e-15)]


@pytest.mark.parametrize("weight, shown", [(0.1, False), (math.nextafter(0.1, 1.0), True)])
def test_idiv_sweep_atom_threshold(tmp_path, monkeypatch, weight, shown):
    """An atom is written when its weight is above 0.1."""
    monkeypatch.setattr(cli, "free_idiv_atom", lambda triple: (0.25, weight))
    out = tmp_path / "t"
    assert run(["idiv", "--op", "free", "--sigma", "3:0.1", "--bins", 21,
                "--output", out]) == EXIT_OK
    assert read_json(f"{out}_atoms.json")["atoms"] == ([[0.25, weight]] if shown else [])


@pytest.mark.parametrize("op", ["free", "monotone"])
@pytest.mark.parametrize("window, shown", [("-1:0.5", True), ("-1:0.4", True),
                                           ("0.4:1", True), ("0.5:1", False),
                                           ("-1:0.3", False)])
def test_idiv_sweep_atom_outside_the_window(tmp_path, op, window, shown):
    """The Dirac mass at 0.4 is written when lo <= 0.4 <= hi."""
    out = tmp_path / "w"
    assert run(["idiv", "--op", op, "--gamma", 0.4, "--sigma=", "--bins", 21,
                "--x-window=" + window, "--output", out]) == EXIT_OK
    atoms = read_json(f"{out}_atoms.json")["atoms"]
    assert atoms == ([[pytest.approx(0.4, abs=1e-15), 1.0]] if shown else [])


@pytest.mark.parametrize("op", ["free", "monotone"])
def test_idiv_sweep_evaluates_g_on_the_grid_only(tmp_path, monkeypatch, op):
    """A sweep calls its F engine once, on the whole eps-line, and at no single point."""
    name = f"{op}_idiv_eval"
    engine, calls = getattr(cli, name), []

    def recording(triple, z):
        calls.append(z)
        return engine(triple, z)

    monkeypatch.setattr(cli, name, recording)
    monkeypatch.setattr(idiv, name, recording)
    out = tmp_path / "g"
    assert run(["idiv", "--op", op, "--sigma", "3:0.1", "--bins", 301,
                "--output", out]) == EXIT_OK
    assert read_json(f"{out}_atoms.json")["atoms"]
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray) and calls[0].shape == (301,)


@pytest.mark.parametrize("op", ["monotone", "free"])
@pytest.mark.parametrize("flag, named", [
    ("--x-window=0:inf", "window"), ("--x-window=nan:1", "window"),
    ("--grid-eps=inf", "--grid-eps"), ("--grid-eps=nan", "--grid-eps"),
    ("--grid-eps=0", "--grid-eps"),
    ("--bins=-5", "at least 2 points"), ("--bins=0", "at least 2 points"),
    ("--bins=1", "at least 2 points"),
])
def test_idiv_rejects_non_finite_window_and_eps(tmp_path, capsys, op, flag, named):
    out = tmp_path / "bad"
    assert run(["idiv", "--op", op, "--sigma", "0:1", flag, "--output", out]) == EXIT_VALIDATION
    assert named in capsys.readouterr().err
    assert not (tmp_path / "bad_density.csv").exists()


@pytest.mark.parametrize("window", ["1000:2000", "-900:-500"])
def test_idiv_classical_rejects_a_window_off_the_fft_grid(tmp_path, capsys, window):
    """The FFT density covers about [-402, 402); a window beside it holds no point of it."""
    out = tmp_path / "far"
    assert run(["idiv", "--op", "classical", "--sigma", "0:1", "--x-window=" + window,
                "--svg", "--output", out]) == EXIT_VALIDATION
    assert f"--x-window {window} holds no point" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("op", ["monotone", "classical", "free", "boolean"])
@pytest.mark.parametrize("flag", ["--gamma=nan", "--gamma=inf", "--gamma=-inf",
                                  "--m=1.00000001"])
def test_idiv_rejects_non_finite_gamma_and_mass_above_one(tmp_path, op, flag):
    out = tmp_path / "bad"
    assert run(["idiv", "--op", op, "--sigma", "0:1", flag, "--bins", 21,
                "--output", out]) == EXIT_VALIDATION
    assert list(tmp_path.iterdir()) == []


def test_idiv_free_density(tmp_path):
    out = tmp_path / "free"
    assert run(["idiv", "--m", 1, "--gamma", 0, "--sigma", "0:1",
                "--op", "free", "--output", out, "--x-window=-3:3",
                "--bins", 301]) == EXIT_OK
    rows = [line for line in open(f"{out}_density.csv") if not line.startswith("#")]
    xs_ds = [tuple(map(float, r.split(","))) for r in rows]
    mid = min(xs_ds, key=lambda p: abs(p[0]))
    # semicircle density at 0 is 1/pi
    assert mid[1] == pytest.approx(1.0 / math.pi, abs=2e-3)


def _free_line_w(gamma, sigma, z):
    """The root in C+ of w + phi(w) = z: numpy roots of its polynomial form,
    polished by mpmath at 30 digits."""
    poly = np.polymul([1.0, gamma - z], np.poly([p for p, _ in sigma]))
    for j, (p, s) in enumerate(sigma):
        rest = np.poly([q for k, (q, _) in enumerate(sigma) if k != j])
        poly = np.polyadd(poly, np.polymul([s * p, s], rest))
    roots = np.roots(poly)
    upper = roots[roots.imag > 0]
    assert upper.size == 1
    with mpmath.workdps(30):
        w = mpmath.findroot(
            lambda v: v + gamma + sum(s * (1 + p * v) / (v - p) for p, s in sigma) - z,
            mpmath.mpc(upper[0]))
    return complex(w)


@pytest.mark.parametrize("gamma, sigma", [
    (-0.22, [(-0.53, 0.39), (0.6, 0.36)]),  # used to fail in the atom refinement
    (0.3, [(-1.0, 0.4), (2.0, 0.3)]),       # used to fail on the grid
])
def test_idiv_free_sweep_of_multi_atom_triples(tmp_path, gamma, sigma):
    out = tmp_path / "free"
    assert run(["idiv", "--op", "free", f"--gamma={gamma!r}",
                "--sigma=" + ",".join(f"{p!r}:{s!r}" for p, s in sigma),
                "--bins", 301, "--output", out]) == EXIT_OK
    rows = [tuple(map(float, line.split(","))) for line in open(f"{out}_density.csv")
            if not line.startswith("#")]
    for x, d in rows[::20]:
        w = _free_line_w(gamma, sigma, complex(x, 1e-3))
        assert abs(d + (1.0 / w).imag / math.pi) <= 1e-10


def test_free_sweep_grid_values_match_single_points():
    """The sweep evaluates F once on the whole eps-line; each value is the single-point one."""
    triple = LevyTriple.from_parts(1.0, -0.22, [(-0.53, 0.39), (0.6, 0.36)])
    grid = eps_line_grid((-6.0, 6.0), 301, 1e-3)
    on_grid = free_idiv_eval(triple, grid)
    assert isinstance(on_grid, np.ndarray) and on_grid.shape == grid.shape
    assert on_grid.tolist() == [free_idiv_eval(triple, z) for z in grid.tolist()]


def _write_csv_by_rows(path, header_lines, rows):
    """The CSV writer as one write per line: the reference for cli._write_csv."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")


@pytest.mark.parametrize("rows", [
    (),
    [[-1.0, 0.5], [1.0, 0.5]],
    tuple((x, -x / 3.0) for x in np.linspace(-6.0, 6.0, 301).tolist()),
    [(0.5, -3.0, 1.0, 1e-300, -0.0), (1.0, math.pi, 2.0, 5e-324, 1e300)],
], ids=["empty", "atoms", "density", "flow"])
def test_write_csv_matches_the_row_by_row_writer(tmp_path, rows):
    header = ["ncprob test", "a,b"]
    cli._write_csv(tmp_path / "one.csv", header, rows)
    _write_csv_by_rows(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_flow_csv(tmp_path):
    out = tmp_path / "flow.csv"
    assert run(["flow", "--m", 1, "--gamma", 0, "--sigma", "0:1",
                "--t-end", 1.0, "--output", out]) == EXIT_OK
    rows = [line for line in open(out) if not line.startswith("#")]
    assert len(rows) == 30  # three times x ten grid points
    t, re_z, im_z, re_f, im_f = map(float, rows[-1].split(","))
    assert t == 1.0


def test_convolve_monotone(tmp_path):
    ma = tmp_path / "a.json"
    ma.write_text(json.dumps([[-1.0, 0.5], [1.0, 0.5]]))
    out = tmp_path / "conv"
    assert run(["convolve", "--op", "monotone", "--a", ma, "--b", ma,
                "--output", out]) == EXIT_OK
    atoms = read_json(f"{out}_atoms.json")["atoms"]
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert atoms[-1][0] == pytest.approx(golden, abs=1e-9)
    assert atoms[-1][1] == pytest.approx((5.0 + math.sqrt(5.0)) / 20.0, abs=1e-9)


def test_convolve_free_grid(tmp_path):
    ma = tmp_path / "a.json"
    ma.write_text(json.dumps([[-1.0, 0.5], [1.0, 0.5]]))
    out = tmp_path / "fc"
    assert run(["convolve", "--op", "free", "--a", ma, "--b", ma,
                "--output", out]) == EXIT_OK
    blob = read_json(f"{out}_grid.json")
    assert blob["kind"] == "F" and blob["mass"] == 1.0
    assert len(blob["grid"]) == 10


def test_convolve_takes_mass_within_slack_as_one(tmp_path):
    """Three atoms of weight 0.3333333333 (mass 1 - 1e-10) are a probability measure to all ops."""
    pairs = [[-1.0, 0.3333333333], [0.5, 0.3333333333], [2.0, 0.3333333333]]
    ma = tmp_path / "a.json"
    ma.write_text(json.dumps(pairs))
    for op in ("classical", "boolean", "monotone", "free"):
        assert run(["convolve", "--op", op, "--a", ma, "--b", ma,
                    "--output", tmp_path / op]) == EXIT_OK
    mu = FiniteAtomicMeasure.from_pairs(pairs)
    unit = mu.scale_mass(1.0 / mu.mass)
    want = free_convolve(unit, unit)
    got = read_json(tmp_path / "free_grid.json")["values"]
    assert len(got) == len(want.values)
    for (re_f, im_f), f in zip(got, want.values):
        assert abs(complex(re_f, im_f) - f) <= 1e-8 * abs(f)


def test_bp_check_exit_and_determinism(tmp_path):
    scenario = bernoulli_scenario(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["bp-check", scenario, "--output", out1]) == EXIT_OK
    assert run(["bp-check", scenario, "--output", out2]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    rep = read_json(out1)
    assert rep["result"]["agreement"] is True
    assert rep["grids"]["zr"][0] == [-3.0, 1.0]


def test_limit_run_subprobability(tmp_path):
    scenario = bernoulli_scenario(
        tmp_path,
        array={"family": "damped_poisson", "n_values": [16, 32, 64, 128, 256]},
        triple={"m": math.exp(-1.0), "gamma": 0.5, "sigma": [[1.0, 0.5]]},
    )
    out = tmp_path / "damped.json"
    assert run(["limit-run", scenario, "--output", out]) == EXIT_OK
    rep = read_json(out)
    assert rep["result"]["agreement"] is True
    assert rep["result"]["both_converged"] is True


def test_malformed_scenario_names_field(tmp_path, capsys):
    scenario = bernoulli_scenario(
        tmp_path,
        array={"family": "bernoulli_clt", "n_values": [16, 32],
               "k_values": [32, 16]},
    )
    assert run(["bp-check", scenario]) == EXIT_VALIDATION
    assert "k_values" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "space": "real", "array": {"family": "bernoulli_clt"}, "bogus": 1}))
    assert run(["bp-check", path]) == EXIT_VALIDATION
    assert "bogus" in capsys.readouterr().err


def test_missing_file_is_validation_error(tmp_path):
    assert run(["bp-check", tmp_path / "nope.json"]) == EXIT_VALIDATION


@pytest.mark.parametrize("kind", ["not_utf8", "directory", "empty"])
@pytest.mark.parametrize("command", ["bp-check", "convolve"])
def test_unreadable_file_is_a_validation_error_naming_it(tmp_path, capsys, kind, command):
    # convolve reads a good --a first, so the message must name the bad --b
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes({"not_utf8": b"\xff\xfe", "empty": b""}[kind])
    good = tmp_path / "good.json"
    good.write_text(json.dumps([[0.0, 1.0]]))
    argv = ([command, path] if command == "bp-check" else
            [command, "--a", good, "--b", path, "--op", "boolean"])
    assert run(argv + ["--output", tmp_path / "out"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and str(path) in err


def test_output_path_that_is_a_directory_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run(["bp-check", bernoulli_scenario(tmp_path), "--output", out]) == EXIT_VALIDATION
    assert str(out) in capsys.readouterr().err


def test_circle_run_rotated(tmp_path):
    scenario = {
        "space": "circle",
        "array": {"family": "rotated_semigroup", "beta": 0.3,
                  "sigma": [[math.pi, 0.5]], "rotation_ell": 1,
                  "n_values": [16, 32, 64]},
        "tolerance": 0.05,
        "flow_step": 0.001,
    }
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "crep.json"
    assert run(["circle-run", path, "--output", out]) == EXIT_OK
    rep = read_json(out)
    assert rep["result"]["ops"]["boolean"]["converged"] is True
    assert rep["result"]["ops"]["monotone"]["converged"] is False
    assert rep["result"]["beta_condition"]["holds"] is False
    assert [r["ell"] for r in rep["rotation_correction"]["rows"]] == [-1, -1, -1]
    assert rep["rotation_correction"]["corrected_converged"] is True
    assert rep["grids"]["disk"][0] == [0.4, 0.0]


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    def failing(mu, nu):
        raise RecoveryError("residue mass 0.5 inconsistent with slope mass 1.0")

    monkeypatch.setattr(cli, "monotone_convolve", failing)
    ma = tmp_path / "b.json"
    ma.write_text(json.dumps([[-1.0, 0.5], [1.0, 0.5]]))
    assert run(["convolve", "--op", "monotone", "--a", ma, "--b", ma,
                "--output", tmp_path / "x"]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_convolve_monotone_nine_by_nine(tmp_path):
    # 81 atoms, checked against G_mu(F_nu(z)) from plain atom sums
    atoms = [[float(k), 1.0 / 9.0] for k in range(9)]
    ma = tmp_path / "wide.json"
    ma.write_text(json.dumps(atoms))
    out = tmp_path / "wide"
    assert run(["convolve", "--op", "monotone", "--a", ma, "--b", ma,
                "--output", out]) == EXIT_OK
    got = read_json(f"{out}_atoms.json")["atoms"]
    assert len(got) == 81
    assert sum(w for _, w in got) == pytest.approx(1.0, abs=1e-12)

    def g(pairs, z):
        return sum(w / (z - x) for x, w in pairs)

    for z in (complex(x, y) for y in (0.5, 1.0, 2.0) for x in (-1.0, 4.0, 9.0)):
        want = g(atoms, 1.0 / g(atoms, z))
        assert abs(g(got, z) - want) <= 1e-12 * abs(want)


def test_bp_check_disagreement_exit_code(tmp_path):
    # at tolerance 1e-9 the Boolean powers of the Bernoulli array reach their
    # limit exactly, while the other ops and condition E stay above it
    scenario = tmp_path / "tight.json"
    scenario.write_text(json.dumps({
        "space": "real", "array": {"family": "bernoulli_clt", "n_values": [16, 32, 64]},
        "tolerance": 1e-9}))
    out = tmp_path / "tight-report.json"
    assert run(["bp-check", scenario, "--output", out]) == EXIT_DISAGREEMENT
    result = read_json(out)["result"]
    assert result["agreement"] is False
    assert result["ops"]["boolean"]["converged"] is True
    assert not any(result["ops"][op]["converged"] for op in ("classical", "free", "monotone"))
    assert result["condition_e"]["converged"] is False


@pytest.mark.parametrize("flag", ["--flow-step=0", "--flow-step=nan", "--t-end=inf",
                                  "--t-end=nan"])
def test_flow_rejects_unending_arguments(tmp_path, capsys, no_hang, flag):
    # unchecked, --flow-step 0 and --t-end inf never return
    out = tmp_path / "flow.csv"
    assert run(["flow", "--sigma", "0:1", flag, "--output", out]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the 1e300 inputs overflow on the way
@pytest.mark.parametrize("argv, code, named", [
    # the sub-step cap asks for steps near 1e-301: the step floor stops the flow
    (["idiv", "--op", "monotone", "--m", 0.5, "--gamma=1e300", "--sigma=0.3:1", "--bins", 5,
      "--grid-eps", 0.5], EXIT_NUMERICAL, "RK4 steps"),
    (["flow", "--sigma", "0:1", "--t-end", 1, "--flow-step", 1e-300], EXIT_VALIDATION,
     "RK4 steps"),
    (["flow", "--sigma", "0:1", "--t-end", 1e9], EXIT_VALIDATION, "RK4 steps"),
    # eigen-solves that fail inside numpy
    (["idiv", "--op", "boolean", "--m", 0.5, "--gamma=-1", "--sigma=0:2,1e-9:3,1e300:1e-300"],
     EXIT_NUMERICAL, "spectral_measure"),
    (["idiv", "--op", "free", "--m", 1, "--gamma=1e300", "--sigma=1e300:2", "--bins", 2],
     EXIT_NUMERICAL, "upper_root"),
    # a zero of Phi computed as exactly 0 took the Abel difference's Log(0)
    (["idiv", "--op", "monotone", "--m", 0.999, "--gamma", 0, "--sigma=1e-300:2,0.3:1e300",
      "--bins", 5], EXIT_NUMERICAL,
     "monotone atom of m=0.999 gamma=0.0 sigma=[[1e-300, 2.0], [0.3, 1e+300]]: a zero of Phi "
     "rounds to 0 while Phi(0) = 5.333e+300"),
], ids=["monotone_gamma_1e300", "flow_step_1e-300", "flow_t_end_1e9", "boolean_eigh",
        "free_eigvals", "monotone_zero_of_phi_at_0"])
def test_inputs_that_hung_or_crashed_exit_2_or_3(tmp_path, capsys, no_hang, argv, code, named):
    assert run([*argv, "--output", tmp_path / "out"]) == code
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # gamma = 1e300 overflows
def test_a_stalled_monotone_sweep_fails_before_its_first_step(tmp_path, capsys, monkeypatch):
    # it ran out its budget of 2,005 ticks before the step floor
    steps = []
    monkeypatch.setattr(idiv, "_rk4_step", lambda *args: steps.append(args))
    argv = ["idiv", "--op", "monotone", "--m", 0.5, "--gamma=1e300", "--sigma=0.3:1",
            "--bins", 5, "--grid-eps", 0.5, "--output", tmp_path / "out"]
    assert run(argv) == EXIT_NUMERICAL
    assert "flow from z0=(-6+0.5j) stalled at t=0" in capsys.readouterr().err
    assert steps == []


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_scenario_numbers_must_be_finite(tmp_path, capsys, text):
    # a rotated array of beta = -inf reached round(nan) in detect_rotation
    path = tmp_path / "scenario.json"
    path.write_text('{"space": "circle", "array": {"family": "rotated_semigroup", "beta": '
                    + text + ', "sigma": [[1.0, 0.5]], "rotation_ell": 1, "n_values": [4]}}')
    assert run(["circle-run", path, "--output", tmp_path / "rep.json"]) == EXIT_VALIDATION
    assert f"scenario numbers must be finite; got {text}" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_damped_poisson_array_needs_a_non_negative_c(tmp_path, capsys):
    # c = -1e300 overflowed math.exp(-c) for the limit's mass
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"space": "real", "array": {
        "family": "damped_poisson", "c": -1e300, "n_values": [4, 8]}}))
    assert run(["limit-run", path, "--output", tmp_path / "rep.json"]) == EXIT_VALIDATION
    assert "a damped Poisson array needs c >= 0; got -1e+300" in capsys.readouterr().err


def test_idiv_classical_with_a_tiny_sigma_atom(tmp_path):
    """sigma = delta at 1e-200 divided a cancelled difference by x^2 = 0."""
    out = tmp_path / "c"
    assert run(["idiv", "--op", "classical", "--sigma=1e-200:1", "--output", out]) == EXIT_OK
    rows = [tuple(map(float, line.split(","))) for line in open(f"{out}_density.csv")
            if not line.startswith("#")]
    assert max(abs(d - math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)) for x, d in rows) <= 1e-13


def _refuse_work(monkeypatch, *names):
    """Make each named cli entry point fail the test if a command reaches it."""
    def ran(*args, **kwargs):
        raise AssertionError("the capped command ran")

    for name in names:
        monkeypatch.setattr(cli, name, ran)


def test_idiv_caps_bins(tmp_path, capsys, monkeypatch):
    _refuse_work(monkeypatch, "free_idiv_eval", "monotone_idiv_eval", "classical_idiv_density",
                 "boolean_idiv")
    for op in ("free", "monotone", "classical", "boolean"):
        assert run(["idiv", "--op", op, "--bins", cli.MAX_BINS + 1,
                    "--output", tmp_path / "b"]) == EXIT_VALIDATION
        assert f"--bins must be at most {cli.MAX_BINS}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_CIRCLE_ARRAY = {"family": "semigroup", "beta": 0.3, "sigma": [[1.0, 0.5]]}


_TOO_LARGE = {"n": {"n_values": [16, 2**16 + 1]},
              "rows": {"n_values": list(range(1, 34))},
              "k": {"n_values": [16, 32], "k_values": [16, 2**16 + 1]}}


@pytest.mark.parametrize("command, array, key", [
    pytest.param(command, {"family": "bernoulli_clt", **fields},
                 "k_values" if name == "k" else "n_values", id=f"{command}-{name}")
    for command in ("limit-run", "bp-check") for name, fields in _TOO_LARGE.items()
] + [
    pytest.param("circle-run", {**_CIRCLE_ARRAY, **_TOO_LARGE[name]}, "n_values",
                 id=f"circle-run-{name}")
    for name in ("n", "rows")
])
def test_scenario_commands_cap_the_array_rows(tmp_path, capsys, monkeypatch, command, array,
                                              key):
    _refuse_work(monkeypatch, "run_powers", "bp_crosscheck", "subprobability_equivalence",
                 "circle_reports")
    path = (circle_scenario(tmp_path, array) if command == "circle-run"
            else bernoulli_scenario(tmp_path, array=array))
    assert run([command, path, "--output", tmp_path / "rep.json"]) == EXIT_VALIDATION
    assert f"array.{key} takes at most {cli.MAX_ROWS} values" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("where", ["scenario", "option"])
def test_circle_run_floors_the_flow_step(tmp_path, capsys, monkeypatch, where):
    _refuse_work(monkeypatch, "circle_reports")
    step = 0.5 * cli.MIN_CIRCLE_FLOW_STEP
    array = {**_CIRCLE_ARRAY, "n_values": [16, 32]}
    if where == "scenario":
        argv = [circle_scenario(tmp_path, array, flow_step=step)]
    else:
        argv = [circle_scenario(tmp_path, array), "--flow-step", step]
    assert run(["circle-run", *argv, "--output", tmp_path / "rep.json"]) == EXIT_VALIDATION
    assert f"flow_step must be at least {cli.MIN_CIRCLE_FLOW_STEP}" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("op", ["monotone", "classical", "free", "boolean"])
@pytest.mark.parametrize("m, code", [("1.0000000005", EXIT_OK),
                                     ("1.000000002", EXIT_VALIDATION)])
def test_idiv_mass_one_slack_is_the_carriers(tmp_path, op, m, code):
    """Every op takes m within MASS_TOL of 1 as m = 1, and rejects m beyond it."""
    assert run(["idiv", "--op", op, "--sigma", "0:1", "--m", m, "--bins", 21,
                "--output", tmp_path / "run"]) == code


def test_limit_run_and_bp_check_take_mass_within_slack_as_one(tmp_path):
    triple = {"m": 1.0 - 5e-10, "gamma": 0.0, "sigma": [[0.0, 1.0]]}
    scenario = bernoulli_scenario(tmp_path, triple=triple)
    out = tmp_path / "rep.json"
    assert run(["limit-run", scenario, "--output", out]) == EXIT_OK
    assert set(read_json(out)["result"]["ops"]) == {"classical", "free", "boolean",
                                                    "monotone"}
    assert run(["bp-check", scenario, "--output", out]) == EXIT_OK


def test_circle_run_rejects_k_values(tmp_path, capsys):
    """Circle rows are flow roots at time 1/n, so k_n = n and there is no table to set."""
    path = tmp_path / "circ.json"
    path.write_text(json.dumps({
        "space": "circle",
        "array": {"family": "semigroup", "beta": 0.3, "sigma": [[1.0, 0.5]],
                  "n_values": [16, 32, 64], "k_values": [160, 320, 640]}}))
    assert run(["circle-run", path, "--output", tmp_path / "rep.json"]) == EXIT_VALIDATION
    assert "k_values" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def circle_scenario(tmp_path, array, **extra):
    path = tmp_path / "circ.json"
    path.write_text(json.dumps({"space": "circle", "array": array, **extra}))
    return path


ROTATED = {"family": "rotated_semigroup", "beta": 0.3, "sigma": [[1.0, 0.5]],
           "rotation_ell": 1, "n_values": [16, 32]}


def test_circle_run_makes_one_pass_per_row(tmp_path, monkeypatch):
    """One lane pass per run: every row's powers, both sections and the time-one target."""
    calls = {"circle_monotone_flow": 0, "disk_powers": 0}

    def counted(name):
        fn = getattr(circle, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(circle, name, counted(name))
    path = circle_scenario(tmp_path, ROTATED)
    assert run(["circle-run", path, "--output", tmp_path / "rep.json"]) == EXIT_OK
    assert calls == {"circle_monotone_flow": 0, "disk_powers": 1}
    assert "rotation_correction" in read_json(tmp_path / "rep.json")


@pytest.mark.parametrize("array, extra", [
    (ROTATED, {}),
    ({**ROTATED, "rotation_ell": "half"}, {}),
    (ROTATED, {"generator": {"beta": 0.3, "sigma": [[2.5, 0.4]]}}),
], ids=["ell_1", "ell_half", "generator"])
def test_circle_run_uncorrected_column_is_the_monotone_row(tmp_path, array, extra):
    out = tmp_path / "rep.json"
    assert run(["circle-run", circle_scenario(tmp_path, array, **extra),
                "--output", out]) == EXIT_OK
    rep = read_json(out)
    mono = rep["result"]["ops"]["monotone"]
    fix = rep["rotation_correction"]
    assert [r["uncorrected"] for r in fix["rows"]] == [r["distance"] for r in mono["rows"]]
    assert fix["uncorrected_converged"] is mono["converged"]


def test_circle_run_corrects_towards_the_scenario_generator(tmp_path):
    """Rotation detection and both sections measure against the one named law.

    The array's own generator sits at sigma = [[1.0, 0.5]]; the scenario
    names another, so the corrected powers settle 0.13 away from it.
    """
    array = {**ROTATED, "n_values": [16, 32, 64]}
    path = circle_scenario(tmp_path, array,
                           generator={"beta": 0.3, "sigma": [[2.5, 0.4]]})
    out = tmp_path / "rep.json"
    assert run(["circle-run", path, "--output", out]) == EXIT_OK
    rep = read_json(out)
    mono = [r["distance"] for r in rep["result"]["ops"]["monotone"]["rows"]]
    assert mono == pytest.approx([0.083294, 0.083296, 0.083308], abs=1e-6)
    fix = rep["rotation_correction"]
    assert [r["ell"] for r in fix["rows"]] == [-1, -1, -1]
    assert [r["uncorrected"] for r in fix["rows"]] == mono
    assert [r["corrected"] for r in fix["rows"]] == pytest.approx([0.129736] * 3, abs=1e-6)
    assert fix["corrected_converged"] is False


def test_circle_run_rejects_rotation_ell_on_a_semigroup_array(tmp_path, capsys):
    array = {**ROTATED, "family": "semigroup"}
    out = tmp_path / "rep.json"
    assert run(["circle-run", circle_scenario(tmp_path, array),
                "--output", out]) == EXIT_VALIDATION
    assert "rotation_ell" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("array", [
    {key: value for key, value in ROTATED.items() if key != "rotation_ell"},
    {**ROTATED, "rotation_ell": 0},
], ids=["missing", "zero"])
def test_circle_run_rejects_a_rotated_array_without_a_rotation(tmp_path, capsys, array):
    """l = 0 (also by leaving rotation_ell out) would run the rotated array unrotated."""
    out = tmp_path / "rep.json"
    assert run(["circle-run", circle_scenario(tmp_path, array),
                "--output", out]) == EXIT_VALIDATION
    assert "rotation_ell" in capsys.readouterr().err
    assert not out.exists()


_SCENARIO_ENGINES = ("run_powers", "bp_crosscheck", "subprobability_equivalence",
                     "circle_reports")
_REAL = {"space": "real", "array": {"family": "bernoulli_clt", "n_values": [4]},
         "triple": {"m": 1.0, "gamma": 0.0, "sigma": [[0.0, 1.0]]}}
_CIRCLE = {"space": "circle", "array": {**_CIRCLE_ARRAY, "n_values": [4]},
           "generator": {"beta": 0.3, "sigma": [[2.5, 0.4]]}}
_ROTATED = {**_CIRCLE, "array": {**ROTATED, "n_values": [4]}}
_DROP = object()


def _with(scenario, key, value):
    """A copy of scenario with value at key (a dotted path), or without key if value is _DROP."""
    scenario = json.loads(json.dumps(scenario))
    *parents, last = key.split(".")
    target = scenario
    for name in parents:
        target = target[name]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    return scenario


def _rule(name, scenario, key, value, named):
    return pytest.param(scenario, key, value, named, id=name)


#: one case per rule a scenario value must keep, each named in the error by its key path
@pytest.mark.parametrize("scenario, key, value, named", [
    _rule("array_not_an_object", _REAL, "array", [1], "array must be a JSON object"),
    _rule("triple_not_an_object", _REAL, "triple", 5, "triple must be a JSON object"),
    _rule("generator_not_an_object", _CIRCLE, "generator", "x",
          "generator must be a JSON object"),
    _rule("unknown_array_key", _REAL, "array.bogus", 1, "array takes no key 'bogus'"),
    _rule("unknown_triple_key", _REAL, "triple.bogus", 1, "triple takes no key 'bogus'"),
    _rule("unknown_generator_key", _CIRCLE, "generator.bogus", 1,
          "generator takes no key 'bogus'"),
    _rule("missing_space", _REAL, "space", _DROP, "got space None"),
    _rule("missing_array", _REAL, "array", _DROP, "needs the key 'array'"),
    _rule("missing_real_family", _REAL, "array.family", _DROP, "array needs the key 'family'"),
    _rule("missing_circle_family", _CIRCLE, "array.family", _DROP,
          "array needs the key 'family'"),
    _rule("missing_beta", _CIRCLE, "array.beta", _DROP, "array needs the key 'beta'"),
    _rule("missing_sigma", _CIRCLE, "array.sigma", _DROP, "array needs the key 'sigma'"),
    _rule("missing_triple_m", _REAL, "triple.m", _DROP, "triple needs the key 'm'"),
    _rule("missing_triple_gamma", _REAL, "triple.gamma", _DROP,
          "triple needs the key 'gamma'"),
    _rule("missing_triple_sigma", _REAL, "triple.sigma", _DROP,
          "triple needs the key 'sigma'"),
    _rule("missing_generator_beta", _CIRCLE, "generator.beta", _DROP,
          "generator needs the key 'beta'"),
    _rule("missing_generator_sigma", _CIRCLE, "generator.sigma", _DROP,
          "generator needs the key 'sigma'"),
    _rule("space_outside_the_enum", _REAL, "space", "line", "got space 'line'"),
    _rule("real_family_outside_the_enum", _REAL, "array.family", "semigroup", "array.family"),
    _rule("circle_family_outside_the_enum", _CIRCLE, "array.family", "rotated", "array.family"),
    _rule("ops_entry_outside_the_four", _REAL, "ops", ["free", "cyclic"], "ops must be"),
    _rule("ops_not_a_list", _REAL, "ops", "free", "ops must be"),
    _rule("lam_a_string", _REAL, "array.lam", "1.5", "array.lam must be a number"),
    _rule("c_true", _REAL, "array.c", True, "array.c must be a number"),
    _rule("shift_scale_false", _REAL, "array.shift_scale", False,
          "array.shift_scale must be a number"),
    _rule("triple_m_a_string", _REAL, "triple.m", "1", "triple.m must be a number"),
    _rule("triple_gamma_true", _REAL, "triple.gamma", True, "triple.gamma must be a number"),
    _rule("tolerance_a_string", _REAL, "tolerance", "0.05", "tolerance must be a number"),
    _rule("beta_false", _CIRCLE, "array.beta", False, "array.beta must be a number"),
    _rule("generator_beta_a_string", _CIRCLE, "generator.beta", "0.3",
          "generator.beta must be a number"),
    _rule("flow_step_true", _CIRCLE, "flow_step", True, "flow_step must be a number"),
    _rule("sigma_weight_a_string", _REAL, "triple.sigma", [[0.0, "1"]],
          "triple.sigma[0] must be a number"),
    _rule("sigma_position_true", _CIRCLE, "array.sigma", [[True, 0.5]],
          "array.sigma[0] must be a number"),
    _rule("n_values_zero", _REAL, "array.n_values", [4, 0], "array.n_values must be a list"),
    _rule("n_values_negative", _CIRCLE, "array.n_values", [-1], "array.n_values must be a list"),
    _rule("n_values_fractional", _REAL, "array.n_values", [4.5], "array.n_values must be a list"),
    _rule("n_values_a_string", _REAL, "array.n_values", ["16"], "array.n_values must be a list"),
    _rule("n_values_true", _CIRCLE, "array.n_values", [True], "array.n_values must be a list"),
    _rule("n_values_not_a_list", _REAL, "array.n_values", 16, "array.n_values must be a list"),
    _rule("k_values_fractional", _with(_REAL, "array.n_values", [4, 8]), "array.k_values",
          [8, 16.5], "array.k_values must be a list"),
    _rule("sigma_a_short_pair", _REAL, "triple.sigma", [[1.0]], "triple.sigma must be a list"),
    _rule("sigma_a_long_pair", _CIRCLE, "array.sigma", [[1.0, 0.5, 2.0]],
          "array.sigma must be a list"),
    _rule("sigma_not_a_list", _CIRCLE, "generator.sigma", 0.5, "generator.sigma must be a list"),
    _rule("rotation_ell_fractional", _ROTATED, "array.rotation_ell", 1.5,
          "array.rotation_ell must be"),
    _rule("rotation_ell_a_string", _ROTATED, "array.rotation_ell", "quarter",
          "array.rotation_ell must be"),
    _rule("rotation_ell_true", _ROTATED, "array.rotation_ell", True,
          "array.rotation_ell must be"),
    _rule("tolerance_zero", _REAL, "tolerance", 0, "tolerance must be finite and above 0"),
    _rule("tolerance_negative", _CIRCLE, "tolerance", -0.05,
          "tolerance must be finite and above 0"),
    _rule("flow_step_zero", _CIRCLE, "flow_step", 0, "flow_step must be at least"),
    _rule("flow_step_negative", _CIRCLE, "flow_step", -1e-3, "flow_step must be at least"),
    _rule("flow_step_above_1e-2", _CIRCLE, "flow_step", 0.02, "at most 0.01; got 0.02"),
    # a key that only the other space reads
    _rule("circle_triple", _CIRCLE, "triple", _REAL["triple"],
          "a circle scenario takes no key 'triple'"),
    _rule("circle_ops", _CIRCLE, "ops", ["free"], "a circle scenario takes no key 'ops'"),
    _rule("real_generator", _REAL, "generator", _CIRCLE["generator"],
          "a real scenario takes no key 'generator'"),
])
def test_scenario_values_keep_their_rules(tmp_path, capsys, monkeypatch, scenario, key, value,
                                          named):
    _refuse_work(monkeypatch, *_SCENARIO_ENGINES)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_with(scenario, key, value)))
    commands = ("circle-run",) if scenario["space"] == "circle" else ("limit-run", "bp-check")
    for command in commands:
        assert run([command, path, "--output", tmp_path / "rep.json"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and named in err, err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("command", ["limit-run", "bp-check", "circle-run"])
def test_a_scenario_is_a_json_object(tmp_path, capsys, command):
    path = tmp_path / "scenario.json"
    path.write_text("[]")
    assert run([command, path, "--output", tmp_path / "rep.json"]) == EXIT_VALIDATION
    assert "scenario must be a JSON object; got []" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", [
    _with(_REAL, "array.n_values", [16.0, 32]),
    _with(_with(_REAL, "array.n_values", [4, 8]), "array.k_values", [8.0, 16]),
    _with(_ROTATED, "array.rotation_ell", 1.0),
], ids=["n_values", "k_values", "rotation_ell"])
def test_an_integral_float_counts_as_an_integer(tmp_path, monkeypatch, scenario):
    """16.0 passes where an integer is asked for, as under JSON Schema's integer type:
    the command gets as far as its engine."""
    _refuse_work(monkeypatch, *_SCENARIO_ENGINES)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    command = "circle-run" if scenario["space"] == "circle" else "bp-check"
    with pytest.raises(AssertionError, match="the capped command ran"):
        run([command, path, "--output", tmp_path / "rep.json"])


@pytest.mark.parametrize("command, flag, named", [
    ("limit-run", "--tolerance", "tolerance must be finite and above 0"),
    ("bp-check", "--tolerance", "tolerance must be finite and above 0"),
    ("circle-run", "--tolerance", "tolerance must be finite and above 0"),
    ("circle-run", "--flow-step", "flow_step must be at least"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_a_flag_keeps_the_rule_of_its_scenario_key(tmp_path, capsys, monkeypatch, command, flag,
                                                   named, value):
    # unchecked, a bp-check at --tolerance nan calls its Boolean column converged and
    # writes a NaN token into the report
    _refuse_work(monkeypatch, *_SCENARIO_ENGINES)
    path = tmp_path / "scenario.json"
    base = _CIRCLE if command == "circle-run" else {
        "space": "real", "array": {"family": "fixed_bernoulli", "n_values": [16, 32]}}
    path.write_text(json.dumps(base))
    out = tmp_path / "rep.json"
    assert run([command, path, f"{flag}={value}", "--output", out]) == EXIT_VALIDATION
    assert named in capsys.readouterr().err
    assert not out.exists()


#: JSON integers past the float range: 401 digits, and 4,401, past Python's int-string limit
_HUGE = "1" + "0" * 400
_LONG = "1" + "0" * 4400


@pytest.mark.parametrize("command, text, number", [
    ("circle-run", '{"space": "circle", "array": {"family": "semigroup", "beta": %s, '
                   '"sigma": [[1.0, 0.5]], "n_values": [4]}}', _HUGE),
    ("limit-run", '{"space": "real", "array": {"family": "poisson", "lam": %s, '
                  '"n_values": [4]}}', _HUGE),
    ("bp-check", '{"space": "real", "array": {"family": "bernoulli_clt", "n_values": [4]}, '
                 '"triple": {"m": 1, "gamma": %s, "sigma": []}}', _HUGE),
    ("circle-run", '{"space": "circle", "array": {"family": "semigroup", "beta": 0.3, '
                   '"sigma": [[%s, 0.5]], "n_values": [4]}}', _LONG),
], ids=["circle_beta", "real_lam", "triple_gamma", "over_long_sigma_angle"])
def test_scenario_integers_past_the_float_range(tmp_path, capsys, command, text, number):
    # unchecked, each one raises OverflowError in float() or, past 4,300 digits,
    # ValueError from Python's int-string limit
    path = tmp_path / "scenario.json"
    path.write_text(text % number)
    assert run([command, path, "--output", tmp_path / "rep.json"]) == EXIT_VALIDATION
    shown = f"{number[:20]}... ({len(number)} characters)"
    assert f"scenario numbers must be finite; got {shown}" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("number", [_HUGE, "-" + _LONG], ids=["huge", "over_long"])
def test_measure_integers_past_the_float_range(tmp_path, capsys, number):
    # unchecked, the huge one raises OverflowError in measures._normalize, which catches
    # TypeError and ValueError only; the long one, ValueError in the JSON decoder
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text("[[%s, 0.5], [1.0, 0.5]]" % number)
    good.write_text(json.dumps([[-1.0, 0.5], [1.0, 0.5]]))
    assert run(["convolve", "--op", "classical", "--a", good, "--b", bad,
                "--output", tmp_path / "c"]) == EXIT_VALIDATION
    shown = f"{number[:20]}... ({len(number)} characters)"
    assert f"measure numbers must be finite; got {shown}" in capsys.readouterr().err
    assert not list(tmp_path.glob("c_*"))


def test_import_leaves_jsonschema_out(tmp_path):
    """The command line checks its inputs itself; importing it loads no jsonschema."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, ncprob.cli; print('jsonschema' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, check=True)
    assert done.stdout.strip() == "False"


def test_readme_scenarios_run(tmp_path):
    """Both JSON scenario blocks of the README run through the CLI."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    for i, block in enumerate(blocks):
        scenario = json.loads(block)
        path = tmp_path / f"readme-{i}.json"
        path.write_text(block)
        command = "limit-run" if scenario["space"] == "real" else "circle-run"
        assert run([command, path, "--output", tmp_path / f"rep-{i}.json"]) == EXIT_OK


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=f"{argv[0]} {flag.split('=')[0]}")
    for argv, flags in [
        (["convolve", "--op", "boolean", "--a", "a.json", "--b", "b.json"],
         ["--grid-eps=1e-3", "--flow-step=1e-3", "--tolerance=0.05", "--svg"]),
        (["flow"], ["--grid-eps=1e-3", "--tolerance=0.05", "--format=csv", "--svg"]),
        (["limit-run", "s.json"], ["--grid-eps=1e-3", "--flow-step=1e-3", "--format=csv",
                                   "--svg"]),
        (["bp-check", "s.json"], ["--grid-eps=1e-3", "--flow-step=1e-3", "--format=csv",
                                  "--svg"]),
        (["circle-run", "s.json"], ["--grid-eps=1e-3", "--format=csv", "--svg"]),
        (["idiv", "--op", "boolean"], ["--tolerance=0.05"]),
        (["idiv", "--op", "monotone"], ["--flow-step=1e-3"]),
    ]
    for flag in flags
])
def test_subcommands_reject_options_they_do_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(argv + [flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag.split("=")[0] in capsys.readouterr().err


def test_flow_step_is_a_circle_scenario_key(tmp_path, capsys):
    # real-line scenarios read the monotone law from the Abel equation, so no
    # step of theirs is read; the disk flow of circle-run still takes one
    out = tmp_path / "rep.json"
    for command in ("limit-run", "bp-check"):
        scenario = bernoulli_scenario(tmp_path, flow_step=0.001)
        assert run([command, scenario, "--output", out]) == EXIT_VALIDATION
        assert "flow_step" in capsys.readouterr().err
        assert not out.exists()
    path = tmp_path / "circ.json"
    path.write_text(json.dumps({
        "space": "circle", "flow_step": 0.002,
        "array": {"family": "semigroup", "beta": 0.3, "sigma": [[1.0, 0.5]],
                  "n_values": [16, 32]},
    }))
    assert run(["circle-run", path, "--output", out]) == EXIT_OK
    assert read_json(out)["scenario"]["flow_step"] == 0.002


def test_a_failing_target_names_its_op(tmp_path, capsys, no_hang, monkeypatch):
    abel_corrector = idiv._abel_corrector

    def unsettled(triple, z):
        correct, d = abel_corrector(triple, z)
        return (lambda w, t, i=None: correct(w, t, i) + 1e-6), d

    monkeypatch.setattr(idiv, "_abel_corrector", unsettled)
    scenario = bernoulli_scenario(tmp_path)
    assert run(["bp-check", scenario, "--output", tmp_path / "rep.json"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"flow from z0={transforms.ZR[0]!r}" in err
    assert err.rstrip().endswith("(op=monotone, target)")


@pytest.mark.parametrize("command, scenario", [
    ("circle-run", {"space": "circle", "array": {"family": "bernoulli_clt"}}),
    ("bp-check", {"space": "real",
                  "array": {"family": "semigroup", "beta": 0.3, "sigma": [[1.0, 0.5]]}}),
])
def test_array_must_belong_to_the_scenario_space(tmp_path, capsys, command, scenario):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(scenario))
    assert run([command, path, "--output", tmp_path / "rep.json"]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


#: report distances of a bp-check on poisson(1.7), n = 64...4096, and of a
#: rotated circle-run with l = n/2, as the scalar k-fold loops computed them;
#: the free row as Newton on the secular equation computes it.  The circle
#: rows are as the per-atom psi loop summed them; the one-sum psi moves them by
#: at most 5.2e-17, within one rounding of the largest |eta| on the grid, 0.4
PINNED_LINE = {
    "boolean": (0.013001720812336408, 0.006525965174726997, 0.003269115885581087,
                0.0016360729900097184, 0.0008184129462970711, 0.0004093002955467175,
                0.0002046735669693468),
    "classical": (0.009739901586066725, 0.004827321959509911, 0.002403167697820448,
                  0.0011989807128912082, 0.0005988420764840829, 0.0002992592800816331,
                  0.00014958923940117024),
    "free": (0.00460786803339773, 0.0022756981147306083, 0.001130922117532587,
             0.0005637455110349514, 0.0002814458724211992, 0.00014061646470147287,
             7.028164555597051e-05),
    "monotone": (0.007860570450646979, 0.0038923597058660177, 0.0019367873139439161,
                 0.0009660567716477181, 0.0004824455785426705, 0.00024107726466488042,
                 0.0001205022733599748),
}
PINNED_CIRCLE = {
    "boolean": (0.0009502510689380242, 0.00047822937180243334, 0.00023989890038475148,
                0.00012014654760807973, 6.012267935210651e-05),
    "monotone": (0.02440300661366, 0.02445998835348247, 0.02448850728576634,
                 0.02450277371575576, 0.024509908665203802),
    "corrected": (1.1226435567921847e-15, 1.237704230079e-15, 9.634823471110655e-16,
                  8.737773046970893e-16, 1.3189010295585304e-15),
}
PINNED_CIRCLE_ABS = 0.4 * float(np.finfo(float).eps)


def test_scenario_reports_keep_their_pinned_distances(tmp_path):
    line = tmp_path / "line.json"
    line.write_text(json.dumps({"space": "real", "tolerance": 0.05, "array": {
        "family": "poisson", "lam": 1.7, "n_values": [64 * 2**j for j in range(7)]}}))
    assert run(["bp-check", line, "--output", tmp_path / "line_rep.json"]) == EXIT_OK
    ops = read_json(tmp_path / "line_rep.json")["result"]["ops"]
    for op, want in PINNED_LINE.items():
        got = [row["distance"] for row in ops[op]["rows"]]
        assert got == pytest.approx(want, rel=2e-13, abs=0.0)
    path = circle_scenario(tmp_path, {
        "family": "rotated_semigroup", "beta": -0.6, "sigma": [[0.8, 0.35], [3.9, 0.2]],
        "rotation_ell": "half", "n_values": [64 * 2**j for j in range(5)]})
    assert run(["circle-run", path, "--output", tmp_path / "circ_rep.json"]) == EXIT_OK
    report = read_json(tmp_path / "circ_rep.json")
    correction = report["rotation_correction"]["rows"]
    assert [row["ell"] for row in correction] == [-32, -64, -128, -256, -512]
    got = {op: tuple(row["distance"] for row in rep["rows"])
           for op, rep in report["result"]["ops"].items()}
    got["corrected"] = tuple(row["corrected"] for row in correction)
    assert got.keys() == PINNED_CIRCLE.keys()
    for op, want in PINNED_CIRCLE.items():
        assert got[op] == pytest.approx(want, rel=0.0, abs=PINNED_CIRCLE_ABS), op
