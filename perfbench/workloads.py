"""The three workloads: seeded inputs, the timed calls, and their checks.

A workload is an endless, deterministic sequence of jobs whose parameters
come from a generator seeded by (seed, i), so job i's inputs never depend on
how many jobs ran before it; in ``limits`` and ``density`` job i has kind
``CYCLE[i % len(CYCLE)]``.  Runs execute whole cycles of ``cycle`` jobs;
``cycle_s`` is what one cycle takes on the nominal machine, and sets how
many cycles a run of a given length executes.
Each job is one or more operations, each a call into ncprob's public API
(``ncprob.cli.main(argv)`` or a library function), timed on its own and
attempted independently of the others.  Checks run after the job, outside
the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

import oracles

#: rows n of the real-line arrays: powers k_n = n from 64 to 4096
REAL_NS = [64 * 2**j for j in range(7)]
#: rows n of the circle arrays (a rotated circle-run costs ~3 s at this size)
CIRCLE_NS = [64 * 2**j for j in range(5)]
#: the CLI's default density window is -6:6; 301 bins is the ROADMAP baseline
DENSITY_BINS = 301
DENSITY_EPS = 1e-3
#: where the sigma atoms of the random density triples lie, by atom count
RANDOM_BANDS = {1: ((-1.5, 1.5),),
                2: ((-2.0, -0.5), (0.5, 2.0)),
                3: ((-2.0, -1.0), (-0.5, 0.5), (1.0, 2.0))}
#: known defect: the free sweep of this triple leaves the upper half-plane
GUARD_TRIPLE = (1.0, 0.3, ((-1.0, 0.4), (2.0, 0.3)))


@dataclass
class Op:
    name: str
    ok: bool
    seconds: float
    error: str = None
    layer: str = None
    check: object = None     # () -> (gap or None, correct), run after timing
    gap: float = None
    correct: bool = None


@dataclass
class Job:
    kind: str
    ops: list = field(default_factory=list)

    @property
    def seconds(self):
        return sum(op.seconds for op in self.ops)

    @property
    def completed(self):
        return any(op.ok for op in self.ops)


def job_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def failure_origin(exc, src_dir):
    """(exception type, layer) of the deepest ncprob frame of the root cause."""
    root = exc
    while root.__cause__ is not None:
        root = root.__cause__
    layer = None
    tb = root.__traceback__
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if path.startswith(src_dir):
            layer = os.path.splitext(os.path.basename(path))[0]
        tb = tb.tb_next
    return type(exc).__name__, layer


class Cli:
    """Runs ``ncprob.cli.main(argv)`` and keeps the exception it mapped to an exit code.

    main() turns ValidationError/NumericalError into exit codes 2/3; a thin
    probe around each subcommand records the exception first.
    """

    def __init__(self, cli_module, src_dir):
        self.cli = cli_module
        self.src_dir = src_dir
        self.error = None
        for name in ("cmd_idiv", "cmd_bp_check", "cmd_limit_run", "cmd_circle_run"):
            setattr(cli_module, name, self._probe(getattr(cli_module, name)))

    def _probe(self, fn):
        @functools.wraps(fn)
        def probe(args):
            try:
                return fn(args)
            except BaseException as exc:
                self.error = exc
                raise

        return probe

    def run(self, name, argv):
        """One CLI operation; failed when the exit code is not 0."""
        self.error = None
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # main maps only its own errors to exit codes
                rc = None
            seconds = time.perf_counter() - start
        op = Op(name, rc == 0, seconds)
        if self.error is not None:
            op.error, op.layer = failure_origin(self.error, self.src_dir)
        elif rc != 0:
            op.error, op.layer = f"exit{rc}", "cli"
        return op


# --- limits --------------------------------------------------------------------

class Limits:
    """bp-check, limit-run and circle-run on the shipped array families."""

    name = "limits"
    CYCLE = ("bp_bernoulli", "circle_semigroup", "bp_poisson", "lr_damped",
             "circle_rotated_1", "bp_fixed", "lr_poisson_int", "lr_damped_drift",
             "circle_rotated_half")
    cycle = trace_jobs = len(CYCLE)
    cycle_s = 13.0

    def __init__(self, ncprob, cli, work):
        self.cli = cli
        self.work = work

    def _scenario(self, seed, index):
        kind = self.CYCLE[index % len(self.CYCLE)]
        rng = job_rng(seed, index)
        if kind.startswith("circle"):
            # the atom count sets a circle job's cost; with two atoms each, the
            # rotated jobs cost alike and the tail does not hop between them
            atoms = [[rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 0.6)]
                     for _ in range(2)]
            array = {"family": "semigroup", "beta": rng.uniform(-1.0, 1.0),
                     "sigma": atoms, "n_values": CIRCLE_NS}
            if kind != "circle_semigroup":
                array["family"] = "rotated_semigroup"
                array["rotation_ell"] = 1 if kind == "circle_rotated_1" else "half"
            return kind, "circle-run", {"space": "circle", "array": array}
        if kind == "bp_bernoulli":
            array = {"family": "bernoulli_clt"}
        elif kind == "bp_fixed":
            array = {"family": "fixed_bernoulli"}
        elif kind == "bp_poisson":
            array = {"family": "poisson", "lam": rng.uniform(0.5, 2.5)}
        elif kind == "lr_poisson_int":
            array = {"family": "poisson", "lam": float(rng.choice((1, 2)))}
        else:
            array = {"family": "damped_poisson", "lam": rng.uniform(0.5, 2.0),
                     "c": rng.uniform(0.2, 1.5),
                     "shift_scale": rng.uniform(0.5, 1.5) if kind == "lr_damped_drift" else 0.0}
        array["n_values"] = REAL_NS
        command = "bp-check" if kind.startswith("bp_") else "limit-run"
        return kind, command, {"space": "real", "array": array, "tolerance": 0.05}

    def inputs(self, seed, index):
        """The scenario file the CLI reads."""
        kind, command, scenario = self._scenario(seed, index)
        path = os.path.join(self.work, f"scenario-{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        return kind, command, scenario, path

    def run(self, index, inputs):
        kind, command, scenario, path = inputs
        out = os.path.join(self.work, f"report-{index}.json")
        if os.path.exists(out):
            os.remove(out)
        op = self.cli.run(kind, [command, path, "--output", out])
        if op.ok:
            op.check = lambda: self._check(kind, scenario, out)
        return Job(kind, [op])

    def _check(self, kind, scenario, out):
        with open(out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        result = report["result"]
        if kind.startswith("circle"):
            return None, _circle_verdicts(kind, report)
        array = scenario["array"]
        rows = result["ops"]["boolean"]["rows"]
        gap = oracles.boolean_row_gap(rows, _row_measure(array), _target_triple(array),
                                      report["grids"]["zr"])
        return gap, _real_verdicts(kind, result) and gap <= oracles.TOL["boolean_row"]

    def warmup(self):
        scenario = {"space": "real", "array": {"family": "bernoulli_clt", "n_values": [16, 32]}}
        path = os.path.join(self.work, "warmup.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        self.cli.run("warmup", ["bp-check", path, "--output", path + ".out"])
        scenario = {"space": "circle", "array": {"family": "rotated_semigroup", "beta": 0.3,
                                                 "sigma": [[1.0, 0.5]], "rotation_ell": 1,
                                                 "n_values": [16, 32]}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        self.cli.run("warmup", ["circle-run", path, "--output", path + ".out"])


def _row_measure(array):
    """Row n of a real-line family, as (position, weight) pairs."""
    family = array["family"]
    lam = array.get("lam", 1.0)
    if family == "bernoulli_clt":
        return lambda n: [(-1.0 / math.sqrt(n), 0.5), (1.0 / math.sqrt(n), 0.5)]
    if family == "fixed_bernoulli":
        return lambda n: [(-1.0, 0.5), (1.0, 0.5)]
    if family == "poisson":
        return lambda n: [(0.0, 1.0 - lam / n), (1.0, lam / n)]
    c, shift = array["c"], array["shift_scale"]

    def damped(n):
        a = shift / math.sqrt(n)
        return [(a, (1.0 - c / n) * (1.0 - lam / n)), (1.0 + a, (1.0 - c / n) * (lam / n))]

    return damped


def _target_triple(array):
    """(m, gamma, sigma atoms) of the family's limit law."""
    family = array["family"]
    if family in ("bernoulli_clt", "fixed_bernoulli"):
        return 1.0, 0.0, [(0.0, 1.0)]
    lam = array["lam"]
    m = math.exp(-array["c"]) if family == "damped_poisson" else 1.0
    return m, lam / 2.0, [(1.0, lam / 2.0)]


def _real_verdicts(kind, result):
    """The verdicts the limit theorems predict for each real-line family.

    Infinitesimal arrays whose moment data converge (Bernoulli CLT, Poisson,
    damped Poisson without drift) converge under all four convolutions; the
    fixed Bernoulli array is not infinitesimal and the drifting damped array
    has divergent k_n gamma_n, so nothing converges.  Either way the
    verdicts agree.
    """
    ops = result["ops"]
    if kind in ("bp_bernoulli", "bp_poisson", "bp_fixed"):
        conv = kind != "bp_fixed"
        return (result["agreement"] is True and result["all_converged"] is conv
                and result["condition_e"]["converged"] is conv
                and all(r["converged"] is conv for r in ops.values()))
    if kind == "lr_poisson_int":
        return all(r["converged"] is True for r in ops.values())
    conv = kind == "lr_damped"
    return (result["agreement"] is True and result["both_converged"] is conv
            and all(r["converged"] is conv for r in ops.values()))


def _circle_verdicts(kind, report):
    """Circle arrays: the plain semigroup array converges both ways.

    Rotating row n by lambda_n with lambda_n^k = 1 leaves the Boolean power
    on target, and rotation correction repairs the monotone side.  The
    uncorrected monotone powers converge to another law; they read as
    diverged (and the verdicts disagree) when that law lies beyond the
    tolerance, which oracles.rotated_limit_gap computes.  Within 25% of the
    tolerance neither reading is asserted.
    """
    result = report["result"]
    ops = result["ops"]
    if kind == "circle_semigroup":
        return (result["agreement"] is True and result["both_converged"] is True
                and result["beta_condition"]["holds"] is True)
    fix = report["rotation_correction"]
    if not (ops["boolean"]["converged"] is True and fix["corrected_converged"] is True):
        return False
    array, tol = report["scenario"]["array"], result["tolerance"]
    gap = oracles.rotated_limit_gap(array["beta"], array["sigma"], array["rotation_ell"],
                                    report["grids"]["disk"])
    if abs(gap - tol) <= 0.25 * tol:
        return True
    apart = gap > tol
    return (ops["monotone"]["converged"] is not apart and fix["uncorrected_converged"] is not apart
            and result["agreement"] is not apart)


# --- density -------------------------------------------------------------------

def _random_triple(rng, atoms):
    """(m, gamma, sigma) with one sigma atom in each band of RANDOM_BANDS[atoms].

    A sweep's cost grows with the atom count and the number of density
    peaks, so the atoms are kept apart and the cost of a kind stays steady.
    """
    sigma = [(rng.uniform(lo, hi), rng.uniform(0.2, 0.4)) for lo, hi in RANDOM_BANDS[atoms]]
    return rng.uniform(0.5, 1.0), rng.uniform(-0.3, 0.3), sigma


class Density:
    """``ncprob idiv --op monotone|free`` density sweeps on Im z = 1e-3."""

    name = "density"
    CYCLE = ("gaussian", "free_family", "guard", "poisson_type", "random_1", "random_2",
             "random_3")
    cycle = len(CYCLE)
    cycle_s = 35.0
    trace_jobs = 3
    #: free sweeps per free_family job: cheap (~10 ms each), and their success
    #: is a coin flip for multi-atom sigma, so a share needs hundreds of them
    FAMILY_SIZE = 300

    def __init__(self, ncprob, cli, work):
        self.cli = cli
        self.work = work

    def inputs(self, seed, index):
        """(kind, [(op, m, gamma, sigma pairs, closed form or None)])."""
        kind = self.CYCLE[index % len(self.CYCLE)]
        rng = job_rng(seed, index)
        if kind == "gaussian":
            v = rng.uniform(0.8, 1.2)
            sigma = [(0.0, v)]
            return kind, [("monotone", 1.0, 0.0, sigma, ("arcsine", v)),
                          ("free", 1.0, 0.0, sigma, ("semicircle", v))]
        if kind == "poisson_type":
            lam = rng.uniform(1.4, 1.8)
            sigma = [(1.0, lam / 2.0)]
            return kind, [("monotone", 1.0, lam / 2.0, sigma, None),
                          ("free", 1.0, lam / 2.0, sigma, ("free_poisson", lam))]
        if kind == "guard":
            m, gamma, sigma = GUARD_TRIPLE
            return kind, [("free", m, gamma, list(sigma), None)]
        if kind == "free_family":
            ops = []
            for j in range(self.FAMILY_SIZE):
                _, gamma, sigma = _random_triple(rng, 1 + j % 3)
                ops.append(("free", 1.0, gamma, sigma, None))
            return kind, ops
        m, gamma, sigma = _random_triple(rng, int(kind[-1]))
        return kind, [("monotone", m, gamma, sigma, None), ("free", 1.0, gamma, sigma, None)]

    def run(self, index, inputs):
        kind, ops = inputs
        job = Job(kind)
        for j, (op_name, m, gamma, sigma, closed) in enumerate(ops):
            prefix = os.path.join(self.work, f"density-{index}-{j}")
            argv = ["idiv", "--op", op_name, "--m", repr(m), "--gamma=" + repr(gamma),
                    "--sigma=" + ",".join(f"{p!r}:{s!r}" for p, s in sigma),
                    "--bins", str(DENSITY_BINS), "--grid-eps", repr(DENSITY_EPS),
                    "--output", prefix]
            op = self.cli.run(f"{kind}.{op_name}", argv)
            if op.ok:
                op.check = functools.partial(self._check, prefix, op_name, m, gamma, sigma,
                                             closed)
            job.ops.append(op)
        return job

    @staticmethod
    def _check(prefix, op_name, m, gamma, sigma, closed):
        xs, dens = [], []
        with open(prefix + "_density.csv", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                x, d = line.split(",")
                xs.append(float(x))
                dens.append(float(d))
        if op_name == "monotone":
            f_of_z = functools.partial(oracles.flow_time_one, m, gamma, sigma)
        else:
            f_of_z = functools.partial(oracles.free_f, gamma, sigma)
        gap = oracles.pointwise_density_gap(xs, dens, DENSITY_EPS, f_of_z)
        correct = gap <= oracles.TOL["pointwise"]
        if closed is not None:
            form, param = closed
            law_gap = {"arcsine": oracles.arcsine_gap, "semicircle": oracles.semicircle_gap,
                       "free_poisson": oracles.free_poisson_gap}[form](xs, dens, param)
            gap = max(gap, law_gap)
            correct = correct and law_gap <= oracles.TOL["density"]
            if form != "arcsine":
                # a pass/fail check only: its size is set by how the 301 bins
                # fall on the law's edges, so it stays out of oracle_digits
                with open(prefix + "_atoms.json", "r", encoding="utf-8") as fh:
                    atoms = [tuple(a) for a in json.load(fh)["atoms"]]
                mass = oracles.mass_gap(xs, dens, atoms, DENSITY_EPS, m)
                correct = correct and mass <= oracles.TOL["density"]
        return gap, correct

    def warmup(self):
        for op in ("monotone", "free"):
            self.cli.run("warmup", ["idiv", "--op", op, "--sigma", "0:1", "--bins", "21",
                                    "--output", os.path.join(self.work, "warmup")])


# --- convolve ------------------------------------------------------------------

#: probe points of the exact-algebra oracles
Z_PROBE = tuple(complex(x, y) for y in (0.5, 1.0, 2.0) for x in (-3.0, -1.5, 0.0, 1.5, 3.0))


class Convolve:
    """One seeded pair of atomic probability measures, convolved four ways."""

    name = "convolve"
    cycle = 10
    cycle_s = 1.0
    trace_jobs = 30

    def __init__(self, ncprob, cli, work):
        self.nc = ncprob
        # ROADMAP item 4: 50 points of Im z = 0.03 across [-5, 5]
        self.line = tuple(complex(x, 0.03) for x in np.linspace(-5.0, 5.0, 50))

    def inputs(self, seed, index):
        """Two measures of 2 to 8 atoms: positions uniform on [-3, 3] with no
        minimum gap, weights uniform on [0.1, 1] then normalized."""
        rng = job_rng(seed, index)
        pair = []
        for _ in range(2):
            n = rng.randint(2, 8)
            x = [rng.uniform(-3.0, 3.0) for _ in range(n)]
            w = [rng.uniform(0.1, 1.0) for _ in range(n)]
            total = sum(w)
            pair.append(self.nc.FiniteAtomicMeasure.from_pairs(
                [(a, b / total) for a, b in zip(x, w)]))
        return tuple(pair)

    def run(self, index, inputs):
        nc = self.nc
        mu, nu = inputs
        line = self.line

        def free_line():
            engine = nc.convolutions.free_convolve_F(nc.f_transform(mu), nc.f_transform(nu))
            return [engine(z) for z in line]

        calls = (("classical", lambda: nc.classical_convolve(mu, nu)),
                 ("boolean", lambda: nc.boolean_convolve(mu, nu)),
                 ("monotone", lambda: nc.monotone_convolve(mu, nu)),
                 ("free_zr", lambda: nc.free_convolve(mu, nu)),
                 ("free_line", free_line))
        job = Job(f"atoms_{len(mu.positions)}x{len(nu.positions)}")
        free_engine_gap = functools.lru_cache(maxsize=None)(
            lambda: self._free_engine_gap(mu, nu))
        for name, call in calls:
            start = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # any exception is this operation's failure
                op = Op(name, False, time.perf_counter() - start)
                op.error, op.layer = failure_origin(exc, os.path.dirname(nc.__file__))
            else:
                op = Op(name, True, time.perf_counter() - start)
                op.check = functools.partial(self._check, name, mu, nu, out,
                                             free_engine_gap)
            job.ops.append(op)
        return job

    def _free_engine_gap(self, mu, nu):
        nc = self.nc
        engine = nc.convolutions.free_convolve_F(nc.f_transform(mu), nc.f_transform(nu))
        try:
            return oracles.free_gap(engine, lambda w: nc.voiculescu_phi(mu, w),
                                    lambda w: nc.voiculescu_phi(nu, w))
        except nc.NumericalError:
            return math.inf

    def _check(self, name, mu, nu, out, free_engine_gap):
        if name in ("classical", "boolean", "monotone"):
            gap_fn = {"classical": oracles.classical_gap, "boolean": oracles.boolean_gap,
                      "monotone": oracles.monotone_gap}[name]
            gap = gap_fn(mu.to_json_pairs(), nu.to_json_pairs(), out.to_json_pairs(), Z_PROBE)
            return gap, gap <= oracles.TOL["exact"]
        if name == "free_zr":
            points, values = out.points, out.values
        else:
            points, values = self.line, out
        gap = max(free_engine_gap(), oracles.nevanlinna_gap(points, values))
        return gap, gap <= oracles.TOL["free"]

    def warmup(self):
        for index in range(3):
            self.run(index, self.inputs(0, index))


WORKLOADS = {w.name: w for w in (Limits, Density, Convolve)}
