import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from ncprob import circle
from ncprob.circle import (
    CircleArraySpec,
    CircleGenerator,
    DISK_GRID,
    DiskFlowRoot,
    beta_condition_check,
    boolean_idiv_eta,
    circle_boolean_idiv,
    circle_flow_map,
    circle_reports,
    circle_semigroup_defect,
    detect_rotation,
    disk_powers,
    eta_distance,
)
from ncprob.errors import FlowError, ValidationError
from ncprob.measures import PARAMETER, CircleMeasure

def param(pairs):
    return CircleMeasure.from_pairs(pairs, role=PARAMETER)


def test_boolean_idiv_formulas():
    # sigma = 0: eta = gamma z
    g = circle_boolean_idiv(cmath.exp(0.4j), param([]))
    for z, v in zip(DISK_GRID, g):
        assert v == pytest.approx(cmath.exp(0.4j) * z)
    # gamma=1, sigma = s delta_{-1}: eta = z exp(-s (1-z)/(1+z))
    s = 0.6
    g2 = circle_boolean_idiv(1.0, param([(math.pi, s)]))
    for z, v in zip(DISK_GRID, g2):
        assert v == pytest.approx(z * cmath.exp(-s * (1.0 - z) / (1.0 + z)), abs=1e-13)


def _mp_disk_sums(mu, beta, z):
    """psi, A and the boolean eta of mu (as sigma for A and eta) at z, 30 digits.

    A and the Boolean eta read the Herglotz integral
    H = integral (1+zeta z)/(1-zeta z) dmu directly, not through psi.
    """
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        ps, h = mpmath.mpc(0), mpmath.mpc(0)
        for t, w in mu.atoms:
            zeta, w = mpmath.expj(mpmath.mpf(t)), mpmath.mpf(w)
            ps += w * z * zeta / (1 - z * zeta)
            h += w * (1 + zeta * z) / (1 - zeta * z)
        a = z * (1j * mpmath.mpf(beta) - h)
        eta_b = mpmath.expj(mpmath.mpf(beta)) * z * mpmath.exp(-h)
        return [complex(v) for v in (ps, a, eta_b)]


@pytest.mark.parametrize("seed", range(6))
def test_disk_sums_match_a_30_digit_oracle(seed):
    """psi, a_eval and boolean_idiv_eta to 1e-12 relative, |z| from 1e-8 to 0.999.

    Near z = 0 psi ~ z mean(mu): summing psi itself keeps its relative
    digits there, which a difference of Herglotz integrals would lose.  The
    points at |z| = 0.999 lie on the rays toward the atoms zeta and toward
    their poles conj(zeta), and the last measure has two atoms 1e-9 rad
    apart.  At a pole the Boolean eta is exp(-2 psi) with |psi| near 1e3,
    where the rounding of zeta itself moves it by 1e-10 relative, so only
    the other two sums are held to the bound there.
    """
    rng = np.random.default_rng(8000 + seed)
    for trial in range(6):
        n = int(rng.integers(1, 5))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        if trial == 5:
            angles, n = np.array([angles[0], angles[0] + 1e-9]), 2
        mu = param(zip(angles, rng.uniform(0.1, 1.0, n)))
        beta = float(rng.uniform(-1.0, 1.0))
        gen = CircleGenerator(beta, mu)
        radii = np.concatenate((10.0 ** np.linspace(-8.0, -1.0, 8), [0.5, 0.9, 0.99]))
        zeta = np.exp(1j * np.array(mu.angles))
        pts = np.concatenate((radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, radii.size)),
                              0.999 * zeta, 0.999 * zeta.conj()))
        sums = (lambda z: circle._psi(mu, z), gen.a_eval,
                circle.boolean_idiv_eta(cmath.exp(1j * beta), mu))
        on_array = [f(pts) for f in sums]
        for i, z in enumerate(pts.tolist()):
            at_pole = i >= pts.size - zeta.size
            for k, (f, arr, want) in enumerate(zip(sums, on_array, _mp_disk_sums(mu, beta, z))):
                if at_pole and k == 2:
                    continue
                assert abs(f(z) - want) <= 1e-12 * abs(want), (z, f)
                assert abs(arr[i] - want) <= 1e-12 * abs(want), (z, f)


def test_flow_rotation_field():
    gen = CircleGenerator(0.5, param([]))
    got = circle_flow_map(gen, 1.0, np.array(DISK_GRID[:4]), step=1e-3)
    for z, w in zip(DISK_GRID[:4], got):
        assert w == pytest.approx(cmath.exp(0.5j) * z, abs=1e-12)


def test_flow_mean_identity():
    # beta=0, sigma = s delta_1: time-one mean is e^{-s}
    s = 0.7
    gen = CircleGenerator(0.0, param([(0.0, s)]))
    r = 1e-4
    vals = circle_flow_map(gen, 1.0, np.array([r, 1j * r, -r, -1j * r]), step=1e-3)
    mean = (vals[0] - vals[2] - 1j * (vals[1] - vals[3])) / (4.0 * r)
    assert mean == pytest.approx(math.exp(-s), abs=1e-8)
    # the analytic mean e^{A'(0) t} agrees
    assert cmath.exp(gen.mean_rate) == pytest.approx(math.exp(-s))


def test_flow_semigroup_defect():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    assert circle_semigroup_defect(gen, 1.0, 1e-3) <= 1e-6


def test_disk_flows_at_time_zero_keep_the_start_grid():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    z = np.array(DISK_GRID)
    assert np.array_equal(circle_flow_map(gen, 0.0, z, step=1e-3), z)
    assert circle_semigroup_defect(gen, 0.0, 1e-3) == 0.0
    # the start points are checked at t = 0 too
    with pytest.raises(ValidationError):
        circle_flow_map(gen, 0.0, np.array([0.1, 1.0]), step=1e-3)


def test_disk_flows_shorter_than_a_step_schedule_keep_the_start_grid():
    # a time of at most 1e-15 takes no RK4 step: the flow is the identity
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    z = np.array(DISK_GRID)
    assert np.array_equal(circle_flow_map(gen, 1e-16, z), z)
    # a root with no step is its row's rotation alone, once per iteration
    lam = cmath.exp(0.25j)
    (got,) = disk_powers([(DiskFlowRoot(gen, 1e-16, 1e-3), 3, z, "no step", 1j * lam)])
    assert np.allclose(got, (1j * lam) ** 3 * z, rtol=0, atol=1e-15)


def test_rotated_array_fixed_ell():
    # rotate by e^{2 pi i/k}: detect -1, corrected converges, raw stalls
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    spec = CircleArraySpec(gen, (16, 32, 64), rotation_ell=1)
    _, rep = circle_reports(spec, gen)
    assert [row["ell"] for row in rep["rows"]] == [-1, -1, -1]
    assert rep["corrected_converged"]
    assert not rep["uncorrected_converged"]
    assert all(row["uncorrected"] >= 0.07 for row in rep["rows"])
    assert all(row["corrected"] <= 1e-10 for row in rep["rows"])


def test_unrotated_array_detects_no_rotation_and_runs_no_correction():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    spec = CircleArraySpec(gen, (16, 32))
    assert [detect_rotation(spec, 0.3, n) for n in spec.n_values] == [0, 0]
    rep, correction = circle_reports(spec, gen)
    assert correction is None
    assert rep["array"] == "semigroup" and rep["both_converged"]


@pytest.mark.parametrize("ell", [1, -2, "half"])
def test_an_exact_correction_undoes_the_rotation_bit_for_bit(ell):
    # when the detected l cancels the array's l_n mod n, the corrected lanes run
    # with a rotation of exactly 1: the monotone lanes of the unrotated array
    rng = np.random.default_rng(4300)
    for _ in range(10):
        sigma = param(zip(rng.uniform(0.0, 2.0 * math.pi, 2), rng.uniform(0.1, 0.6, 2)))
        gen = CircleGenerator(float(rng.uniform(-1.0, 1.0)), sigma)
        spec = CircleArraySpec(gen, (16, 32), rotation_ell=ell)
        _, fix = circle_reports(spec, gen)
        plain, _ = circle_reports(CircleArraySpec(gen, (16, 32)), gen)
        ell_n = [n // 2 if ell == "half" else ell for n in spec.n_values]
        assert [(row["ell"] + l) % row["n"] for row, l in zip(fix["rows"], ell_n)] == [0, 0]
        assert ([row["corrected"] for row in fix["rows"]]
                == [row["distance"] for row in plain["ops"]["monotone"]["rows"]])


def test_beta_condition():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    ok, rows = beta_condition_check(CircleArraySpec(gen, (16, 32, 64)), 0.3)
    assert ok
    bad, rows = beta_condition_check(CircleArraySpec(gen, (16, 32, 64), rotation_ell=1), 0.3)
    assert not bad
    # the drift is 2 pi ell (1 + o(1))
    assert rows[-1]["gap"] == pytest.approx(2.0 * math.pi, abs=0.1)


def test_circle_equivalence_dirac_array():
    # sigma = 0: the flow root at 1/n is the rotation by e^{i beta/n}, the eta
    # of delta_{e^{i beta/n}}, and both sides converge to delta_{e^{i beta}}
    beta = 0.9
    gen = CircleGenerator(beta, param([]))
    spec = CircleArraySpec(gen, (16, 32, 64))
    z = np.array(DISK_GRID)
    for n in spec.n_values:
        (got,) = disk_powers([(spec.eta_of(n), 1, z, f"row n={n}, k=1", spec.rotation(n))])
        assert np.allclose(got, cmath.exp(1j * beta / n) * z, rtol=0, atol=1e-15)
    rep, _ = circle_reports(spec, gen)
    assert rep["beta_condition"]["holds"]
    assert rep["agreement"] and rep["both_converged"]


def test_monotone_row_one_of_a_semigroup_array_is_the_time_one_target():
    # row n = 1 is the flow root at t = 1, run once on the target's RK4 schedule
    rng = np.random.default_rng(4200)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        sigma = param(zip(rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.1, 0.6, n)))
        gen = CircleGenerator(float(rng.uniform(-1.0, 1.0)), sigma)
        rep, _ = circle_reports(CircleArraySpec(gen, (1, 2)), gen)
        assert rep["ops"]["monotone"]["rows"][0]["distance"] == 0.0


def test_rotation_detection_branch():
    gen = CircleGenerator(0.3, param([(0.5, 0.9)]))
    spec = CircleArraySpec(gen, (16, 32), rotation_ell="half")
    for n in (16, 32):
        ell = detect_rotation(spec, 0.3, n)
        assert (ell + n // 2) % n == 0


@pytest.mark.parametrize("engine", ["circle_flow_map", "circle_semigroup_defect"])
@pytest.mark.parametrize("t_end, step", [
    (math.inf, 1e-3), (math.nan, 1e-3), (-1.0, 1e-3),
    (1.0, 0.0), (1.0, -1e-3), (1.0, math.nan), (1.0, math.inf),
])
def test_disk_flows_reject_non_finite_time_and_bad_step(no_hang, engine, t_end, step):
    # unchecked, t_end = inf or step = 0 loops forever, t_end = nan returns
    # z unchanged and step = nan returns a nan grid
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    call = {"circle_flow_map": lambda: circle_flow_map(gen, t_end, 0.2, step=step),
            "circle_semigroup_defect": lambda: circle_semigroup_defect(gen, t_end, step)}
    with pytest.raises(ValidationError):
        call[engine]()


@pytest.mark.parametrize("t, step", [
    (0.5, 0.0), (0.5, math.nan), (math.inf, 1e-3), (math.nan, 1e-3), (0.0, 1e-3), (-0.5, 1e-3),
], ids=["step_0", "step_nan", "time_inf", "time_nan", "time_0", "time_negative"])
def test_disk_flow_root_rejects_bad_times_and_step(t, step):
    # unchecked, step 0 grows the step schedule without end and a time of 0
    # fails inside disk_powers
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    with pytest.raises(ValidationError):
        DiskFlowRoot(gen, t, step)


def test_eta_distance_rejects_unequal_and_empty_samples():
    values = np.array(DISK_GRID)
    with pytest.raises(ValidationError, match="16 and 3"):
        eta_distance(values, values[:3])
    with pytest.raises(ValidationError, match="0 and 0"):
        eta_distance((), ())


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), 1.0, 0.6 + 0.8j])
def test_disk_flows_reject_start_points_off_the_open_disk(no_hang, bad):
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    for call in (lambda: circle_flow_map(gen, 1.0, bad),
                 lambda: circle_flow_map(gen, 1.0, np.array([0.1, bad]))):
        with pytest.raises(ValidationError):
            call()


def test_circle_flow_map_scalar_and_array_forms():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5), (1.0, 0.3)]))
    z = np.array(DISK_GRID).reshape(4, 4)
    got = circle_flow_map(gen, 0.25, z)
    assert got.shape == (4, 4)
    one = circle_flow_map(gen, 0.25, DISK_GRID[5])
    assert isinstance(one, complex)
    assert one == got.ravel()[5]
    assert np.array_equal(circle_flow_map(gen, 0.0, z), z)
    assert np.array_equal(circle_flow_map(gen, 0.25, list(DISK_GRID)), got.ravel())


def test_disk_flows_on_no_points():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    for t_end in (0.0, 1.0):
        got = circle_flow_map(gen, t_end, np.array([]))
        assert got.shape == (0,) and got.dtype == complex
        assert circle_flow_map(gen, t_end, np.empty((2, 0))).shape == (2, 0)


def test_disk_powers_give_a_row_without_points_an_empty_array():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    root = DiskFlowRoot(gen, 0.25, 1e-3)
    z = np.array(DISK_GRID)
    empty = (root, 2, np.empty((3, 0)), "row n=2, k=2", 1.0)
    (alone,) = disk_powers([empty])
    assert alone.shape == (3, 0) and alone.dtype == complex
    healthy = (root, 2, z, "row n=3, k=2", 1.0)
    other = DiskFlowRoot(CircleGenerator(-0.7, param([(1.0, 0.4)])), 0.5, 1e-3)
    other_empty = (other, 2, np.array([]), "row n=4, k=2", 1.0)
    got = disk_powers([empty, healthy, other_empty])
    assert [v.shape for v in got] == [(3, 0), (16,), (0,)]
    assert np.array_equal(got[1], disk_powers([healthy])[0])


@pytest.mark.parametrize("n_values", [(0, 16), (-1, 16), (-16, -8)])
def test_circle_array_spec_rejects_rows_below_one(n_values):
    # unchecked, n = 0 divides by zero and n = -1 writes a report row of k = -1
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    for ell in (0, 1, "half"):
        with pytest.raises(ValidationError, match="positive"):
            CircleArraySpec(gen, n_values, rotation_ell=ell)


@pytest.mark.parametrize("ell", [1.0, 1.5, True, "quarter", None, lambda n: n // 2])
def test_circle_array_spec_takes_an_integer_or_half_rotation(ell):
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    with pytest.raises(ValidationError, match="rotation_ell"):
        CircleArraySpec(gen, (16, 32), rotation_ell=ell)


@pytest.mark.parametrize("step", [0.02, 0.0, math.nan])
def test_circle_array_spec_checks_its_flow_step(step):
    # the time-one target runs at flow_step: at most 1e-2, finite and positive
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    with pytest.raises(ValidationError, match="flow step"):
        CircleArraySpec(gen, (16, 32), flow_step=step)


def test_disk_flow_error_names_start_point():
    # a strong field at step 0.3 overshoots past the origin on the outer ring
    gen = CircleGenerator(0.0, param([(0.0, 5.0)]))
    points = np.array([0.05, 0.4, 0.3])
    for z in (points, 0.4):
        with pytest.raises(FlowError, match=re.escape("z0=(0.4+0j)") + ".*t=0.300000"):
            circle_flow_map(gen, 1.0, z, step=0.3)
    # at the largest allowed step a forty times stronger field does the same
    stiff = CircleGenerator(0.0, param([(0.0, 200.0)]))
    with pytest.raises(FlowError, match=re.escape("z0=(0.4+0j)") + ".*t=0.010000"):
        circle_flow_map(stiff, 1.0, np.array([0.05, 0.4]), step=1e-2)


def test_monotone_power_error_names_start_point_and_iteration():
    # the flow to t = 1/4 shrinks |z| by about e^{-t Re H(z)}; at z = 0.4, away
    # from the atom at -1, Re H = 0.21, so by 5%, and lam = 1.2 grows the point:
    # each RK4 step passes (the flow alone shrinks) and the iteration's end fails
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    row = (DiskFlowRoot(gen, 0.25, 1e-2), 5, np.array(DISK_GRID), "row n=5, k=5", 1.2)
    want = "eta iteration from z0=(0.4+0j) grew the modulus at iteration 1 (row n=5, k=5)"
    with pytest.raises(FlowError, match=re.escape(want)):
        disk_powers([row])


def test_a_shared_iteration_end_names_the_first_lane_of_the_first_failing_row():
    # rows of one root end their iterations on the same ticks, which one gather
    # per tick runs; lam = 1.2 grows the later row's points (not those near -0.4,
    # where the flow to t = 1/4 shrinks |z| by a quarter)
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    root, z = DiskFlowRoot(gen, 0.25, 1e-2), np.array(DISK_GRID)
    healthy = (root, 5, z, "row n=4, k=5", cmath.exp(0.4j))
    grows = (root, 5, z[::-1], "row n=4, k=5, l=1", 1.2)
    want = (f"eta iteration from z0={complex(z[-1])!r} grew the modulus at iteration 1 "
            "(row n=4, k=5, l=1)")
    with pytest.raises(FlowError, match=re.escape(want)):
        disk_powers([healthy, grows])
    # when both rows grow, the row listed first is named, though the lanes of
    # the longer row run first in the kernel
    first = (root, 5, z, "row n=4, k=5", 1.2)
    longer = (root, 6, z[::-1], "row n=4, k=6", 1.3)
    want = "eta iteration from z0=(0.4+0j) grew the modulus at iteration 1 (row n=4, k=5)"
    with pytest.raises(FlowError, match=re.escape(want)):
        disk_powers([first, longer])


def test_an_iteration_end_fails_a_nan_lane():
    # a NaN rotation passes every RK4 step and leaves its lanes NaN at the
    # iteration's end, which the guard |lam w| <= lim does not pass
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    root, z = DiskFlowRoot(gen, 0.25, 1e-2), np.array(DISK_GRID)
    healthy = (root, 3, z, "row n=4, k=3", 1.0)
    sick = (root, 3, z[3:6], "row n=4, k=3, nan", complex(math.nan, 0.0))
    want = (f"eta iteration from z0={complex(z[3])!r} grew the modulus at iteration 1 "
            "(row n=4, k=3, nan)")
    with pytest.raises(FlowError, match=re.escape(want)):
        disk_powers([healthy, sick])


@pytest.mark.parametrize("step", [1e-3, 1e-2])
def test_a_circle_pass_takes_one_tick_per_iteration_of_its_longest_row(monkeypatch, step):
    # row n steps by min(flow_step, 1/n), so row 1024 takes one RK4 step per
    # iteration at either step, and the pass lasts its 1,024 iterations; rows
    # 64-512 and the time-one target take at most as many ticks
    step_of, ticks = circle._DiskLanes._step, []

    def counted(self, s, a):
        ticks.append(s)
        return step_of(self, s, a)

    monkeypatch.setattr(circle._DiskLanes, "_step", counted)
    gen = CircleGenerator(-0.6, param([(0.8, 0.35), (3.9, 0.2)]))
    spec = CircleArraySpec(gen, (64, 128, 256, 512, 1024), step, "half")
    circle_reports(spec, gen)
    assert ticks == list(range(1024))


def _mp_flow(gen, z, t_end=1.0):
    """eta_t(z) of d eta/dt = A(eta) by mpmath's Taylor-series ODE solver at 20 digits."""
    with mpmath.workdps(20):
        atoms = [(mpmath.expj(t), mpmath.mpf(w)) for t, w in gen.sigma.atoms]

        def field(t, w):
            acc = mpmath.mpc(0, gen.beta)
            for zeta, w_atom in atoms:
                acc -= w_atom * (1 + zeta * w) / (1 - zeta * w)
            return w * acc

        return complex(mpmath.odefun(field, 0, mpmath.mpc(z))(t_end))


@pytest.mark.parametrize("gen", [
    CircleGenerator(0.3, param([(math.pi, 0.5)])),
    CircleGenerator(-0.7, param([(1.0, 0.4), (4.0, 0.25)])),
])
def test_disk_flow_matches_mpmath_ode_oracle(gen):
    points = (DISK_GRID[0], DISK_GRID[3], DISK_GRID[13])
    for z, w in zip(points, circle_flow_map(gen, 1.0, np.array(points), step=1e-3)):
        assert abs(w - _mp_flow(gen, z)) <= 1e-12


def _per_point_power(e, k, lam, points=DISK_GRID):
    """Reference monotone power: one Python-complex eta per point and iteration.

    A DiskFlowRoot's eta is its own RK4 over the root's schedule, then the
    row's rotation lam, so the reference shares no code with the lanes of
    disk_powers.
    """
    def flow_root(w):
        a = e.gen.a_eval
        for h, _ in e.schedule:
            k1 = complex(a(w))
            k2 = complex(a(w + 0.5 * h * k1))
            k3 = complex(a(w + 0.5 * h * k2))
            k4 = complex(a(w + h * k3))
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return lam * w

    out = []
    for z in points:
        w = complex(z)
        for _ in range(k):
            w = flow_root(w)
        out.append(w)
    return out


def test_monotone_power_array_matches_per_point_iteration():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5), (2.0, 0.2)]))
    spec = CircleArraySpec(gen, (256,), rotation_ell=1)
    e, lam = spec.eta_of(256), spec.rotation(256)
    (grid,) = disk_powers([(e, 256, np.array(DISK_GRID), "row n=256, k=256", lam)])
    assert eta_distance(grid, _per_point_power(e, 256, lam)) <= 1e-13
    other = CircleGenerator(-0.7, param([(0.05, 0.7), (6.2, 0.3)]))
    e = CircleArraySpec(other, (64,)).eta_of(64)
    (grid,) = disk_powers([(e, 64, np.array(DISK_GRID), "row n=64, k=64", 1.0)])
    assert eta_distance(grid, _per_point_power(e, 64, 1.0)) <= 1e-13


def test_disk_lanes_match_each_row_run_alone():
    # rows of one generator share a kernel whose lanes run ragged step
    # schedules and counts; each row reads as if run by itself
    gen = CircleGenerator(-0.7, param([(1.0, 0.4), (4.0, 0.25)]))
    z = np.array(DISK_GRID)
    rows = [(DiskFlowRoot(gen, 1.0 / n, min(1e-3, 1.0 / n)), n, z, f"row n={n}, k={n}", lam)
            for n in (16, 48, 100) for lam in (cmath.exp(2j * math.pi / n), 1.0)]
    rows.append((DiskFlowRoot(gen, 1.0, 1e-3), 1, z, "time-one target", 1.0))
    together = disk_powers(rows)
    for row, got in zip(rows, together):
        assert np.array_equal(got, disk_powers([row])[0])
    assert np.array_equal(together[-1], circle_flow_map(gen, 1.0, z, step=1e-3))


def test_disk_lane_guard_names_its_row_among_healthy_lanes():
    # a strong field at step 0.3 overshoots past the origin from 0.4 only; the
    # other lanes of its row and the lanes of the fine-step row stay healthy
    gen = CircleGenerator(0.0, param([(0.0, 5.0)]))
    coarse = (DiskFlowRoot(gen, 0.6, 0.3), 2, np.array([0.05, 0.4, 0.3]), "row n=2, k=2", 1.0)
    fine = (DiskFlowRoot(gen, 0.01, 1e-3), 40, np.array(DISK_GRID), "row n=40, k=40", 1.0)
    disk_powers([fine])
    want = "disk flow from z0=(0.4+0j) violated |eta_t(z)| <= |z| at t=0.300000 of iteration 1"
    with pytest.raises(FlowError, match=re.escape(want + " (row n=2, k=2)")):
        disk_powers([fine, coarse])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN lane's field divides NaN
def test_disk_lane_guard_fails_a_nan_lane_among_healthy_lanes(monkeypatch):
    # the guard reads |w| <= lim, which a NaN lane does not pass; lanes run in
    # the order of their tick counts, so lane 1 is the k = 2 row's second point
    gen = CircleGenerator(0.3, param([(1.0, 0.4)]))
    sick = (DiskFlowRoot(gen, 0.5, 1e-2), 2, np.array([0.1, 0.2j, -0.3]), "row n=2, k=2", 1.0)
    healthy = (DiskFlowRoot(gen, 0.5, 1e-2), 1, np.array(DISK_GRID), "row n=1, k=1", 1.0)
    a_eval, calls = CircleGenerator.a_eval, []

    def poisoned(self, z):
        calls.append(z.size)
        out = a_eval(self, z)
        if len(calls) > 40:  # from the k1 of tick 11 on
            out[1] = np.nan
        return out

    monkeypatch.setattr(CircleGenerator, "a_eval", poisoned)
    want = "disk flow from z0=0.2j violated |eta_t(z)| <= |z| at t=0.110000 of iteration 1"
    with pytest.raises(FlowError, match=re.escape(want + " (row n=2, k=2)")):
        disk_powers([healthy, sick])
    assert calls[-1] == 19
