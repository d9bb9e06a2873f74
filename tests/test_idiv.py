import cmath
import json
import math
import random
import re

import mpmath
import numpy as np
import pytest

from conftest import mp_phi, mp_time_one, mp_upper_root
from ncprob import cli, idiv
from ncprob.errors import FlowError, ValidationError
from ncprob.idiv import (
    DistanceBound,
    LevyTriple,
    boolean_idiv,
    classical_idiv_cf,
    classical_idiv_density,
    flow_distance_bound,
    flow_map,
    free_idiv,
    free_idiv_atom,
    free_idiv_eval,
    monotone_idiv_atom,
    monotone_idiv_eval,
    monotone_idiv_flow,
    phi_deriv,
    phi_eval,
    semigroup_defect,
)
from ncprob.measures import FiniteAtomicMeasure, PARAMETER
from ncprob.transforms import ZR, eps_line_grid, f_transform, weak_distance

GAUSSIAN = LevyTriple.from_parts(1.0, 0.0, [(0.0, 1.0)])
POISSON_TYPE = LevyTriple.from_parts(1.0, 0.5, [(1.0, 0.5)])


def sqrt_up(w):
    s = cmath.sqrt(w)
    return s if s.imag > 0 else -s


def test_phi_eval_examples():
    for z in ZR:
        assert phi_eval(GAUSSIAN, z) == pytest.approx(-1.0 / z)
        assert phi_eval(LevyTriple.from_parts(1.0, 0.7, []), z) == pytest.approx(-0.7)
        assert phi_eval(LevyTriple.from_parts(0.5, 0.0, []), z) == pytest.approx(
            math.log(2.0) * z)


def test_phi_maps_up():
    triple = LevyTriple.from_parts(0.8, 0.3, [(1.0, 0.4), (-2.0, 0.1)])
    for z in ZR:
        assert phi_eval(triple, z).imag >= 0.0


def test_phi_deriv_matches_difference():
    triple = LevyTriple.from_parts(0.7, 0.2, [(0.5, 0.6)])
    h = 1e-6
    for z in (1j, 2.0 + 1.5j):
        numeric = (phi_eval(triple, z + h) - phi_eval(triple, z - h)) / (2.0 * h)
        assert phi_deriv(triple, z) == pytest.approx(numeric, abs=1e-7)


def test_boolean_idiv_examples(bernoulli):
    assert weak_distance(boolean_idiv(GAUSSIAN), bernoulli) <= 1e-12
    d = boolean_idiv(LevyTriple.from_parts(1.0, 1.3, []))
    assert d.atoms == ((pytest.approx(1.3), pytest.approx(1.0)),)
    h = boolean_idiv(LevyTriple.from_parts(0.5, 0.0, []))
    assert h.atoms == ((pytest.approx(0.0, abs=1e-14), pytest.approx(0.5)),)


def test_free_idiv_semicircle():
    g_at_i = 1.0 / free_idiv_eval(GAUSSIAN, 1j)
    assert g_at_i == pytest.approx(1j * (1.0 - math.sqrt(5.0)) / 2.0, abs=1e-10)
    # full grid against the closed form G = (z - sqrt(z^2-4))/2
    grid = free_idiv(GAUSSIAN)
    for z, v in zip(grid.points, grid.values):
        g = (z - sqrt_up(z * z - 4.0)) / 2.0
        assert abs(1.0 / v - g) <= 1e-10


def test_free_idiv_dirac():
    grid = free_idiv(LevyTriple.from_parts(1.0, 0.9, []))
    for z, v in zip(grid.points, grid.values):
        assert v == pytest.approx(z - 0.9, abs=1e-11)


def test_free_idiv_self_consistency():
    # extracted Voiculescu transform of the result matches the input data
    triple = POISSON_TYPE
    grid = free_idiv(triple)
    for z, w in zip(grid.points, grid.values):
        phi_of_w = triple.gamma + 0.5 * (1.0 + w) / (w - 1.0)
        assert abs(phi_of_w - (z - w)) <= 1e-9


def test_free_idiv_needs_mass_one():
    with pytest.raises(ValidationError):
        free_idiv(LevyTriple.from_parts(0.5, 0.0, [(0.0, 1.0)]))


def test_classical_cf_examples():
    cf = classical_idiv_cf(GAUSSIAN)
    assert cf(1.0) == pytest.approx(math.exp(-0.5))
    drift = classical_idiv_cf(LevyTriple.from_parts(1.0, 2.0, []))
    for t in (0.5, -1.0, 3.0):
        assert drift(t) == pytest.approx(cmath.exp(2j * t))


def test_classical_cf_poisson_identity():
    # the (gamma, sigma) = (1/2, delta_1/2) law is Poisson(1)
    cf = classical_idiv_cf(POISSON_TYPE)
    for t in (0.5, 1.0, 2.0, -3.0, 2.0 * math.pi):
        assert cf(t) == pytest.approx(cmath.exp(cmath.exp(1j * t) - 1.0), abs=1e-12)
    # in particular the full-period value is +1, not -1
    assert cf(2.0 * math.pi) == pytest.approx(1.0)


def test_classical_density_gaussian():
    xs, dens = classical_idiv_density(GAUSSIAN)
    import numpy as np

    i0 = int(np.argmin(np.abs(xs)))
    assert dens[i0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-9)
    i1 = int(np.argmin(np.abs(xs - 1.0)))
    assert dens[i1] == pytest.approx(math.exp(-xs[i1] ** 2 / 2.0) / math.sqrt(2.0 * math.pi),
                                     abs=1e-9)


def _mp_cf_integrand(t, x):
    """The classical integrand at 40 digits, with as many more as the cancellation
    of e^{itx} - 1 - itx at |tx| < 1 takes."""
    u = abs(t * x)
    extra = int(-2.0 * math.log10(u)) if 0.0 < u < 1.0 else 0
    with mpmath.workdps(40 + extra):
        t, x = mpmath.mpf(t), mpmath.mpf(x)
        if x == 0:
            return -t * t / 2
        return (mpmath.exp(1j * t * x) - 1 - 1j * t * x / (1 + x * x)) * (x * x + 1) / (x * x)


def test_classical_integrand_matches_40_digit_oracle():
    """|x| from 1e-300 to 10 at |t| from 0.5 to 64: measured 2.7e-15 relative.

    At x = 1e-8, t = 1 the quotient form read 0 instead of about -0.5.
    """
    xs = [0.0] + [s * 10.0**e for e in np.linspace(-300.0, 1.0, 302) for s in (1.0, -1.0)]
    for t in (0.5, -0.5, 1.0, 3.0, -17.3, 64.0):
        for x in xs:
            ref = _mp_cf_integrand(t, x)
            assert abs(mpmath.mpc(idiv._cf_integrand(t, x)) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("x", [1e-3, 1e-6, 1e-8, 1e-10, 1e-12, 1e-200, 0.0])
def test_classical_density_of_a_small_sigma_atom_is_near_gaussian(x):
    """sigma = delta_x of mass 1 gives N(0, 1) as x -> 0, with a gap of about 0.174 x;
    measured 1.742e-9 at x = 1e-8 (4.2e-2 with the quotient form) and 5.9e-15 at 0."""
    xs, dens = classical_idiv_density(LevyTriple.from_parts(1.0, 0.0, [(x, 1.0)]))
    gap = np.abs(dens - np.exp(-xs * xs / 2.0) / math.sqrt(2.0 * math.pi)).max()
    assert gap <= 0.18 * x + 1e-14


def test_flow_closed_form():
    # dF/dt = -1/F from z has solution sqrt(z^2 - 2t)
    for z in ZR:
        got = flow_map(GAUSSIAN, 1.0, z, step=1e-3)
        assert abs(got - sqrt_up(z * z - 2.0)) <= 1e-6


def test_flow_linear_fields():
    drift = LevyTriple.from_parts(1.0, 0.4, [])
    for z in ZR:
        assert flow_map(drift, 1.0, z, step=1e-3) == pytest.approx(z - 0.4, abs=1e-10)
    dilation = LevyTriple.from_parts(0.5, 0.0, [])
    for z in ZR:
        assert flow_map(dilation, 1.0, z, step=1e-3) == pytest.approx(2.0 * z, abs=1e-9)


def test_flow_step_halving_fourth_order():
    def defect(step):
        return max(abs(flow_map(GAUSSIAN, 1.0, z, step=step) - sqrt_up(z * z - 2.0))
                   for z in ZR)

    assert defect(1e-3) <= 1e-6
    # fourth-order halving is only visible where truncation dominates
    # roundoff; at 1e-3 the defect is already ~1e-14
    assert defect(8e-3) / defect(4e-3) >= 8.0


def test_flow_result_shape_and_mass():
    res = monotone_idiv_flow(LevyTriple.from_parts(0.8, 0.1, [(0.0, 0.5)]), 1.0, 1e-3)
    assert res.times == (0.0, 0.5, 1.0)
    assert res.grids[0].values.tolist() == list(ZR)
    assert res.grids[2].mass == pytest.approx(0.8)
    # mass from the slope at iy, y = 1000
    y = 1000.0
    f1 = flow_map(LevyTriple.from_parts(0.8, 0.1, [(0.0, 0.5)]), 1.0, complex(0, y), 1e-3)
    assert abs(complex(0, y) / f1) == pytest.approx(0.8, abs=1e-6)


def test_flow_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        monotone_idiv_flow(GAUSSIAN, 1.0, step=0.1)
    with pytest.raises(ValidationError):
        flow_map(GAUSSIAN, -1.0, 1j)
    with pytest.raises(ValidationError):
        flow_map(GAUSSIAN, 1.0, 1.0 - 1j)
    with pytest.raises(ValidationError):
        flow_map(GAUSSIAN, 1.0, complex(0.0, math.inf))


def test_semigroup_defect_small():
    assert semigroup_defect(GAUSSIAN, 1.0, 1e-3) <= 1e-6
    assert semigroup_defect(POISSON_TYPE, 1.0, 1e-3) <= 1e-6


def test_generator_boolean_link():
    # Phi(z) + E_{boolean law of (1, gamma, sigma)}(z) + log(m) z = 0
    sigma = [(0.5, 0.3), (-1.0, 0.2)]
    for m in (1.0, 0.6):
        triple = LevyTriple.from_parts(m, 0.4, sigma)
        mass_one = boolean_idiv(LevyTriple.from_parts(1.0, 0.4, sigma))
        e = f_transform(mass_one)._e
        for z in ZR:
            val = phi_eval(triple, z) + e(z) + math.log(m) * z
            assert abs(val) <= 1e-10


def test_bp_quadruple_of_gaussian_triple(bernoulli):
    assert weak_distance(boolean_idiv(GAUSSIAN), bernoulli) <= 1e-12
    free = free_idiv(GAUSSIAN)
    for z, v in zip(free.points, free.values):
        assert abs(1.0 / v - (z - sqrt_up(z * z - 4.0)) / 2.0) <= 1e-10
    cf = classical_idiv_cf(GAUSSIAN)
    for t in (0.5, 1.0, 2.0):
        assert cf(t) == pytest.approx(math.exp(-t * t / 2.0))
    for z in ZR:
        assert abs(flow_map(GAUSSIAN, 1.0, z, 1e-3) - sqrt_up(z * z - 2.0)) <= 1e-6


def test_distance_bound_identical():
    db = flow_distance_bound(GAUSSIAN, GAUSSIAN)
    assert db.epsilon == 0.0
    assert db.observed == 0.0


def test_distance_bound_perturbations():
    shifted = LevyTriple.from_parts(1.0, 0.01, [(0.0, 1.0)])
    db = flow_distance_bound(GAUSSIAN, shifted)
    assert db.epsilon == pytest.approx(0.01, rel=1e-9)
    assert db.observed <= 2.0 * db.bound

    damped = LevyTriple.from_parts(
        1.0, 0.0, FiniteAtomicMeasure.from_pairs([(0.0, 0.99)], role=PARAMETER).atoms)
    db2 = flow_distance_bound(GAUSSIAN, damped)
    assert db2.observed <= 2.0 * db2.bound
    assert isinstance(db2, DistanceBound)


def test_flow_invariant_holds_on_stored_grids():
    res = monotone_idiv_flow(LevyTriple.from_parts(0.7, 0.2, [(0.0, 1.0)]), 1.0, 1e-3)
    for t, grid in zip(res.times, res.grids):
        floor = 0.7 ** (-t)
        for z0, v in zip(ZR, grid.values):
            assert v.imag >= floor * z0.imag * (1.0 - 1e-9)


EPS_LINE = np.array(eps_line_grid((-6.0, 6.0), 301, 1e-3))


@pytest.mark.parametrize("triple", [
    GAUSSIAN,
    LevyTriple.from_parts(0.8, 0.2, [(-1.1, 0.3), (0.9, 0.35)]),
    LevyTriple.from_parts(0.6, 0.4, []),  # drift and dilation: no poles
], ids=["gaussian", "two_atoms", "no_poles"])
def test_flow_map_array_matches_scalar(triple):
    got = flow_map(triple, 1.0, EPS_LINE)
    assert got.shape == EPS_LINE.shape
    # the lockstep leg integrates each point on its own, so every third point
    # (x = 0, on the Gaussian's pole, among them) checks it at a third of the cost
    for z, w in zip(EPS_LINE[::3], got[::3]):
        ref = flow_map(triple, 1.0, complex(z))
        assert abs(w - ref) <= 1e-14 * abs(ref)


def test_flow_map_array_inputs():
    z = EPS_LINE[:5]
    assert np.array_equal(flow_map(GAUSSIAN, 0.0, z), z)
    for bad in (0.5 + 0.0j, 0.5 - 1e-3j, complex(math.inf, 1.0), complex(0.0, math.nan)):
        with pytest.raises(ValidationError):
            flow_map(GAUSSIAN, 1.0, np.append(z, bad))


def test_flow_map_array_error_names_start_point():
    # with step 1 only the step caps limit h: 0.1j jumps to t = 0.087, where
    # h |Phi'| = h log 10 = 0.2, in one step and falls below the floor there,
    # before the points with |z| > 1 do
    steep = LevyTriple.from_parts(0.1, 0.0, [])
    with pytest.raises(FlowError, match=re.escape("z0=0.1j")):
        flow_map(steep, 1.0, np.array([10 + 10j, 0.1j, 3 + 1j]), step=1.0)
    with pytest.raises(FlowError, match=re.escape("flow from z0=0.1j:")):
        flow_map(steep, 1.0, 0.1j, step=1.0)


@pytest.mark.parametrize("engine", ["flow_map", "monotone_idiv_flow", "semigroup_defect"])
@pytest.mark.parametrize("t_end, step", [
    (math.inf, 1e-3), (math.nan, 1e-3), (-math.inf, 1e-3),
    (1.0, 0.0), (1.0, -1e-3), (1.0, math.nan), (1.0, math.inf),
])
def test_flows_reject_non_finite_time_and_bad_step(no_hang, engine, t_end, step):
    # unchecked, t_end = inf or step = 0 loops forever and t_end = nan
    # returns the start point unchanged
    call = {"flow_map": lambda: flow_map(GAUSSIAN, t_end, 1j, step=step),
            "monotone_idiv_flow": lambda: monotone_idiv_flow(GAUSSIAN, t_end, step),
            "semigroup_defect": lambda: semigroup_defect(GAUSSIAN, t_end, step)}[engine]
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("bad", [complex(math.nan, 1.0), complex(0.0, math.inf)])
def test_flows_reject_non_finite_start_points(no_hang, bad):
    for call in (lambda: flow_map(GAUSSIAN, 1.0, bad),
                 lambda: flow_map(GAUSSIAN, 1.0, np.array([1j, bad]))):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("engine", ["flow_map", "monotone_idiv_flow", "semigroup_defect"])
@pytest.mark.parametrize("t_end, step", [(1.0, 1e-300), (1e9, 1e-3), (1.0, 0.99e-5)])
def test_flows_cap_their_step_count(no_hang, engine, t_end, step):
    """t_end/step above MAX_FLOW_STEPS raises before the first step."""
    call = {"flow_map": lambda: flow_map(GAUSSIAN, t_end, 1j, step=step),
            "monotone_idiv_flow": lambda: monotone_idiv_flow(GAUSSIAN, t_end, step),
            "semigroup_defect": lambda: semigroup_defect(GAUSSIAN, t_end, step)}[engine]
    with pytest.raises(ValidationError, match=f"more than {idiv.MAX_FLOW_STEPS} RK4 steps"):
        call()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # gamma = 1e300 overflows
@pytest.mark.parametrize("z, z0", [(0.3 + 0.5j, "(0.3+0.5j)"),
                                   (np.array([0.3 + 0.5j, 2.0 + 0.5j]), "(2+0.5j)")],
                         ids=["scalar", "array"])
def test_rk4_legs_stop_at_their_tick_budget(no_hang, monkeypatch, z, z0):
    """Phi of size 1e150 keeps every step near 1e-151, above MIN_RK4_STEP; each
    leg stops at t_end/step + SUBSTEP_TICKS steps and names the start point
    furthest behind."""
    monkeypatch.setattr(idiv, "SUBSTEP_TICKS", 50)
    triple = LevyTriple.from_parts(0.5, 1e150, [(0.3, 1.0)])
    with pytest.raises(FlowError, match=re.escape(f"flow from z0={z0} did not reach "
                                                  "t=1.0 within 1050 RK4 steps")):
        flow_map(triple, 1.0, z)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # gamma = 1e300 overflows
@pytest.mark.parametrize("z, z0", [(0.3 + 0.5j, "(0.3+0.5j)"),
                                   (np.array([0.3 + 0.5j, 2.0 + 0.5j]), "(0.3+0.5j)")],
                         ids=["scalar", "array"])
def test_rk4_legs_fail_a_stalled_point_at_its_first_small_step(monkeypatch, z, z0):
    """Phi of size 1e300 caps h near 1e-301: the leg fails at t = 0, before any step."""
    steps = []
    monkeypatch.setattr(idiv, "_rk4_step", lambda *args: steps.append(args))
    triple = LevyTriple.from_parts(0.5, 1e300, [(0.3, 1.0)])
    with pytest.raises(FlowError, match=re.escape(f"flow from z0={z0} stalled at t=0: its "
                                                  "RK4 steps shrank to h=")):
        flow_map(triple, 1.0, z)
    assert steps == []


@pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
def test_rk4_legs_fail_a_point_whose_state_is_not_finite(array):
    """A hook that turns one point NaN at t = 0.05 stops the leg at that tick."""
    z = np.array([0.3 + 0.5j, -1.0 + 1.0j, 2.0 + 0.5j])

    def poison(w, t, i=None):
        if np.max(t) < 0.045:
            return w
        return complex("nan+nanj") if i is None else np.where(i == 1, np.nan, w)

    with pytest.raises(FlowError, match=re.escape("flow from z0=(-1+1j): F is not finite "
                                                  "at t=0.05")):
        if array:
            idiv._rk4_leg_array(GAUSSIAN, z, 1.0, 0.01, poison)
        else:
            idiv._rk4_leg(GAUSSIAN, complex(z[1]), 1.0, 0.01, poison)


def test_rk4_legs_stay_within_their_tick_budget(monkeypatch):
    """The arcsine law's 301-bin eps-line leg takes 42 steps beyond t_end/step = 5."""
    monkeypatch.setattr(idiv, "SUBSTEP_TICKS", 42)
    monotone_idiv_eval(GAUSSIAN, EPS_LINE)
    monkeypatch.setattr(idiv, "SUBSTEP_TICKS", 41)
    with pytest.raises(FlowError, match="within 46 RK4 steps"):
        monotone_idiv_eval(GAUSSIAN, EPS_LINE)


def test_log1p_minus_x_branches_per_element():
    """The ndarray form equals the np.where form that computes both branches on every
    element, bit for bit, and the scalar form on each element within rounding."""
    x = np.array([0.0, 1e-20j, 0.049, -0.049 + 0.001j, 0.05, 0.3 - 0.2j, -0.9, 5.0 + 3.0j,
                  complex(math.nan, 0.0)])
    small = np.abs(x) < idiv._SERIES_X
    both = np.where(small, idiv._series(np.where(small, x, 0.0)), np.log(1.0 + x) - x)
    got = idiv._log1p_minus_x(x)
    assert got.tobytes() == both.tobytes()
    # an array that takes one branch only, and the corrector's lanes x zeros shape
    for part in (small, ~small):
        assert idiv._log1p_minus_x(x[part]).tobytes() == got[part].tobytes()
    assert idiv._log1p_minus_x(x.reshape(3, 3)).tobytes() == got.tobytes()
    for xi, gi in zip(x[:-1].tolist(), got[:-1].tolist()):
        assert abs(gi - idiv._log1p_minus_x(xi)) <= 1e-15 * max(abs(gi), 1e-300)


# --- the monotone law from the Abel equation -----------------------------------

def _seeded_triple(seed, n_atoms):
    """m = 1 for odd seeds, else m in (0.5, 1); gamma in (-0.5, 0.5); atoms at least 0.3 apart."""
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.uniform(-2.0, 2.0, n_atoms))
    while np.any(np.diff(positions) < 0.3):
        positions = np.sort(rng.uniform(-2.0, 2.0, n_atoms))
    sigma = [(float(p), float(s)) for p, s in zip(positions, rng.uniform(0.1, 0.6, n_atoms))]
    m = 1.0 if seed % 2 else float(rng.uniform(0.5, 1.0))
    return m, float(rng.uniform(-0.5, 0.5)), sigma


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_monotone_idiv_eval_matches_50_digit_oracle(seed):
    """From Im z = 1e-3 beside each atom out to |z| = 10, as an ndarray and point by point.

    Measured: at most 5.2e-16 relative.
    """
    m, gamma, sigma = _seeded_triple(seed, seed)
    triple = LevyTriple.from_parts(m, gamma, sigma)
    points = [complex(p + 0.05, 1e-3) for p, _ in sigma] + [1 + 1j, 10j, -6 + 8j]
    grid = monotone_idiv_eval(triple, np.array(points))
    for z, w in zip(points, grid):
        ref = mp_time_one(m, gamma, sigma, z, w)
        assert abs(w - ref) <= 1e-12 * abs(ref)
        assert abs(monotone_idiv_eval(triple, z) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("m", [1.0, 1.0 - 1e-9])
@pytest.mark.parametrize("gamma", [1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12, 0.0,
                                   1e-17])
def test_monotone_idiv_eval_near_the_far_zero_limit(m, gamma):
    """m = 1 and gamma' -> 0, where a zero of Phi runs off to infinity.

    sum s p = 0 exactly, so gamma' = gamma.  1e-17 is the size of a gamma'
    that rounding leaves where it should cancel; there the eigen-solve alone
    lands nowhere near the zeros.  Measured: at most 3.4e-16 relative
    against the 50-digit oracle.
    """
    sigma = [(-1.0, 0.25), (0.5, 0.5)]
    triple = LevyTriple.from_parts(m, gamma, sigma)
    points = [complex(-0.95, 1e-3), 2 + 2j]
    for z, w in zip(points, monotone_idiv_eval(triple, np.array(points))):
        ref = mp_time_one(m, gamma, sigma, z, w)
        assert abs(w - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("m, gamma, sigma", [
    (1.0, 0.0, [(0.0, s)]) for s in (1e-6, 1e-8, 1e-10, 1e-12)
] + [(1.0, lam / 2.0, [(1.0, lam / 2.0)]) for lam in (1e-7, 1e-9)],
    ids=["sigma_1e-6", "sigma_1e-8", "sigma_1e-10", "sigma_1e-12", "poisson_1e-7",
         "poisson_1e-9"])
def test_monotone_idiv_eval_accepts_the_rounding_floor_of_a_small_phi(m, gamma, sigma):
    """Triples whose Phi is small: d(F_1) - 1 carries the rounding of (w - z)/Phi(z),
    about eps max(|z|, |F_1|)/|Phi(z)|, which passes ABEL_RESIDUAL (1.06e-9 at
    sigma = 1e-6 delta_0 on Im z = 1e-3), and the check accepts that floor.

    The values are right: measured, at most 1.3e-16 relative from the 50-digit
    oracle on ZR and 61 points of Im z = 1e-3.
    """
    triple = LevyTriple.from_parts(m, gamma, sigma)
    points = np.concatenate((np.array(ZR), eps_line_grid((-6.0, 6.0), 61, 1e-3)))
    phi = idiv._phi(triple)
    for z, w in zip(points.tolist(), monotone_idiv_eval(triple, points).tolist()):
        ref = mp_time_one(m, gamma, sigma, z, z + phi(z))
        assert abs(w - ref) <= 4e-16 * abs(ref)


@pytest.mark.parametrize("v", [0.5, 1.0, 1.7])
def test_monotone_idiv_eval_arcsine(v):
    """(1, 0, v delta_0): Phi = -v/z, so F_1(z) = sqrt(z^2 - 2v), taken at 30 digits.

    Near x^2 = 2v that root is ill-conditioned: a rounding of z moves it by
    |z|^2/|z^2 - 2v| relative, up to 1.2e-14 on this grid.  So the gap is
    measured against max(|z|, |F_1|): at most 1.1e-15.
    """
    triple = LevyTriple.from_parts(1.0, 0.0, [(0.0, v)])
    z = np.concatenate((EPS_LINE, ZR))
    with mpmath.workdps(30):
        exact = np.array([complex(mpmath.sqrt(mpmath.mpc(w) ** 2 - 2 * mpmath.mpf(v))) for w in z])
    exact = np.where(exact.imag > 0, exact, -exact)
    gap = np.abs(monotone_idiv_eval(triple, z) - exact)
    assert np.all(gap <= 1e-14 * np.maximum(np.abs(z), np.abs(exact)))


def _random_triples():
    """Sixty triples from random.Random(7): m in [0.3, 1], gamma in [-1, 1], and 1-4 atoms
    of sigma with positions in [-3, 3] and weights in [0.05, 1]."""
    rng = random.Random(7)
    triples = []
    for _ in range(60):
        m, gamma = rng.uniform(0.3, 1.0), rng.uniform(-1.0, 1.0)
        triples.append((m, gamma, [(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 1.0))
                                   for _ in range(rng.randint(1, 4))]))
    return triples


#: the ten of them whose sweeps at eps = 1e-8 left C+ while each step was capped by
#: the distance to Phi's poles, not by 0.2/|Phi'|; the first six also did at 1e-5
STIFF_DRAWS = (5, 13, 19, 37, 45, 48, 20, 22, 39, 55)


@pytest.mark.parametrize("eps", [1e-5, 1e-8])
def test_monotone_sweeps_hold_next_to_a_stiff_zero_of_phi(eps):
    """Every 301-bin sweep on [-6, 6] completes, and three match the 50-digit oracle.

    Between two close poles Phi has a real zero q where Phi'(q) is large (23
    to 57,000 on these draws); the flow leaves q at that rate, and an RK4 step
    that no cap shortens there misses Psi by O(1).  The checked bin is the
    one beside the zero with the largest Phi'.  Measured: at most 8.8e-12
    relative (draw 55 at 1e-5, where the sweep's own Abel residual reads
    6e-15).
    """
    z, draws = eps_line_grid((-6.0, 6.0), 301, eps), _random_triples()
    for j in STIFF_DRAWS:
        m, gamma, sigma = draws[j]
        triple = LevyTriple.from_parts(m, gamma, sigma)
        w = monotone_idiv_eval(triple, z)
        if j in (13, 37, 55):
            q = np.array(triple._abel[0])
            i = int(np.argmin(np.abs(z.real - q[np.argmax(phi_deriv(triple, q))])))
            ref = mp_time_one(m, gamma, sigma, complex(z[i]), complex(w[i]))
            assert abs(w[i] - ref) <= 2e-11 * abs(ref)


@pytest.mark.parametrize("triple", [
    GAUSSIAN,
    LevyTriple.from_parts(0.8, 0.2, [(-1.1, 0.3), (0.9, 0.35)]),
], ids=["gaussian", "two_atoms"])
def test_rk4_flow_agrees_with_the_abel_flow_within_its_own_error(triple):
    """RK4 at step 1e-3 against the Abel flow.

    On ZR the gap is within RK4's step-halving estimate |F_h - F_{h/2}| 16/15
    (measured: at most a third of it, and 4.2e-15 relative).  On the eps
    line the cap h |Phi'| <= 0.2 sets RK4's steps near the poles whatever h,
    so halving h cannot see its error there; the gap is at most 1.2e-7
    relative.
    """
    z = np.array(ZR)
    abel, rk4 = monotone_idiv_eval(triple, z), flow_map(triple, 1.0, z)
    estimate = np.abs(rk4 - flow_map(triple, 1.0, z, step=5e-4)) * 16.0 / 15.0
    assert np.all(np.abs(rk4 - abel) <= estimate + 1e-15 * np.abs(abel))
    z = EPS_LINE[::10]
    abel, rk4 = monotone_idiv_eval(triple, z), flow_map(triple, 1.0, z)
    assert np.all(np.abs(rk4 - abel) <= 1e-6 * np.abs(abel))


def test_monotone_idiv_eval_edge_triples():
    z = np.array([1j, 0.3 + 1e-3j])
    assert np.array_equal(monotone_idiv_eval(LevyTriple.from_parts(1.0, 0.0, []), z), z)
    drift = LevyTriple.from_parts(1.0, 0.4, [])
    assert np.allclose(monotone_idiv_eval(drift, z), z - 0.4, rtol=0, atol=1e-15)
    dilation = LevyTriple.from_parts(0.5, 0.0, [])
    assert monotone_idiv_eval(dilation, 1j) == pytest.approx(2j, abs=1e-15)
    assert monotone_idiv_eval(GAUSSIAN, z.reshape(2, 1)).shape == (2, 1)
    for bad in (0.5 + 0.0j, 0.5 - 1e-3j, complex(math.nan, 1.0)):
        with pytest.raises(ValidationError):
            monotone_idiv_eval(GAUSSIAN, np.append(z, bad))


def _per_zero_correction(triple, z, w, t):
    """ABEL_CORRECTIONS Newton steps on d(w) = t with d summed zero by zero."""
    q, r, k = triple._abel
    phi = idiv._phi(triple)
    phi_z = phi(z)

    def d(w):
        u = w - z
        acc = u / phi_z - k * u * u
        for qj, rj in zip(q, r):
            acc = acc + rj * idiv._log1p_minus_x(u / (z - qj))
        return acc

    for _ in range(idiv.ABEL_CORRECTIONS):
        w = w - (d(w) - t) * phi(w)
    return w, d


@pytest.mark.parametrize("triple", [
    *(LevyTriple.from_parts(*_seeded_triple(seed, 1 + seed % 3)) for seed in range(1, 7)),
    GAUSSIAN,
    LevyTriple.from_parts(0.7, 0.3, []),
    LevyTriple.from_parts(1.0, 0.3, []),
], ids=[*(f"seed_{seed}" for seed in range(1, 7)), "gaussian", "empty_m_below_1", "empty_m_1"])
def test_the_batched_abel_correction_is_the_per_zero_loop(triple):
    """One lanes x zeros pass per correction, bit for bit the sum zero by zero.

    m = 1 for odd seeds and m < 1 for even ones, with 1-3 atoms; the Gaussian
    has k != 0; an empty sigma has one zero at m < 1 and none at m = 1.  The
    predictor is one RK4 step of 0.2 from the eps line and ZR, and every
    other lane is corrected, as a lockstep tick gathers its running lanes.
    """
    z = np.concatenate((EPS_LINE, ZR))
    phi = idiv._phi(triple)
    w = idiv._rk4_step(phi, z, 1e-3, phi(z))
    correct, d, _ = idiv._abel_corrector(triple, z)
    i = np.arange(0, z.size, 2)
    want = _per_zero_correction(triple, z[i], w[i], 1e-3)[0]
    assert correct(w[i], 1e-3, i).tobytes() == want.tobytes()
    # + 0.0 turns -0 into +0: at k = 0 the batched d drops the -0 u^2 term, which
    # can flip the sign of a zero part of d (the drift's real d), and of nothing else
    d_loop = _per_zero_correction(triple, z, w, 1e-3)[1]
    assert (d(w) + 0.0).tobytes() == (d_loop(w) + 0.0).tobytes()


def test_phi_at_mass_one_drops_its_zero_z_term():
    """-E alone is -E - 0 z bit for bit; an empty sigma keeps z's shape."""
    z = np.concatenate((EPS_LINE, ZR))
    for triple in (GAUSSIAN, POISSON_TYPE, LevyTriple.from_parts(1.0, -0.2, [(-1.0, 0.3),
                                                                            (0.5, 0.4)])):
        assert idiv._phi(triple)(z).tobytes() == (-triple._e(z) - 0.0 * z).tobytes()
    drift = idiv._phi(LevyTriple.from_parts(1.0, 0.4, []))(z)
    assert drift.shape == z.shape and np.all(drift == -0.4)


def test_an_abel_sweep_makes_two_one_pass_corrections_per_tick(monkeypatch):
    """The work of the 301-bin sweeps, counted: a change that adds corrector work fails here.

    The arcsine law's sweep takes 47 ticks (test_rk4_legs_stay_within_their
    _tick_budget), and each tick makes one ``correct`` call of two Newton
    steps.  The RK4 leg takes k1 = Phi(w) and the step cap's Phi'(w) from one
    pass per tick and 3 Phi evaluations for k2..k4; the corrector takes 2
    per tick plus Phi(z).  A three-atom sweep at m < 1 takes 41 ticks;
    its Phi has four zeros, and each correction and the final residual
    check make one ``_log1p_minus_x`` pass over all of them.
    """
    abel_corrector, log1p_minus_x = idiv._abel_corrector, idiv._log1p_minus_x
    corrections, phi_calls, passes = [], [], []

    def counted_corrector(triple, z):
        correct, *rest = abel_corrector(triple, z)
        return (lambda w, t, i: corrections.append(i.size) or correct(w, t, i)), *rest

    def counted(phi_of):
        def closure(triple):
            phi, calls = phi_of(triple), [phi_of.__name__, 0]
            phi_calls.append(calls)

            def call(z):
                calls[1] += 1
                return phi(z)

            return call

        return closure

    def counted_log1p_minus_x(x):
        passes.append(np.shape(x))
        return log1p_minus_x(x)

    monkeypatch.setattr(idiv, "_abel_corrector", counted_corrector)
    monkeypatch.setattr(idiv, "_phi", counted(idiv._phi))
    monkeypatch.setattr(idiv, "_phi_and_prime", counted(idiv._phi_and_prime))
    monkeypatch.setattr(idiv, "_log1p_minus_x", counted_log1p_minus_x)
    monotone_idiv_eval(GAUSSIAN, EPS_LINE)
    assert idiv.ABEL_CORRECTIONS == 2 and len(corrections) == 47
    # the corrector, then the leg's k2..k4 and its one k1-and-Phi' pass a tick
    assert phi_calls == [["_phi", 1 + 2 * 47], ["_phi", 3 * 47], ["_phi_and_prime", 47]]
    assert passes == []  # Phi = -v/z has no zero
    corrections.clear()
    three_atoms = LevyTriple.from_parts(0.8, 0.1, [(-1.5, 0.3), (0.1, 0.3), (1.5, 0.3)])
    monotone_idiv_eval(three_atoms, EPS_LINE)
    assert len(corrections) == 41
    assert len(passes) == 2 * 41 + 1
    assert {shape[1] for shape in passes} == {4}
    assert passes[-1] == (EPS_LINE.size, 4)


def test_monotone_idiv_eval_raises_when_the_corrector_cannot_settle(no_hang, monkeypatch):
    abel_corrector = idiv._abel_corrector

    def unsettled(triple, z):
        correct, *rest = abel_corrector(triple, z)
        return (lambda w, t, i=None: correct(w, t, i) + 1e-6), *rest

    monkeypatch.setattr(idiv, "_abel_corrector", unsettled)
    with pytest.raises(FlowError, match=re.escape("z0=(0.3+0.001j)")):
        monotone_idiv_eval(POISSON_TYPE, 0.3 + 1e-3j)
    with pytest.raises(FlowError, match=re.escape("z0=(-2+1j)")):
        monotone_idiv_eval(POISSON_TYPE, np.array([-2 + 1j, 3 + 1j]))


def _mp_monotone_atom(m, gamma, sigma):
    """(x0, weight) of the monotone law's one atom at 30 digits; None when 0 is an atom of sigma.

    F_1 vanishes at x0 = F_{-1}(0), the root of Psi(x) = Psi(0) - 1 on the
    interval between zeros of Phi around 0, where the real flow runs back
    from 0 for time one; the weight is 1/F_1'(x0) = Phi(x0)/Phi(0).  A float
    RK4 run of dx/dt = -Phi(x) gives the start, and findroot solves the
    integral of 1/Phi from 0 to x = -1.  When Phi(0) = 0, 0 is a fixed
    point with F_1'(0) = e^{Phi'(0)}.
    """
    if any(p == 0.0 for p, _ in sigma):
        return None
    with mpmath.workdps(30):
        phi = mp_phi(m, gamma, sigma)
        phi0 = phi(mpmath.mpf(0))
        if phi0 == 0:
            return 0.0, float(mpmath.exp(-mpmath.diff(phi, 0)))
        back = lambda x: -float(phi(mpmath.mpf(x)))
        x, h = 0.0, 1e-2
        for _ in range(100):
            k1 = back(x)
            k2 = back(x + 0.5 * h * k1)
            k3 = back(x + 0.5 * h * k2)
            x += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + back(x + h * k3))
        x0 = mpmath.findroot(lambda x: mpmath.quad(lambda t: 1 / phi(t), [0, x]) + 1, x,
                             df=lambda x: 1 / phi(x), solver="newton")
        return float(x0), float(phi(x0) / phi0)


def _density_like_triple(seed):
    """(m, gamma, sigma) drawn like the ``density`` benchmark's random triples."""
    rng = random.Random(seed)
    bands = {1: ((-1.5, 1.5),), 2: ((-2.0, -0.5), (0.5, 2.0)),
             3: ((-2.0, -1.0), (-0.5, 0.5), (1.0, 2.0))}[1 + seed % 3]
    sigma = [(rng.uniform(lo, hi), rng.uniform(0.2, 0.4)) for lo, hi in bands]
    return rng.uniform(0.5, 1.0), rng.uniform(-0.3, 0.3), sigma


@pytest.mark.parametrize("seed", range(8))
def test_monotone_sweep_atoms_match_the_abel_atom(tmp_path, seed):
    """A 301-bin ``idiv --op monotone`` sweep writes the oracle's atom when it weighs
    more than 0.1 (all but seed 5's 0.029), and nothing else."""
    m, gamma, sigma = _density_like_triple(seed)
    out = tmp_path / "sweep"
    assert cli.main(["idiv", "--op", "monotone", "--m", repr(m), "--gamma=" + repr(gamma),
                     "--sigma=" + ",".join(f"{p!r}:{s!r}" for p, s in sigma),
                     "--bins", "301", "--output", str(out)]) == 0
    with open(f"{out}_atoms.json", encoding="utf-8") as fh:
        found = json.load(fh)["atoms"]
    x, w = _mp_monotone_atom(m, gamma, sigma)
    assert len(found) == (w > 0.1)
    for y, v in found:
        assert abs(y - x) <= 4e-15
        assert abs(v - w) <= 1e-13 * w


@pytest.mark.parametrize("m, gamma, sigma, weight", [
    (1.0, 0.0, [(0.0, 1.0)], None),                  # 0 in supp sigma: no atom
    (0.7, 0.1, [(0.0, 0.3), (1.2, 0.2)], None),
    (0.8, 0.3, [(1.0, 0.3)], 0.8 * math.exp(-0.6)),  # Phi(0) = 0: e^{-Phi'(0)}
    (0.9, 0.0, [(-1.0, 0.2), (2.0, 0.4)], 0.9 * math.exp(-0.9)),
    (1.0, 0.0, [], 1.0),                             # Phi = 0: the Dirac mass at 0
])
def test_monotone_atom_oracle_edge_cases(m, gamma, sigma, weight):
    """The oracle and the closed form on the edge cases of the atom.

    In the fourth case Phi(0) = 0 holds in exact arithmetic, and the float
    sum that the closed form tests for it reads exactly 0 as well.
    """
    atom = _mp_monotone_atom(m, gamma, sigma)
    closed = monotone_idiv_atom(LevyTriple.from_parts(m, gamma, sigma))
    if weight is None:
        assert atom is None and closed is None
    else:
        assert atom[0] == 0.0 and atom[1] == pytest.approx(weight, rel=1e-14)
        assert closed[0] == 0.0 and closed[1] == pytest.approx(weight, rel=1e-14)


@pytest.mark.parametrize("seed", range(40))
def test_monotone_idiv_atom_matches_the_abel_oracle(seed):
    """The bisected root of Psi(x) = Psi(0) - 1 against the 30-digit oracle.

    Measured on seeds 0-39: positions within 5.6e-16, weights within
    6.1e-15 relative.
    """
    m, gamma, sigma = _density_like_triple(seed)
    x, w = monotone_idiv_atom(LevyTriple.from_parts(m, gamma, sigma))
    y, v = _mp_monotone_atom(m, gamma, sigma)
    assert abs(x - y) <= 4e-15
    assert abs(w - v) <= 1e-13 * v


@pytest.mark.parametrize("m", [0.9, 1.0])
@pytest.mark.parametrize("gamma", [2e-16, -2e-16, 3e-15, -3e-15, 3e-13, -3e-13, 3e-11])
def test_monotone_idiv_atom_with_phi0_near_rounding(m, gamma):
    """Phi(0) = -gamma here, Phi(0) = 0 at gamma = 0 in exact arithmetic; the nearest
    zero of Phi lies within a few roundings of 0 as well.

    The Abel difference based at 0 and the quotient Phi(x0)/Phi(0) divide
    rounding by rounding there: weights off by up to 163%, and atoms of
    weight 0.37 lost.  Measured on 220 such triples (gamma = +-{1, 2, 3, 5,
    7} 10^-17 ... 10^-7): weights within 3.8e-14 relative.
    """
    sigma = [(-1.0, 0.2), (2.0, 0.4)]
    x, w = monotone_idiv_atom(LevyTriple.from_parts(m, gamma, sigma))
    y, v = _mp_monotone_atom(m, gamma, sigma)
    assert abs(x - y) <= 1e-15 * max(1.0, abs(y))
    assert abs(w - v) <= 1e-13 * v


def test_monotone_idiv_atom_without_a_zero_of_phi_on_its_side():
    """Where Phi keeps its sign beyond 0 the bracket doubles: drift, and a far drift."""
    assert monotone_idiv_atom(LevyTriple.from_parts(1.0, 0.4, [])) == (0.4, 1.0)
    triple = LevyTriple.from_parts(1.0, -3.0, [(1.0, 0.2)])  # Phi(0) > 0, one zero at 8/7
    assert not [q for q in triple._abel[0] if q < 0.0]
    atom, ref = monotone_idiv_atom(triple), _mp_monotone_atom(1.0, -3.0, [(1.0, 0.2)])
    assert abs(atom[0] - ref[0]) <= 4e-15 * abs(ref[0])
    assert abs(atom[1] - ref[1]) <= 1e-13 * ref[1]


def _mp_free_atom(gamma, sigma, delta=mpmath.mpf("1e-25")):
    """(x0, weight) of the free law's atom at 60 digits, or None.

    x0 = gamma' - sum c/p, and the weight is the limit of (z - x0) G(z) at
    z = x0 + i delta as delta -> 0, read at delta = 1e-25: G = 1/F with F
    the 60-digit root of w - (z - gamma') + sum c/(w - p) = 0 near i delta
    (F is about i delta, so 40 digits would leave it unconverged).  That
    root is F only when it lies in C+; else F stays away from 0 and the law
    has no atom.  When 0 is a pole of phi, F does not vanish either.
    """
    if any(x == 0.0 for x, _ in sigma):
        return None
    with mpmath.workdps(60):
        p = [mpmath.mpf(x) for x, _ in sigma]
        c = [mpmath.mpf(s) * (1 + x * x) for x, (_, s) in zip(p, sigma)]
        shift = gamma + mpmath.fsum(x * mpmath.mpf(s) for x, (_, s) in zip(p, sigma))
        x0 = shift - mpmath.fsum(ck / x for x, ck in zip(p, c))
        w = mp_upper_root(x0 + 1j * delta, shift, p, c, 1j * delta, 60)
        if not w.imag > 0:
            return None
        return float(x0), float((1j * delta / w).real)


@pytest.mark.parametrize("seed", range(40))
def test_free_idiv_atom_matches_the_residue_oracle(seed):
    """x0 = phi(0) and 1 + phi'(0) against (z - x0) G(z) as z -> x0, at 60 digits.

    The density-like triples at m = 1; measured on seeds 0-39: the same 23
    seeds without an atom, positions within 1.1e-16 and weights within
    1.7e-16.  The weight bound is absolute: 1 - sum c/p^2 sums terms below
    1, and cancels down to weights as small as 0.0036.
    """
    _, gamma, sigma = _density_like_triple(seed)
    atom = free_idiv_atom(LevyTriple.from_parts(1.0, gamma, sigma))
    ref = _mp_free_atom(gamma, sigma)
    assert (atom is None) == (ref is None)
    if ref is not None:
        assert abs(atom[0] - ref[0]) <= 4e-16
        assert abs(atom[1] - ref[1]) <= 5e-16


@pytest.mark.parametrize("gamma, sigma, want", [
    (0.5, [], (0.5, 1.0)),                     # no sigma: the Dirac mass at gamma
    (0.0, [(0.0, 1.0)], None),                 # 0 a pole of phi: the semicircle
    (0.3, [(1.0, 0.3)], (0.0, pytest.approx(0.4))),  # free Poisson of rate 0.6
    (0.8, [(1.0, 0.8)], None),                 # rate 1.6: weight 1 - 1.6 < 0
    (0.5, [(1.0, 0.5)], None),                 # rate 1: weight 0
])
def test_free_idiv_atom_edge_cases(gamma, sigma, want):
    triple = LevyTriple.from_parts(1.0, gamma, sigma)
    assert free_idiv_atom(triple) == want
    if want is not None:
        assert want == _mp_free_atom(gamma, sigma)


def test_free_idiv_atom_needs_mass_one():
    with pytest.raises(ValidationError, match="m = 1"):
        free_idiv_atom(LevyTriple.from_parts(0.5, 0.0, []))
