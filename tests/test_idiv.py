import cmath
import math
import re

import numpy as np
import pytest

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
    free_idiv_eval,
    monotone_idiv_flow,
    phi_deriv,
    phi_eval,
    semigroup_defect,
)
from ncprob.measures import FiniteAtomicMeasure, PARAMETER
from ncprob.transforms import ZR, e_transform, eps_line_grid, weak_distance

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
    grid = free_idiv(GAUSSIAN, points=(1j,))
    g_at_i = 1.0 / grid.values[0]
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
    assert res.grids[0].values == ZR
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
        e = e_transform(mass_one)
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
        1.0, 0.0, FiniteAtomicMeasure.dirac(0.0, 0.99, role=PARAMETER).atoms)
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
    # with step 1 only the sub-step cap limits h: 0.1j jumps to t = 0.43 in one
    # step and falls below the floor there, before the points with |z| > 1 do
    steep = LevyTriple.from_parts(0.1, 0.0, [])
    with pytest.raises(FlowError, match=re.escape("z0=0.1j")):
        flow_map(steep, 1.0, np.array([10 + 10j, 0.1j, 3 + 1j]), step=1.0)
    with pytest.raises(FlowError):
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
    for call in (lambda: monotone_idiv_flow(GAUSSIAN, 1.0, points=(1j, bad)),
                 lambda: semigroup_defect(GAUSSIAN, 1.0, points=(1j, bad))):
        with pytest.raises(ValidationError):
            call()
