import cmath
import json
import math

import pytest

from conftest import mp_time_one
from ncprob.errors import ValidationError
from ncprob.harness import (
    ArraySpec,
    DEFAULT_NS,
    _resolve_target,
    bp_crosscheck,
    chernoff_residual,
    condition_e,
    run_powers,
    subprobability_equivalence,
    tightness_diagnostics,
)
from ncprob.idiv import LevyTriple, flow_map
from ncprob.measures import FiniteAtomicMeasure
from ncprob.transforms import TransformGrid, ZR, weak_distance

GAUSSIAN = LevyTriple.from_parts(1.0, 0.0, [(0.0, 1.0)])


def sqrt_up(w):
    s = cmath.sqrt(w)
    return s if s.imag > 0 else -s


def arcsine_sqrt2_grid():
    return TransformGrid.sample(lambda z: sqrt_up(z * z - 2.0), ZR, "F", mass=1.0)


def test_spec_validation():
    with pytest.raises(ValidationError):
        ArraySpec.bernoulli_clt(n_values=(32, 16))
    with pytest.raises(ValidationError):
        ArraySpec(name="x", n_values=(4, 8), measure_fn=lambda n: None,
                  k_table=((4, 5), (8, 5)))


def test_condition_e_bernoulli():
    spec = ArraySpec.bernoulli_clt()
    for n in (16, 256):
        gamma_n, sigma_n = condition_e(spec, n)
        assert gamma_n == pytest.approx(0.0, abs=1e-15)
        assert sigma_n.mass == pytest.approx(n / (n + 1.0), rel=1e-14)
        assert sigma_n.positions == (
            pytest.approx(-1.0 / math.sqrt(n)), pytest.approx(1.0 / math.sqrt(n)))


def test_condition_e_poisson():
    spec = ArraySpec.poisson(1.0)
    gamma_n, sigma_n = condition_e(spec, 64)
    assert gamma_n == pytest.approx(0.5, rel=1e-14)  # exactly n (1/n) (1/2)
    assert sigma_n.atoms == ((1.0, pytest.approx(0.5, rel=1e-14)),)


def test_condition_e_dirac_array():
    spec = ArraySpec.custom({n: FiniteAtomicMeasure.dirac(0.0) for n in (2, 4)},
                            limit=GAUSSIAN)
    gamma_n, sigma_n = condition_e(spec, 4)
    assert gamma_n == 0.0
    assert sigma_n.is_zero


def test_boolean_clt_exact():
    spec = ArraySpec.bernoulli_clt()
    rep = run_powers(spec, "boolean", GAUSSIAN)
    assert all(d <= 1e-12 for d in rep.distances)
    assert rep.converged


def test_monotone_clt_against_closed_form():
    spec = ArraySpec.bernoulli_clt()
    rep = run_powers(spec, "monotone", arcsine_sqrt2_grid())
    assert rep.distances[-1] <= 0.05
    assert rep.converged
    # decreasing in n over the horizon
    for a, b in zip(rep.distances, rep.distances[1:]):
        assert b < a


@pytest.mark.parametrize("spec", [ArraySpec.bernoulli_clt(), ArraySpec.fixed()],
                         ids=lambda spec: spec.name)
def test_monotone_target_is_the_arcsine_law(spec):
    """The monotone law of (1, 0, delta_0), the grid run_powers compares against.

    Measured: 4.4e-16 from sqrt(z^2 - 2) on ZR (RK4 at step 1e-3: 9.8e-15).
    """
    target, want = _resolve_target("monotone", spec.limit), arcsine_sqrt2_grid()
    assert (target.points, target.kind, target.mass) == (want.points, "F", 1.0)
    assert max(abs(a - b) for a, b in zip(target.values, want.values)) <= 2e-15


@pytest.mark.parametrize("spec", [
    ArraySpec.poisson(1.0),
    ArraySpec.damped_poisson(0.5, 0.2),
    ArraySpec.damped_poisson(2.0, 1.5),
    ArraySpec.damped_poisson(1.0, math.log(100.0)),
], ids=lambda spec: spec.name)
def test_monotone_target_matches_50_digit_oracle(spec):
    """The limit triples of the Poisson arrays, with m down to 0.01.

    0.01 is the least mass^k that subprobability_equivalence accepts.  Far
    out, F_1 moves by Phi(F_1) ~ -log(m) F_1 per unit of Psi, so the rounding
    of Psi costs a relative error that grows with |log m|.  Measured over 29
    damped triples: at most 2.1e-16 relative at m = 1 and 3.1e-14 at
    m = 0.01 (RK4 at step 1e-3: 1.8e-11).
    """
    triple = spec.limit
    target = _resolve_target("monotone", triple)
    assert target.mass == triple.m
    bound = 1e-15 * (1.0 - 20.0 * math.log(triple.m))
    for z, w in zip(target.points, target.values):
        ref = mp_time_one(triple.m, triple.gamma, triple.sigma.atoms, z, w)
        assert abs(w - ref) <= bound * abs(ref)


def test_poisson_boolean_power_converges():
    spec = ArraySpec.poisson(1.0)
    target = LevyTriple.from_parts(1.0, 0.5, [(1.0, 0.5)])
    rep = run_powers(spec, "boolean", target)
    assert rep.converged
    assert rep.distances[-1] <= 0.05
    for a, b in zip(rep.distances, rep.distances[1:]):
        assert b < a


def test_chernoff_residual_bernoulli():
    spec = ArraySpec.bernoulli_clt()
    assert chernoff_residual(spec, GAUSSIAN, 256) <= 0.01


def test_chernoff_residual_flow_roots_halve():
    spec = ArraySpec.flow_root(GAUSSIAN, n_values=(32, 64, 128, 256))
    res = {n: chernoff_residual(spec, GAUSSIAN, n) for n in spec.n_values}
    for n in (32, 64, 128):
        assert 0.4 <= res[2 * n] / res[n] <= 0.6


def test_chernoff_residual_dirac_zero():
    spec = ArraySpec.custom({n: FiniteAtomicMeasure.dirac(0.0) for n in (8, 16)},
                            limit=LevyTriple.from_parts(1.0, 0.0, []))
    assert chernoff_residual(spec, LevyTriple.from_parts(1.0, 0.0, []), 16) <= 1e-14


def test_bp_crosscheck_bernoulli():
    rep = bp_crosscheck(ArraySpec.bernoulli_clt())
    assert rep["agreement"] and rep["all_converged"]
    assert rep["condition_e"]["converged"]


def test_bp_crosscheck_poisson():
    rep = bp_crosscheck(ArraySpec.poisson(1.0))
    assert rep["agreement"] and rep["all_converged"]


def test_bp_crosscheck_fixed_array_all_fail():
    rep = bp_crosscheck(ArraySpec.fixed())
    assert rep["agreement"] and not rep["all_converged"]
    for op, r in rep["ops"].items():
        assert not r["converged"]
        assert min(row["distance"] for row in r["rows"]) >= 0.1


def test_subprobability_damped_poisson():
    rep = subprobability_equivalence(ArraySpec.damped_poisson())
    assert rep["agreement"] and rep["both_converged"]
    assert rep["mass_limit"]["target"] == pytest.approx(math.exp(-1.0))


def test_subprobability_mass_one_reduces():
    spec = ArraySpec.poisson(1.0)
    rep = subprobability_equivalence(
        spec, LevyTriple.from_parts(1.0, 0.5, [(1.0, 0.5)]))
    assert rep["agreement"] and rep["both_converged"]


def test_subprobability_collapsing_mass_rejected():
    half = FiniteAtomicMeasure.dirac(0.0, 0.5)
    spec = ArraySpec.custom({n: half for n in (2, 4, 8)},
                            limit=LevyTriple.from_parts(0.5, 0.0, []))
    with pytest.raises(ValidationError):
        subprobability_equivalence(spec)


def test_broken_array_both_fail():
    rep = subprobability_equivalence(ArraySpec.damped_poisson(shift_scale=1.0))
    assert rep["agreement"] and not rep["both_converged"]
    assert not rep["ops"]["boolean"]["converged"]
    assert not rep["ops"]["monotone"]["converged"]


def test_tightness_diagnostics():
    spec = ArraySpec.bernoulli_clt()
    rows = tightness_diagnostics(spec, 256, (10.0,))
    assert rows[0]["ok"]

    pspec = ArraySpec.poisson(1.0)
    prow = tightness_diagnostics(pspec, 256, (5.0, 10.0, 20.0))
    assert all(r["ok"] for r in prow)
    ratios = [r["right_over_y"] for r in prow]
    assert ratios[0] > ratios[1] > ratios[2]

    dirac_spec = ArraySpec.custom(
        {n: FiniteAtomicMeasure.dirac(0.0) for n in (4, 8)}, limit=GAUSSIAN)
    drow = tightness_diagnostics(dirac_spec, 8, (5.0,))
    assert abs(drow[0]["im_left"]) <= 1e-12 and abs(drow[0]["im_right"]) <= 1e-12


def test_flow_root_power_matches_flow():
    spec = ArraySpec.flow_root(GAUSSIAN, n_values=(16, 32))
    rep = run_powers(spec, "monotone", GAUSSIAN)
    assert rep.converged
    assert rep.distances[-1] <= 1e-4


def test_reports_reproducible():
    a = bp_crosscheck(ArraySpec.poisson(1.0))
    b = bp_crosscheck(ArraySpec.poisson(1.0))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_k_table_override():
    table = tuple((n, 2 * n) for n in (4, 8, 16))
    spec = ArraySpec(
        name="bern", n_values=(4, 8, 16),
        measure_fn=lambda n: FiniteAtomicMeasure.from_pairs(
            [(-1.0 / math.sqrt(2 * n), 0.5), (1.0 / math.sqrt(2 * n), 0.5)]),
        k_table=table, limit=GAUSSIAN)
    rep = run_powers(spec, "boolean", GAUSSIAN)
    assert all(d <= 1e-12 for d in rep.distances)
