import cmath
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import mp_power, mp_time_one
from ncprob.errors import ConvergenceError, ValidationError
from ncprob.harness import (
    ArraySpec,
    DEFAULT_NS,
    _resolve_target,
    bp_crosscheck,
    chernoff_residual,
    condition_e,
    run_powers,
    subprobability_equivalence,
)
from ncprob.idiv import LevyTriple, flow_map
from ncprob.measures import FiniteAtomicMeasure
from ncprob.transforms import (
    NevanlinnaData,
    TransformGrid,
    ZR,
    f_powers,
    f_transform,
    weak_distance,
)

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


def test_flow_root_power_matches_flow():
    spec = ArraySpec.flow_root(GAUSSIAN, n_values=(16, 32))
    rep = run_powers(spec, "monotone", GAUSSIAN)
    assert rep.converged
    assert rep.distances[-1] <= 1e-4


def test_flow_root_rows_follow_the_k_table():
    # row n is the limit's flow at t = 1/k_n, so k_n-fold powers land on the time-one map
    damped = LevyTriple.from_parts(0.8, 0.1, [(0.0, 0.5)])
    spec = dataclasses.replace(ArraySpec.flow_root(damped, n_values=(16, 32)),
                               k_table=((16, 32), (32, 64)))
    assert spec.mass_of(16) == 0.8 ** (1.0 / 32)
    rep = run_powers(spec, "monotone", damped)
    assert rep.ks == (32, 64)
    assert max(rep.distances) <= 1e-12


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


def _per_point_power(f, k, points=ZR):
    """Reference monotone power: f composed k times, one scalar call per point and iteration."""
    out = []
    for z in points:
        w = complex(z)
        for _ in range(k):
            w = complex(f(w))
        out.append(w)
    return out


def _ragged_spec(seed=3):
    # rows of 2 to 7 atoms, so 1 to 6 poles, raised to the powers of a k table
    rng = np.random.default_rng(seed)
    ns = (2, 3, 4, 5, 6, 7)
    rows = {}
    for n in ns:
        xs = np.sort(rng.uniform(-2.0, 2.0, n))
        ws = rng.uniform(0.2, 1.0, n)
        ws = ws / ws.sum() * rng.uniform(0.9, 1.0)
        rows[n] = FiniteAtomicMeasure.from_pairs(zip(xs.tolist(), ws.tolist()))
    spec = ArraySpec.custom(rows, limit=GAUSSIAN)
    return dataclasses.replace(spec, k_table=tuple((n, 3 * n * n) for n in ns))


def _max_rel(got, ref):
    return max(abs(a - b) / abs(b) for a, b in zip(got, ref))


def test_f_powers_match_the_per_point_composition_on_ragged_rows():
    # the float iterator rounds differently from composing F in complex
    # arithmetic; measured: at most 1.8e-15 relative from the 40-digit
    # oracle and 9e-16 from the composition, over 1 to 6 poles and m = 0.5
    spec = _ragged_spec()
    rows = [(spec.f_eval(n), spec.k_of(n), np.array(ZR), f"row n={n}") for n in spec.n_values]
    half = NevanlinnaData.from_parts(0.5, 0.3, [(-1.0, 0.4), (0.5, 0.2)])
    rows.append((half, 20, np.array(ZR), "m=0.5"))
    for (f, k, _, _), got in zip(rows, f_powers(rows)):
        assert _max_rel(got.tolist(), [mp_power(f, k, z) for z in ZR]) <= 3e-15
        assert _max_rel(got.tolist(), _per_point_power(f, k)) <= 2e-15
    rep = run_powers(spec, "monotone", GAUSSIAN)
    target = _resolve_target("monotone", GAUSSIAN)
    for n, dist in zip(spec.n_values, rep.distances):
        mu = spec.measure(n)
        ref = TransformGrid(ZR, _per_point_power(f_transform(mu), spec.k_of(n)), "F",
                            mass=mu.mass ** spec.k_of(n))
        assert abs(dist - weak_distance(ref, target)) <= 1e-15


def test_f_powers_run_flow_root_rows_on_the_row_grid():
    spec = ArraySpec.flow_root(GAUSSIAN, n_values=(8, 16))
    rows = [(spec.f_eval(n), spec.k_of(n), np.array(ZR), f"row n={n}") for n in spec.n_values]
    for (f, k, _, _), got in zip(rows, f_powers(rows)):
        ref = _per_point_power(f, k)
        assert max(abs(a - b) for a, b in zip(got.tolist(), ref)) <= 1e-13


def test_a_tripped_guard_names_its_row_point_and_iteration():
    # the n = 8 row has mass 1e-3, so |F^j(z)| = |z| 1e3^j passes 1e12 at j = 4
    # from the first grid point; the other rows are healthy
    rows = {4: FiniteAtomicMeasure.from_pairs([(-0.5, 0.5), (0.5, 0.5)]),
            8: FiniteAtomicMeasure.dirac(0.0, 1e-3),
            16: FiniteAtomicMeasure.from_pairs([(-0.25, 0.5), (0.25, 0.5)])}
    spec = ArraySpec.custom(rows, limit=GAUSSIAN)
    want = (f"iterated F from z0={ZR[0]!r} overflowed at iteration 4 "
            f"(row n=8, k=8) (op=monotone)")
    with pytest.raises(ConvergenceError, match=re.escape(want)):
        run_powers(spec, "monotone", GAUSSIAN)


@pytest.mark.parametrize("mu, k, what", [
    # a mass of 1 + 5e-10 takes Im F(z) = Im z/m below (1 - 1e-12) Im z at once
    (FiniteAtomicMeasure.dirac(0.25, 1 + 5e-10), 3, "decreased the imaginary part"),
    # |F(z)| = |z|/1.7e-308 is past the largest float, where a complex abs raises
    (FiniteAtomicMeasure.dirac(0.0, 1.7e-308), 2, "overflowed"),
], ids=["im_fall", "past_float_range"])
def test_a_power_guard_names_its_point_at_the_first_iteration(mu, k, what):
    want = f"iterated F from z0={ZR[0]!r} {what} at iteration 1 (k={k})"
    with pytest.raises(ConvergenceError, match=re.escape(want)):
        f_powers([(f_transform(mu), k, np.array(ZR), f"k={k}")])


def test_a_carrier_power_overflow_names_a_later_iteration():
    # F(z) = z/m with m = 1e-3, so |F^j(5i)| = 5 * 1e3^j passes the 1e12 guard at j = 4
    want = "iterated F from z0=5j overflowed at iteration 4 (k=8)"
    with pytest.raises(ConvergenceError, match=re.escape(want)):
        f_powers([(f_transform(FiniteAtomicMeasure.dirac(0.0, 1e-3)), 8, np.array([5j]), "k=8")])


def test_a_carrier_power_within_1e_154_of_a_pole_overflows():
    # |w - p|^2 of the first step underflows to 0: the division by it raised
    # a bare ZeroDivisionError
    z = complex(2.2371143170757382e-17, 1e-200)
    want = f"iterated F from z0={z!r} overflowed at iteration 1 (k=3)"
    bernoulli = FiniteAtomicMeasure.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
    with pytest.raises(ConvergenceError, match=re.escape(want)):
        f_powers([(f_transform(bernoulli), 3, np.array([z]), "k=3")])


def test_a_callable_row_that_overflows_names_its_point_and_iteration():
    # |F^j(z)| = 1e5^j |z| passes 1e12 at j = 3 from every grid point
    rows = [(lambda w: 1e5 * w, 4, np.array(ZR), "scaled row")]
    want = f"iterated F from z0={ZR[0]!r} overflowed at iteration 3 (scaled row)"
    with pytest.raises(ConvergenceError, match=re.escape(want)):
        f_powers(rows)


def test_a_callable_row_that_fails_names_its_iteration():
    calls = []

    def f(w):
        calls.append(w)
        if len(calls) == 2:
            raise ConvergenceError("inner solve failed")
        return w + 1j

    with pytest.raises(ConvergenceError,
                       match=re.escape("inner solve failed at iteration 2 (flaky row)")):
        f_powers([(f, 3, np.array(ZR), "flaky row")])


@pytest.mark.parametrize("op", ["boolean", "free", "classical"])
def test_ops_that_need_row_measures_name_the_op(op):
    spec = ArraySpec.flow_root(GAUSSIAN, n_values=(4, 8))
    with pytest.raises(ValidationError, match=f"op {op!r} needs a row measure.*row n=4"):
        run_powers(spec, op, GAUSSIAN)
    with pytest.raises(ValidationError):
        bp_crosscheck(spec)


def test_monotone_rows_without_measure_or_limit_name_the_op():
    spec = ArraySpec(name="bare", n_values=(4, 8))
    with pytest.raises(ValidationError, match=r"row n=4 has neither.*\(op=monotone\)"):
        run_powers(spec, "monotone", GAUSSIAN)
