"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints one PASS line on success (run with -s or -rA to see them);
a failure reads as the criterion number plus the violated bound.
"""

import cmath
import math
import time

import numpy as np
import pytest

from conftest import random_state_measure
from ncprob.circle import (
    CircleArraySpec,
    CircleGenerator,
    circle_flow_map,
    circle_reports,
    circle_semigroup_defect,
    detect_rotation,
)
from ncprob.convolutions import (
    free_convolve,
    monotone_convolve,
)
from ncprob.harness import (
    ArraySpec,
    T_GRID,
    bp_crosscheck,
    chernoff_residual,
    run_powers,
    subprobability_equivalence,
)
from ncprob.idiv import (
    LevyTriple,
    classical_idiv_cf,
    flow_distance_bound,
    flow_map,
    semigroup_defect,
)
from ncprob.measures import CircleMeasure, FiniteAtomicMeasure, PARAMETER
from ncprob.transforms import (
    TransformGrid,
    ZR,
    cauchy_G,
    f_transform,
    recover_measure,
    weak_distance,
)

GAUSSIAN = LevyTriple.from_parts(1.0, 0.0, [(0.0, 1.0)])
POISSON_TYPE = LevyTriple.from_parts(1.0, 0.5, [(1.0, 0.5)])

BERNOULLI = FiniteAtomicMeasure.from_pairs([(-1.0, 0.5), (1.0, 0.5)])


def sqrt_up(w):
    s = cmath.sqrt(w)
    return s if s.imag > 0 else -s


def report(n, name):
    print(f"PASS criterion {n}: {name}")


def test_criterion_1_bp_quadruple():
    t0 = time.monotonic()
    spec = ArraySpec.bernoulli_clt()
    n, k = 256, 256

    rep_b = run_powers(spec, "boolean", GAUSSIAN)
    d_b = rep_b["rows"][-1]["distance"]
    assert d_b <= 1e-12

    arcsine = TransformGrid(np.array([sqrt_up(z * z - 2.0) for z in ZR]), 1.0)
    rep_m = run_powers(spec, "monotone", arcsine)
    d_m = rep_m["rows"][-1]["distance"]
    assert d_m <= 0.05

    semicircle = TransformGrid(np.array([2.0 / (z - sqrt_up(z * z - 4.0)) for z in ZR]), 1.0)
    rep_f = run_powers(spec, "free", semicircle)
    d_f = rep_f["rows"][-1]["distance"]
    assert d_f <= 0.05

    rep_c = run_powers(spec, "classical", lambda t: math.exp(-t * t / 2.0))
    d_c = rep_c["rows"][-1]["distance"]
    assert d_c <= 0.05

    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0
    report(1, f"Bernoulli quadruple at n=256 "
              f"(boolean {d_b:.1e}, monotone {d_m:.3f}, "
              f"free {d_f:.4f}, classical {d_c:.4f}; "
              f"{elapsed:.1f}s)")


def test_criterion_2_flow_exactness():
    def defect(step):
        return max(abs(flow_map(GAUSSIAN, 1.0, z, step=step) - sqrt_up(z * z - 2.0))
                   for z in ZR)

    d_stated = defect(1e-3)
    assert d_stated <= 1e-6
    # the 8x halving check runs where truncation dominates roundoff (at 1e-3
    # the defect is already ~1e-14)
    ratio = defect(8e-3) / defect(4e-3)
    assert ratio >= 8.0
    report(2, f"flow exactness (defect {d_stated:.1e} at step 1e-3, "
              f"halving ratio {ratio:.1f})")


def test_criterion_3_semigroup_property():
    d1 = semigroup_defect(GAUSSIAN, 1.0, 1e-3)
    d2 = semigroup_defect(POISSON_TYPE, 1.0, 1e-3)
    assert d1 <= 1e-6 and d2 <= 1e-6
    gen = CircleGenerator(0.3, CircleMeasure.from_pairs([(math.pi, 0.5)], role=PARAMETER))
    d3 = circle_semigroup_defect(gen, 1.0, 1e-3)
    assert d3 <= 1e-6
    report(3, f"semigroup property (defects {d1:.1e}, {d2:.1e}; circle {d3:.1e})")


def test_criterion_4_additive_both_directions():
    good = subprobability_equivalence(ArraySpec.damped_poisson())
    assert good["agreement"] and good["both_converged"]
    assert good["ops"]["boolean"]["rows"][-1]["distance"] <= 0.05
    assert good["ops"]["monotone"]["rows"][-1]["distance"] <= 0.05

    broken = subprobability_equivalence(ArraySpec.damped_poisson(shift_scale=1.0))
    assert broken["agreement"] and not broken["both_converged"]
    assert not broken["ops"]["boolean"]["converged"]
    assert not broken["ops"]["monotone"]["converged"]
    report(4, "Boolean/monotone verdicts agree for damped (both converge) "
              "and drifting (both fail) arrays")


def test_criterion_5_generator_convergence():
    ns = (32, 64, 128, 256, 512)
    spec = ArraySpec.flow_root(GAUSSIAN, n_values=ns)
    residuals = {n: chernoff_residual(spec, GAUSSIAN, n) for n in ns}
    ratios = [residuals[2 * n] / residuals[n] for n in ns[:-1]]
    assert all(0.4 <= r <= 0.6 for r in ratios)

    worst = 0.0
    for n in (32, 256):
        fe = spec.f_eval(n)
        for z in ZR:
            w = z
            for _ in range(n):
                w = fe(w)
            worst = max(worst, abs(w - flow_map(GAUSSIAN, 1.0, z, 1e-3)))
    assert worst <= 1e-5
    report(5, f"generator convergence (halving ratios {[round(r, 3) for r in ratios]}, "
              f"composition defect {worst:.1e})")


def test_criterion_6_distance_bound():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        gamma = float(rng.uniform(-0.5, 0.5))
        atoms = [(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.2, 0.8)))]
        base = LevyTriple.from_parts(1.0, gamma, atoms)
        eps = float(rng.uniform(1e-3, 1e-1))
        shifted = LevyTriple.from_parts(1.0, gamma + eps, atoms)
        db = flow_distance_bound(base, shifted)
        assert db.observed <= 2.0 * db.bound
        assert db.epsilon == pytest.approx(eps, rel=1e-9)
        checked += 1
    assert checked == 20
    report(6, "perturbation bound holds for 20 random generator pairs")


def test_criterion_7_exact_algebra_oracles():
    rng = np.random.default_rng(11)
    for _ in range(100):
        mu = random_state_measure(rng, 6)
        back = recover_measure(f_transform(mu))
        assert len(back.positions) == len(mu.positions)
        assert max(abs(a - b) for a, b in zip(back.positions, mu.positions)) <= 1e-8
        assert max(abs(a - b) for a, b in zip(back.weights, mu.weights)) <= 1e-8

    for _ in range(25):
        mu = random_state_measure(rng, 5)
        f = f_transform(mu)
        assert max(abs(f(z) - 1.0 / cauchy_G(mu, z)) for z in ZR) <= 1e-9

    bb = monotone_convolve(BERNOULLI, BERNOULLI)
    s5 = math.sqrt(5.0)
    want_pos = [-math.sqrt((3 + s5) / 2), -math.sqrt((3 - s5) / 2),
                math.sqrt((3 - s5) / 2), math.sqrt((3 + s5) / 2)]
    want_w = [(5 + s5) / 20, (5 - s5) / 20, (5 - s5) / 20, (5 + s5) / 20]
    assert max(abs(a - b) for a, b in zip(bb.positions, want_pos)) <= 1e-10
    assert max(abs(a - b) for a, b in zip(bb.weights, want_w)) <= 1e-10

    conv = free_convolve(BERNOULLI, BERNOULLI)
    worst = max(abs(1.0 / v - 1.0 / sqrt_up(z * z - 4.0))
                for z, v in zip(conv.points, conv.values))
    assert worst <= 1e-8
    report(7, f"exact-algebra oracles (free convolution defect {worst:.1e})")


def test_criterion_8_circle_mean_lemma():
    rng = np.random.default_rng(13)
    r = 1e-4
    for _ in range(10):
        beta = float(rng.uniform(-1.0, 1.0))
        n_at = int(rng.integers(1, 3))
        angles = rng.uniform(0.0, 2.0 * math.pi, n_at)
        ws = rng.uniform(0.1, 1.0, n_at)
        ws = ws / ws.sum() * float(rng.uniform(0.2, 1.0))
        sigma = CircleMeasure.from_pairs(zip(angles, ws), role=PARAMETER)
        gen = CircleGenerator(beta, sigma)
        vals = circle_flow_map(gen, 1.0, np.array([r, 1j * r, -r, -1j * r]), step=1e-3)
        mean = (vals[0] - vals[2] - 1j * (vals[1] - vals[3])) / (4.0 * r)
        want = cmath.exp(1j * beta) * math.exp(-sigma.mass)
        assert abs(mean - want) <= 1e-6
    report(8, "flow mean matches gamma e^{-sigma(T)} for 10 random generators")


def test_criterion_9_rotation_correction():
    gen = CircleGenerator(0.3, CircleMeasure.from_pairs([(0.5, 0.9)], role=PARAMETER))
    ns = (16, 32, 64, 128, 256)
    spec = CircleArraySpec(gen, ns, rotation_ell="half")
    _, rep = circle_reports(spec, gen)
    by_n = {row["n"]: row for row in rep["rows"]}
    assert by_n[256]["uncorrected"] >= 0.1
    assert by_n[256]["corrected"] <= 0.05
    for n in ns:
        assert (by_n[n]["ell"] + n // 2) % n == 0  # detected = -constructed mod k
    assert rep["corrected_converged"] and not rep["uncorrected_converged"]
    report(9, f"rotation correction (uncorrected {by_n[256]['uncorrected']:.3f}, "
              f"corrected {by_n[256]['corrected']:.1e})")


def test_criterion_10_beta_equivalence():
    sigma = CircleMeasure.from_pairs([(math.pi, 0.5)], role=PARAMETER)
    gen = CircleGenerator(0.3, sigma)
    spec = CircleArraySpec(gen, (16, 32, 64, 128, 256))
    rep, _ = circle_reports(spec, gen)
    assert rep["beta_condition"]["holds"]
    assert rep["agreement"] and rep["both_converged"]
    assert rep["ops"]["boolean"]["rows"][-1]["distance"] <= 0.05
    assert rep["ops"]["monotone"]["rows"][-1]["distance"] <= 0.05
    report(10, "beta condition holds and Boolean/monotone circle verdicts agree")
