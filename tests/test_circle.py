import cmath
import math
import re

import mpmath
import numpy as np
import pytest
import sympy

from ncprob import circle
from ncprob.circle import (
    CircleArraySpec,
    CircleGenerator,
    DISK_GRID,
    DiskFlowRoot,
    DiskGrid,
    beta_condition_check,
    boolean_idiv_eta,
    circle_boolean_idiv,
    circle_classical_idiv_fourier,
    circle_flow_map,
    circle_free_idiv,
    circle_mean,
    circle_monotone_flow,
    circle_reports,
    circle_semigroup_defect,
    detect_rotation,
    disk_powers,
    eta,
    eta_distance,
    eta_fn,
    mult_boolean,
    mult_free,
    mult_monotone,
    psi,
    sigma_transform,
)
from ncprob.errors import ConvergenceError, FlowError, ValidationError, ZeroMeanError
from ncprob.measures import PARAMETER, CircleMeasure

TWO_ATOM = CircleMeasure.from_pairs([(0.0, 0.5), (math.pi, 0.5)])  # eta = z^2
HAAR4 = CircleMeasure.from_pairs([(k * math.pi / 2.0, 0.25) for k in range(4)])


def param(pairs):
    return CircleMeasure.from_pairs(pairs, role=PARAMETER)


def test_eta_examples():
    d = CircleMeasure.dirac(0.7)
    zeta = cmath.exp(0.7j)
    for z in DISK_GRID:
        assert eta(d, z) == pytest.approx(zeta * z, abs=1e-14)
        assert eta(TWO_ATOM, z) == pytest.approx(z * z, abs=1e-14)
        assert eta(HAAR4, z) == pytest.approx(z ** 4, abs=1e-14)


def test_psi_and_eta_take_an_ndarray_of_any_shape():
    z = np.array(DISK_GRID).reshape(2, 8)
    mu = CircleMeasure.from_pairs([(0.3, 0.7), (2.0, 0.3)])
    for f in (psi, eta):
        assert np.array_equal(f(mu, z), f(mu, z.ravel()).reshape(2, 8))


def test_eta_contraction(rng):
    for _ in range(20):
        n = int(rng.integers(1, 6))
        angles = rng.uniform(0, 2 * math.pi, n)
        ws = rng.uniform(0.05, 1.0, n)
        mu = CircleMeasure.from_pairs(zip(angles, ws / ws.sum()))
        for z in DISK_GRID:
            assert abs(eta(mu, z)) <= abs(z) + 1e-14


def test_mean_and_sigma_transform():
    d = CircleMeasure.dirac(0.7)
    zeta = cmath.exp(0.7j)
    assert circle_mean(d) == pytest.approx(zeta)
    assert sigma_transform(d, 0.1) == pytest.approx(1.0 / zeta)
    assert sigma_transform(d, 0.05 + 0.02j) == pytest.approx(1.0 / zeta)
    with pytest.raises(ZeroMeanError):
        sigma_transform(TWO_ATOM, 0.05)


@pytest.mark.parametrize("z", [0.07, 0.05j, -0.08 + 0.03j, -0.06 + 0.13j])
def test_sigma_transform_of_two_atoms_matches_a_40_digit_root(z):
    # eta(u) = z is solved by Newton from z/mean, with mean = 0.544 + 0.480i
    mu = CircleMeasure.from_pairs([(0.3, 0.7), (2.0, 0.3)])
    with mpmath.workdps(40):
        atoms = [(mpmath.expj(t), mpmath.mpf(w)) for t, w in mu.atoms]

        def eta_mp(w):
            p = sum(c * zeta * w / (1 - zeta * w) for zeta, c in atoms)
            return p / (1 + p)

        ref = complex(mpmath.findroot(lambda w: eta_mp(w) - z, z / circle_mean(mu)) / z)
    assert abs(sigma_transform(mu, z) - ref) <= 1e-15 * abs(ref)


def test_dirac_products_all_three():
    d1, d2 = CircleMeasure.dirac(0.7), CircleMeasure.dirac(1.1)
    want = cmath.exp(1.8j)
    for op in (mult_boolean, mult_monotone, mult_free):
        grid = op(d1, d2)
        for z, v in zip(grid.points, grid.values):
            assert v == pytest.approx(want * z, abs=1e-11)


def test_two_atom_powers():
    boolean = mult_boolean(TWO_ATOM, TWO_ATOM)
    monotone = mult_monotone(TWO_ATOM, TWO_ATOM)
    for z, vb, vm in zip(boolean.points, boolean.values, monotone.values):
        assert vb == pytest.approx(z ** 3, abs=1e-13)
        assert vm == pytest.approx(z ** 4, abs=1e-13)


def test_mean_multiplicativity():
    a = CircleMeasure.from_pairs([(0.2, 0.6), (1.3, 0.4)])
    b = CircleMeasure.from_pairs([(5.9, 0.3), (0.4, 0.7)])
    ea, eb = eta_fn(a), eta_fn(b)
    r = 1e-4

    def mean_of(fn):
        vals = [fn(r), fn(1j * r), fn(-r), fn(-1j * r)]
        return (vals[0] - vals[2] - 1j * (vals[1] - vals[3])) / (4.0 * r)

    want = circle_mean(a) * circle_mean(b)
    assert mean_of(lambda z: ea(z) * eb(z) / z) == pytest.approx(want, abs=1e-12)
    assert mean_of(lambda z: ea(eb(z))) == pytest.approx(want, abs=1e-12)


def test_boolean_idiv_formulas():
    # sigma = 0: eta = gamma z
    g = circle_boolean_idiv(cmath.exp(0.4j), CircleMeasure.zero())
    for z, v in zip(g.points, g.values):
        assert v == pytest.approx(cmath.exp(0.4j) * z)
    # gamma=1, sigma = s delta_{-1}: eta = z exp(-s (1-z)/(1+z))
    s = 0.6
    g2 = circle_boolean_idiv(1.0, param([(math.pi, s)]))
    for z, v in zip(g2.points, g2.values):
        assert v == pytest.approx(z * cmath.exp(-s * (1.0 - z) / (1.0 + z)), abs=1e-13)


def _mp_disk_sums(mu, beta, z):
    """psi, psi', A, boolean eta and eta' of mu (as sigma for A and eta) at z, 30 digits.

    A and the Boolean eta read the Herglotz integral
    H = integral (1+zeta z)/(1-zeta z) dmu directly, not through psi.
    """
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        ps, dps, h = mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(0)
        for t, w in mu.atoms:
            zeta, w = mpmath.expj(mpmath.mpf(t)), mpmath.mpf(w)
            ps += w * z * zeta / (1 - z * zeta)
            dps += w * zeta / (1 - z * zeta) ** 2
            h += w * (1 + zeta * z) / (1 - zeta * z)
        a = z * (1j * mpmath.mpf(beta) - h)
        eta_b = mpmath.expj(mpmath.mpf(beta)) * z * mpmath.exp(-h)
        return [complex(v) for v in (ps, dps, a, eta_b, dps / (1 + ps) ** 2)]


@pytest.mark.parametrize("seed", range(6))
def test_disk_sums_match_a_30_digit_oracle(seed):
    """psi, psi', a_eval, boolean_idiv_eta and eta' to 1e-12 relative, |z| from 1e-8 to 0.999.

    Near z = 0 psi ~ z mean(mu): summing psi itself keeps its relative
    digits there, which sigma_transform's Newton solve relies on.  The
    points at |z| = 0.999 lie on the rays toward the atoms zeta and toward
    their poles conj(zeta), and the last measure has two atoms 1e-9 rad
    apart.  At a pole the Boolean eta is exp(-2 psi) with |psi| near 1e3,
    where the rounding of zeta itself moves it by 1e-10 relative, so only
    the other four sums are held to the bound there.
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
        sums = (lambda z: psi(mu, z), lambda z: circle._psi_deriv(mu, z), gen.a_eval,
                circle.boolean_idiv_eta(cmath.exp(1j * beta), mu),
                lambda z: circle._eta_deriv_atomic(mu, z))
        on_array = [f(pts) for f in sums]
        for i, z in enumerate(pts.tolist()):
            at_pole = i >= pts.size - zeta.size
            for k, (f, arr, want) in enumerate(zip(sums, on_array, _mp_disk_sums(mu, beta, z))):
                if at_pole and k == 3:
                    continue
                assert abs(f(z) - want) <= 1e-12 * abs(want), (z, f)
                assert abs(arr[i] - want) <= 1e-12 * abs(want), (z, f)


def test_free_idiv_trivial_and_products():
    g = circle_free_idiv(1.0, CircleMeasure.zero())
    for z, v in zip(g.points, g.values):
        assert v == pytest.approx(z, abs=1e-12)
    # self-consistency: eta^{-1}(eta(z)) = z for a non-trivial sigma
    sig = param([(math.pi, 0.4)])
    g2 = circle_free_idiv(1.0, sig)

    def inv(w):
        acc = sum(wt * (1.0 + cmath.exp(1j * t) * w) / (1.0 - cmath.exp(1j * t) * w)
                  for t, wt in sig.atoms)
        return w * cmath.exp(acc)

    for z, v in zip(g2.points, g2.values):
        assert inv(v) == pytest.approx(z, abs=1e-11)


def random_state(rng, max_atoms=4):
    """A circle probability measure of 1-max_atoms atoms at uniform angles, no minimum gap."""
    n = int(rng.integers(1, max_atoms + 1))
    ws = rng.uniform(0.05, 1.0, n)
    return CircleMeasure.from_pairs(zip(rng.uniform(0.0, 2.0 * math.pi, n), ws / ws.sum()))


def test_free_product_taylor_coefficients_are_the_free_moments():
    """eta = m1 z + (m2 - m1^2) z^2 + ..., with m1 = a1 b1, m2 = a2 b1^2 + a1^2 b2 - a1^2 b1^2.

    The coefficients are read off a 64-point DFT of the product on the ring
    of radius 0.05, where the aliased z^66 term is below 1e-80.
    """
    rng = np.random.default_rng(9100)
    r, n = 0.05, 64
    ring = tuple(r * np.exp(2j * np.pi * np.arange(n) / n))
    for _ in range(30):
        a, b = random_state(rng), random_state(rng)
        coef = np.fft.fft(mult_free(a, b, ring).values) / n
        a1, a2, b1, b2 = a.moment(1), a.moment(2), b.moment(1), b.moment(2)
        m1 = a1 * b1
        m2 = a2 * b1 ** 2 + a1 ** 2 * b2 - a1 ** 2 * b1 ** 2
        assert abs(coef[1] / r - m1) <= 2e-15
        assert abs(coef[2] / r ** 2 - (m2 - m1 ** 2)) <= 1e-14


def test_free_product_of_symmetric_bernoulli_laws_is_haar():
    """The zero-mean +-1 law (eta = z^2) times itself is Haar measure: eta = 0."""
    grid = mult_free(TWO_ATOM, TWO_ATOM)
    assert max(abs(v) for v in grid.values) <= 1e-30


def test_free_product_with_a_dirac_rotates():
    """delta_theta boxtimes mu has eta(z) = eta_mu(e^{i theta} z), in either order."""
    rng = np.random.default_rng(9200)
    for _ in range(10):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        mu = random_state(rng)
        want = eta(mu, np.exp(1j * theta) * np.array(DISK_GRID))
        for grid in (mult_free(CircleMeasure.dirac(theta), mu),
                     mult_free(mu, CircleMeasure.dirac(theta))):
            assert eta_distance(grid.values, want) <= 1e-15


def test_free_product_takes_eta_callables():
    rng = np.random.default_rng(9300)
    a, b = random_state(rng), random_state(rng)
    assert eta_distance(mult_free(eta_fn(a), eta_fn(b)), mult_free(a, b)) <= 1e-15


def _mp_free_idiv(gamma, sigma, z, w0):
    """The w solving gamma w exp(H(w)) = z, by mpmath.findroot at 30 digits from w0."""
    with mpmath.workdps(30):
        atoms = [(mpmath.expj(t), mpmath.mpf(w)) for t, w in sigma.atoms]

        def f(w):
            h = mpmath.fsum(wt * (1 + zeta * w) / (1 - zeta * w) for zeta, wt in atoms)
            return gamma * w * mpmath.exp(h) - z

        return complex(mpmath.findroot(f, mpmath.mpc(w0)))


@pytest.mark.parametrize("mass", [0.01, 1.0, 100.0])
def test_free_idiv_matches_a_30_digit_root(mass):
    """Grid points at |z| from 0.05 to 0.99; the gap bound is the fixed point's rounding."""
    rng = np.random.default_rng(9400 + int(mass * 100))
    for _ in range(2):
        n = int(rng.integers(1, 4))
        ws = rng.uniform(0.1, 1.0, n)
        sigma = param(zip(rng.uniform(0.0, 2.0 * math.pi, n), ws / ws.sum() * mass))
        gamma = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        radii = np.array([0.05, 0.4, 0.9, 0.99])
        points = tuple(radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, radii.size)))
        grid = circle_free_idiv(gamma, sigma, points)
        for z, v in zip(points, grid.values):
            assert abs(v - _mp_free_idiv(gamma, sigma, z, v)) <= 4e-15, (mass, z)


def ring8(r):
    """The angles of DISK_GRID's outer ring at radius r."""
    return tuple(r * np.exp(2j * np.pi * np.arange(8) / 8))


def test_free_products_settle_near_the_circle(no_hang, monkeypatch):
    """Ten random products converge at |z| = 0.4, 0.9 and 0.99, each within
    log(eps)/log |z| iterations, half the loop's cap.
    """
    calls = []
    loop = circle._disk_fixed_point

    def counted(f, z):
        calls.append(0)

        def g(w):
            calls[-1] += 1
            return f(w)

        return loop(g, z)

    monkeypatch.setattr(circle, "_disk_fixed_point", counted)
    rng = np.random.default_rng(6)
    pairs = [(random_state(rng), random_state(rng)) for _ in range(10)]
    for r in (0.4, 0.9, 0.99):
        for a, b in pairs:
            grid = mult_free(a, b, ring8(r))
            assert all(abs(v) <= r + 1e-15 for v in grid.values)
        assert max(calls) <= math.log(circle.EPS) / math.log(r), r
        calls.clear()


def test_fixed_point_failure_names_a_start_point(no_hang, monkeypatch):
    """A map that only rotates never settles: the loop stops at its cap and says where."""
    loop = circle._disk_fixed_point
    monkeypatch.setattr(circle, "_disk_fixed_point", lambda f, z: loop(lambda w: 1j * w, z))
    for call in (lambda: mult_free(HAAR4, TWO_ATOM),
                 lambda: circle_free_idiv(1.0, param([(1.0, 0.5)]))):
        with pytest.raises(ConvergenceError,
                           match=re.escape(f"z0={DISK_GRID[0]!r}") + " did not settle in 80 "):
            call()


def test_disk_grid_sample_evaluates_the_grid_as_one_array():
    seen = []

    def e(z):
        seen.append(np.shape(z))
        return 0.5 * z

    grid = DiskGrid.sample(e)
    assert seen == [(len(DISK_GRID),)]
    assert grid.values == tuple(0.5 * z for z in DISK_GRID)


def test_fourier_examples():
    gamma = cmath.exp(0.3j)
    assert circle_classical_idiv_fourier(gamma, CircleMeasure.zero(), 3) == pytest.approx(gamma ** 3)
    assert circle_classical_idiv_fourier(1.0, param([(math.pi, 0.5)]), 2) == pytest.approx(1.0)
    # mean consistency: p=1 with sigma = s delta_1 gives gamma e^{-s}
    val = circle_classical_idiv_fourier(gamma, param([(0.0, 0.3)]), 1)
    assert val == pytest.approx(gamma * math.exp(-0.3), abs=1e-9)


def test_fourier_extension_sympy_oracle():
    # limit of (zeta^p - 1 - i p Im zeta)/(1 - Re zeta) as zeta -> 1 equals -p^2
    th = sympy.symbols("theta", real=True)
    for p in (1, 2, 5):
        expr = (sympy.exp(sympy.I * p * th) - 1 - sympy.I * p * sympy.sin(th)) / (1 - sympy.cos(th))
        lim = complex(sympy.limit(expr, th, 0))
        assert lim == pytest.approx(complex(-p * p), abs=1e-12)


def test_flow_rotation_field():
    gen = CircleGenerator(0.5, CircleMeasure.zero())
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
    # tracked analytic mean agrees
    flow = circle_monotone_flow(gen, 1.0, 1e-3)
    assert flow.means[-1] == pytest.approx(math.exp(-s))


def test_flow_semigroup_defect():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    assert circle_semigroup_defect(gen, 1.0, 1e-3) <= 1e-6


def test_disk_flows_at_time_zero_keep_the_start_grid():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    flow = circle_monotone_flow(gen, 0.0, 1e-3)
    assert flow.times == (0.0, 0.0, 0.0)
    assert all(grid.values == DISK_GRID for grid in flow.grids)
    assert flow.means == (1.0, 1.0, 1.0)
    assert circle_semigroup_defect(gen, 0.0, 1e-3) == 0.0
    # the start points are checked at t = 0 too
    with pytest.raises(ValidationError):
        circle_semigroup_defect(gen, 0.0, 1e-3, points=(0.1, 1.0))


def test_disk_flows_shorter_than_a_step_schedule_keep_the_start_grid():
    # a time of at most 1e-15 takes no RK4 step: the flow is the identity
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    z = np.array(DISK_GRID)
    assert np.array_equal(circle_flow_map(gen, 1e-16, z), z)
    assert all(grid.values == DISK_GRID for grid in circle_monotone_flow(gen, 1.5e-15).grids)
    # a root with no step is its rotation alone, once per iteration
    lam = cmath.exp(0.25j)
    (got,) = disk_powers([(DiskFlowRoot(gen, (1e-16,), 1e-3, lam), 3, z, "no step", 1j)])
    assert np.allclose(got, (1j * lam) ** 3 * z, rtol=0, atol=1e-15)


def test_eta_metric_vs_moments(rng):
    # equal grids iff equal measures (through their moments) on atomic inputs
    a = CircleMeasure.from_pairs([(0.4, 0.5), (2.2, 0.5)])
    b = CircleMeasure.from_pairs([(0.4, 0.5), (2.2, 0.5)])
    c = CircleMeasure.from_pairs([(0.5, 0.5), (2.2, 0.5)])
    ga = DiskGrid.sample(eta_fn(a))
    gb = DiskGrid.sample(eta_fn(b))
    gc = DiskGrid.sample(eta_fn(c))
    assert eta_distance(ga, gb) == 0.0
    assert all(abs(a.moment(p) - b.moment(p)) <= 1e-9 for p in range(1, 17))
    assert eta_distance(ga, gc) > 1e-9
    assert any(abs(a.moment(p) - c.moment(p)) > 1e-9 for p in range(1, 17))


def test_mult_assoc_comm(rng):
    a = CircleMeasure.from_pairs([(0.4, 0.5), (2.2, 0.5)])
    b = CircleMeasure.from_pairs([(1.0, 0.3), (4.0, 0.7)])
    c = CircleMeasure.dirac(0.9)
    ea, eb, ec = eta_fn(a), eta_fn(b), eta_fn(c)
    # boolean: commutative and associative through the z (eta/z) product
    ab = mult_boolean(a, b)
    ba = mult_boolean(b, a)
    assert eta_distance(ab, ba) <= 1e-12
    eab = lambda z: ea(z) * eb(z) / z
    left = mult_boolean(eab, ec)
    ebc = lambda z: eb(z) * ec(z) / z
    right = mult_boolean(ea, ebc)
    assert eta_distance(left, right) <= 1e-12
    # monotone: associative (not commutative)
    m_left = DiskGrid.sample(lambda z: ea(eb(ec(z))))
    m_right = DiskGrid.sample(lambda z: ea(eb(ec(z))))
    comp_left = mult_monotone(lambda z: ea(eb(z)), ec)
    comp_right = mult_monotone(ea, lambda z: eb(ec(z)))
    assert eta_distance(comp_left, comp_right) <= 1e-10
    assert eta_distance(comp_left, m_left) <= 1e-12


def test_rotated_array_fixed_ell():
    # rotate by e^{2 pi i/k}: detect -1, corrected converges, raw stalls
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    spec = CircleArraySpec.semigroup(gen, (16, 32, 64), rotation_ell=1)
    _, rep = circle_reports(spec, gen)
    assert [row["ell"] for row in rep["rows"]] == [-1, -1, -1]
    assert rep["corrected_converged"]
    assert not rep["uncorrected_converged"]
    assert all(row["uncorrected"] >= 0.07 for row in rep["rows"])
    assert all(row["corrected"] <= 1e-10 for row in rep["rows"])


def test_unrotated_array_identity_correction():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    spec = CircleArraySpec.semigroup(gen, (16, 32))
    _, rep = circle_reports(spec, gen)
    assert [row["ell"] for row in rep["rows"]] == [0, 0]
    assert rep["corrected_converged"] and rep["uncorrected_converged"]


def test_beta_condition():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    ok, rows = beta_condition_check(CircleArraySpec.semigroup(gen, (16, 32, 64)), 0.3)
    assert ok
    bad, rows = beta_condition_check(
        CircleArraySpec.semigroup(gen, (16, 32, 64), rotation_ell=1), 0.3)
    assert not bad
    # the drift is 2 pi ell (1 + o(1))
    assert rows[-1]["gap"] == pytest.approx(2.0 * math.pi, abs=0.1)


def test_circle_equivalence_semigroup():
    sig = param([(math.pi, 0.5)])
    gen = CircleGenerator(0.3, sig)
    spec = CircleArraySpec.semigroup(gen, (16, 32, 64, 128, 256))
    rep, _ = circle_reports(spec, gen, correct=False)
    assert rep["beta_condition"]["holds"]
    assert rep["agreement"] and rep["both_converged"]


def test_circle_equivalence_dirac_array():
    # sigma = 0, mu_n = delta_{e^{i beta/n}}: both sides converge to delta_{e^{i beta}}
    beta = 0.9
    gen = CircleGenerator(beta, CircleMeasure.zero())
    measures = {n: CircleMeasure.dirac(beta / n) for n in (16, 32, 64)}
    spec = CircleArraySpec.from_measures(measures, gen)
    rep, _ = circle_reports(spec, gen, correct=False)
    assert rep["beta_condition"]["holds"]
    assert rep["agreement"] and rep["both_converged"]


def test_rotation_detection_branch():
    gen = CircleGenerator(0.3, param([(0.5, 0.9)]))
    spec = CircleArraySpec.semigroup(gen, (16, 32), rotation_ell=lambda n: n // 2)
    for n in (16, 32):
        ell = detect_rotation(spec, 0.3, n)
        assert (ell + n // 2) % n == 0


@pytest.mark.parametrize("engine", ["circle_flow_map", "circle_monotone_flow",
                                    "circle_semigroup_defect"])
@pytest.mark.parametrize("t_end, step", [
    (math.inf, 1e-3), (math.nan, 1e-3), (-1.0, 1e-3),
    (1.0, 0.0), (1.0, -1e-3), (1.0, math.nan), (1.0, math.inf),
])
def test_disk_flows_reject_non_finite_time_and_bad_step(no_hang, engine, t_end, step):
    # unchecked, t_end = inf or step = 0 loops forever, t_end = nan returns
    # z unchanged and step = nan returns a nan grid
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    call = {"circle_flow_map": lambda: circle_flow_map(gen, t_end, 0.2, step=step),
            "circle_monotone_flow": lambda: circle_monotone_flow(gen, t_end, step),
            "circle_semigroup_defect": lambda: circle_semigroup_defect(gen, t_end, step)}
    with pytest.raises(ValidationError):
        call[engine]()


@pytest.mark.parametrize("times, step", [
    ((0.5,), 0.0), ((0.5,), math.nan), ((math.inf,), 1e-3), ((math.nan,), 1e-3),
    ((0.0,), 1e-3), ((-0.5, 1.0), 1e-3), ((0.5, 0.2), 1e-3), ((0.5, 0.5), 1e-3), ((), 1e-3),
], ids=["step_0", "step_nan", "time_inf", "time_nan", "time_0", "time_negative",
        "times_decreasing", "times_repeated", "no_times"])
def test_disk_flow_root_rejects_bad_times_and_step(times, step):
    # unchecked, step 0 grows the step schedule without end, a time of 0
    # fails inside disk_powers and times (0.5, 0.2) integrate to 0.5
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    with pytest.raises(ValidationError):
        DiskFlowRoot(gen, times, step)


def test_eta_distance_rejects_unequal_and_empty_samples():
    values = DiskGrid.sample(eta_fn(CircleMeasure.dirac(0.4))).values
    with pytest.raises(ValidationError, match="16 and 3"):
        eta_distance(values, values[:3])
    with pytest.raises(ValidationError, match="0 and 0"):
        eta_distance((), ())


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), 1.0, 0.6 + 0.8j])
def test_disk_flows_reject_start_points_off_the_open_disk(no_hang, bad):
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    for call in (lambda: circle_flow_map(gen, 1.0, bad),
                 lambda: circle_flow_map(gen, 1.0, np.array([0.1, bad])),
                 lambda: circle_monotone_flow(gen, 1.0, points=(0.1, bad)),
                 lambda: circle_semigroup_defect(gen, 1.0, points=(0.1, bad))):
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
        flow = circle_monotone_flow(gen, t_end, points=())
        assert all(grid.values == () for grid in flow.grids)
        assert circle_semigroup_defect(gen, t_end, points=()) == 0.0


def test_disk_powers_give_a_row_without_points_an_empty_array():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    root = DiskFlowRoot(gen, (0.25,), 1e-3)
    z = np.array(DISK_GRID)
    empty = (root, 2, np.empty((3, 0)), "row n=2, k=2", 1.0)
    (alone,) = disk_powers([empty])
    assert alone.shape == (3, 0) and alone.dtype == complex
    healthy = (root, 2, z, "row n=3, k=2", 1.0)
    callable_empty = (eta_fn(CircleMeasure.dirac(0.4)), 2, np.array([]), "custom", 1.0)
    got = disk_powers([empty, healthy, callable_empty])
    assert [v.shape for v in got] == [(3, 0), (16,), (0,)]
    assert np.array_equal(got[1], disk_powers([healthy])[0])


@pytest.mark.parametrize("n_values", [(0, 16), (-1, 16), (-16, -8)])
def test_circle_array_spec_rejects_rows_below_one(n_values):
    # unchecked, n = 0 divides by zero and n = -1 writes a report row of k = -1
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    with pytest.raises(ValidationError, match="positive"):
        CircleArraySpec.semigroup(gen, n_values)
    measures = {n: CircleMeasure.dirac(0.3) for n in n_values}
    with pytest.raises(ValidationError, match="positive"):
        CircleArraySpec.from_measures(measures, gen)


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
        circle_monotone_flow(stiff, 1.0, 1e-2, points=(0.05, 0.4))


def test_monotone_power_error_names_start_point_and_iteration():
    # eta halves every point but doubles those inside radius 0.06: the inner
    # ring (radius 0.2) gets there after two halvings and grows on the third
    def e(w):
        return w * np.where(np.abs(w) < 0.06, 2.0, 0.5)

    with pytest.raises(FlowError, match=re.escape(f"z0={DISK_GRID[8]!r}")
                       + ".*iteration 3 \\(row n=5, k=5\\)"):
        disk_powers([(e, 5, np.array(DISK_GRID), "row n=5, k=5", 1.0)])


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


def _per_point_power(e, k, points=DISK_GRID):
    """Reference monotone power: one Python-complex eta per point and iteration.

    A DiskFlowRoot's eta is its own RK4 over the root's schedule, then its
    lam, so the reference shares no code with the lanes of disk_powers.
    """
    def flow_root(w):
        a = e.gen.a_eval
        for h, _ in e.schedule:
            k1 = complex(a(w))
            k2 = complex(a(w + 0.5 * h * k1))
            k3 = complex(a(w + 0.5 * h * k2))
            k4 = complex(a(w + h * k3))
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return e.lam * w

    eta_one = flow_root if isinstance(e, DiskFlowRoot) else e
    out = []
    for z in points:
        w = complex(z)
        for _ in range(k):
            w = complex(eta_one(w))
        out.append(w)
    return out


def test_monotone_power_array_matches_per_point_iteration():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5), (2.0, 0.2)]))
    spec = CircleArraySpec.semigroup(gen, (256,), rotation_ell=1)
    e = spec.eta_of(256)
    (grid,) = disk_powers([(e, 256, np.array(DISK_GRID), "row n=256, k=256", 1.0)])
    assert eta_distance(grid, _per_point_power(e, 256)) <= 1e-13
    mu = CircleMeasure.from_pairs([(0.05, 0.7), (6.2, 0.3)])
    custom = CircleArraySpec.from_measures({64: mu}, gen)
    e = custom.eta_of(64)
    (grid,) = disk_powers([(e, 64, np.array(DISK_GRID), "row n=64, k=64", 1.0)])
    assert eta_distance(grid, _per_point_power(e, 64)) <= 1e-13


def test_disk_lanes_match_each_row_run_alone():
    # rows of one generator share a kernel whose lanes run ragged step
    # schedules and counts; each row reads as if run by itself
    gen = CircleGenerator(-0.7, param([(1.0, 0.4), (4.0, 0.25)]))
    z = np.array(DISK_GRID)
    rows = [(DiskFlowRoot(gen, (1.0 / n,), min(1e-3, 0.5 / n), cmath.exp(2j * math.pi / n)),
             n, z, f"row n={n}, k={n}", lam)
            for n in (16, 48, 100) for lam in (1.0, cmath.exp(-2j * math.pi / n))]
    rows.append((DiskFlowRoot(gen, (0.5, 1.0), 1e-3), 1, z, "time-one target", 1.0))
    together = disk_powers(rows)
    for row, got in zip(rows, together):
        assert np.array_equal(got, disk_powers([row])[0])
    assert np.array_equal(together[-1], circle_monotone_flow(gen, 1.0, 1e-3).grids[-1].values)


def test_disk_lane_guard_names_its_row_among_healthy_lanes():
    # a strong field at step 0.3 overshoots past the origin from 0.4 only; the
    # other lanes of its row and the lanes of the fine-step row stay healthy
    gen = CircleGenerator(0.0, param([(0.0, 5.0)]))
    coarse = (DiskFlowRoot(gen, (0.6,), 0.3), 2, np.array([0.05, 0.4, 0.3]), "row n=2, k=2", 1.0)
    fine = (DiskFlowRoot(gen, (0.01,), 1e-3), 40, np.array(DISK_GRID), "row n=40, k=40", 1.0)
    disk_powers([fine])
    want = "disk flow from z0=(0.4+0j) violated |eta_t(z)| <= |z| at t=0.300000 of iteration 1"
    with pytest.raises(FlowError, match=re.escape(want + " (row n=2, k=2)")):
        disk_powers([fine, coarse])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN lane's field divides NaN
def test_disk_lane_guard_fails_a_nan_lane_among_healthy_lanes(monkeypatch):
    # the guard reads |w| <= lim, which a NaN lane does not pass; lanes run in
    # the order of their tick counts, so lane 1 is the k = 2 row's second point
    gen = CircleGenerator(0.3, param([(1.0, 0.4)]))
    sick = (DiskFlowRoot(gen, (0.5,), 1e-2), 2, np.array([0.1, 0.2j, -0.3]), "row n=2, k=2", 1.0)
    healthy = (DiskFlowRoot(gen, (0.5,), 1e-2), 1, np.array(DISK_GRID), "row n=1, k=1", 1.0)
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
