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
    DiskGrid,
    beta_condition_check,
    boolean_idiv_eta,
    boolean_power_eta,
    circle_boolean_idiv,
    circle_classical_idiv_fourier,
    circle_equivalence,
    circle_flow_map,
    circle_free_idiv,
    circle_mean,
    circle_monotone_flow,
    circle_semigroup_defect,
    detect_rotation,
    eta,
    eta_distance,
    eta_fn,
    monotone_power_eta,
    mult_boolean,
    mult_free,
    mult_monotone,
    psi,
    rotation_correction,
    sigma_transform,
)
from ncprob.errors import FlowError, ValidationError, ZeroMeanError
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
    """psi, psi', a_eval, boolean_idiv_eta and eta' to 1e-12 relative, |z| from 1e-8 to 0.99.

    Near z = 0 psi ~ z mean(mu): summing psi itself keeps its relative
    digits there, which sigma_transform's Newton solve relies on.
    """
    rng = np.random.default_rng(8000 + seed)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        mu = param(zip(rng.uniform(0.0, 2.0 * math.pi, n), rng.uniform(0.1, 1.0, n)))
        beta = float(rng.uniform(-1.0, 1.0))
        gen = CircleGenerator(beta, mu)
        radii = np.concatenate((10.0 ** np.linspace(-8.0, -1.0, 8), [0.5, 0.9, 0.99]))
        pts = radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, radii.size))
        sums = (lambda z: psi(mu, z), lambda z: circle._psi_deriv(mu, z), gen.a_eval,
                circle.boolean_idiv_eta(cmath.exp(1j * beta), mu),
                lambda z: circle._eta_deriv_atomic(mu, z))
        on_array = [f(pts) for f in sums]
        for i, z in enumerate(pts.tolist()):
            for f, arr, want in zip(sums, on_array, _mp_disk_sums(mu, beta, z)):
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
    for z in DISK_GRID[:4]:
        got = circle_flow_map(gen, 1.0, z, step=1e-3)
        assert got == pytest.approx(cmath.exp(0.5j) * z, abs=1e-12)


def test_flow_mean_identity():
    # beta=0, sigma = s delta_1: time-one mean is e^{-s}
    s = 0.7
    gen = CircleGenerator(0.0, param([(0.0, s)]))
    r = 1e-4
    vals = [circle_flow_map(gen, 1.0, w, step=1e-3) for w in (r, 1j * r, -r, -1j * r)]
    mean = (vals[0] - vals[2] - 1j * (vals[1] - vals[3])) / (4.0 * r)
    assert mean == pytest.approx(math.exp(-s), abs=1e-8)
    # tracked analytic mean agrees
    flow = circle_monotone_flow(gen, 1.0, 1e-3)
    assert flow.means[-1] == pytest.approx(math.exp(-s))


def test_flow_semigroup_defect():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    assert circle_semigroup_defect(gen, 1.0, 1e-3) <= 1e-6


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
    rep = rotation_correction(spec, 0.3)
    assert [row["ell"] for row in rep["rows"]] == [-1, -1, -1]
    assert rep["corrected_converged"]
    assert not rep["uncorrected_converged"]
    assert all(row["uncorrected"] >= 0.07 for row in rep["rows"])
    assert all(row["corrected"] <= 1e-10 for row in rep["rows"])


def test_unrotated_array_identity_correction():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5)]))
    spec = CircleArraySpec.semigroup(gen, (16, 32))
    rep = rotation_correction(spec, 0.3)
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
    rep = circle_equivalence(spec, 0.3, sig)
    assert rep["beta_condition"]["holds"]
    assert rep["agreement"] and rep["both_converged"]


def test_circle_equivalence_dirac_array():
    # sigma = 0, mu_n = delta_{e^{i beta/n}}: both sides converge to delta_{e^{i beta}}
    beta = 0.9
    gen = CircleGenerator(beta, CircleMeasure.zero())
    measures = {n: CircleMeasure.dirac(beta / n) for n in (16, 32, 64)}
    spec = CircleArraySpec.from_measures(measures, gen)
    rep = circle_equivalence(spec, beta, CircleMeasure.zero())
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
    assert abs(one - got.ravel()[5]) <= 1e-15
    assert np.array_equal(circle_flow_map(gen, 0.0, z), z)
    assert np.array_equal(circle_flow_map(gen, 0.25, list(DISK_GRID)), got.ravel())


def test_disk_flow_error_names_start_point():
    # a strong field at step 0.3 overshoots past the origin on the outer ring
    gen = CircleGenerator(0.0, param([(0.0, 5.0)]))
    points = np.array([0.05, 0.4, 0.3])
    with pytest.raises(FlowError, match=re.escape("z0=(0.4+0j)") + ".*t=0.300000"):
        circle_flow_map(gen, 1.0, points, step=0.3)
    # at the largest allowed step a forty times stronger field does the same
    stiff = CircleGenerator(0.0, param([(0.0, 200.0)]))
    with pytest.raises(FlowError, match=re.escape("z0=(0.4+0j)") + ".*t=0.010000"):
        circle_monotone_flow(stiff, 1.0, 1e-2, points=(0.05, 0.4))


def test_monotone_power_error_names_start_point_and_iteration():
    # eta halves every point but doubles those inside radius 0.06: the inner
    # ring (radius 0.2) gets there after two halvings and grows on the third
    def e(w):
        return w * np.where(np.abs(w) < 0.06, 2.0, 0.5)

    with pytest.raises(FlowError, match=re.escape(f"z0={DISK_GRID[8]!r}") + ".*iteration 3"):
        monotone_power_eta(e, 5)


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
    for z in (DISK_GRID[0], DISK_GRID[3], DISK_GRID[13]):
        assert abs(circle_flow_map(gen, 1.0, z, step=1e-3) - _mp_flow(gen, z)) <= 1e-12


def _per_point_power(e, k, points=DISK_GRID):
    """Reference monotone power: one scalar eta call per point and iteration."""
    out = []
    for z in points:
        w = complex(z)
        for _ in range(k):
            w = complex(e(w))
        out.append(w)
    return out


def test_monotone_power_array_matches_per_point_iteration():
    gen = CircleGenerator(0.3, param([(math.pi, 0.5), (2.0, 0.2)]))
    spec = CircleArraySpec.semigroup(gen, (256,), rotation_ell=1)
    e = spec.eta_of(256)
    grid = monotone_power_eta(e, 256)
    assert eta_distance(grid.values, _per_point_power(e, 256)) <= 1e-13
    mu = CircleMeasure.from_pairs([(0.05, 0.7), (6.2, 0.3)])
    custom = CircleArraySpec.from_measures({64: mu}, gen)
    e = custom.eta_of(64)
    grid = monotone_power_eta(e, 64)
    assert eta_distance(grid.values, _per_point_power(e, 64)) <= 1e-13
