import cmath
import collections
import math

import mpmath
import numpy as np
import pytest

from conftest import random_probability_measure, random_state_measure
from ncprob import convolutions, transforms
from ncprob.convolutions import (
    boolean_convolve,
    boolean_power,
    classical_convolve,
    classical_power_cf,
    free_convolve,
    free_convolve_F,
    free_power_grid,
    monotone_convolve,
)
from ncprob.errors import ConvergenceError, ValidationError
from ncprob.harness import ArraySpec
from ncprob.measures import FiniteAtomicMeasure
from ncprob.rational import cauchy_zeros
from ncprob.transforms import (
    TransformGrid,
    ZR,
    cauchy_G,
    f_powers,
    f_transform,
    voiculescu_phi,
    weak_distance,
)


def grid_of(fn, mass=1.0):
    return TransformGrid(np.array([fn(z) for z in ZR]), mass)


def f_sqrt_branch(z, shift):
    s = cmath.sqrt(z * z - shift)
    return s if s.imag > 0 else -s


def test_classical_examples(bernoulli):
    conv = classical_convolve(bernoulli, bernoulli)
    assert conv.atoms == ((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25))
    mu = FiniteAtomicMeasure.from_pairs([(0.5, 0.3), (2.0, 0.7)])
    shifted = classical_convolve(FiniteAtomicMeasure.from_pairs([(1.5, 1.0)]), mu)
    assert shifted.atoms == FiniteAtomicMeasure.from_pairs([(2.0, 0.3), (3.5, 0.7)]).atoms
    half = FiniteAtomicMeasure.from_pairs([(0.0, 0.5)])
    assert classical_convolve(half, half).atoms == ((0.0, 0.25),)


def test_boolean_examples(bernoulli):
    # partial-fraction oracle: E doubles, F = z - 2/z, G poles at +-sqrt(2)
    conv = boolean_convolve(bernoulli, bernoulli)
    r2 = math.sqrt(2.0)
    assert conv.positions == (pytest.approx(-r2, abs=1e-12), pytest.approx(r2, abs=1e-12))
    assert conv.weights == (pytest.approx(0.5), pytest.approx(0.5))

    d = boolean_convolve(FiniteAtomicMeasure.from_pairs([(1.0, 1.0)]),
                         FiniteAtomicMeasure.from_pairs([(2.5, 1.0)]))
    assert d.atoms == ((pytest.approx(3.5), pytest.approx(1.0)),)

    half = FiniteAtomicMeasure.from_pairs([(0.0, 0.5)])
    hh = boolean_convolve(half, half)
    assert hh.atoms == ((pytest.approx(0.0, abs=1e-14), pytest.approx(0.25)),)


def test_mass_multiplicative(rng):
    for _ in range(10):
        mu, nu = random_state_measure(rng, 3), random_state_measure(rng, 3)
        assert boolean_convolve(mu, nu).mass == pytest.approx(mu.mass * nu.mass, rel=1e-10)
        assert monotone_convolve(mu, nu).mass == pytest.approx(mu.mass * nu.mass, rel=2e-9)


def test_monotone_examples(bernoulli):
    d = monotone_convolve(FiniteAtomicMeasure.from_pairs([(1.0, 1.0)]),
                          FiniteAtomicMeasure.from_pairs([(2.0, 1.0)]))
    assert d.atoms == ((pytest.approx(3.0), pytest.approx(1.0)),)

    # residue oracle on G = w/(w^2-1), w = z - 1/z: atoms at the roots of
    # z^4 - 3z^2 + 1 (z^2 = (3 +- sqrt5)/2), weights (x^2-1)/(4x^2-6)
    bb = monotone_convolve(bernoulli, bernoulli)
    s5 = math.sqrt(5.0)
    outer = math.sqrt((3.0 + s5) / 2.0)
    inner = math.sqrt((3.0 - s5) / 2.0)
    w_outer = (5.0 + s5) / 20.0
    w_inner = (5.0 - s5) / 20.0
    assert bb.positions == (
        pytest.approx(-outer, abs=1e-10), pytest.approx(-inner, abs=1e-10),
        pytest.approx(inner, abs=1e-10), pytest.approx(outer, abs=1e-10))
    assert bb.weights == (
        pytest.approx(w_outer, abs=1e-10), pytest.approx(w_inner, abs=1e-10),
        pytest.approx(w_inner, abs=1e-10), pytest.approx(w_outer, abs=1e-10))


def test_monotone_non_commutative(bernoulli):
    d1 = FiniteAtomicMeasure.from_pairs([(1.0, 1.0)])
    left = monotone_convolve(bernoulli, d1)   # F_b(z - 1): the translate
    right = monotone_convolve(d1, bernoulli)  # F_b(z) - 1: golden-ratio atoms
    assert left.positions == (pytest.approx(0.0, abs=1e-12), pytest.approx(2.0))
    assert left.weights == (pytest.approx(0.5), pytest.approx(0.5))
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert right.positions == (pytest.approx(-1.0 / phi), pytest.approx(phi))
    assert weak_distance(left, right) >= 0.1


def test_monotone_associative(rng):
    for _ in range(8):
        ms = [random_state_measure(rng, 2) for _ in range(3)]
        left = monotone_convolve(monotone_convolve(ms[0], ms[1]), ms[2])
        right = monotone_convolve(ms[0], monotone_convolve(ms[1], ms[2]))
        assert weak_distance(left, right) <= 1e-10


def test_commutativity(rng, bernoulli):
    for _ in range(5):
        mu, nu = random_state_measure(rng, 3), random_state_measure(rng, 3)
        assert weak_distance(classical_convolve(mu, nu),
                             classical_convolve(nu, mu)) <= 1e-10
        assert weak_distance(boolean_convolve(mu, nu),
                             boolean_convolve(nu, mu)) <= 1e-10
    mu = random_probability_measure(rng, 3)
    nu = random_probability_measure(rng, 3)
    ab = free_convolve(mu, nu)
    ba = free_convolve(nu, mu)
    assert max(abs(x - y) for x, y in zip(ab.values, ba.values)) <= 1e-10


def test_free_translation(bernoulli):
    d = FiniteAtomicMeasure.from_pairs([(0.8, 1.0)])
    conv = free_convolve(d, bernoulli)
    fb = f_transform(bernoulli)
    for z, v in zip(conv.points, conv.values):
        assert v == pytest.approx(fb(z - 0.8), abs=1e-10)


def test_free_bernoulli_arcsine(bernoulli):
    conv = free_convolve(bernoulli, bernoulli)
    for z, v in zip(conv.points, conv.values):
        assert abs(1.0 / v - 1.0 / f_sqrt_branch(z, 4.0)) <= 1e-8


def test_free_power_cross_route(bernoulli):
    # phi-additivity: b boxplus b by subordination against the secular root
    # of the free power, and that root's b^{boxplus 4} against Kesten-McKay
    fb = f_transform(bernoulli)
    f2 = free_convolve_F(fb, fb)
    square = free_power_grid(bernoulli, 2)
    for z, v in zip(square.points, square.values):
        assert abs(v - f2(z)) <= 1e-10 * abs(v)
    fourth = free_power_grid(bernoulli, 4)
    for z, v in zip(fourth.points, fourth.values):
        assert abs(1.0 / v - _kesten_mckay_g(z, 4)) <= 1e-10 * abs(_kesten_mckay_g(z, 4))


def test_free_needs_probability(rng):
    half = FiniteAtomicMeasure.from_pairs([(0.0, 0.5)])
    with pytest.raises(ValidationError):
        free_convolve(half, half)
    with pytest.raises(ValidationError):
        free_power_grid(half, 3)
    quarters = f_transform(FiniteAtomicMeasure.from_pairs([(-1.0, 0.25), (1.0, 0.25)]))
    with pytest.raises(ValidationError):
        free_convolve_F(quarters, f_transform(random_probability_measure(rng)))


def _arrow(nev, w):
    """A(w) = [[gamma' + w, sqrt(c)^T], [sqrt(c), diag p]]: its eigenvalues solve F(omega) = w."""
    gamma, p, c = nev._secular
    a = np.diag(np.concatenate(([gamma + w], p))).astype(complex)
    a[0, 1:] = a[1:, 0] = np.sqrt(c)
    return a


def _subordination_certificate(mu, nu, z):
    """Every w for which omega_1 + omega_2 = z + w with F_mu(omega_1) = F_nu(omega_2) = w
    and Im omega_1, Im omega_2 > 0; the free convolution's F(z) is the only one.

    omega_1 + omega_2 is an eigenvalue of the Kronecker sum A_mu(w) (+) A_nu(w) =
    K + w (E (+) E), with K = A_mu(0) (+) A_nu(0) and E = e0 e0^T.  So z + w is
    one exactly when 1/w is an eigenvalue of (K - zI)^{-1} (I - E (+) E); the
    null space of I - E (+) E gives eigenvalues 0, which round to about 1e-14
    here.
    """
    fm, fn = f_transform(mu), f_transform(nu)
    am, an = _arrow(fm, 0.0), _arrow(fn, 0.0)
    im, jn = np.eye(len(am)), np.eye(len(an))
    em, en = np.zeros_like(im), np.zeros_like(jn)
    em[0, 0] = en[0, 0] = 1.0
    eye = np.eye(len(am) * len(an))
    k = np.kron(am, jn) + np.kron(im, an)
    lam = np.linalg.eigvals(np.linalg.solve(k - z * eye, eye - np.kron(em, jn) - np.kron(im, en)))
    found = []
    for w in 1.0 / lam[abs(lam) > 1e-9]:
        o1, o2 = np.linalg.eigvals(_arrow(fm, w)), np.linalg.eigvals(_arrow(fn, w))
        o1, o2 = o1[o1.imag > 0.0], o2[o2.imag > 0.0]
        if o1.size and o2.size and abs(o1[:, None] + o2 - z - w).min() <= 1e-8 * (1.0 + abs(z + w)):
            found.append(complex(w))
    return found


def _assert_certified(mu, nu, points):
    engine = free_convolve_F(f_transform(mu), f_transform(nu))
    for z in points:
        (w,) = _subordination_certificate(mu, nu, z)
        assert abs(engine(z) - w) <= 1e-10 * abs(w)


# convolve workload, seed 1, jobs 54, 94, 119 and 136: on parts of Im z = 0.03 the
# plain fixed point w <- z + h_mu(z + h_nu(w)) does not settle within 500 steps
# (first at z = -1.7346938775510203 + 0.03i in job 54)
_NEAR_AXIS_PAIRS = [
    ([(-0.01040083122611346, 0.35930486269769113), (2.9581152933011223, 0.640695137302309)],
     [(-2.849853315558625, 0.23205260682903994), (1.2499315533418072, 0.7679473931709601)]),
    ([(-2.0986511199163846, 0.4017786458343116), (2.816271771806986, 0.300079877298565),
      (-1.9062887138776772, 0.2144579694682044), (2.5246495821182764, 0.08368350739891896)],
     [(2.6925851937143834, 0.08806465692126049), (-2.1818945723369243, 0.2005177926130123),
      (2.9358620488659293, 0.20386161241413278), (2.68931456971053, 0.3028849697160081),
      (1.6939503981863906, 0.20467096833558632)]),
    ([(0.5531737994054025, 0.12144703219227962), (-2.790561024956946, 0.19977177632155846),
      (0.7406827424827709, 0.27130804896341454), (1.537601083957675, 0.17064424123146954),
      (0.8806529483671377, 0.23682890129127787)],
     [(-2.2605714446900276, 0.17469884738619243), (2.7203321846505224, 0.8253011526138075)]),
    ([(-2.771210050155916, 0.21391727073481828), (2.270722597621125, 0.7860827292651817)],
     [(2.597772779607176, 0.4247128353580909), (-2.151732009069749, 0.2008385759818581),
      (2.896177146439987, 0.374448588660051)]),
]

#: ROADMAP item 4: 50 points of Im z = 0.03 across [-5, 5]
_NEAR_AXIS_LINE = [complex(x, 0.03) for x in np.linspace(-5.0, 5.0, 50)]


@pytest.mark.parametrize("mu_pairs, nu_pairs", _NEAR_AXIS_PAIRS,
                         ids=["job54", "job94", "job119", "job136"])
def test_free_near_axis_stalls_certified(mu_pairs, nu_pairs):
    mu, nu = FiniteAtomicMeasure.from_pairs(mu_pairs), FiniteAtomicMeasure.from_pairs(nu_pairs)
    _assert_certified(mu, nu, _NEAR_AXIS_LINE)


def test_free_near_axis_work_count():
    """The subordination steps on the 200 near-axis points of the four pairs, pinned.

    Counts are exact on any machine, so a change that adds or saves
    fixed-point or Newton steps shows here at once; one that does so on
    purpose updates the pin.
    """
    tally = collections.Counter()
    for mu_pairs, nu_pairs in _NEAR_AXIS_PAIRS:
        engine = free_convolve_F(f_transform(FiniteAtomicMeasure.from_pairs(mu_pairs)),
                                 f_transform(FiniteAtomicMeasure.from_pairs(nu_pairs)))
        for z in _NEAR_AXIS_LINE:
            engine(z)
        tally.update(engine.steps)
    assert tally == {"warmup": 2749, "newton": 962}


def test_free_fixed_point_fallback_is_certified_or_raises(monkeypatch):
    """With no halvings allowed, every Newton step falls back to a fixed-point step.

    On the job54 pair near the axis the fallback settles at some points and
    not at others: each point returns F within 1e-12 of the certificate or
    raises ConvergenceError naming its z, never a wrong value, and some
    point settles after fallback steps.
    """
    monkeypatch.setattr(convolutions, "_HALVINGS", 0)
    mu = FiniteAtomicMeasure.from_pairs([(-0.01040083122611346, 0.35930486269769113),
                                         (2.9581152933011223, 0.640695137302309)])
    nu = FiniteAtomicMeasure.from_pairs([(-2.849853315558625, 0.23205260682903994),
                                         (1.2499315533418072, 0.7679473931709601)])
    engine = free_convolve_F(f_transform(mu), f_transform(nu))
    settled_by_fallback = 0
    for z in [complex(x, y) for y in (0.03, 0.3) for x in np.linspace(-5.0, 5.0, 21)]:
        before = engine.steps["newton"]
        try:
            value = engine(z)
        except ConvergenceError as exc:
            assert f"z={z}" in str(exc)
            continue
        (w,) = _subordination_certificate(mu, nu, z)
        assert abs(value - w) <= 1e-12 * abs(w)
        # every Newton step but the last, which stops, was a fallback step
        settled_by_fallback += engine.steps["newton"] - before >= 2
    assert settled_by_fallback


def test_free_matches_certificate():
    # 2-8 atoms uniform on [-3, 3] with no minimum gap, as the convolve workload draws them
    rng = np.random.default_rng(19)
    xs = np.linspace(-5.0, 5.0, 11)
    for _ in range(12):
        pair = []
        for _ in range(2):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.1, 1.0, n)
            pair.append(FiniteAtomicMeasure.from_pairs(zip(rng.uniform(-3.0, 3.0, n), w / w.sum())))
        mu, nu = pair
        _assert_certified(mu, nu, [complex(x, y) for y in (0.03, 0.3, 3.0) for x in xs])
        ab = free_convolve_F(f_transform(mu), f_transform(nu))
        ba = free_convolve_F(f_transform(nu), f_transform(mu))
        for x in xs:
            z = complex(x, 0.03)
            assert abs(ab(z) - ba(z)) <= 1e-10 * abs(ab(z))


def test_f_data_built_once_per_measure(monkeypatch):
    """f_transform caches its data on the measure: the five operations of one
    convolve job (classical, Boolean, monotone, free on ZR and on the line)
    find the zeros of G once per measure."""
    calls = []

    def counted(x, u):
        calls.append(len(x))
        return cauchy_zeros(x, u)

    monkeypatch.setattr(transforms, "cauchy_zeros", counted)
    mu = FiniteAtomicMeasure.from_pairs([(-1.2, 0.3), (0.4, 0.5), (2.1, 0.2)])
    nu = FiniteAtomicMeasure.from_pairs([(-0.5, 0.6), (1.7, 0.4)])
    classical_convolve(mu, nu)
    boolean_convolve(mu, nu)
    monotone_convolve(mu, nu)
    free_convolve(mu, nu)
    engine = free_convolve_F(f_transform(mu), f_transform(nu))
    for z in _NEAR_AXIS_LINE:
        engine(z)
    assert calls == [3, 2]
    assert f_transform(mu) is f_transform(mu)
    assert len(calls) == 2


def test_free_ops_take_mass_within_slack_as_one():
    """A measure of mass 1 - 1e-10 is a probability measure to the free ops, as to the carrier."""
    mu = FiniteAtomicMeasure.from_pairs([(-1.0, 0.3333333333), (0.5, 0.3333333333),
                                         (2.0, 0.3333333333)])
    unit = mu.scale_mass(1.0 / mu.mass)
    pairs = [(free_convolve(mu, mu).values, free_convolve(unit, unit).values),
             (free_power_grid(mu, 4).values, free_power_grid(unit, 4).values),
             ([voiculescu_phi(mu, 5j)], [voiculescu_phi(unit, 5j)])]
    for got, want in pairs:
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-8 * abs(b)


def test_boolean_power_examples(bernoulli):
    p2 = boolean_power(bernoulli, 2)
    r2 = math.sqrt(2.0)
    assert p2.positions == (pytest.approx(-r2), pytest.approx(r2))

    for k in (2, 5, 17, 256):
        scaled = boolean_power(bernoulli.dilate(1.0 / math.sqrt(k)), k)
        assert weak_distance(scaled, bernoulli) <= 1e-12

    dk = boolean_power(FiniteAtomicMeasure.from_pairs([(0.3, 1.0)]), 7)
    assert dk.atoms == ((pytest.approx(2.1), pytest.approx(1.0)),)


def _monotone_power(mu, k):
    """mu's k-fold monotone power on ZR: its exact F composed k times by f_powers."""
    (values,) = f_powers([(f_transform(mu), k, np.array(ZR), f"k={k}")])
    return TransformGrid(values, mu.mass ** k)


def test_monotone_power_examples(bernoulli):
    g = _monotone_power(FiniteAtomicMeasure.from_pairs([(0.5, 1.0)]), 6)
    for z, v in zip(g.points, g.values):
        assert v == pytest.approx(z - 3.0)

    exact = monotone_convolve(bernoulli, bernoulli)
    grid = _monotone_power(bernoulli, 2)
    assert weak_distance(grid, exact) <= 1e-12

    clt = _monotone_power(bernoulli.dilate(1.0 / 16.0), 256)
    target = grid_of(lambda z: f_sqrt_branch(z, 2.0))
    assert weak_distance(clt, target) <= 0.05


def test_free_convolve_is_f_on_zr(rng):
    """The benchmark's contract: the grid's points are ZR and its values carry .imag."""
    mu, nu = random_probability_measure(rng, 3), random_probability_measure(rng, 2)
    conv = free_convolve(mu, nu)
    assert conv.points == ZR and conv.mass == 1.0
    for z, v in zip(conv.points, conv.values):
        assert v.imag >= z.imag * (1.0 - 1e-12)


def test_monotone_power_matches_repeated_convolve(rng):
    for _ in range(5):
        mu = random_state_measure(rng, 2)
        exact = mu
        for k in range(2, 5):
            exact = monotone_convolve(exact, mu)
            grid = _monotone_power(mu, k)
            ge = grid_of(f_transform(exact), exact.mass)
            assert max(abs(a - b) for a, b in zip(grid.values, ge.values)) <= 1e-10


def test_classical_power_cf(bernoulli):
    cf = classical_power_cf(bernoulli, 2)
    assert cf(math.pi) == pytest.approx(1.0)  # cos(pi)^2
    d = classical_power_cf(FiniteAtomicMeasure.from_pairs([(2.0, 1.0)]), 3)
    assert d(0.5) == pytest.approx(cmath.exp(3j))


def test_free_power_dirac():
    g = free_power_grid(FiniteAtomicMeasure.from_pairs([(0.4, 1.0)]), 5)
    for z, v in zip(g.points, g.values):
        assert v == pytest.approx(z - 2.0, abs=1e-10)


def test_free_power_arcsine(bernoulli):
    g = free_power_grid(bernoulli, 2)
    for z, v in zip(g.points, g.values):
        assert abs(1.0 / v - 1.0 / f_sqrt_branch(z, 4.0)) <= 1e-8


def _cplus1_sup(rho):
    # |G_rho| attains its C^+_1 sup on the boundary line; dense scan plus
    # golden refinement around the best point
    import numpy as np

    xs = np.linspace(-15.0, 15.0, 10001)
    vals = np.abs(cauchy_G(rho, xs + 1j))
    i = int(np.argmax(vals))
    lo, hi = xs[max(0, i - 1)], xs[min(len(xs) - 1, i + 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    for _ in range(80):
        c, d = b - gr * (b - a), a + gr * (b - a)
        if abs(cauchy_G(rho, complex(c, 1.0))) > abs(cauchy_G(rho, complex(d, 1.0))):
            b = d
        else:
            a = c
    return abs(cauchy_G(rho, complex(0.5 * (a + b), 1.0)))


def test_composition_contracts_cauchy_norm(rng):
    # right-composition with an F-transform keeps |G_rho| below its C^+_1 sup,
    # checked at 100 fixed points of C^+_1
    samples = [complex(x, y) for y in (1.0, 1.5, 2.5, 5.0, 10.0)
               for x in np.linspace(-10.0, 10.0, 20)]
    for _ in range(5):
        rho = random_state_measure(rng)
        sup = _cplus1_sup(rho)
        f = f_transform(random_probability_measure(rng))
        for z in samples:
            assert abs(cauchy_G(rho, f(z))) <= sup + 1e-12


def _g_sum(pairs, z):
    return sum(w / (z - x) for x, w in pairs)


def test_clustered_atoms_exact_algebra():
    # 4-8 atoms uniform on [-3, 3] with no minimum gap, sub-probability
    # masses; oracles from atom sums: G_mu(F_nu(z)) and E_mu + E_nu
    rng = np.random.default_rng(7)
    probes = [complex(x, y) for y in (0.5, 1.0, 2.0) for x in (-3.0, -1.0, 0.0, 1.0, 3.0)]
    for _ in range(50):
        pair = []
        for _ in range(2):
            n = int(rng.integers(4, 9))
            w = rng.uniform(0.1, 1.0, n)
            w = w / w.sum() * rng.uniform(0.3, 1.0)
            pair.append(FiniteAtomicMeasure.from_pairs(zip(rng.uniform(-3.0, 3.0, n), w)))
        mu, nu = pair
        mass = mu.mass * nu.mass
        mono, boole = monotone_convolve(mu, nu), boolean_convolve(mu, nu)
        assert abs(mono.mass - mass) <= 1e-12 and abs(boole.mass - mass) <= 1e-12
        for z in probes:
            gm, gn = _g_sum(mu.atoms, z), _g_sum(nu.atoms, z)
            want_mono = _g_sum(mu.atoms, 1.0 / gn)
            e_sum = (z / mu.mass - 1.0 / gm) + (z / nu.mass - 1.0 / gn)
            want_bool = 1.0 / (z / mass - e_sum)
            assert abs(_g_sum(mono.atoms, z) - want_mono) <= 1e-12 * abs(want_mono)
            assert abs(_g_sum(boole.atoms, z) - want_bool) <= 1e-12 * abs(want_bool)


def _kesten_mckay_g(z, k):
    """G of the k-fold free power of the symmetric Bernoulli law."""
    s = cmath.sqrt(z * z - 4.0 * (k - 1))
    roots = [((k - 2) * z + sign * k * s) / (2.0 * (k * k - z * z)) for sign in (1, -1)]
    return min(roots, key=lambda g: g.imag)   # the branch with Im G < 0


def _mp_free_power_f(mu, k, z):
    """F of the k-fold free power, solving k v + (1-k) F(v) = z at 50 digits from v = z."""
    with mpmath.workdps(50):
        def f(v):
            return 1 / sum(w / (v - x) for x, w in mu.atoms)

        v = mpmath.findroot(lambda v: k * v + (1 - k) * f(v) - z, mpmath.mpc(z))
        return complex(f(v))


def test_free_power_large_k(bernoulli):
    # rows k = n = 2048, 4096 of the fixed Bernoulli and poisson(1.0) arrays
    fixed, poisson = ArraySpec.fixed((2048, 4096)), ArraySpec.poisson(1.0, (2048, 4096))
    for k, mu, row in zip(fixed.ks, fixed.rows, poisson.rows):
        grid = free_power_grid(mu, k)
        for z, v in zip(grid.points, grid.values):
            assert abs(1.0 / v - _kesten_mckay_g(z, k)) <= 1e-10 * abs(_kesten_mckay_g(z, k))
        grid = free_power_grid(row, k)
        for z, v in zip(grid.points, grid.values):
            assert abs(v - _mp_free_power_f(row, k, z)) <= 1e-10 * abs(v)
