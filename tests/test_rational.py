"""The eigen-kernels of the pole-residue form, against closed forms and atom sums."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import mp_upper_root
from ncprob import rational
from ncprob.cli import EXIT_NUMERICAL, main
from ncprob.convolutions import monotone_convolve
from ncprob.errors import ConvergenceError, NumericalError, ValidationError
from ncprob.idiv import free_idiv_eval
from ncprob.measures import PARAMETER, FiniteAtomicMeasure
from ncprob.rational import cauchy_zeros, spectral_measure, upper_root
from ncprob.transforms import NevanlinnaData, f_transform, recover_measure

PROBES = tuple(complex(x, y) for y in (0.5, 1.0, 2.0) for x in (-3.0, -1.5, 0.0, 1.5, 3.0))


def g_sum(pairs, z):
    """G from the atom sum, independent of the package's transforms."""
    return sum(w / (z - x) for x, w in pairs)


def assert_g_close(measure, oracle, rel=1e-12):
    for z in PROBES:
        want = oracle(z)
        assert abs(g_sum(measure.atoms, z) - want) <= rel * abs(want)


def uniform_measure(rng, n, mass=1.0):
    """n atoms uniform on [-3, 3] with no minimum gap."""
    w = rng.uniform(0.1, 1.0, n)
    return FiniteAtomicMeasure.from_pairs(zip(rng.uniform(-3.0, 3.0, n), w / w.sum() * mass))


def test_real_roots_simple():
    # G = 1/(z - 2/z) = z/(z^2 - 2): atoms at the roots of z^2 - 2
    r2 = math.sqrt(2.0)
    xs, ws = spectral_measure(np.array([[0.0, r2], [r2, 0.0]]), np.array([1.0, 0.0]))
    assert xs == pytest.approx([-r2, r2], abs=1e-15)
    assert ws == pytest.approx([0.5, 0.5], abs=1e-15)


def test_real_roots_none():
    # the G of a single atom never vanishes
    a, p, c = cauchy_zeros([1.7], [1.0])
    assert a == 1.7
    assert p.size == 0 and c.size == 0


def test_real_roots_golden_ratio():
    # quadratic-formula oracle for z^2 - z - 1; residues of z/(z^2 - z - 1)
    xs, ws = spectral_measure(np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
    s5 = math.sqrt(5.0)
    roots = [(1.0 - s5) / 2.0, (1.0 + s5) / 2.0]
    assert xs == pytest.approx(roots, abs=1e-15)
    assert ws == pytest.approx([r / (2.0 * r - 1.0) for r in roots], abs=1e-15)


def test_real_roots_random_products(rng):
    # zeros of G interlace the atoms, and 1/G = z - a - sum c^2/(z - p)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        x = np.sort(rng.uniform(-5, 5, n))
        w = rng.uniform(0.1, 1.0, n)
        u = np.sqrt(w / w.sum())
        a, p, c = cauchy_zeros(x, u)
        assert np.all(x[:-1] < p) and np.all(p < x[1:])
        for z in PROBES:
            g = np.sum(u * u / (z - x))
            assert abs((z - a - np.sum(c * c / (z - p))) * g - 1.0) <= 1e-12


def test_real_roots_multiplicity():
    # a double eigenvalue carries its eigenspace's weight as one atom
    xs, ws = spectral_measure(np.diag([1.0, 1.0, -2.0]), np.full(3, 1.0 / math.sqrt(3.0)))
    mu = FiniteAtomicMeasure(tuple(xs), tuple(ws))
    assert mu.atoms == ((-2.0, pytest.approx(1.0 / 3.0)), (1.0, pytest.approx(2.0 / 3.0)))


def test_degree_zero_rejected():
    # the zero measure has G = 0 and no F-transform
    with pytest.raises(ValidationError):
        f_transform(FiniteAtomicMeasure((), (), PARAMETER))


def test_compose_linear():
    # (z - 2) o (z - 3) = z - 5
    d = monotone_convolve(FiniteAtomicMeasure.from_pairs([(2.0, 1.0)]),
                          FiniteAtomicMeasure.from_pairs([(3.0, 1.0)]))
    assert d.atoms == ((pytest.approx(5.0), pytest.approx(1.0)),)


def test_compose_self_symbolic(bernoulli):
    # (z - 1/z) o (z - 1/z) = (z^4 - 3 z^2 + 1)/(z^3 - z), expanded by hand
    bb = monotone_convolve(bernoulli, bernoulli)
    assert_g_close(bb, lambda z: (z**3 - z) / (z**4 - 3.0 * z**2 + 1.0), rel=1e-14)


def test_compose_identity(rng):
    # F of delta_0 is the identity on both sides of the composition
    d0 = FiniteAtomicMeasure.from_pairs([(0.0, 1.0)])
    for _ in range(10):
        mu = uniform_measure(rng, int(rng.integers(1, 9)))
        assert_g_close(monotone_convolve(d0, mu), lambda z: g_sum(mu.atoms, z))
        assert_g_close(monotone_convolve(mu, d0), lambda z: g_sum(mu.atoms, z))


def test_compose_associative(rng):
    for _ in range(10):
        a, b, c = (uniform_measure(rng, 3, rng.uniform(0.3, 1.0)) for _ in range(3))
        left = monotone_convolve(monotone_convolve(a, b), c)
        right = monotone_convolve(a, monotone_convolve(b, c))
        assert len(left.positions) == len(right.positions) == 27
        assert_g_close(left, lambda z: g_sum(right.atoms, z))


def test_compose_within_cap(rng):
    # 64 atoms from two 8-atom measures, against G_mu(F_nu(z))
    for _ in range(3):
        mu, nu = uniform_measure(rng, 8), uniform_measure(rng, 8)
        conv = monotone_convolve(mu, nu)
        assert len(conv.positions) == 64
        assert_g_close(conv, lambda z: g_sum(mu.atoms, 1.0 / g_sum(nu.atoms, z)))


def test_compose_has_no_degree_cap():
    # three 9-atom measures composed: 729 atoms from 9 eigen-solves of size 81
    mu = FiniteAtomicMeasure.from_pairs([(float(k), 1.0 / 9.0) for k in range(9)])
    conv = monotone_convolve(mu, monotone_convolve(mu, mu))
    assert len(conv.positions) == 729
    assert conv.mass == pytest.approx(1.0, abs=1e-12)

    def oracle(z):
        f = 1.0 / g_sum(mu.atoms, z)
        return g_sum(mu.atoms, 1.0 / g_sum(mu.atoms, f))

    assert_g_close(conv, oracle, rel=1e-11)


def test_partial_fractions_examples(bernoulli):
    # z - 1/z: one pole at 0 with residue -1, so sigma = delta_0
    nev = f_transform(bernoulli)
    assert nev.sigma.atoms == ((pytest.approx(0.0, abs=1e-15), pytest.approx(1.0)),)

    # (z^2 - 2)/z: sigma = 2 delta_0
    pm = FiniteAtomicMeasure.from_pairs([(-math.sqrt(2.0), 0.5), (math.sqrt(2.0), 0.5)])
    assert f_transform(pm).sigma.atoms == ((pytest.approx(0.0, abs=1e-15), pytest.approx(2.0)),)

    # G = (z + 1/2)/(z^2 - 1): F = z - 1/2 + (3/4)/(-1/2 - z), so
    # s = (3/4)/(1 + 1/4) = 0.6 at p = -1/2 and gamma = 1/2 - s p = 0.8
    nev3 = f_transform(FiniteAtomicMeasure.from_pairs([(-1.0, 0.25), (1.0, 0.75)]))
    assert nev3.gamma == pytest.approx(0.8, abs=1e-15)
    assert nev3.sigma.atoms == ((pytest.approx(-0.5), pytest.approx(0.6)),)


def test_partial_fractions_resummation(rng):
    # random data resum to a measure whose 1/G is the pole-residue form
    for _ in range(20):
        n = int(rng.integers(0, 7))
        sigma = FiniteAtomicMeasure.from_pairs(
            zip(rng.uniform(-4, 4, n), rng.uniform(0.05, 1.5, n)), role=PARAMETER)
        m, gamma = rng.uniform(0.2, 1.0), rng.uniform(-2.0, 2.0)
        nev = NevanlinnaData(m, gamma, sigma)
        mu = recover_measure(nev)
        assert len(mu.positions) == n + 1
        assert mu.mass == pytest.approx(m, rel=1e-14)
        for z in PROBES:
            want = z / m - gamma + sum(s * (1.0 + p * z) / (p - z) for p, s in sigma.atoms)
            assert abs(1.0 / g_sum(mu.atoms, z) - want) <= 1e-12 * abs(want)
            assert abs(nev(z) - want) <= 1e-14 * abs(want)


def test_partial_fractions_rejects_bad_inputs():
    zero = FiniteAtomicMeasure((), (), PARAMETER)
    with pytest.raises(ValidationError):
        NevanlinnaData(1.0, math.inf, zero)
    with pytest.raises(ValidationError):
        NevanlinnaData(1.0, 0.0, FiniteAtomicMeasure((math.nan,), (1.0,), PARAMETER))
    with pytest.raises(ValidationError):
        NevanlinnaData(1.0, 0.0, FiniteAtomicMeasure((0.0,), (-0.5,), PARAMETER))


#: gamma, then sigma's 1-4 atoms as (gap to the previous atom, weight), then
#: where the atoms start: positions at least 0.05 apart in [-3, 8]
triples = st.tuples(
    st.floats(-2.0, 2.0),
    st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 1.0)), min_size=1, max_size=4),
    st.floats(-3.0, 0.0),
)


@settings(max_examples=80, deadline=None)
@given(triples, st.floats(-6.0, 6.0), st.floats(1e-4, 10.0), st.sampled_from([1, 2, 64, 4096]))
def test_upper_root_is_the_only_root_in_the_upper_half_plane(triple, x, y, k):
    """The free law of the triple (1, k gamma, k sigma) at z = x + iy.

    Its F(z) solves w - a + sum c/(w - p) = 0 with a = z - k gamma' and
    weights k c.  The arrowhead has exactly one eigenvalue in C+, and the
    kernel's root matches a 30-digit mpmath root of the same equation.
    """
    gamma, atoms, start = triple
    p = start + np.cumsum([gap for gap, _ in atoms])
    s = np.array([w for _, w in atoms])
    c = k * s * (1.0 + p * p)
    shift = k * (gamma + float(p @ s))
    z = complex(x, y)
    arrow = np.diag(np.concatenate(([z - shift], p))).astype(complex)
    arrow[0, 1:] = arrow[1:, 0] = 1j * np.sqrt(c)
    assert (np.linalg.eigvals(arrow).imag > 0.0).sum() == 1
    w = upper_root(z, shift, p, c)
    exact = mp_upper_root(z, shift, p, c, w, 30)
    assert exact.imag > 0
    assert abs(w - complex(exact)) <= 1e-12 * abs(w)


def test_upper_root_fails_loudly_without_a_root_in_the_upper_half_plane(monkeypatch, tmp_path, capsys):
    """Newton stuck at its start and an eigen-solve with no root in C+ raise, naming z.

    The CLI exits 3.
    """
    eigvals = np.linalg.eigvals

    def lower(a):
        e = eigvals(a)
        return e.real - 1j * np.abs(e.imag)

    monkeypatch.setattr(rational, "_newton_step", lambda wr, wi, ar, ai, pairs: (wr, wi, 0.0))
    monkeypatch.setattr(rational.np.linalg, "eigvals", lower)
    triple = NevanlinnaData.from_parts(1.0, 0.3, [(-1.0, 0.4), (2.0, 0.3)])
    z = complex(0.25, 1e-3)
    with pytest.raises(ConvergenceError, match=re.escape(repr(z))):
        free_idiv_eval(triple, np.array([z, 2j]))
    assert main(["idiv", "--op", "free", "--sigma", "0:1", "--bins", "21",
                 "--output", str(tmp_path / "free")]) == EXIT_NUMERICAL
    assert "upper half-plane at z=" in capsys.readouterr().err


def test_upper_root_rescues_a_newton_root_in_the_lower_half_plane(monkeypatch):
    """Newton from a + i sqrt(sum c) lands on a root in C- at this z.

    The eigen-solve re-solves that point, and only that point: as a scalar,
    and inside ndarrays of points that Newton certifies, one small enough
    to go point by point and one run as lanes.
    """
    p = np.array([-22.250182793656503, -14.391818872848889, -8.248349742419462,
                  -7.978783722308088, -0.8148086318106725, 19.468522215165482])
    c = np.array([1.8499897687112468e-06, 0.4835493990710421, 0.012074717805145126,
                  0.01485380833303705, 0.025645403841089376, 18.45616502684269])
    z = complex(-8.71781429591178, 0.0006071303720952923)
    eigvals, stacks = np.linalg.eigvals, []

    def spy(a):
        stacks.append(a.shape[:-2])
        return eigvals(a)

    monkeypatch.setattr(rational.np.linalg, "eigvals", spy)
    w = upper_root(z, 0.0, p, c)
    small = upper_root(np.array([z, complex(1.0, 1.0)]), 0.0, p, c)
    lanes = upper_root(np.append(z, np.linspace(-10.0, 10.0, 31) + 1e-3j), 0.0, p, c)
    assert stacks == [(1,), (1,), (1,)]
    assert small[0] == w and lanes[0] == w
    exact = mp_upper_root(z, 0.0, p, c, w, 30)
    assert exact.imag > 0
    assert abs(w - complex(exact)) <= 1e-12 * abs(w)


#: sigma: a centre in [-5, 5], a cluster of 1-5 atoms as (log10 gap to the
#: previous atom, log10 weight) with gaps down to 1e-6 and weights down to
#: 1e-9, and at times one far atom as (log10 distance, right side, log10 weight)
hard_triples = st.tuples(
    st.floats(-5.0, 5.0),
    st.lists(st.tuples(st.floats(-6.0, 0.0), st.floats(-9.0, 0.0)), min_size=1, max_size=5),
    st.none() | st.tuples(st.floats(2.0, 4.0), st.booleans(), st.floats(-9.0, -6.0)),
)


# an atom at 1e4 makes the arrowhead's norm 1e4 at a root of size 1e-4:
# the eigen-solve is off by 1.4e-8 relative there
@example((-0.3, [(-6.0, -7.0)], (4.0, True, -9.0)), 2, 9e-05, -6.0)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(hard_triples, st.sampled_from([2, 64, 4096]), st.floats(-8.0, 8.0), st.floats(-12.0, 1.0))
def test_upper_root_matches_40_digit_roots_on_hard_inputs(triple, k, x, log_y):
    """The free power k of the triple's law at z = x + i 10^log_y.

    Its F solves w - a + sum (k-1) c/(w - p) = 0.  Every point passes the
    certificate (upper_root raises otherwise) and lies within 1e-12
    relative of the 40-digit root.
    """
    centre, cluster, far = triple
    p = centre + np.cumsum([10.0 ** gap for gap, _ in cluster])
    s = np.array([10.0 ** weight for _, weight in cluster])
    if far is not None:
        log_d, right, log_w = far
        p = np.append(p, (1.0 if right else -1.0) * 10.0 ** log_d)
        s = np.append(s, 10.0 ** log_w)
    order = np.argsort(p)
    p, s = p[order], s[order]
    c = (k - 1) * s * (1.0 + p * p)
    z = complex(x, 10.0 ** log_y)
    w = upper_root(z, 0.0, p, c)
    exact = mp_upper_root(z, 0.0, p, c, w, 40)
    assert exact.imag > 0
    assert abs(w - complex(exact)) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("solver, call, kernel", [
    ("eigh", lambda: spectral_measure(np.eye(2), np.ones(2)), "spectral_measure"),
    ("eigh", lambda: cauchy_zeros(np.array([-1.0, 1.0]), np.array([0.6, 0.8])), "cauchy_zeros"),
    ("eigvals", lambda: upper_root(np.array([0.5 + 1e-3j]), 0.0, np.array([0.0]), np.array([1.0])),
     "upper_root's arrowhead"),
    ("eigvalsh", lambda: NevanlinnaData.from_parts(0.5, 0.2, [(1.0, 0.3)])._abel, "zeros of Phi"),
    ("eigvalsh", lambda: NevanlinnaData.from_parts(1.0, 0.2, [(1.0, 0.3)])._abel, "zeros of Phi"),
], ids=["spectral_measure", "cauchy_zeros", "upper_root", "abel_m_below_1", "abel_m_1"])
def test_a_failed_eigen_solve_is_a_numerical_error(monkeypatch, solver, call, kernel):
    """numpy's LinAlgError (no convergence, a non-finite entry) names the kernel it hit."""
    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, solver, fails)
    if solver == "eigvals":  # the arrowhead re-solves only points Newton leaves uncertified
        monkeypatch.setattr(rational, "_NEWTON_STEPS", 0)
    with pytest.raises(NumericalError, match=re.escape(kernel) + ".*did not converge"):
        call()
