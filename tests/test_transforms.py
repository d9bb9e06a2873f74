import cmath
import math

import mpmath
import numpy as np
import pytest

from conftest import random_probability_measure, random_state_measure
from ncprob.errors import ConvergenceError, RecoveryError, ValidationError
from ncprob.measures import PARAMETER, FiniteAtomicMeasure
from ncprob import transforms
from ncprob.idiv import phi_deriv, phi_eval
from ncprob.transforms import (
    NevanlinnaData,
    TransformGrid,
    ZR,
    cauchy_G,
    eps_line_grid,
    line_density,
    f_transform,
    recover_measure,
    voiculescu_phi,
    weak_distance,
)


def test_cauchy_examples(bernoulli):
    assert cauchy_G(FiniteAtomicMeasure.from_pairs([(0.0, 1.0)]), 1j) == pytest.approx(-1j)
    assert cauchy_G(bernoulli, 1j) == pytest.approx(-0.5j)
    assert cauchy_G(FiniteAtomicMeasure.from_pairs([(0.0, 0.5)]), 2j) == pytest.approx(-0.25j)
    with pytest.raises(ValidationError):
        cauchy_G(bernoulli, 1.0 - 0.5j)


def test_cauchy_bound(rng):
    for _ in range(20):
        mu = random_state_measure(rng)
        for z in (0.3 + 1j, -2.0 + 0.5j, 4j):
            val = cauchy_G(mu, z)
            assert abs(val) <= mu.mass / z.imag + 1e-12
            assert val.imag < 0.0


def test_f_transform_examples(bernoulli):
    f = f_transform(FiniteAtomicMeasure.from_pairs([(2.0, 1.0)]))   # z - 2
    assert (f.m, f.gamma) == (1.0, 2.0)
    assert f.sigma.is_zero
    assert f._e(5j) == pytest.approx(2.0)

    fb = f_transform(bernoulli)          # z - 1/z, checked against 1/G
    for z in ZR:
        assert fb(z) * cauchy_G(bernoulli, z) == pytest.approx(1.0)
        assert fb._e(z) == pytest.approx(1.0 / z)

    half = FiniteAtomicMeasure.from_pairs([(0.0, 0.5)])
    assert f_transform(half)(1j) == pytest.approx(2j)
    assert abs(f_transform(half)._e(1j)) <= 1e-15


def test_imaginary_part_growth(rng, bernoulli):
    # equality only for Dirac: strict inequality at 20 random points for >= 2 atoms
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3.0))
        fb = f_transform(bernoulli)(z)
        assert fb.imag > z.imag / bernoulli.mass + 1e-12
        d = f_transform(FiniteAtomicMeasure.from_pairs([(1.3, 1.0)]))(z)
        assert d.imag == pytest.approx(z.imag)


def test_voiculescu_phi_examples(bernoulli):
    assert voiculescu_phi(FiniteAtomicMeasure.from_pairs([(0.7, 1.0)]), 20j) == pytest.approx(0.7)
    # closed form for the Bernoulli: phi(z) = (sqrt(z^2+4) - z)/2
    z = 20j
    expected = (cmath.sqrt(z * z + 4.0) - z) / 2.0
    assert voiculescu_phi(bernoulli, z) == pytest.approx(expected, abs=1e-11)
    # translation covariance: phi_{mu + a} = a + phi_mu
    shifted = FiniteAtomicMeasure.from_pairs([(1.0, 0.5), (3.0, 0.5)])
    assert voiculescu_phi(shifted, z) == pytest.approx(2.0 + expected, abs=1e-10)


def test_voiculescu_phi_halves_a_step_that_leaves_the_half_plane(bernoulli):
    # F(w) = w - 1/w has F'(i) = 0, so the first Newton step from z = i lands
    # at Im w ~ -2.2e15; halved back into C+, Newton reaches the root
    # (-sqrt(3) + i)/2 of F(w) = i, and unhalved it does not converge
    f, z = f_transform(bernoulli), 1j
    fw, d = f(z) - z, 1.0 - f._e_and_prime(z)[1]
    assert (z - fw / d).imag < -1e15
    w = z + voiculescu_phi(bernoulli, z)
    assert w.imag > 0.0
    assert abs(f(w) - z) <= 1e-12
    assert w == pytest.approx(complex(-math.sqrt(3.0) / 2.0, 0.5), abs=1e-15)


def test_nevanlinna_examples(bernoulli):
    nev = f_transform(bernoulli)
    assert nev.m == 1.0
    assert nev.gamma == pytest.approx(0.0, abs=1e-14)
    assert nev.sigma.atoms == ((pytest.approx(0.0, abs=1e-14), pytest.approx(1.0)),)

    nev2 = f_transform(FiniteAtomicMeasure.from_pairs([(1.5, 1.0)]))
    assert nev2.gamma == pytest.approx(1.5)
    assert nev2.sigma.is_zero

    nev3 = f_transform(FiniteAtomicMeasure.from_pairs([(0.0, 0.5)]))
    assert (nev3.m, nev3.gamma) == (0.5, pytest.approx(0.0))
    assert nev3.sigma.is_zero


def test_nevanlinna_roundtrip(rng):
    # oracle: F = 1/G from the atom sum; the data survive a trip through
    # the recovered measure
    for _ in range(20):
        mu = random_state_measure(rng)
        nev = f_transform(mu)
        for z in ZR:
            assert abs(nev(z) - 1.0 / cauchy_G(mu, z)) <= 1e-9
        rebuilt = f_transform(recover_measure(nev))
        for z in ZR:
            assert abs(rebuilt(z) - nev(z)) <= 1e-9


def test_nevanlinna_rejects_positive_residue():
    # z + 1/z has residue +1 at 0: sigma would need weight -1
    with pytest.raises(ValidationError):
        NevanlinnaData(1.0, 0.0, FiniteAtomicMeasure((0.0,), (-1.0,), PARAMETER))


def test_recover_examples(bernoulli):
    two = FiniteAtomicMeasure.from_pairs([(0.0, 2.0)], role=PARAMETER)
    mu = recover_measure(NevanlinnaData(1.0, 0.0, two))   # F = z - 2/z
    r2 = math.sqrt(2.0)
    assert mu.positions == (pytest.approx(-r2), pytest.approx(r2))
    assert mu.weights == (pytest.approx(0.5), pytest.approx(0.5))
    assert recover_measure(f_transform(FiniteAtomicMeasure.from_pairs([(1.2, 1.0)]))).atoms == (
        (pytest.approx(1.2), pytest.approx(1.0)),)
    zero = FiniteAtomicMeasure((), (), PARAMETER)
    quarter = recover_measure(NevanlinnaData(0.25, 0.0, zero))  # F = 4z
    assert quarter.atoms == ((0.0, pytest.approx(0.25)),)


def test_recover_roundtrip(rng):
    for _ in range(100):
        mu = random_state_measure(rng)
        back = recover_measure(f_transform(mu))
        assert len(back.positions) == len(mu.positions)
        for a, b in zip(back.positions, mu.positions):
            assert abs(a - b) <= 1e-8
        for a, b in zip(back.weights, mu.weights):
            assert abs(a - b) <= 1e-8


def test_recover_rejects_non_transforms(monkeypatch):
    zero = FiniteAtomicMeasure((), (), PARAMETER)
    for m in (-1.0, 0.0, 1.5):   # F = z/m needs m in (0, 1]
        with pytest.raises(ValidationError):
            NevanlinnaData(m, 0.0, zero)
    with pytest.raises(ValidationError):
        NevanlinnaData(1.0, math.nan, zero)
    # the mass guard: eigen-weights that miss the slope mass raise
    monkeypatch.setattr(transforms, "spectral_measure",
                        lambda a, b: (np.linalg.eigvalsh(a), np.full(len(a), 0.25)))
    with pytest.raises(RecoveryError):
        recover_measure(NevanlinnaData.from_parts(1.0, 0.0, [(0.0, 1.0)]))


def _g_arcsine(z):
    s = cmath.sqrt(z * z - 4.0)
    return 1.0 / (s if s.imag > 0 else -s)


def test_line_density_arcsine():
    """The arcsine law of variance 2 has density 1/(2 pi) at 0; eps = 1e-3 smooths it by O(eps)."""
    density = line_density(lambda z: np.array([_g_arcsine(p) for p in z.tolist()]),
                           1e-3, (-3.0, 3.0), 601)
    assert len(density) == 601
    at0 = [d for x, d in density if abs(x) < 1e-9][0]
    assert abs(at0 - 1.0 / (2.0 * math.pi)) <= 1e-3


def test_eps_line_grid_is_an_ndarray_of_complex_points():
    grid = eps_line_grid((-1.0, -0.0), 5, 1e-3)
    assert isinstance(grid, np.ndarray) and grid.dtype == complex
    assert grid.tolist() == [complex(x, 1e-3) for x in np.linspace(-1.0, -0.0, 5)]
    assert math.copysign(1.0, grid[-1].real) == -1.0  # as in complex(-0.0, eps)


def _mp_line_sums(nev, z):
    """F, E, E', Phi, Phi' of the data at z in 30-digit arithmetic, from sigma's form.

    E = gamma - sum s (1+pz)/(p-z) and E' = -sum s (1+p^2)/(p-z)^2: the sums
    as (m, gamma, sigma) state them, not the secular form the package reads.
    """
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        e, de = mpmath.mpf(nev.gamma), mpmath.mpf(0)
        for p, s in nev.sigma.atoms:
            p, s = mpmath.mpf(p), mpmath.mpf(s)
            e -= s * (1 + p * z) / (p - z)
            de -= s * (1 + p * p) / (p - z) ** 2
        log_m = mpmath.log(mpmath.mpf(nev.m))
        return [complex(v) for v in (z / nev.m - e, e, de, -e - log_m * z, -de - log_m)]


@pytest.mark.parametrize("seed", range(8))
def test_line_sums_match_a_30_digit_oracle(seed):
    """F, E, E', Phi and Phi' of 1-4-atom triples, a point or an ndarray, to 1e-12 relative.

    The points run from Im z = 1e-4 beside each atom of sigma out to |z| = 1e3.
    """
    rng = np.random.default_rng(7000 + seed)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        m = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 1.0))
        nev = NevanlinnaData.from_parts(m, rng.uniform(-1.0, 1.0),
                                        zip(rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 1.5, n)))
        pts = [complex(p, 1e-4) for p in nev.sigma.positions]
        pts += [complex(p + 1e-2, 1e-3) for p in nev.sigma.positions]
        pts += [complex(x, y)
                for x, y in zip(rng.uniform(-5.0, 5.0, 6), 10.0 ** rng.uniform(-1, 1, 6))]
        pts += [1e3j, complex(1e3, 1.0), complex(-700.0, 700.0)]
        sums = (nev, nev._e, lambda z: nev._e_and_prime(z)[1], lambda z: phi_eval(nev, z),
                lambda z: phi_deriv(nev, z))
        on_array = [f(np.array(pts)) for f in sums]
        for i, z in enumerate(pts):
            for f, arr, want in zip(sums, on_array, _mp_line_sums(nev, z)):
                assert abs(f(z) - want) <= 1e-12 * abs(want), (z, f)
                assert abs(arr[i] - want) <= 1e-12 * abs(want), (z, f)


def _bits(value):
    return np.asarray(value, dtype=complex).tobytes()


def _e_prime(nev, z):
    """E'(z) = -sum c/(z - p)^2, summed on its own."""
    acc = 0.0
    for p, c in nev._pairs[1]:
        acc = acc - c / (z - p) ** 2
    return acc


def test_e_and_prime_is_e_and_e_prime_bit_for_bit(rng):
    """The one-pass (E, E') gives the floats of _e and of E' summed on its own,
    at a point and elementwise on an ndarray."""
    for n in (0, 1, 3, 7):
        nev = NevanlinnaData.from_parts(1.0, rng.uniform(-1.0, 1.0),
                                        zip(rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 1.5, n)))
        pts = [complex(x, y) for x, y in zip(rng.uniform(-5.0, 5.0, 8), 10.0 ** rng.uniform(-3, 1, 8))]
        for z in pts + [np.array(pts)]:
            e, de = nev._e_and_prime(z)
            assert _bits(e) == _bits(nev._e(z)) and _bits(de) == _bits(_e_prime(nev, z))


def test_weak_distance_examples(bernoulli):
    assert weak_distance(bernoulli, bernoulli) == 0.0
    d0 = FiniteAtomicMeasure.from_pairs([(0.0, 1.0)])
    assert weak_distance(d0, FiniteAtomicMeasure.from_pairs([(0.0, 0.5)])) == pytest.approx(1.0)
    # Lipschitz bound |1/z - 1/(z-h)| <= h/Im(z)^2
    assert weak_distance(d0, FiniteAtomicMeasure.from_pairs([(0.01, 1.0)])) <= 0.011


def test_weak_distance_pseudometric(rng):
    mus = [random_state_measure(rng) for _ in range(6)]
    for a in mus:
        for b in mus:
            assert weak_distance(a, b) == weak_distance(b, a)
            for c in mus:
                assert weak_distance(a, c) <= (
                    weak_distance(a, b) + weak_distance(b, c) + 1e-12
                )


def test_weak_distance_of_a_grid_is_the_python_complex_formula_bit_for_bit(rng):
    """G = 1/F and |G_a - G_b| in Python complex arithmetic, point by point over ZR."""
    for _ in range(5):
        mu, nu = random_state_measure(rng), random_state_measure(rng)
        f = f_transform(nu)
        grid = TransformGrid(np.array([f(z) for z in ZR]), nu.mass)
        g_mu = cauchy_G(mu, np.array(ZR)).tolist()
        want = max(abs(1.0 / v - g) for v, g in zip(grid.values.tolist(), g_mu))
        assert weak_distance(grid, mu) == want + abs(nu.mass - mu.mass)
        assert weak_distance(grid, nu) <= 1e-14


def test_transform_grid_holds_finite_f_on_zr():
    f = np.array(ZR)
    assert TransformGrid(f, 1.0).points == ZR
    for bad in (f[:-1], np.append(f, 1j), f.reshape(2, 5)):
        with pytest.raises(ValidationError, match="points of ZR"):
            TransformGrid(bad, 1.0)
    for value in (complex(math.inf, 1.0), complex(0.0, math.nan)):
        g = f.copy()
        g[3] = value
        with pytest.raises(ValidationError, match="non-finite"):
            TransformGrid(g, 1.0)
