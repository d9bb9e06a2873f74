import signal

import mpmath
import numpy as np
import pytest

from ncprob.measures import FiniteAtomicMeasure


@pytest.fixture
def bernoulli():
    return FiniteAtomicMeasure.from_pairs([(-1.0, 0.5), (1.0, 0.5)])


@pytest.fixture
def no_hang():
    """Fail the test, instead of hanging, if it runs longer than five seconds."""

    def expire(signum, frame):
        raise TimeoutError("call did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_state_measure(rng, max_atoms=6, spread=3.0):
    n = int(rng.integers(1, max_atoms + 1))
    positions = np.sort(rng.uniform(-spread, spread, n))
    while np.any(np.diff(positions) < 0.15):
        positions = np.sort(rng.uniform(-spread, spread, n))
    weights = rng.uniform(0.05, 1.0, n)
    weights = weights / weights.sum() * rng.uniform(0.3, 1.0)
    return FiniteAtomicMeasure.from_pairs(zip(positions, weights))


def random_probability_measure(rng, max_atoms=6, spread=3.0):
    mu = random_state_measure(rng, max_atoms, spread)
    return mu.scale_mass(1.0 / mu.mass)


def mp_phi(m, gamma, sigma):
    """Phi(w) = -gamma - log(m) w + sum s (1 + p w)/(p - w) at the working precision,
    summed as -(gamma + sum s p) - log(m) w + sum s (1 + p^2)/(p - w)."""
    atoms = [(mpmath.mpf(p), mpmath.mpf(s)) for p, s in sigma]
    g = gamma + mpmath.fsum(p * s for p, s in atoms)
    lam, poles = -mpmath.log(m), [(p, s * (1 + p * p)) for p, s in atoms]
    return lambda w: lam * w - g + mpmath.fsum(c / (p - w) for p, c in poles)


def mp_power(f, k, z):
    """The carrier f's F composed k times at z, at 40 digits.

    The data are f's own floats m, gamma' and (p, c), so the oracle measures
    only the rounding of the iteration: F(w) = w/m - gamma' - sum c/(w - p).
    """
    gamma, pairs = f._pairs
    with mpmath.workdps(40):
        m, g = mpmath.mpf(f.m), mpmath.mpf(gamma)
        poles = [(mpmath.mpf(p), mpmath.mpf(c)) for p, c in pairs]
        w = mpmath.mpc(z)
        for _ in range(k):
            w = w / m - g - mpmath.fsum(c / (w - p) for p, c in poles)
        return complex(w)


def mp_time_one(m, gamma, sigma, z, w0):
    """F_1(z) at 50 digits, with no use of the zeros of Phi.

    D(w) = Psi(w) - Psi(z) is the integral of 1/Phi along the segment from z
    to w (1/Phi is analytic in C+), by Gauss-Legendre on pieces that grow
    tenfold from Im z; findroot solves D(w) = 1 by Newton from w0, and stops
    once a step is below 1e-15, which leaves the root within about the
    square of that.  Each quadrature's error estimate must be below 1e-25;
    at m = 0.01, where |F_1(z)| is about 100|z|, that takes degree 6.
    """
    with mpmath.workdps(50):
        phi = mp_phi(m, gamma, sigma)
        z = mpmath.mpc(z)

        def d(w):
            cuts = [0]
            while cuts[-1] < 1:
                cuts.append(min(1, 10 * max(cuts[-1], z.imag / abs(w - z))))
            val, err = mpmath.quad(lambda u: (w - z) / phi(z + u * (w - z)), cuts,
                                   method="gauss-legendre", maxdegree=6, error=True)
            assert err < 1e-25
            return val - 1

        return complex(mpmath.findroot(d, mpmath.mpc(w0), df=lambda w: 1 / phi(w),
                                       solver="newton", tol=1e-15, verify=False))


def mp_upper_root(z, shift, p, c, start, dps):
    """The root of w - a + sum c/(w - p) = 0, a = z - shift, near start, to dps digits."""
    with mpmath.workdps(dps):
        a = mpmath.mpc(z) - mpmath.mpf(shift)
        p, c = [mpmath.mpf(v) for v in p], [mpmath.mpf(v) for v in c]
        return mpmath.findroot(lambda w: w - a + sum(ck / (w - pk) for pk, ck in zip(p, c)),
                               mpmath.mpc(start))
