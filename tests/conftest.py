import signal

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
