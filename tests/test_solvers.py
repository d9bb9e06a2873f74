import re

import pytest

from ncprob.errors import ConvergenceError
from ncprob.solvers import MAX_ITER, newton


def anywhere(w):
    return True


def test_newton_fails_on_a_zero_derivative():
    with pytest.raises(ConvergenceError, match=re.escape("probe: zero derivative at 0j")):
        newton(lambda w: w * w + 1.0, lambda w: 2.0 * w, 0.0, anywhere, label="probe")


def test_newton_fails_on_a_step_that_cannot_stay_in_the_domain():
    # from Im w = 1e-300, sixty halvings of the step -i still leave C+
    want = "probe: the step from 1e-300j cannot stay in the domain"
    with pytest.raises(ConvergenceError, match=re.escape(want)):
        newton(lambda w: w + 1j, lambda w: 1.0, 1e-300j, lambda w: w.imag > 0.0,
               label="probe")


def test_newton_fails_without_convergence():
    # w^2 + 1 has no real root, and Newton from a real start stays real
    calls = []

    def f(w):
        calls.append(w)
        return w * w + 1.0

    with pytest.raises(ConvergenceError,
                       match=re.escape("probe: no convergence from 0.5 (residual ")):
        newton(f, lambda w: 2.0 * w, 0.5, anywhere, label="probe")
    assert len(calls) > MAX_ITER
    assert all(w.imag == 0.0 for w in calls)
