"""Scalar complex Newton iteration inside an open domain."""

from __future__ import annotations

from .errors import ConvergenceError

#: Newton iterations before a solve gives up
MAX_ITER = 100


def newton(f, df, z0, inside, tol=1e-12, label="newton"):
    """Solve f(w) = 0 from w = z0 in at most MAX_ITER steps, keeping w where inside(w).

    inside is the predicate of an open domain, such as Im w > 0 for the
    upper half-plane, that holds at z0.  Each Newton step
    is halved until it lands inside, at most 60 times.  Returns w with
    |f(w)| <= tol; raises ConvergenceError, prefixed by label, on a zero
    derivative, on a step that cannot stay inside, or without convergence
    after MAX_ITER steps.
    """
    w = complex(z0)
    for _ in range(MAX_ITER):
        fw = f(w)
        if abs(fw) <= tol:
            return w
        d = df(w)
        if d == 0:
            raise ConvergenceError(f"{label}: zero derivative at {w}")
        nxt = w - fw / d
        step = nxt - w
        for _ in range(60):
            if inside(w + step):
                break
            step *= 0.5
        else:
            raise ConvergenceError(f"{label}: the step from {w} cannot stay in the domain")
        w = w + step
    if abs(f(w)) <= tol:
        return w
    raise ConvergenceError(f"{label}: no convergence from {z0} (residual {abs(f(w)):.3e})")
