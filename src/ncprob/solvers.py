"""Scalar complex Newton iteration with domain guards."""

from __future__ import annotations

from .errors import ConvergenceError

#: Newton iterations before a solve gives up
MAX_ITER = 100


def newton(f, df, z0, tol=1e-12, guard=None, label="newton"):
    """Solve f(w) = 0 from w = z0 in at most MAX_ITER steps.  |f(w)| <= tol on success.

    guard(w, w_next) may shrink a step to keep the iterate in an open domain
    (upper half-plane, disk); it returns the admissible next iterate.
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
        if guard is not None:
            nxt = guard(w, nxt)
        w = nxt
    if abs(f(w)) <= tol:
        return w
    raise ConvergenceError(f"{label}: no convergence from {z0} (residual {abs(f(w)):.3e})")


def upper_half_plane_guard(w, nxt):
    """Halve the step until the next iterate stays in the open upper half-plane."""
    step = nxt - w
    for _ in range(60):
        if (w + step).imag > 0.0:
            return w + step
        step *= 0.5
    raise ConvergenceError("newton step cannot stay in the upper half-plane")


def disk_guard(radius):
    """Guard keeping iterates inside |w| < radius."""

    def _guard(w, nxt):
        step = nxt - w
        for _ in range(60):
            if abs(w + step) < radius:
                return w + step
            step *= 0.5
        raise ConvergenceError("newton step cannot stay inside the disk")

    return _guard
