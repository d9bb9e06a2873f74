"""The four additive convolutions and their k-fold powers.

Single classical/Boolean/monotone convolutions of atomic measures are exact
(measure algebra, or Nevanlinna data and symmetric eigen-solves), and so are
Boolean powers, whose data only scale; free convolution and monotone powers
are evaluated pointwise on complex grids.  The hybrid split exists because a
k-fold monotone power of an n-atom measure has up to n^k atoms.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ValidationError
from .measures import MASS_TOL, PARAMETER, FiniteAtomicMeasure
from .rational import spectral_measure, upper_root
from .transforms import (
    ZR,
    NevanlinnaData,
    TransformGrid,
    _measure_of_mass,
    f_transform,
    recover_measure,
)

#: iteration budget for the subordination fixed point
_SUBORD_TOL = 1e-13
_SUBORD_MAX = 500
_CROSS_TOL = 1e-10

#: overflow guard on iterated F-evaluation
_ITER_OVERFLOW = 1e12


def classical_convolve(mu, nu):
    """Atoms at x_i + y_j with weights w_i v_j, merged."""
    pairs = [
        (x + y, wx * wy)
        for x, wx in mu.atoms
        for y, wy in nu.atoms
    ]
    return FiniteAtomicMeasure.from_pairs(pairs, role=mu.role)


def boolean_convolve(mu, nu):
    """Boolean convolution: E adds, so the masses multiply and gamma, sigma add."""
    a, b = f_transform(mu), f_transform(nu)
    sigma = FiniteAtomicMeasure.from_pairs(a.sigma.atoms + b.sigma.atoms, role=PARAMETER)
    return recover_measure(NevanlinnaData(a.m * b.m, a.gamma + b.gamma, sigma))


def monotone_convolve(mu, nu):
    """Monotone convolution: F composes.  Mass multiplies.

    With r = sqrt(v) for the weights v of nu, Sherman-Morrison gives
    1/(F_nu(z) - x) = r^T (z - diag(y) - x r r^T)^{-1} r, so each atom
    (x, w) of mu contributes the spectral measure of that rank-one update,
    scaled by w: len(mu) eigen-solves of size len(nu).
    """
    y = np.diag(nu.positions)
    r = np.sqrt(np.asarray(nu.weights))
    rr = np.outer(r, r)
    parts = [spectral_measure(y + x * rr, r) for x in mu.positions]
    xs = np.concatenate([e for e, _ in parts])
    ws = np.concatenate([w * q for w, (_, q) in zip(mu.weights, parts)])
    return _measure_of_mass(xs, ws, mu.mass * nu.mass)


def free_convolve_F(f_mu, f_nu):
    """Two-sided subordination for the free convolution of F-callables.

    Returns a callable evaluating F of the free convolution anywhere in the
    upper half-plane.  Per point, omega is the fixed point of
    w -> z + h_mu(z + h_nu(w)) with h = F - id; the two equivalent
    expressions F_nu(omega) and F_mu(z + h_nu(omega)) are cross-checked and
    their mismatch or non-convergence raises.
    """

    def h_mu(w):
        return f_mu(w) - w

    def h_nu(w):
        return f_nu(w) - w

    def f_conv(z):
        w = complex(z)
        for _ in range(_SUBORD_MAX):
            nxt = z + h_mu(z + h_nu(w))
            if abs(nxt - w) <= _SUBORD_TOL:
                w = nxt
                break
            w = nxt
        else:
            raise ConvergenceError(f"subordination fixed point stalled at z={z}")
        via_nu = f_nu(w)
        via_mu = f_mu(z + h_nu(w))
        if abs(via_nu - via_mu) > _CROSS_TOL * max(1.0, abs(via_nu)):
            raise ConvergenceError(
                f"subordination cross-check failed at z={z}: {via_nu} vs {via_mu}"
            )
        return 0.5 * (via_nu + via_mu)

    return f_conv


def free_convolve(mu, nu, points=ZR):
    """Free convolution of two probability measures, sampled on a grid."""
    for m in (mu, nu):
        if abs(m.mass - 1.0) > MASS_TOL:
            raise ValidationError("free convolution needs probability measures")
    fn = free_convolve_F(f_transform(mu), f_transform(nu))
    return TransformGrid.sample(fn, points, "F", mass=1.0)


def boolean_power(mu, k):
    """k-fold Boolean power, exact for any k: the data scale to (m^k, k gamma, k sigma)."""
    if k < 1:
        raise ValidationError("power must be >= 1")
    f = f_transform(mu)
    return recover_measure(NevanlinnaData(f.m**k, k * f.gamma, f.sigma.scale_mass(k)))


def iterate_f(f_eval, k, z):
    """k-fold composition of an F-evaluator at a single point."""
    w = complex(z)
    im_prev = w.imag
    for _ in range(k):
        w = complex(f_eval(w))
        if abs(w) > _ITER_OVERFLOW:
            raise ConvergenceError(f"iterated F overflow at z={z}")
        if w.imag < im_prev * (1.0 - 1e-12) - 1e-15:
            raise ConvergenceError("iterated F decreased the imaginary part")
        im_prev = w.imag
    return w


def monotone_power_grid(mu, k, points=ZR):
    """k-fold monotone power: pointwise iteration of the exact F."""
    if k < 1:
        raise ValidationError("power must be >= 1")
    f = f_transform(mu)
    values = tuple(iterate_f(f, k, z) for z in points)
    return TransformGrid(tuple(points), values, "F", mass=mu.mass**k)


def cf_of(mu):
    """Characteristic function t -> sum of w e^{itx} (no normalization)."""
    x = np.asarray(mu.positions)
    w = np.asarray(mu.weights)

    def cf(t):
        return complex((w * np.exp(1j * t * x)).sum())

    return cf


def classical_power_cf(mu, k):
    """k-fold classical power as an exact characteristic-function evaluator."""
    if k < 1:
        raise ValidationError("power must be >= 1")
    base = cf_of(mu)

    def cf(t):
        return base(t) ** k

    return cf


def free_power_eval(mu, k, z):
    """F of the k-fold free power at z, a point or an ndarray, via phi-additivity.

    With v = F_mu^{-1}(w) the equation w + k phi(w) = z becomes
    v + (k-1) E_mu(v) = z for a probability measure (E = z - F).  In the
    pole-residue form E = gamma' + sum c/(v - p), so v is
    ``rational.upper_root`` at a = z - (k-1) gamma' with weights (k-1) c;
    no two O(k) terms cancel, as they would in k v + (1-k) F_mu(v).  The
    returned value is F_mu(v).
    """
    f = f_transform(mu)
    g, p, c = f._secular
    return f(upper_root(z, (k - 1) * g, p, (k - 1) * c))


def free_power_grid(mu, k, points=ZR):
    """k-fold free power of a probability measure on a grid."""
    if abs(mu.mass - 1.0) > MASS_TOL:
        raise ValidationError("free powers need a probability measure")
    if k < 1:
        raise ValidationError("power must be >= 1")
    values = free_power_eval(mu, k, np.array(points, dtype=complex))
    return TransformGrid(tuple(points), tuple(values.tolist()), "F", mass=1.0)
