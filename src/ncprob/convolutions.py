"""The four additive convolutions and their k-fold powers.

Single classical/Boolean/monotone convolutions of atomic measures are exact
(measure algebra, or Nevanlinna data and symmetric eigen-solves), and so are
Boolean powers, whose data only scale; free convolution and free powers
are evaluated pointwise on complex grids.  A k-fold monotone power of an
n-atom measure has up to n^k atoms, so it is not formed here: the harness
composes the exact F k times at each grid point through the line's one
k-fold iterator, ``transforms.f_powers``, which runs every row of a
triangular array in one call.  Free convolution solves for the subordination
point at each grid point, one point per call: a short fixed-point warm-up,
then guarded Newton, with F computed both ways as a cross-check.
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

#: subordination: fixed-point warm-up steps, Newton step budget, halvings
#: per Newton step, and the undamped step at which a solve stops
_WARMUP = 20
_NEWTON_MAX = 100
_HALVINGS = 40
_SUBORD_TOL = 1e-13
_CROSS_TOL = 1e-10

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
    """F of the free convolution of two probability data, by subordination.

    f_mu and f_nu are probability Nevanlinna data (or engines this returns),
    so h = F - id = -E.  Per point, with u = z - E_nu(omega), the
    subordination point omega is the root in the upper half-plane of
    g(omega) = z - E_mu(u) - omega, g' = E_mu'(u) E_nu'(omega) - 1; it
    exists and is unique (Belinschi-Bercovici 2007).  Up to ``_WARMUP``
    fixed-point steps omega <- omega + g from omega = z, then Newton: a step
    is halved until Im omega > 0, Im u > 0 and |g| falls, and after
    ``_HALVINGS`` halvings a fixed-point step is taken instead.  Newton stops
    when the undamped step is within ``_SUBORD_TOL``; a point that has not
    stopped after ``_NEWTON_MAX`` steps raises ``ConvergenceError``.  The
    two expressions F_nu(omega) and F_mu(u) differ by g and are
    cross-checked.

    The returned callable evaluates F at one point.  It carries m = 1 and
    its own E = z - F and E' = 1 - F', so it can itself be convolved.
    """
    for f in (f_mu, f_nu):
        if abs(f.m - 1.0) > MASS_TOL:
            raise ValidationError("free convolution needs probability measures")
    e_mu, de_mu, e_nu, de_nu = f_mu._e, f_mu._e_prime, f_nu._e, f_nu._e_prime

    def solve(z):
        """(omega, u) at the root of g."""
        w = z
        for _ in range(_WARMUP):
            nxt = z - e_mu(z - e_nu(w))
            if abs(nxt - w) <= _SUBORD_TOL:
                return nxt, z - e_nu(nxt)
            w = nxt
        u = z - e_nu(w)
        g = z - e_mu(u) - w
        for _ in range(_NEWTON_MAX):
            dw = g / (1.0 - de_mu(u) * de_nu(w))
            if abs(dw) <= _SUBORD_TOL:
                w = w + dw
                return w, z - e_nu(w)
            for _ in range(_HALVINGS):
                w1 = w + dw
                if w1.imag > 0.0:
                    u1 = z - e_nu(w1)
                    if u1.imag > 0.0:
                        g1 = z - e_mu(u1) - w1
                        if abs(g1) < abs(g):
                            break
                dw = 0.5 * dw
            else:
                w1 = w + g
                u1 = z - e_nu(w1)
                g1 = z - e_mu(u1) - w1
            w, u, g = w1, u1, g1
        raise ConvergenceError(
            f"subordination Newton did not converge at z={z}: "
            f"{_NEWTON_MAX} steps, |g|={abs(g):.3g}"
        )

    def f_conv(z):
        w, u = solve(z)
        via_nu = w - e_nu(w)
        via_mu = u - e_mu(u)
        if abs(via_nu - via_mu) > _CROSS_TOL * max(1.0, abs(via_nu)):
            raise ConvergenceError(
                f"subordination cross-check failed at z={z}: {via_nu} vs {via_mu}"
            )
        return 0.5 * (via_nu + via_mu)

    def e_conv(z):
        return z - f_conv(z)

    def e_conv_prime(z):
        # with a = E_mu'(u), b = E_nu'(omega): F' = (1 - b) omega' and
        # omega' = (1 - a)/(1 - a b), so E' = 1 - F' = (a + b - 2ab)/(1 - ab)
        w, u = solve(z)
        a, b = de_mu(u), de_nu(w)
        return (a + b - 2.0 * a * b) / (1.0 - a * b)

    f_conv.m, f_conv._e, f_conv._e_prime = 1.0, e_conv, e_conv_prime
    return f_conv


def free_convolve(mu, nu):
    """Free convolution of two probability measures, sampled on ZR."""
    fn = free_convolve_F(f_transform(mu), f_transform(nu))
    return TransformGrid.sample(fn, ZR, "F", mass=1.0)


def boolean_power(mu, k):
    """k-fold Boolean power, exact for any k: the data scale to (m^k, k gamma, k sigma)."""
    if k < 1:
        raise ValidationError("power must be >= 1")
    f = f_transform(mu)
    return recover_measure(NevanlinnaData(f.m**k, k * f.gamma, f.sigma.scale_mass(k)))


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


def free_power_grid(mu, k):
    """k-fold free power of a probability measure on ZR."""
    if abs(mu.mass - 1.0) > MASS_TOL:
        raise ValidationError("free powers need a probability measure")
    if k < 1:
        raise ValidationError("power must be >= 1")
    values = free_power_eval(mu, k, np.array(ZR))
    return TransformGrid(ZR, tuple(values.tolist()), "F", mass=1.0)
