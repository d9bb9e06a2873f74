"""The four additive convolutions and their k-fold powers.

Single classical/Boolean/monotone convolutions of atomic measures are exact
(measure algebra, or Nevanlinna data and symmetric eigen-solves), and so are
Boolean powers, whose data only scale; free convolution and free powers
are evaluated pointwise on complex grids.  A k-fold monotone power of an
n-atom measure has up to n^k atoms, so it is not formed here: the harness
composes the exact F k times at each grid point through the line's one
k-fold iterator, ``transforms.f_powers``, which runs every row of a
triangular array in one call.  Free convolution solves for the subordination
point at each grid point, one point per call, from the two measures'
carriers (``NevanlinnaData``): a fixed-point warm-up that hands over to
guarded Newton once a step is within 1e-2, with F computed both ways as a
cross-check.
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

#: subordination: fixed-point warm-up steps, the warm-up step within which
#: Newton takes over, Newton step budget, halvings per Newton step, and the
#: undamped step at which a solve stops
_WARMUP = 20
_NEWTON_FROM = 1e-2
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
    """F of the free convolution of two probability carriers, by subordination.

    f_mu and f_nu are the ``NevanlinnaData`` of probability measures, so
    h = F - id = -E.  Per point, with u = z - E_nu(omega), the subordination
    point omega is the root in the upper half-plane of
    g(omega) = z - E_mu(u) - omega, g' = E_mu'(u) E_nu'(omega) - 1; it
    exists and is unique (Belinschi-Bercovici 2007).  Up to ``_WARMUP``
    fixed-point steps omega <- omega + g from omega = z, summed inline over
    both carriers' pairs; a step within ``_SUBORD_TOL`` stops the solve, and
    one within ``_NEWTON_FROM`` hands over to Newton.  Newton takes E and E'
    at each trial point in one pass: a step is halved until Im omega > 0,
    Im u > 0 and |g| falls, and after ``_HALVINGS`` halvings a fixed-point
    step is taken instead.  Newton stops when the undamped step is within
    ``_SUBORD_TOL``; a point that has not stopped after ``_NEWTON_MAX``
    steps raises ``ConvergenceError``.  The two expressions F_nu(omega) and
    F_mu(u) differ by g and are cross-checked, with the solve's E_nu(omega).

    The returned callable evaluates F at one point.  Its ``steps`` adds up
    the warm-up and Newton steps of the points it has solved, a work count
    that is the same on any machine.
    """
    for f in (f_mu, f_nu):
        if abs(f.m - 1.0) > MASS_TOL:
            raise ValidationError("free convolution needs probability measures")
    # the warm-up's coefficients as complex numbers: c / (w - p) then skips
    # float division's refusal of a complex divisor, with the same quotient
    g_mu, pairs_mu = f_mu._pairs
    g_nu, pairs_nu = f_nu._pairs
    pairs_mu = tuple((p, complex(c)) for p, c in pairs_mu)
    pairs_nu = tuple((p, complex(c)) for p, c in pairs_nu)
    e_mu, e_nu = f_mu._e, f_nu._e
    ee_mu, ee_nu = f_mu._e_and_prime, f_nu._e_and_prime
    steps = {"warmup": 0, "newton": 0}

    def solve(z):
        """(omega, E_nu(omega)) at the root of g."""
        w = z
        for warm in range(1, _WARMUP + 1):
            a = g_nu
            for p, c in pairs_nu:
                a = a + c / (w - p)
            u = z - a
            b = g_mu
            for p, c in pairs_mu:
                b = b + c / (u - p)
            nxt = z - b
            step = abs(nxt - w)
            w = nxt
            if step <= _SUBORD_TOL:
                steps["warmup"] += warm
                return w, e_nu(w)
            if step <= _NEWTON_FROM:
                break
        a, da = ee_nu(w)
        u = z - a
        b, db = ee_mu(u)
        g = z - b - w
        for newton in range(1, _NEWTON_MAX + 1):
            dw = g / (1.0 - db * da)
            if abs(dw) <= _SUBORD_TOL:
                w = w + dw
                steps["warmup"] += warm
                steps["newton"] += newton
                return w, e_nu(w)
            for _ in range(_HALVINGS):
                w1 = w + dw
                if w1.imag > 0.0:
                    a1, da1 = ee_nu(w1)
                    u1 = z - a1
                    if u1.imag > 0.0:
                        b1, db1 = ee_mu(u1)
                        g1 = z - b1 - w1
                        if abs(g1) < abs(g):
                            break
                dw = 0.5 * dw
            else:
                w1 = w + g
                a1, da1 = ee_nu(w1)
                u1 = z - a1
                b1, db1 = ee_mu(u1)
                g1 = z - b1 - w1
            w, g, da, db = w1, g1, da1, db1
        raise ConvergenceError(
            f"subordination Newton did not converge at z={z}: "
            f"{_NEWTON_MAX} steps, |g|={abs(g):.3g}"
        )

    def f_conv(z):
        w, a = solve(z)
        u = z - a
        via_nu = w - a
        via_mu = u - e_mu(u)
        if abs(via_nu - via_mu) > _CROSS_TOL * max(1.0, abs(via_nu)):
            raise ConvergenceError(
                f"subordination cross-check failed at z={z}: {via_nu} vs {via_mu}"
            )
        return 0.5 * (via_nu + via_mu)

    f_conv.steps = steps
    return f_conv


def free_convolve(mu, nu):
    """Free convolution of two probability measures, sampled on ZR."""
    fn = free_convolve_F(f_transform(mu), f_transform(nu))
    return TransformGrid(np.array([fn(z) for z in ZR]), 1.0)


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
    return TransformGrid(free_power_eval(mu, k, np.array(ZR)), 1.0)
