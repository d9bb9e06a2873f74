"""Half-plane transforms G, F, E, phi and their inverses.

G is the Cauchy transform, F = 1/G, E = z/mass - F.  For an atomic measure
F is carried exactly in pole-residue (Nevanlinna) form; the measure comes
back from that form by one symmetric eigen-solve.  Exact forms
serve single convolutions; a k-fold power has up to n^k atoms, so powers are
evaluated pointwise.

The weak-convergence metric used throughout the package lives here: the
maximum G-difference over a fixed ten-point grid ZR plus the mass gap.
Uniform convergence of Cauchy transforms on compacts metrizes vague
convergence, and the mass term upgrades it to weak convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, NumericalError, RecoveryError, ValidationError
from .measures import MASS_TOL, PARAMETER, FiniteAtomicMeasure
from .rational import _eigen, cauchy_zeros, spectral_measure
from .solvers import newton

#: canonical evaluation grid: Im >= 1 keeps every engine well-conditioned
ZR = tuple(
    complex(x, y) for y in (1.0, 2.0) for x in (-3.0, -1.5, 0.0, 1.5, 3.0)
)


def eps_line_grid(x_window, n_points, eps):
    """The ndarray of n_points >= 2 points x + i*eps across a window, for density evaluation."""
    lo, hi = float(x_window[0]), float(x_window[1])
    if not (hi > lo and eps > 0):
        raise ValidationError("bad inversion window")
    if int(n_points) < 2:
        raise ValidationError(f"an inversion grid needs at least 2 points; got {n_points}")
    z = np.linspace(lo, hi, int(n_points)).astype(complex)
    z.imag = eps  # set, not added: x keeps its sign bit, as in complex(x, eps)
    return z


#: lowest imaginary part of a TransformGrid point; keeps metric evaluations
#: well-conditioned
GRID_FLOOR = 0.25


@dataclass(frozen=True)
class TransformGrid:
    """Sampled transform values on a fixed complex grid with Im z >= GRID_FLOOR."""

    points: tuple
    values: tuple
    kind: str  # "G" | "F"
    mass: float | None = None

    def __post_init__(self):
        if self.kind not in ("G", "F"):
            raise ValidationError(f"unknown grid kind {self.kind!r}")
        if len(self.points) != len(self.values):
            raise ValidationError("points/values length mismatch")
        object.__setattr__(self, "points", tuple(complex(p) for p in self.points))
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if any(p.imag < GRID_FLOOR for p in self.points):
            raise ValidationError(
                f"grid point below the imaginary-part floor {GRID_FLOOR}")
        if any(not (abs(v) < math.inf) for v in self.values):
            raise ValidationError("non-finite grid value")

    @classmethod
    def sample(cls, fn, points, kind, mass=None):
        return cls(tuple(points), tuple(fn(z) for z in points), kind, mass)

    def g_values(self):
        if self.kind == "G":
            return self.values
        return tuple(1.0 / v for v in self.values)


@dataclass(frozen=True)
class NevanlinnaData:
    """The triple (m, gamma, sigma) with m in (0, 1] and sigma a parameter measure.

    As the data of an atomic measure's F it reads
    F(z) = z/m - gamma + sum s_j (1+p_j z)/(p_j - z), and calling the data
    evaluates F.  As a Levy triple it indexes the four infinitely divisible
    families (``idiv``).  F, E and E' here, and Phi = -E - z log m and
    Phi' = -E' - log m in ``idiv``, all read the two sums over the secular
    data; the pointwise engines evaluate them millions of times, so they
    live on private names.
    """

    m: float
    gamma: float
    sigma: FiniteAtomicMeasure

    def __post_init__(self):
        if not (0.0 < self.m <= 1.0 + MASS_TOL):
            raise ValidationError(f"mass parameter m={self.m} outside (0, 1]")
        if not math.isfinite(self.gamma):
            raise ValidationError(f"non-finite gamma {self.gamma}")
        if self.sigma.role != PARAMETER:
            object.__setattr__(self, "sigma", self.sigma.with_role(PARAMETER))

    @classmethod
    def from_parts(cls, m, gamma, sigma):
        """The triple of m, gamma and sigma's (position, weight) pairs."""
        return cls(float(m), float(gamma), FiniteAtomicMeasure.from_pairs(sigma, role=PARAMETER))

    def __call__(self, z):
        return z / self.m - self._e(z)

    @cached_property
    def _secular(self):
        """(gamma', p, c) with E(z) = gamma' + sum c/(z - p), p and c as arrays.

        gamma' = gamma + sum s p and c = s (1 + p^2); the free engines solve
        their secular equations from these (``rational.upper_root``), and
        ``recover_measure`` builds its arrowhead from them.
        """
        p = np.asarray(self.sigma.positions)
        s = np.asarray(self.sigma.weights)
        return self.gamma + float(p @ s), p, s * (1.0 + p * p)

    @cached_property
    def _pairs(self):
        """(gamma', ((p, c), ...)) as Python floats: a scalar sum runs ~10x slower on numpy's."""
        gamma, p, c = self._secular
        return gamma, tuple(zip(p.tolist(), c.tolist()))

    @cached_property
    def _abel(self):
        """(q, r, k): the partial fractions of 1/Phi, or None when Phi = 0.

        Phi(z) = -gamma' + lam z + sum c/(p - z) with lam = -log m (0 for
        m >= 1), and 1/Phi = sum r/(z - q) + [-1/gamma' if m = 1] +
        [-z/S + const if m = 1 and gamma' = 0], S = sum c; k = 1/(2S) in that
        last case and 0 otherwise.  The zeros q of Phi are real and simple
        (Phi' > 0 on the line): the eigenvalues of the arrowhead
        [[gamma'/lam, sqrt(c/lam)^T], [sqrt(c/lam), diag p]] for m < 1, and
        of diag(p) - sqrt(c) sqrt(c)^T/gamma' for m = 1.  An eigenvalue
        carries an error of rounding times the matrix norm, S/|gamma'| here,
        so below |gamma'| = 1e-8 S the start is the zeros of sum c/(p - z)
        (``cauchy_zeros``), which gamma' moves by O(gamma'/S), and a far
        zero near a - S/gamma'.  Each start is polished by two Newton steps
        on Phi; r = 1/Phi'(q).  Lists of Python floats, for the scalar
        flows.
        """
        gamma, p, c = self._secular
        lam, s = max(-math.log(self.m), 0.0), float(c.sum())
        if not p.size:  # Phi = lam z - gamma'
            if lam > 0.0:
                return [gamma / lam], [1.0 / lam], 0.0
            return None if gamma == 0.0 else ([], [], 0.0)
        if lam > 0.0:
            arrow = np.diag(np.concatenate(([gamma / lam], p)))
            arrow[0, 1:] = arrow[1:, 0] = np.sqrt(c / lam)
            q = _eigen(np.linalg.eigvalsh, arrow, "the zeros of Phi")
        elif abs(gamma) >= 1e-8 * s:
            q = _eigen(np.linalg.eigvalsh, np.diag(p) - np.outer(np.sqrt(c), np.sqrt(c)) / gamma,
                      "the zeros of Phi")
        else:
            # the zeros of sum c/(p - z), and a far one near a - S/gamma'
            a, q, _ = cauchy_zeros(p, np.sqrt(c / s))
            if gamma != 0.0:
                q = np.append(q, a - s / gamma)
        for _ in range(2):
            q = q - (lam * q - self._e(q)) / (lam - self._e_prime(q))
        k = 0.5 / s if lam == 0.0 and gamma == 0.0 else 0.0
        return q.tolist(), (1.0 / (lam - self._e_prime(q))).tolist(), k

    def _e(self, z):
        """E(z) = gamma' + sum c/(z - p) at one point or, elementwise, an ndarray."""
        acc, pairs = self._pairs
        for p, c in pairs:
            acc = acc + c / (z - p)
        return acc

    def _e_prime(self, z):
        """E'(z) = -sum c/(z - p)^2."""
        acc = 0.0
        for p, c in self._pairs[1]:
            acc = acc - c / (z - p) ** 2
        return acc


def cauchy_G(mu, z):
    """G(z) = sum of w/(z - x); requires Im z > 0 (accepts numpy arrays)."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValidationError("cauchy_G requires Im z > 0")
    x = np.asarray(mu.positions)
    w = np.asarray(mu.weights)
    vals = (w / (z[..., None] - x)).sum(axis=-1)
    return complex(vals) if vals.ndim == 0 else vals


def f_transform(mu):
    """F = 1/G of an atomic measure, as its Nevanlinna data.

    The poles p of F are the zeros of G (``cauchy_zeros``); the arrow
    entries c give the residues rho = c^2/m, so s = rho/(1+p^2), and gamma
    follows from the first moment.
    """
    if mu.is_zero:
        raise ValidationError("F-transform of the zero measure is undefined")
    m = mu.mass
    a, p, c = cauchy_zeros(mu.positions, np.sqrt(np.asarray(mu.weights) / m))
    s = c * c / m / (1.0 + p * p)
    sigma = FiniteAtomicMeasure(tuple(p), tuple(s), PARAMETER)
    return NevanlinnaData(m, a / m - float(p @ s), sigma)


def voiculescu_phi(mu, z):
    """phi(z) = F^{-1}(z) - z by Newton from w0 = z.

    Meaningful for probability measures at z high in a Stolz angle, where F
    is injective; outside that region Newton may legitimately fail.
    """
    if abs(mu.mass - 1.0) > MASS_TOL:
        raise ValidationError("voiculescu_phi needs a probability measure")
    f = f_transform(mu)
    w = newton(lambda w: f(w) - z, lambda w: 1.0 / f.m - f._e_prime(w), z,
               lambda w: w.imag > 0.0, label="voiculescu_phi")
    return w - z


def recover_measure(nev):
    """The atomic measure whose F-transform is the Nevanlinna data nev.

    G = m e_0^T (z - A)^{-1} e_0 for the arrowhead A = [[m gamma', r^T],
    [r, diag p]] with the secular data (gamma', p, c) and r = sqrt(m c):
    the atoms are A's eigenvalues, the weights m q_0^2.
    """
    m = nev.m
    gamma, p, c = nev._secular
    arrow = np.diag(np.concatenate(([m * gamma], p)))
    arrow[0, 1:] = arrow[1:, 0] = np.sqrt(m * c)
    e0 = np.zeros(p.size + 1)
    e0[0] = math.sqrt(m)
    xs, ws = spectral_measure(arrow, e0)
    return _measure_of_mass(xs, ws, m)


def _measure_of_mass(xs, ws, mass):
    """The atoms (xs, ws) as a measure of the given mass.

    The weights must already sum to the mass (the guard of every recovery);
    they are then rescaled by that sum's rounding error.
    """
    total = float(np.sum(ws))
    if not abs(total - mass) <= 1e-6 * max(1.0, mass):
        raise RecoveryError(f"residue mass {total} inconsistent with slope mass {mass}")
    return FiniteAtomicMeasure(tuple(xs), tuple(ws / total * mass))


#: weight above which a density sweep reports an atom
ATOM_THRESHOLD = 0.1


def line_density(g, eps, x_window, n_bins):
    """G on the line Im z = eps read as a density: ((x, density), ...).

    g takes the ndarray ``eps_line_grid(x_window, n_bins, eps)`` once and
    returns the ndarray of its values; density(x) = -Im G(x + i eps)/pi.
    """
    pts = eps_line_grid(x_window, n_bins, eps)
    dens = -np.asarray(g(pts), dtype=complex).imag / math.pi
    return tuple(zip(pts.real.tolist(), dens.tolist()))


def _resolve_g_and_mass(obj):
    if isinstance(obj, FiniteAtomicMeasure):
        return tuple(cauchy_G(obj, np.array(ZR)).tolist()), obj.mass
    if isinstance(obj, TransformGrid):
        if obj.points != ZR:
            raise ValidationError("weak_distance grids must be sampled on ZR")
        if obj.mass is None:
            raise ValidationError("weak_distance needs the grid's mass")
        return obj.g_values(), obj.mass
    raise ValidationError(f"cannot compute weak distance for {type(obj)!r}")


def weak_distance(a, b):
    """max over ZR of |G_a - G_b| plus |mass(a) - mass(b)|."""
    ga, ma = _resolve_g_and_mass(a)
    gb, mb = _resolve_g_and_mass(b)
    return max(abs(x - y) for x, y in zip(ga, gb)) + abs(ma - mb)


#: overflow guard of an iterated F
_ITER_OVERFLOW = 1e12


def f_powers(rows):
    """F^{ok}(z) for every row (f, k, z, where): the line's k-fold iterator, guarded.

    f is a carrier or a callable taking an ndarray, z a point or an ndarray.
    A carrier's power runs each point as a scalar loop in real float
    arithmetic, within 1e-14 relative of a 40-digit composition of the same
    float data up to k = 4096; a callable runs the row's points together,
    one call per iteration.  Every iteration keeps |F| <= 1e12 and
    Im F >= (1 - 1e-12) Im w - 1e-15, and a failure raises a
    ConvergenceError naming the start point, the iteration and where.
    Returns one array per row, shaped like its z.
    """
    out = []
    for f, k, z, where in rows:
        z = np.asarray(z, dtype=complex)
        if isinstance(f, NevanlinnaData):
            w = np.array([_carrier_power(f, k, z0, where) for z0 in z.ravel().tolist()],
                         dtype=complex)
        else:
            w = _callable_power(f, k, z.ravel(), where)
        out.append(w.reshape(z.shape))
    return out


def _carrier_power(f, k, z, where):
    """The carrier's F composed k times at z, in real floats: with q = c/|w - p|^2,
    F(w) = Re w/m - gamma' - sum q (Re w - p) + i Im w (1/m + sum q): only + - * /.
    A |w - p|^2 that underflows to 0 (w within 1e-154 of a pole p) is an overflow."""
    gamma, pairs = f._pairs
    m, wr, wi = f.m, z.real, z.imag
    try:
        for j in range(1, k + 1):
            wi2, sr, si = wi * wi, gamma, 0.0
            for p, c in pairs:
                xr = wr - p
                q = c / (xr * xr + wi2)
                sr += q * xr
                si += q
            wr, wi, im = wr / m - sr, wi / m + si * wi, wi
            if not math.hypot(wr, wi) <= _ITER_OVERFLOW or wi < im * (1.0 - 1e-12) - 1e-15:
                raise _power_error(complex(wr, wi), z, j, where)
    except ZeroDivisionError:
        raise _power_error(complex(math.inf), z, j, where) from None
    return complex(wr, wi)


def _callable_power(f, k, z, where):
    """f composed k times on the ndarray z, each iteration one call."""
    w = z
    for j in range(1, k + 1):
        try:
            nxt = np.asarray(f(w), dtype=complex)
        except NumericalError as exc:
            raise type(exc)(f"{exc} at iteration {j} ({where})") from exc
        bad = ~(np.abs(nxt) <= _ITER_OVERFLOW) | (nxt.imag < w.imag * (1.0 - 1e-12) - 1e-15)
        if bad.any():
            i = int(np.argmax(bad))
            raise _power_error(complex(nxt[i]), complex(z[i]), j, where)
        w = nxt
    return w


def _power_error(w, z0, j, where):
    big = not math.hypot(w.real, w.imag) <= _ITER_OVERFLOW
    what = "overflowed" if big else "decreased the imaginary part"
    return ConvergenceError(f"iterated F from z0={z0!r} {what} at iteration {j} ({where})")

