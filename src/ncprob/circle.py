"""Multiplicative transforms on the unit circle and the disk flow.

psi and eta live on the unit disk; the three convolutions are defined
through them (Sigma multiplies, eta/z multiplies, eta composes).  Weak
convergence on the circle is decided by the maximum eta-difference over a
fixed sixteen-point grid inside the disk of radius 0.4: uniform convergence
of eta on compacts of the disk is equivalent to weak convergence of the
measures.

Monotone convolution semigroups on the circle solve d eta/dt = A(eta) with
A(z) = z(i beta - integral (1+zeta z)/(1-zeta z) dsigma); the k_n-th roots
sampled from such a flow are the arrays whose powers the rotation-correction
machinery repairs.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FlowError, ValidationError, ZeroMeanError
from .harness import _verdict
from .idiv import FLOW_STEP, _check_flow_args, _rk4_step
from .measures import PARAMETER, CircleMeasure
from .solvers import disk_guard, newton

#: evaluation grid: two rings of eight points, radii 0.4 and 0.2
DISK_GRID = tuple(
    r * cmath.exp(2j * math.pi * j / 8.0) for r in (0.4, 0.2) for j in range(8)
)

TWO_PI = 2.0 * math.pi

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DiskGrid:
    """Sampled eta values on a fixed disk grid."""

    points: tuple
    values: tuple

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise ValidationError("points/values length mismatch")
        object.__setattr__(self, "points", tuple(complex(p) for p in self.points))
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    @classmethod
    def sample(cls, fn, points=DISK_GRID):
        """fn evaluated once, on the ndarray of the points."""
        return cls(tuple(points), fn(np.array(points, dtype=complex)))


def eta_distance(a, b):
    """max |eta_a - eta_b| over a shared grid."""
    pa, va = (a.points, a.values) if isinstance(a, DiskGrid) else (None, a)
    pb, vb = (b.points, b.values) if isinstance(b, DiskGrid) else (None, b)
    if pa is not None and pb is not None and pa != pb:
        raise ValidationError("eta grids sampled on different points")
    return max(abs(x - y) for x, y in zip(va, vb))


@dataclass(frozen=True)
class CircleGenerator:
    """(beta, sigma) indexing the disk flow field A(z) = z(i beta - integral...)."""

    beta: float
    sigma: CircleMeasure

    def __post_init__(self):
        if self.sigma.role != PARAMETER:
            object.__setattr__(
                self, "sigma",
                CircleMeasure(self.sigma.angles, self.sigma.weights, PARAMETER),
            )

    def a_eval(self, z):
        """A(z) = z(i beta - H(z)) = z(A'(0) - 2 psi_sigma(z)), a point or an ndarray."""
        return z * (self.mean_rate - 2.0 * _psi(self.sigma, z))

    @functools.cached_property
    def mean_rate(self):
        """A'(0) = i beta - sigma(T): the exponential rate of the flow mean."""
        return 1j * self.beta - self.sigma.mass


def _psi(mu, z):
    """psi(z) = integral z zeta/(1 - z zeta) dmu at one point or, elementwise, an ndarray.

    The Herglotz integral is H = sigma(T) + 2 psi_sigma.  psi is summed itself:
    (H - sigma(T))/2 would lose its relative digits near z = 0.
    """
    acc = 0
    for zeta, w in mu.unit_atoms:
        u = z * zeta
        acc = acc + w * u / (1.0 - u)
    return acc


def _psi_over_z(mu, z):
    """psi(z)/z = integral zeta/(1 - z zeta) dmu, summed itself so it is finite at z = 0."""
    acc = 0
    for zeta, w in mu.unit_atoms:
        acc = acc + w * zeta / (1.0 - z * zeta)
    return acc


def _psi_deriv(mu, z):
    """psi'(z) = integral zeta/(1 - z zeta)^2 dmu; H' = 2 psi'_sigma."""
    acc = 0
    for zeta, w in mu.unit_atoms:
        acc = acc + w * zeta / (1.0 - z * zeta) ** 2
    return acc


def psi(mu, z):
    """psi(z) = integral of z zeta/(1 - z zeta) dmu at one point or an ndarray."""
    if np.any(abs(z) >= 1.0):
        raise ValidationError("psi needs |z| < 1")
    return _psi(mu, z)


def eta(mu, z):
    """eta = psi/(1 + psi); |eta(z)| <= |z| on the disk."""
    p = psi(mu, z)
    if np.any(abs(1.0 + p) < 1e-300):
        raise ValidationError("1 + psi vanished (impossible for |z| < 1)")
    return p / (1.0 + p)


def eta_fn(mu):
    return lambda z: eta(mu, z)


def _eta_deriv_atomic(mu, z):
    """eta' = psi'/(1 + psi)^2."""
    return _psi_deriv(mu, z) / (1.0 + psi(mu, z)) ** 2


def _eta_of(obj):
    """The eta callable of a CircleMeasure, or obj itself if it is one."""
    return eta_fn(obj) if isinstance(obj, CircleMeasure) else obj


def _h_of(obj):
    """h = eta/z of an eta callable, or of a CircleMeasure as (psi/z)/(1 + psi), finite at 0."""
    if isinstance(obj, CircleMeasure):
        return lambda z: _psi_over_z(obj, z) / (1.0 + _psi(obj, z))
    return lambda z: obj(z) / z


def _unit(gamma):
    """gamma as a complex, checked to lie on the unit circle."""
    gamma = complex(gamma)
    if abs(abs(gamma) - 1.0) > 1e-9:
        raise ValidationError("gamma must lie on the unit circle")
    return gamma


def circle_mean(mu):
    """Integral of zeta dmu = eta'(0)."""
    return mu.mean


def sigma_transform(mu, z):
    """Sigma(z) = eta^{-1}(z)/z near zero; needs a non-zero mean."""
    mean = circle_mean(mu)
    if abs(mean) < 1e-14:
        raise ZeroMeanError("Sigma-transform needs a non-zero mean")
    if abs(z) > 0.2 * abs(mean):
        raise ValidationError("Sigma evaluated outside |z| <= 0.2 |mean|")
    if z == 0:
        return 1.0 / mean
    u = newton(lambda w: eta(mu, w) - z, lambda w: _eta_deriv_atomic(mu, w), z / mean,
               tol=1e-13, guard=disk_guard(1.0), label="sigma_transform")
    return u / z


def mult_boolean(a, b, points=DISK_GRID):
    """eta(z)/z multiplies."""
    ea, eb = _eta_of(a), _eta_of(b)
    return DiskGrid.sample(lambda z: ea(z) * eb(z) / z, points)


def mult_monotone(a, b, points=DISK_GRID):
    """eta composes (left factor outside)."""
    ea, eb = _eta_of(a), _eta_of(b)
    return DiskGrid.sample(lambda z: ea(eb(z)), points)


def _disk_fixed_point(f, z):
    """The solution of w = f(w) at every point of the ndarray z, iterated from w = z.

    f is evaluated on the whole array and sends the unit disk into |w| <= |z|
    pointwise, so by Earle-Hamilton each point has one fixed point, which the
    iteration reaches at a rate of at most r = max |z|.  A point has settled
    once its step is below 4 eps/(1 - r), a bound on the rounding of the
    last steps, and either no longer shrinks (rounding is all that is left)
    or shrinks so fast that the geometric tail of the steps left,
    step^2/(last - step), is below eps r.  The cap is twice the iterations a
    contraction by r needs to shrink a unit error to eps.
    """
    r = float(np.abs(z).max(initial=0.0))
    if r == 0.0:
        return z
    tol = 4.0 * EPS / (1.0 - r)
    cap = 2 * math.ceil(math.log(EPS) / math.log(r))
    w, last = z, np.nan
    settled = np.zeros(z.shape, dtype=bool)
    for _ in range(cap):
        nxt = f(w)
        step = np.abs(nxt - w)
        settled |= (step <= tol) & ((step >= last) | (step * step <= EPS * r * (last - step)))
        if settled.all():
            return nxt
        w, last = nxt, step
    i = int(np.argmin(settled))
    raise ConvergenceError(f"disk fixed point from z0={complex(z[i])!r} did not settle in "
                           f"{cap} iterations (last step {step[i]:.3e}, bound {tol:.3e})")


def mult_free(a, b, points=DISK_GRID):
    """eta of the free product by subordination (Belinschi-Bercovici).

    With h = eta/z, eta(z) = omega h_a(omega) where omega = z h_b(z h_a(omega)).
    |h| <= 1 on the disk, so that map sends it into |omega| <= |z| and the
    iteration from omega = z converges at every grid point, for zero means too.
    """
    ha, hb = _h_of(a), _h_of(b)
    z = _disk_points(points)
    omega = _disk_fixed_point(lambda w: z * hb(z * ha(w)), z)
    return DiskGrid(points, omega * ha(omega))


def boolean_idiv_eta(gamma, sigma):
    """eta(z) = gamma z exp(-H(z)) = gamma e^{-sigma(T)} z exp(-2 psi_sigma(z)).

    z is a point or an ndarray.
    """
    scale = _unit(gamma) * math.exp(-sigma.mass)
    return lambda z: scale * z * np.exp(-2.0 * _psi(sigma, z))


def circle_boolean_idiv(gamma, sigma, points=DISK_GRID):
    return DiskGrid(points, boolean_idiv_eta(gamma, sigma)(np.array(points, dtype=complex)))


def circle_free_idiv(gamma, sigma, points=DISK_GRID):
    """eta of the free law: the w solving gamma w exp(H(w)) = z.

    With H = sigma(T) + 2 psi_sigma, w = (z/gamma) e^{-sigma(T)} exp(-2 psi_sigma(w)),
    and Re H >= 0 sends the disk into |w| <= |z|: a fixed point on the whole grid.
    """
    z = _disk_points(points)
    scale = z * (math.exp(-sigma.mass) / _unit(gamma))
    return DiskGrid(points, _disk_fixed_point(lambda w: scale * np.exp(-2.0 * _psi(sigma, w)), z))


def _fourier_integrand(p, angle):
    zeta = cmath.exp(1j * angle)
    denom = 1.0 - zeta.real
    if denom < 1e-12:
        return complex(-p * p)
    return (zeta**p - 1.0 - 1j * p * zeta.imag) / denom


def circle_classical_idiv_fourier(gamma, sigma, p):
    """Fourier coefficient gamma^p exp(integral (zeta^p - 1 - ip Im zeta)/(1 - Re zeta))."""
    gamma = _unit(gamma)
    p = int(p)
    if any(1.0 - math.cos(t) < 1e-12 for t in sigma.angles):
        # extension value -p^2 must agree with continuation just off zeta = 1
        probe = _fourier_integrand(p, 1e-4)
        if abs(probe - (-p * p)) > 1e-6 * max(1.0, float(p * p)):
            raise ValidationError(
                "integrand extension at zeta = 1 disagrees with continuation"
            )
    acc = sum(w * _fourier_integrand(p, t) for t, w in sigma.atoms)
    return gamma**p * cmath.exp(acc)


def _disk_points(points):
    """The points as a 1-d complex ndarray, each finite and inside the unit disk."""
    z = np.array(points, dtype=complex).ravel()
    bad = ~(np.isfinite(z) & (np.abs(z) < 1.0))
    if bad.any():
        raise ValidationError(
            f"disk points lie inside the unit disk; got {complex(z[bad][0])!r}")
    return z


def _rk4_disk_leg(gen, w, t_from, t_to, step, r0, z0):
    """Integrate d eta/dt = A(eta) from t_from to t_to for one point or an ndarray.

    The step is fixed, so every point shares t and h; |eta_t| <= r0 is
    checked per point, and a failure names the start point z0.  r0 is an
    ndarray or a numpy scalar, so the check has .any() for a point too.
    """
    t, limit = t_from, r0 * (1.0 + 1e-9)
    while t < t_to - 1e-15:
        h = min(step, t_to - t)
        w = _rk4_step(gen.a_eval, w, h, gen.a_eval(w))
        t += h
        bad = abs(w) > limit
        if bad.any():
            i = np.argmax(bad)
            raise FlowError(f"disk flow from z0={complex(np.ravel(z0)[i])!r} violated "
                            f"|eta_t(z)| <= |z| at t={t:.6f}")
    return w


def circle_flow_map(gen, t_end, z, step=FLOW_STEP):
    """eta_t(z) by RK4 from eta_0 = id.

    z is one point, integrated as a Python complex, or an ndarray, run in
    lockstep; both go through the same leg.
    """
    t_end = _check_flow_args(t_end, step)
    shape = np.shape(z)
    z0 = _disk_points(z)
    if not shape:
        z0 = complex(z0[0])
    w = z0 if t_end == 0 else _rk4_disk_leg(gen, z0, 0.0, t_end, step, np.abs(z0), z0)
    return w.reshape(shape) if shape else w


@dataclass(frozen=True)
class CircleFlowResult:
    times: tuple
    grids: tuple   # DiskGrid per time
    means: tuple   # analytically tracked eta_t'(0) per time
    step_size: float


def circle_semigroup_defect(gen, t_end=1.0, step=FLOW_STEP, points=DISK_GRID):
    """max |eta_t(z) - eta_{t/2}(eta_{t/2}(z))| over the grid.

    Composed legs run at the stated step, the direct reference at step/2, so
    the defect measures the integrator-limited semigroup deviation.
    """
    t_end = _check_flow_args(t_end, step)
    z = _disk_points(points)
    r0 = np.abs(z)
    direct = _rk4_disk_leg(gen, z, 0.0, t_end, 0.5 * step, r0, z)
    half = _rk4_disk_leg(gen, z, 0.0, 0.5 * t_end, step, r0, z)
    comp = _rk4_disk_leg(gen, half, 0.0, 0.5 * t_end, step, np.abs(half), z)
    return float(np.abs(direct - comp).max(initial=0.0))


def circle_monotone_flow(gen, t_end=1.0, step=FLOW_STEP, points=DISK_GRID):
    """Integrate the disk flow; the derivative at 0 is tracked analytically."""
    t_end = _check_flow_args(t_end, step)
    if step > 1e-2:
        raise ValidationError("flow step must be <= 1e-2")
    times = (0.0, 0.5 * t_end, t_end)
    z = _disk_points(points)
    r0 = np.abs(z)
    half = _rk4_disk_leg(gen, z, 0.0, times[1], step, r0, z)
    full = _rk4_disk_leg(gen, half, times[1], times[2], step, r0, z)
    grids = tuple(DiskGrid(tuple(points), v) for v in (z, half, full))
    means = tuple(cmath.exp(gen.mean_rate * t) for t in times)
    return CircleFlowResult(times, grids, means, float(step))


def boolean_power_eta(e, k, points=DISK_GRID):
    """k-fold multiplicative Boolean power: eta(z) = z (eta(z)/z)^k.

    e takes an ndarray of grid points and is evaluated once on the grid.
    """
    z = np.array(points, dtype=complex)
    return DiskGrid(points, z * (e(z) / z) ** k)


def monotone_power_eta(e, k, points=DISK_GRID):
    """k-fold multiplicative monotone power: iterate eta k times on the grid.

    e takes an ndarray of grid points; the whole grid is iterated as one
    array, and |eta(w)| <= |w| is checked per point at every iteration.
    """
    z = np.array(points, dtype=complex)
    w, r = z, np.abs(z)
    for j in range(1, k + 1):
        nxt = e(w)
        r_next = np.abs(nxt)
        bad = r_next > r * (1.0 + 1e-9)
        if bad.any():
            i = np.argmax(bad)
            raise FlowError(f"eta iteration from z0={complex(z[i])!r} grew the "
                            f"modulus at iteration {j}")
        w, r = nxt, r_next
    return DiskGrid(points, w)


@dataclass(frozen=True)
class CircleArraySpec:
    """One eta-evaluator per row n, with its mean and the target generator.

    Each row's eta callable takes an ndarray of grid points and returns the
    ndarray of eta values, so a row's powers run the whole grid at once.
    Row n is raised to the power k_n = n: the rows of ``semigroup`` are
    flow roots at time 1/n.
    """

    name: str
    n_values: tuple
    eta_factory: object          # n -> callable eta_n, taking an ndarray of grid points
    mean_fn: object              # n -> complex mean of row n
    generator: CircleGenerator   # target (beta, sigma)

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValidationError("n_values must be strictly increasing")
        object.__setattr__(self, "n_values", ns)

    def eta_of(self, n):
        return self.eta_factory(n)

    def mean_of(self, n):
        return complex(self.mean_fn(n))

    @classmethod
    def semigroup(cls, gen, n_values, flow_step=FLOW_STEP, rotation_ell=0):
        """Rows eta_n = flow at time 1/n, optionally rotated by e^{2 pi i l/n}.

        rotation_ell is an integer or a per-row callable n -> integer
        (e.g. n//2 for the lambda_n = -1 witness).
        """
        ell_of = rotation_ell if callable(rotation_ell) else (lambda n: int(rotation_ell))

        def factory(n):
            lam = cmath.exp(2j * math.pi * ell_of(n) / n)
            return lambda z: lam * circle_flow_map(
                gen, 1.0 / n, z, step=min(flow_step, 0.5 / n)
            )

        def mean(n):
            return cmath.exp(2j * math.pi * ell_of(n) / n) * cmath.exp(gen.mean_rate / n)

        rotated = any(ell_of(n) != 0 for n in n_values)
        name = "rotated_semigroup" if rotated else "semigroup"
        return cls(name, tuple(n_values), factory, mean, gen)

    @classmethod
    def from_measures(cls, measures, gen, n_values=None):
        table = dict(measures)
        ns = tuple(sorted(table)) if n_values is None else tuple(n_values)
        return cls(
            "custom", ns,
            lambda n: eta_fn(table[n]),
            lambda n: circle_mean(table[n]),
            gen,
        )


def detect_rotation(spec, beta, n):
    """The integer l minimizing |k_n arg(mean_n) + 2 pi l - beta|, with k_n = n."""
    x = n * cmath.phase(spec.mean_of(n))
    ell = round((beta - x) / TWO_PI)
    if abs(x + TWO_PI * ell - beta) > math.pi + 1e-9:
        raise ConvergenceError("rotation detection is branch-ambiguous")
    return int(ell)


def beta_condition_check(spec, beta, tol=0.05):
    """k_n * Im(mean_n) -> beta: the drift condition for verdict transfer."""
    rows = []
    for n in spec.n_values:
        val = n * spec.mean_of(n).imag
        rows.append({"n": n, "k": n, "k_im_mean": float(val),
                     "gap": float(abs(val - beta))})
    ok = rows[-1]["gap"] <= tol
    return ok, rows


def circle_reports(spec, gen, tol=0.05, flow_step=FLOW_STEP, points=DISK_GRID,
                   correct=True):
    """The Boolean/monotone equivalence and the rotation correction, one pass per row.

    Both compare the rows' k_n-th powers with the laws of gen = (beta,
    sigma): the Boolean powers with the Boolean law of (e^{i beta}, sigma),
    the monotone powers with gen's time-one flow, integrated once.  Row n's
    monotone pass iterates the grid twice over as one array: the lambda = 1
    half is the monotone row and the uncorrected column, the
    lambda = e^{2 pi i l/n} half, with l detected from beta, the corrected
    column.  With correct False the pass runs the lambda = 1 half alone and
    the correction report is None.  Returns (equivalence, correction).
    """
    size = len(points)
    bool_target = circle_boolean_idiv(cmath.exp(1j * gen.beta), gen.sigma, points)
    mono_target = circle_monotone_flow(gen, 1.0, flow_step, points).grids[-1].values
    beta_ok, beta_rows = beta_condition_check(spec, gen.beta, tol)
    rows_b, rows_m, rows_c = [], [], []
    for n in spec.n_values:
        e = spec.eta_of(n)
        lams = [1.0]
        if correct:
            ell = detect_rotation(spec, gen.beta, n)
            lams.append(cmath.exp(2j * math.pi * ell / n))
        lam = np.repeat(np.array(lams, dtype=complex), size)
        powers = monotone_power_eta(lambda z: lam * e(z), n, tuple(points) * len(lams)).values
        dist_b = float(eta_distance(boolean_power_eta(e, n, points), bool_target))
        dist_m = float(eta_distance(powers[:size], mono_target))
        rows_b.append({"n": n, "k": n, "distance": dist_b})
        rows_m.append({"n": n, "k": n, "distance": dist_m})
        if correct:
            rows_c.append({"n": n, "k": n, "ell": ell, "uncorrected": dist_m,
                           "corrected": float(eta_distance(powers[size:], mono_target))})
    conv_b = _verdict([r["distance"] for r in rows_b], tol)
    conv_m = _verdict([r["distance"] for r in rows_m], tol)
    equivalence = {
        "array": spec.name,
        "beta_condition": {"holds": beta_ok, "rows": beta_rows},
        "ops": {
            "boolean": {"rows": rows_b, "converged": conv_b},
            "monotone": {"rows": rows_m, "converged": conv_m},
        },
        "agreement": conv_b == conv_m,
        "both_converged": conv_b and conv_m,
        "tolerance": tol,
    }
    correction = None if not correct else {
        "array": spec.name,
        "rows": rows_c,
        "uncorrected_converged": conv_m,
        "corrected_converged": _verdict([r["corrected"] for r in rows_c], tol),
        "tolerance": tol,
    }
    return equivalence, correction
