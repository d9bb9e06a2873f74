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
from .harness import _k_of, _verdict
from .idiv import _check_flow_args, _rk4_step
from .measures import PARAMETER, CircleMeasure
from .solvers import disk_guard, newton

#: evaluation grid: two rings of eight points, radii 0.4 and 0.2
DISK_GRID = tuple(
    r * cmath.exp(2j * math.pi * j / 8.0) for r in (0.4, 0.2) for j in range(8)
)

FLOW_STEP = 1e-3

TWO_PI = 2.0 * math.pi


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
        return cls(tuple(points), tuple(fn(z) for z in points))


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
        """A(z) = z(i beta - H(z)) at one point or, elementwise, an ndarray."""
        return z * (1j * self.beta - _herglotz_sum(self.sigma, z))

    @property
    def mean_rate(self):
        """A'(0) = i beta - sigma(T): the exponential rate of the flow mean."""
        return 1j * self.beta - self.sigma.mass


def _herglotz_sum(sigma, z):
    """H(z) = integral (1+zeta z)/(1-zeta z) dsigma at one point or an ndarray."""
    acc = 0.0j
    for zeta, w in sigma.unit_atoms:
        u = zeta * z
        acc = acc + w * (1.0 + u) / (1.0 - u)
    return acc


def _herglotz_deriv(sigma, z):
    """H'(z) = integral 2 zeta/(1-zeta z)^2 dsigma."""
    acc = 0.0j
    for zeta, w in sigma.unit_atoms:
        acc = acc + w * 2.0 * zeta / (1.0 - zeta * z) ** 2
    return acc


def psi(mu, z):
    """psi(z) = integral of z zeta/(1 - z zeta) dmu at one point or an ndarray."""
    if np.any(abs(z) >= 1.0):
        raise ValidationError("psi needs |z| < 1")
    acc = 0
    for zeta, w in mu.unit_atoms:
        acc = acc + w * z * zeta / (1.0 - z * zeta)
    return acc


def eta(mu, z):
    """eta = psi/(1 + psi); |eta(z)| <= |z| on the disk."""
    p = psi(mu, z)
    if np.any(abs(1.0 + p) < 1e-300):
        raise ValidationError("1 + psi vanished (impossible for |z| < 1)")
    return p / (1.0 + p)


def eta_fn(mu):
    return lambda z: eta(mu, z)


def _eta_deriv_atomic(mu, z):
    p = psi(mu, z)
    dp = 0
    for zeta, w in mu.unit_atoms:
        dp = dp + w * zeta / (1.0 - z * zeta) ** 2
    return dp / (1.0 + p) ** 2


def _eta_with_deriv(obj):
    """(eta, eta') callables from a CircleMeasure or a plain eta callable."""
    if isinstance(obj, CircleMeasure):
        return eta_fn(obj), lambda z: _eta_deriv_atomic(obj, z)
    h = 1e-6

    def deriv(z):
        return (obj(z + h) - obj(z - h)) / (2.0 * h)

    return obj, deriv


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
    e, de = _eta_with_deriv(mu)
    u = newton(lambda w: e(w) - z, de, z / mean, tol=1e-13,
               guard=disk_guard(1.0), label="sigma_transform")
    return u / z


def mult_boolean(a, b, points=DISK_GRID):
    """eta(z)/z multiplies."""
    ea, _ = _eta_with_deriv(a)
    eb, _ = _eta_with_deriv(b)
    return DiskGrid.sample(lambda z: ea(z) * eb(z) / z, points)


def mult_monotone(a, b, points=DISK_GRID):
    """eta composes (left factor outside)."""
    ea, _ = _eta_with_deriv(a)
    eb, _ = _eta_with_deriv(b)
    return DiskGrid.sample(lambda z: ea(eb(z)), points)


def _invert_eta(e, de, target, w0):
    return newton(lambda w: e(w) - target, de, w0, tol=1e-13,
                  guard=disk_guard(1.0), label="eta inverse")


def mult_free(a, b, points=DISK_GRID, n_continuation=24):
    """Sigma multiplies: eta of the product by radial analytic continuation.

    Per grid point the relation eta^{-1}(w) = eta_a^{-1}(w) eta_b^{-1}(w)/w
    is inverted by Newton, walking the target radially out from zero with
    warm starts for the two inner inverses.
    """
    means = []
    for m in (a, b):
        if isinstance(m, CircleMeasure):
            mean = circle_mean(m)
            if abs(mean) < 1e-14:
                raise ZeroMeanError("multiplicative free convolution needs non-zero means")
            means.append(mean)
        else:
            means.append((m(1e-5) / 1e-5))
    ea, dea = _eta_with_deriv(a)
    eb, deb = _eta_with_deriv(b)

    def one_point(zeta):
        # q(w) = eta_a^{-1}(w) eta_b^{-1}(w) / w ~ w/(mean_a mean_b) near 0
        w = means[0] * means[1] * zeta / n_continuation
        ua = _invert_eta(ea, dea, w, w / means[0])
        ub = _invert_eta(eb, deb, w, w / means[1])
        for j in range(1, n_continuation + 1):
            target = zeta * j / n_continuation
            for _ in range(80):
                ua = _invert_eta(ea, dea, w, ua)
                ub = _invert_eta(eb, deb, w, ub)
                res = ua * ub / w - target
                if abs(res) <= 1e-12:
                    break
                dq = (ub / dea(ua) + ua / deb(ub)) / w - ua * ub / (w * w)
                w = w - res / dq
                if abs(w) >= 1.0:
                    raise ConvergenceError("free product inverse left the disk")
            else:
                raise ConvergenceError("free product continuation stalled")
        return w

    return DiskGrid.sample(one_point, points)


def boolean_idiv_eta(gamma, sigma):
    """eta(z) = gamma z exp(-integral (1+zeta z)/(1-zeta z) dsigma), z a point or an ndarray."""
    gamma = complex(gamma)
    if abs(abs(gamma) - 1.0) > 1e-9:
        raise ValidationError("gamma must lie on the unit circle")
    return lambda z: gamma * z * np.exp(-_herglotz_sum(sigma, z))


def circle_boolean_idiv(gamma, sigma, points=DISK_GRID):
    return DiskGrid(points, boolean_idiv_eta(gamma, sigma)(np.array(points, dtype=complex)))


def circle_free_idiv(gamma, sigma, points=DISK_GRID, n_continuation=24):
    """eta of the free law: invert eta^{-1}(w) = w gamma exp(integral...)."""
    gamma = complex(gamma)
    if abs(abs(gamma) - 1.0) > 1e-9:
        raise ValidationError("gamma must lie on the unit circle")

    def inv(w):
        return w * gamma * cmath.exp(_herglotz_sum(sigma, w))

    def dinv(w):
        s = cmath.exp(_herglotz_sum(sigma, w))
        ds = s * _herglotz_deriv(sigma, w)
        return gamma * (s + w * ds)

    start_scale = cmath.exp(-_herglotz_sum(sigma, 0.0)) / gamma

    def one_point(zeta):
        w = start_scale * zeta / n_continuation
        for j in range(1, n_continuation + 1):
            target = zeta * j / n_continuation
            w = newton(lambda v: inv(v) - target, dinv, w, tol=1e-13,
                       guard=disk_guard(1.0), label="circle free idiv")
        return w

    return DiskGrid.sample(one_point, points)


def _fourier_integrand(p, angle):
    zeta = cmath.exp(1j * angle)
    denom = 1.0 - zeta.real
    if denom < 1e-12:
        return complex(-p * p)
    return (zeta**p - 1.0 - 1j * p * zeta.imag) / denom


def circle_classical_idiv_fourier(gamma, sigma, p):
    """Fourier coefficient gamma^p exp(integral (zeta^p - 1 - ip Im zeta)/(1 - Re zeta))."""
    gamma = complex(gamma)
    if abs(abs(gamma) - 1.0) > 1e-9:
        raise ValidationError("gamma must lie on the unit circle")
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
    """The start points as a 1-d complex ndarray, each finite and inside the unit disk."""
    z = np.array(points, dtype=complex).ravel()
    bad = ~(np.isfinite(z) & (np.abs(z) < 1.0))
    if bad.any():
        raise ValidationError(
            f"disk flow starts inside the unit disk; got {complex(z[bad][0])!r}")
    return z


def _rk4_disk_leg(gen, w, t_from, t_to, step, r0, z0):
    """Integrate d eta/dt = A(eta) from t_from to t_to for an ndarray of points.

    The step is fixed, so every point shares t and h; |eta_t| <= r0 is
    checked per point, and a failure names the start point z0.
    """
    t, limit = t_from, r0 * (1.0 + 1e-9)
    while t < t_to - 1e-15:
        h = min(step, t_to - t)
        w = _rk4_step(gen.a_eval, w, h, gen.a_eval(w))
        t += h
        bad = np.abs(w) > limit
        if bad.any():
            i = np.argmax(bad)
            raise FlowError(f"disk flow from z0={complex(z0[i])!r} violated "
                            f"|eta_t(z)| <= |z| at t={t:.6f}")
    return w


def circle_flow_map(gen, t_end, z, step=FLOW_STEP):
    """eta_t(z) by RK4 from eta_0 = id; z is one point or an ndarray, run in lockstep."""
    t_end = _check_flow_args(t_end, step)
    z0 = _disk_points(z)
    w = z0 if t_end == 0 else _rk4_disk_leg(gen, z0, 0.0, t_end, step, np.abs(z0), z0)
    shape = np.shape(z)
    return w.reshape(shape) if shape else complex(w[0])


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


@functools.lru_cache(maxsize=1)
def _time_one_grid(gen, step, points):
    """The time-one disk flow of gen on points, the monotone target.

    circle_equivalence and rotation_correction both compare against it; a
    circle-run calls them in turn, and the second reads the cached grid.
    """
    return circle_monotone_flow(gen, 1.0, step, points).grids[-1]


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
    """

    name: str
    n_values: tuple
    eta_factory: object          # n -> callable eta_n, taking an ndarray of grid points
    mean_fn: object              # n -> complex mean of row n
    generator: CircleGenerator   # target (beta, sigma)
    k_table: tuple = None
    construction_ell: object = 0  # rotation index used to build the array: int or n -> int

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValidationError("n_values must be strictly increasing")
        object.__setattr__(self, "n_values", ns)

    def k_of(self, n):
        return _k_of(self.k_table, n)

    def eta_of(self, n):
        return self.eta_factory(n)

    def mean_of(self, n):
        return complex(self.mean_fn(n))

    @classmethod
    def semigroup(cls, gen, n_values, flow_step=FLOW_STEP, rotation_ell=0):
        """Rows eta_n = flow at time 1/k_n, optionally rotated by e^{2 pi i l/k_n}.

        rotation_ell is an integer or a per-row callable n -> integer
        (e.g. n//2 for the lambda_n = -1 witness).
        """
        ell_of = rotation_ell if callable(rotation_ell) else (lambda n: int(rotation_ell))

        def factory(n):
            k = n
            lam = cmath.exp(2j * math.pi * ell_of(n) / k)
            return lambda z: lam * circle_flow_map(
                gen, 1.0 / k, z, step=min(flow_step, 0.5 / k)
            )

        def mean(n):
            return cmath.exp(2j * math.pi * ell_of(n) / n) * cmath.exp(gen.mean_rate / n)

        rotated = any(ell_of(n) != 0 for n in n_values)
        name = "rotated_semigroup" if rotated else "semigroup"
        return cls(name, tuple(n_values), factory, mean, gen,
                   construction_ell=ell_of)

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
    """The integer l minimizing |k_n arg(mean_n) + 2 pi l - beta|."""
    k = spec.k_of(n)
    x = k * cmath.phase(spec.mean_of(n))
    ell = round((beta - x) / TWO_PI)
    if abs(x + TWO_PI * ell - beta) > math.pi + 1e-9:
        raise ConvergenceError("rotation detection is branch-ambiguous")
    return int(ell)


def rotation_correction(spec, beta, tol=0.05, flow_step=FLOW_STEP, points=DISK_GRID):
    """Detect per-row rotations and compare corrected vs raw monotone powers.

    The target is the time-one flow of the spec's generator.  Returns rows
    (n, detected l, uncorrected and corrected distances) plus convergence
    verdicts for both sequences.
    """
    target = _time_one_grid(spec.generator, flow_step, tuple(points))
    size = len(points)
    rows, raw_d, fix_d = [], [], []
    for n in spec.n_values:
        k = spec.k_of(n)
        ell = detect_rotation(spec, beta, n)
        e = spec.eta_of(n)
        # uncorrected (lambda = 1) and corrected powers iterate as one array
        lam = np.repeat([1.0, cmath.exp(2j * math.pi * ell / k)], size)
        both = monotone_power_eta(lambda z: lam * e(z), k, tuple(points) * 2).values
        raw = eta_distance(both[:size], target.values)
        fixed = eta_distance(both[size:], target.values)
        rows.append({"n": n, "k": k, "ell": ell,
                     "uncorrected": float(raw), "corrected": float(fixed)})
        raw_d.append(float(raw))
        fix_d.append(float(fixed))
    return {
        "array": spec.name,
        "rows": rows,
        "uncorrected_converged": _verdict(raw_d, tol),
        "corrected_converged": _verdict(fix_d, tol),
        "tolerance": tol,
    }


def beta_condition_check(spec, beta, tol=0.05):
    """k_n * Im(mean_n) -> beta: the drift condition for verdict transfer."""
    rows = []
    for n in spec.n_values:
        k = spec.k_of(n)
        val = k * spec.mean_of(n).imag
        rows.append({"n": n, "k": k, "k_im_mean": float(val),
                     "gap": float(abs(val - beta))})
    ok = rows[-1]["gap"] <= tol
    return ok, rows


def circle_equivalence(spec, beta, sigma, tol=0.05, flow_step=FLOW_STEP,
                       points=DISK_GRID):
    """Boolean vs monotone verdict agreement on the circle under the drift condition."""
    gamma = cmath.exp(1j * beta)
    bool_target = circle_boolean_idiv(gamma, sigma, points)
    mono_target = _time_one_grid(CircleGenerator(beta, sigma), flow_step, tuple(points))
    beta_ok, beta_rows = beta_condition_check(spec, beta, tol)
    rows_b, rows_m, db, dm = [], [], [], []
    for n in spec.n_values:
        k = spec.k_of(n)
        e = spec.eta_of(n)
        dist_b = eta_distance(boolean_power_eta(e, k, points), bool_target)
        dist_m = eta_distance(monotone_power_eta(e, k, points), mono_target)
        rows_b.append({"n": n, "k": k, "distance": float(dist_b)})
        rows_m.append({"n": n, "k": k, "distance": float(dist_m)})
        db.append(float(dist_b))
        dm.append(float(dist_m))
    conv_b = _verdict(db, tol)
    conv_m = _verdict(dm, tol)
    return {
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
