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
machinery repairs.  A run's k_n-fold powers and its time-one flow are
iterated together as the lanes of one array pass (``disk_powers``).
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
    """max |eta_a - eta_b| over a shared grid of at least one point."""
    pa, va = (a.points, a.values) if isinstance(a, DiskGrid) else (None, a)
    pb, vb = (b.points, b.values) if isinstance(b, DiskGrid) else (None, b)
    if pa is not None and pb is not None and pa != pb:
        raise ValidationError("eta grids sampled on different points")
    if len(va) != len(vb) or not len(va):
        raise ValidationError(f"eta distance needs two samples of one non-empty grid; "
                              f"got {len(va)} and {len(vb)} values")
    return max(abs(x - y) for x, y in zip(va, vb))


@dataclass(frozen=True)
class CircleGenerator:
    """(beta, sigma) indexing the disk flow field A(z) = z(i beta - integral...)."""

    beta: float
    sigma: CircleMeasure

    def __post_init__(self):
        if self.sigma.role != PARAMETER:
            object.__setattr__(self, "sigma", self.sigma.with_role(PARAMETER))

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


def _schedule(t_from, t_to, step):
    """The (h, t) of each RK4 step of a fixed-step leg: h = step, the last one ends it at t_to."""
    out, t = [], t_from
    while t < t_to - 1e-15:
        h = min(step, t_to - t)
        t += h
        out.append((h, t))
    return out


def _rk4_disk_leg(gen, w, t_from, t_to, step, r0, z0):
    """Integrate d eta/dt = A(eta) from t_from to t_to for one point or an ndarray.

    The step is fixed, so every point shares t and h; |eta_t| <= r0 is
    checked per point, and a failure names the start point z0.  r0 is an
    ndarray or a numpy scalar, so the check has .any() for a point too.
    """
    limit = r0 * (1.0 + 1e-9)
    for h, t in _schedule(t_from, t_to, step):
        w = _rk4_step(gen.a_eval, w, h, gen.a_eval(w))
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


def _check_disk_flow_args(t_end, step):
    t_end = _check_flow_args(t_end, step)
    if step > 1e-2:
        raise ValidationError("flow step must be <= 1e-2")
    return t_end


def circle_monotone_flow(gen, t_end=1.0, step=FLOW_STEP, points=DISK_GRID):
    """Integrate the disk flow; the derivative at 0 is tracked analytically."""
    t_end = _check_disk_flow_args(t_end, step)
    times = (0.0, 0.5 * t_end, t_end)
    z = _disk_points(points)
    r0 = np.abs(z)
    half = _rk4_disk_leg(gen, z, 0.0, times[1], step, r0, z)
    full = _rk4_disk_leg(gen, half, times[1], times[2], step, r0, z)
    grids = tuple(DiskGrid(tuple(points), v) for v in (z, half, full))
    means = tuple(cmath.exp(gen.mean_rate * t) for t in times)
    return CircleFlowResult(times, grids, means, float(step))


@dataclass(frozen=True)
class DiskFlowRoot:
    """eta = lam * eta_t of gen's flow, by fixed-step RK4 legs from 0 to each of ``times``.

    A row of ``CircleArraySpec.semigroup`` is the root at t = 1/n; the
    time-one target of ``circle_reports`` runs the two legs, to 1/2 and to
    1, of ``circle_monotone_flow``.  Calling it evaluates eta; a k-fold
    power runs its step schedule in ``disk_powers``.
    """

    gen: CircleGenerator
    times: tuple
    step: float
    lam: complex = 1.0

    def __post_init__(self):
        times = tuple(_check_flow_args(t, self.step) for t in self.times)
        if not times or times[0] <= 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError(f"flow root times must be strictly increasing and above 0; "
                                  f"got {self.times!r}")
        object.__setattr__(self, "times", times)

    @functools.cached_property
    def schedule(self):
        """The (h, t) of each RK4 step of one application, leg after leg."""
        starts = (0.0,) + tuple(self.times[:-1])
        return tuple(ht for t0, t1 in zip(starts, self.times)
                     for ht in _schedule(t0, t1, self.step))

    def __call__(self, z):
        shape = np.shape(z)
        z0 = _disk_points(z)
        w, r0, t0 = z0, np.abs(z0), 0.0
        for t1 in self.times:
            w = _rk4_disk_leg(self.gen, w, t0, t1, self.step, r0, z0)
            t0 = t1
        return self.lam * (w.reshape(shape) if shape else complex(w[0]))


class _DiskLanes:
    """Rows (eta, k, z, where, lam) as lanes: each point of z iterates w -> lam * eta(w) k times.

    The lanes are sorted by their tick counts ``ticks``, descending, so the
    lanes still running at tick s are a prefix.  Rows whose eta is a
    DiskFlowRoot of one generator share a kernel: a lane takes one RK4 step
    a tick on its root's schedule, and each of its iterations ends in
    lam * (eta.lam * w), the order of the composed maps.  Any other eta runs
    its rows as a kernel of its own, one call a tick.  Each RK4 step keeps
    |w| <= r (1 + 1e-9), with r the modulus at the start of the iteration,
    and so does each iteration's end; a failure raises a FlowError naming
    the lane's start point, its iteration and its row's where.
    """

    def __init__(self, rows):
        eta = rows[0][0]
        self.rows, self._a = rows, 0
        self.flow = isinstance(eta, DiskFlowRoot)
        period = [len(row[0].schedule) if self.flow else 1 for row in rows]
        sizes = [np.size(row[2]) for row in rows]
        ticks = np.repeat([row[1] * p for row, p in zip(rows, period)], sizes)
        self.order = np.argsort(-ticks, kind="stable")
        self.ticks = ticks[self.order]
        self.row = np.repeat(np.arange(len(rows)), sizes)[self.order]
        self.z = np.concatenate([np.ravel(row[2]) for row in rows]).astype(complex)[self.order]
        self.w = self.z.copy()
        self.lim = np.abs(self.z) * (1.0 + 1e-9)
        self.lam = np.array([complex(row[4]) for row in rows])[self.row]
        if not self.flow:
            self.eta = eta
            return
        self.gen = eta.gen
        lam_row = np.array([complex(row[0].lam) for row in rows])[self.row]
        # the h of every row at every tick, and the rows each tick ends an iteration of
        self.h = np.zeros((int(self.ticks[0]), len(rows)))
        self.ends = [[] for _ in range(self.h.shape[0])]
        for r, (row, p) in enumerate(zip(rows, period)):
            lanes = np.flatnonzero(self.row == r)
            lo, hi = int(lanes[0]), int(lanes[-1]) + 1
            self.h[:row[1] * p, r] = np.tile([h for h, _ in row[0].schedule], row[1])
            block = (lo, self.w[lo:hi], lam_row[lo:hi], self.lam[lo:hi], self.lim[lo:hi])
            for j in range(1, row[1] + 1):
                self.ends[j * p - 1].append(block)

    def values(self):
        """Each row's lanes in the row's own order, shaped like its z."""
        out = np.empty_like(self.w)
        out[self.order] = self.w
        splits = np.cumsum([np.size(row[2]) for row in self.rows])[:-1]
        return [v.reshape(np.shape(row[2])) for v, row in zip(np.split(out, splits), self.rows)]

    def _step(self, s, a):
        """Advance the first a lanes through tick s."""
        if a != self._a:
            self._a, self._v = a, (self.w[:a], self.lim[:a], self.lam[:a], self.row[:a])
        w, lim, lam, row = self._v
        if not self.flow:
            self._end(s, 0, w, lam * self.eta(w), lim)
            return
        a_eval = self.gen.a_eval
        w[...] = _rk4_step(a_eval, w, self.h[s][row], a_eval(w))
        inside = np.abs(w) <= lim
        if not inside.all():
            i = int(np.argmin(inside))
            schedule = self.rows[self.row[i]][0].schedule
            p = len(schedule)
            raise FlowError(f"disk flow from z0={complex(self.z[i])!r} violated |eta_t(z)| <= "
                            f"|z| at t={schedule[s % p][1]:.6f} of iteration {s // p + 1} "
                            f"({self.rows[self.row[i]][3]})")
        for lo, w_g, lam_row, lam_g, lim_g in self.ends[s]:
            self._end(s, lo, w_g, lam_g * (lam_row * w_g), lim_g)

    def _end(self, s, lo, w, x, lim):
        """An iteration's end at tick s: w = x, whose modulus may not pass lim."""
        r = np.abs(x)
        inside = r <= lim
        if not inside.all():
            i = lo + int(np.argmin(inside))
            p = len(self.rows[self.row[i]][0].schedule) if self.flow else 1
            raise FlowError(f"eta iteration from z0={complex(self.z[i])!r} grew the modulus "
                            f"at iteration {(s + 1) // p} ({self.rows[self.row[i]][3]})")
        w[...] = x
        np.multiply(r, 1.0 + 1e-9, out=lim)


def disk_powers(rows):
    """k iterations of w -> lam * eta(w) for every row (eta, k, z, where, lam), as one pass.

    The rows of the DiskFlowRoots of one generator share one kernel, and the
    rows of any other eta one per eta (``_DiskLanes``); every tick steps
    each kernel's running lanes.  Returns one array per row, shaped like
    its z.
    """
    rows, groups = list(rows), {}
    for i, (eta, *_) in enumerate(rows):
        key = (DiskFlowRoot, id(eta.gen)) if isinstance(eta, DiskFlowRoot) else id(eta)
        groups.setdefault(key, []).append(i)
    kernels = [_DiskLanes([rows[i] for i in idx]) for idx in groups.values()]
    start = 0
    for end in sorted({int(t) for ker in kernels for t in ker.ticks}):
        active = [(ker, int(np.count_nonzero(ker.ticks > start))) for ker in kernels]
        active = [(ker, a) for ker, a in active if a]
        for s in range(start, end):
            for ker, a in active:
                ker._step(s, a)
        start = end
    out = [None] * len(rows)
    for idx, ker in zip(groups.values(), kernels):
        for i, v in zip(idx, ker.values()):
            out[i] = v
    return out


@dataclass(frozen=True)
class CircleArraySpec:
    """One eta-evaluator per row n, with its mean and the target generator.

    Each row's eta callable takes an ndarray of grid points and returns the
    ndarray of eta values.  Row n is raised to the power k_n = n: the rows
    of ``semigroup`` are DiskFlowRoots at time 1/n, whose powers
    ``disk_powers`` runs as RK4 lanes, and any other row's eta is called
    once per iteration on the whole grid.
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
        _check_flow_args(1.0, flow_step)
        ell_of = rotation_ell if callable(rotation_ell) else (lambda n: int(rotation_ell))

        def factory(n):
            lam = cmath.exp(2j * math.pi * ell_of(n) / n)
            return DiskFlowRoot(gen, (1.0 / n,), min(flow_step, 0.5 / n), lam)

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
    """The Boolean/monotone equivalence and the rotation correction, from one lane pass.

    Both compare the rows' k_n-th powers with the laws of gen = (beta,
    sigma): the Boolean powers with the Boolean law of (e^{i beta}, sigma),
    the monotone powers with gen's time-one flow.  Both powers and that flow
    are the lanes of one ``disk_powers`` pass.  Row n's grid runs as three
    lane groups: once (k = 1), whose eta gives the Boolean power
    z (eta/z)^n; n times with lambda = 1, the monotone row and the
    uncorrected column; and n times with lambda = e^{2 pi i l/n}, l
    detected from beta, the corrected column.  The flow runs the two legs of
    ``circle_monotone_flow``.  With correct False the corrected lanes do not
    run and the correction report is None.
    Returns (equivalence, correction).
    """
    _check_disk_flow_args(1.0, flow_step)
    z = _disk_points(points)
    bool_target = circle_boolean_idiv(cmath.exp(1j * gen.beta), gen.sigma, points)
    beta_ok, beta_rows = beta_condition_check(spec, gen.beta, tol)
    rows = [(DiskFlowRoot(gen, (0.5, 1.0), flow_step), 1, z, "time-one target", 1.0)]
    ells = []
    for n in spec.n_values:
        e = spec.eta_of(n)
        rows.append((e, 1, z, f"row n={n}, k=1", 1.0))
        rows.append((e, n, z, f"row n={n}, k={n}", 1.0))
        if correct:
            ells.append(detect_rotation(spec, gen.beta, n))
            rows.append((e, n, z, f"row n={n}, k={n}, l={ells[-1]}",
                         cmath.exp(2j * math.pi * ells[-1] / n)))
    mono_target, *lanes = (tuple(v.tolist()) for v in disk_powers(rows))
    per_row = 3 if correct else 2
    rows_b, rows_m, rows_c = [], [], []
    for i, n in enumerate(spec.n_values):
        eta_z, power, *corrected = lanes[per_row * i:per_row * (i + 1)]
        boolean_power = DiskGrid(points, z * (np.array(eta_z) / z) ** n)
        dist_b = float(eta_distance(boolean_power, bool_target))
        dist_m = float(eta_distance(power, mono_target))
        rows_b.append({"n": n, "k": n, "distance": dist_b})
        rows_m.append({"n": n, "k": n, "distance": dist_m})
        if correct:
            rows_c.append({"n": n, "k": n, "ell": ells[i], "uncorrected": dist_m,
                           "corrected": float(eta_distance(corrected[0], mono_target))})
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
