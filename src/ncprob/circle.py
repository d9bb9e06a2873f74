"""Multiplicative transforms on the unit circle and the disk flow.

psi and eta live on the unit disk: Boolean convolution multiplies eta/z,
and monotone convolution composes eta.  Weak convergence on the circle is
decided by the maximum eta-difference over a fixed sixteen-point grid
inside the disk of radius 0.4: uniform convergence of eta on compacts of
the disk is equivalent to weak convergence of the measures.

Monotone convolution semigroups on the circle solve d eta/dt = A(eta) with
A(z) = z(i beta - integral (1+zeta z)/(1-zeta z) dsigma); the k_n-th roots
sampled from such a flow are the arrays whose powers the rotation-correction
machinery repairs.  Every disk flow is integrated by one RK4 driver, the
lanes of ``disk_powers``: the flow map, its snapshots and the semigroup
defect are rows of DiskFlowRoots, and a run's k_n-fold powers and its
time-one flow are the lanes of one pass.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FlowError, ValidationError
from .harness import column, equivalence
from .idiv import FLOW_STEP, _check_flow_args, _check_snapshot_step, _rk4_step
from .measures import PARAMETER, CircleMeasure

#: evaluation grid: two rings of eight points, radii 0.4 and 0.2
DISK_GRID = tuple(
    r * cmath.exp(2j * math.pi * j / 8.0) for r in (0.4, 0.2) for j in range(8)
)

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
        """A(z) = z(i beta - H(z)) = z(A'(0) - 2 psi_sigma(z)), a point or a 1-d ndarray."""
        return z * (self.mean_rate - 2.0 * _psi(self.sigma, z))

    @functools.cached_property
    def mean_rate(self):
        """A'(0) = i beta - sigma(T): the exponential rate of the flow mean."""
        return 1j * self.beta - self.sigma.mass


def _psi_over_z(mu, z):
    """psi(z)/z = S(z) = sum w/(conj(zeta) - z) over mu's atoms, at a point or a 1-d ndarray.

    On |zeta| = 1, z zeta/(1 - z zeta) = z/(conj(zeta) - z), so S is one
    broadcast over atoms x points with no cancellation: it is finite at
    z = 0, and psi = z S keeps its relative digits near z = 0, which
    (H - sigma(T))/2 would lose.
    """
    poles, weights = mu.disk_poles
    return weights @ (1.0 / np.subtract.outer(poles, z))


def _psi(mu, z):
    """psi(z) = integral z zeta/(1 - z zeta) dmu = z S(z); H = sigma(T) + 2 psi_sigma."""
    return z * _psi_over_z(mu, z)


def psi(mu, z):
    """psi(z) = integral of z zeta/(1 - z zeta) dmu at one point or an ndarray of any shape."""
    if np.any(abs(z) >= 1.0):
        raise ValidationError("psi needs |z| < 1")
    if np.ndim(z) > 1:
        return _psi(mu, np.ravel(z)).reshape(np.shape(z))
    return _psi(mu, z)


def eta(mu, z):
    """eta = psi/(1 + psi); |eta(z)| <= |z| on the disk."""
    p = psi(mu, z)
    if np.any(abs(1.0 + p) < 1e-300):
        raise ValidationError("1 + psi vanished (impossible for |z| < 1)")
    return p / (1.0 + p)


def eta_fn(mu):
    return lambda z: eta(mu, z)


def _unit(gamma):
    """gamma as a complex, checked to lie on the unit circle."""
    gamma = complex(gamma)
    if abs(abs(gamma) - 1.0) > 1e-9:
        raise ValidationError("gamma must lie on the unit circle")
    return gamma


def circle_mean(mu):
    """Integral of zeta dmu = eta'(0)."""
    return mu.mean


def boolean_idiv_eta(gamma, sigma):
    """eta(z) = gamma z exp(-H(z)) = gamma e^{-sigma(T)} z exp(-2 psi_sigma(z)).

    z is a point or a 1-d ndarray.
    """
    scale = _unit(gamma) * math.exp(-sigma.mass)
    return lambda z: scale * z * np.exp(-2.0 * _psi(sigma, z))


def circle_boolean_idiv(gamma, sigma, points=DISK_GRID):
    return DiskGrid(points, boolean_idiv_eta(gamma, sigma)(np.array(points, dtype=complex)))


def _disk_points(points):
    """The points as a 1-d complex ndarray, each finite and inside the unit disk."""
    z = np.array(points, dtype=complex).ravel()
    bad = ~(np.isfinite(z) & (np.abs(z) < 1.0))
    if bad.any():
        raise ValidationError(
            f"disk points lie inside the unit disk; got {complex(z[bad][0])!r}")
    return z


def circle_flow_map(gen, t_end, z, step=FLOW_STEP):
    """eta_t(z) by RK4 from eta_0 = id, for one point (a complex) or an ndarray of its shape.

    The flow is the k = 1 row of a DiskFlowRoot at t_end in ``disk_powers``,
    so a point is the one lane of an array.
    """
    t_end = _check_flow_args(t_end, step)
    shape = np.shape(z)
    w = _disk_points(z)
    if t_end:
        root = DiskFlowRoot(gen, (t_end,), step)
        (w,) = disk_powers([(root, 1, w, f"flow to t={t_end!r}", 1.0)])
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
    the defect measures the integrator-limited semigroup deviation.  Both
    are rows of one ``disk_powers`` pass: the direct flow a k = 1 row to t,
    the composition a k = 2 row to t/2.
    """
    t_end = _check_flow_args(t_end, step)
    z = _disk_points(points)
    if not t_end:
        return 0.0
    direct, comp = disk_powers([
        (DiskFlowRoot(gen, (t_end,), 0.5 * step), 1, z, "direct flow at step/2", 1.0),
        (DiskFlowRoot(gen, (0.5 * t_end,), step), 2, z, "two half flows", 1.0)])
    return float(np.abs(direct - comp).max(initial=0.0))


def circle_monotone_flow(gen, t_end=1.0, step=FLOW_STEP, points=DISK_GRID):
    """Integrate the disk flow; the derivative at 0 is tracked analytically.

    The snapshots at t/2 and t are the k = 1 rows of DiskFlowRoots with
    times (t/2,) and (t/2, t), run in one ``disk_powers`` pass.
    """
    t_end = _check_snapshot_step(t_end, step)
    times = (0.0, 0.5 * t_end, t_end)
    z = _disk_points(points)
    half = full = z
    if t_end:
        half, full = disk_powers([(DiskFlowRoot(gen, times[1:2], step), 1, z, "flow to t/2", 1.0),
                                  (DiskFlowRoot(gen, times[1:], step), 1, z, "flow to t", 1.0)])
    grids = tuple(DiskGrid(tuple(points), v) for v in (z, half, full))
    means = tuple(cmath.exp(gen.mean_rate * t) for t in times)
    return CircleFlowResult(times, grids, means, float(step))


@dataclass(frozen=True)
class DiskFlowRoot:
    """eta = lam * eta_t of gen's flow, by fixed-step RK4 legs from 0 to each of ``times``.

    It is data, not a callable: ``disk_powers`` runs its step schedule once
    per iteration.  A row of ``CircleArraySpec.semigroup`` is the root at
    t = 1/n; the time-one target of ``circle_reports`` runs the two legs, to
    1/2 and to 1, of ``circle_monotone_flow``.
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
        """The (h, t) of each RK4 step of one application, leg after leg.

        Each leg steps by h = step from its start, and its last step ends it
        at its time; a leg of at most 1e-15 takes no step.
        """
        out = []
        for t, t_to in zip((0.0,) + self.times[:-1], self.times):
            while t < t_to - 1e-15:
                h = min(self.step, t_to - t)
                t += h
                out.append((h, t))
        return tuple(out)


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
    the lane's start point, its iteration and its row's where.  A root with
    no RK4 step (every leg at most 1e-15 long) takes no tick: each of its
    iterations is the rotation alone.
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
            if not p:
                self.w[lo:hi] *= (self.lam[lo:hi] * lam_row[lo:hi]) ** row[1]
                continue
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
    its z; a row without points gets an empty one and joins no kernel.
    """
    rows, groups = list(rows), {}
    out = [None] * len(rows)
    for i, (eta, _, z, *_) in enumerate(rows):
        if not np.size(z):
            out[i] = np.empty(np.shape(z), dtype=complex)
            continue
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
    for idx, ker in zip(groups.values(), kernels):
        for i, v in zip(idx, ker.values()):
            out[i] = v
    return out


@dataclass(frozen=True)
class CircleArraySpec:
    """One eta per row n >= 1, with its mean and the target generator.

    Row n is raised to the power k_n = n by ``disk_powers``.  The rows of
    ``semigroup`` are DiskFlowRoots at time 1/n, data whose powers run as
    RK4 lanes.  Any other row's eta is a callable that takes an ndarray of
    grid points and returns the ndarray of eta values, called once per
    iteration on the whole grid.
    """

    name: str
    n_values: tuple
    eta_factory: object          # n -> eta_n: a DiskFlowRoot, or a callable on an ndarray
    mean_fn: object              # n -> complex mean of row n
    generator: CircleGenerator   # target (beta, sigma)

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValidationError(f"n_values must be positive and strictly increasing; "
                                  f"got {ns!r}")
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
    _check_snapshot_step(1.0, flow_step)
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
    ns = spec.n_values
    dist_b, dist_m, dist_c = [], [], []
    for i, n in enumerate(ns):
        eta_z, power, *corrected = lanes[per_row * i:per_row * (i + 1)]
        boolean_power = DiskGrid(points, z * (np.array(eta_z) / z) ** n)
        dist_b.append(float(eta_distance(boolean_power, bool_target)))
        dist_m.append(float(eta_distance(power, mono_target)))
        if correct:
            dist_c.append(float(eta_distance(corrected[0], mono_target)))
    monotone = column(ns, ns, dist_m, tol)
    report = equivalence(spec.name, column(ns, ns, dist_b, tol), monotone, tol,
                         beta_condition={"holds": beta_ok, "rows": beta_rows})
    correction = None if not correct else {
        "array": spec.name,
        "rows": [{"n": n, "k": n, "ell": ell, "uncorrected": u, "corrected": c}
                 for n, ell, u, c in zip(ns, ells, dist_m, dist_c)],
        "uncorrected_converged": monotone["converged"],
        "corrected_converged": column(ns, ns, dist_c, tol)["converged"],
        "tolerance": tol,
    }
    return report, correction
