"""Multiplicative transforms on the unit circle and the disk flow.

A measure's psi(z) = integral z zeta/(1 - z zeta) and eta = psi/(1 + psi)
live on the unit disk: Boolean convolution multiplies eta/z, and monotone
convolution composes eta.  Weak convergence on the circle is decided by the
maximum eta-difference over DISK_GRID, a fixed sixteen-point grid inside
the disk of radius 0.4: uniform convergence of eta on compacts of the disk
is equivalent to weak convergence of the measures.  Every law compared on
the circle is an ndarray of eta values on that grid.

Monotone convolution semigroups on the circle solve d eta/dt = A(eta) with
A(z) = z(i beta - integral (1+zeta z)/(1-zeta z) dsigma).  A
``CircleArraySpec`` samples row n from such a flow at time 1/n and rotates
it by lambda_n = e^{2 pi i l_n/n}; the rotation correction repairs the
monotone powers of the rotated arrays.  Every disk flow is integrated by one
RK4 driver, the lanes of ``disk_powers``: the flow map and the semigroup
defect are rows of DiskFlowRoots, and a run's k_n-fold powers and its
time-one flow are the lanes of one pass.  Each row carries one rotation,
and every rotation of an array is formed from integers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FlowError, ValidationError
from .harness import _check_rows, column, equivalence
from .idiv import FLOW_STEP, _check_flow_args, _check_snapshot_step, _rk4_step
from .measures import PARAMETER, CircleMeasure

#: evaluation grid: two rings of eight points, radii 0.4 and 0.2
DISK_GRID = tuple(
    r * cmath.exp(2j * math.pi * j / 8.0) for r in (0.4, 0.2) for j in range(8)
)

TWO_PI = 2.0 * math.pi


def eta_distance(a, b):
    """max |eta_a - eta_b| over two samples of one grid of at least one point."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or not a.size:
        raise ValidationError(f"eta distance needs two samples of one non-empty grid; "
                              f"got {a.size} and {b.size} values")
    return max(abs(x - y) for x, y in zip(a.tolist(), b.tolist()))


@dataclass(frozen=True)
class CircleGenerator:
    """(beta, sigma) indexing the disk flow field A(z) = z(i beta - integral...)."""

    beta: float
    sigma: CircleMeasure

    def __post_init__(self):
        if self.sigma.role != PARAMETER:
            object.__setattr__(self, "sigma", self.sigma.with_role(PARAMETER))

    def a_eval(self, z):
        """A(z) = z(i beta - H(z)) = z(A'(0) - 2 psi_sigma(z)), a point or a 1-d ndarray.

        With psi = z S (``_psi_over_z``), A = z(A'(0) - z sum 2w/(conj(zeta) - z)):
        one broadcast over atoms x points, equal bit for bit to the ``_psi``
        form because doubling is exact.
        """
        poles, two_w, rate = self._field
        return z * (rate - z * (two_w @ (1.0 / np.subtract.outer(poles, z))))

    @functools.cached_property
    def _field(self):
        """(conj(zeta), 2w, A'(0)): the field's coefficients, built once per generator."""
        poles, weights = self.sigma.disk_poles
        return poles, 2.0 * weights, self.mean_rate

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


def _unit(gamma):
    """gamma as a complex, checked to lie on the unit circle."""
    gamma = complex(gamma)
    if abs(abs(gamma) - 1.0) > 1e-9:
        raise ValidationError("gamma must lie on the unit circle")
    return gamma


def boolean_idiv_eta(gamma, sigma):
    """eta(z) = gamma z exp(-H(z)) = gamma e^{-sigma(T)} z exp(-2 psi_sigma(z)).

    z is a point or a 1-d ndarray.
    """
    scale = _unit(gamma) * math.exp(-sigma.mass)
    return lambda z: scale * z * np.exp(-2.0 * _psi(sigma, z))


def circle_boolean_idiv(gamma, sigma):
    """The Boolean law of (gamma, sigma): its eta on DISK_GRID, as an ndarray."""
    return boolean_idiv_eta(gamma, sigma)(np.array(DISK_GRID))


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
        root = DiskFlowRoot(gen, t_end, step)
        (w,) = disk_powers([(root, 1, w, f"flow to t={t_end!r}", 1.0)])
    return w.reshape(shape) if shape else complex(w[0])


def circle_semigroup_defect(gen, t_end=1.0, step=FLOW_STEP):
    """max |eta_t(z) - eta_{t/2}(eta_{t/2}(z))| over DISK_GRID.

    Composed legs run at the stated step, the direct reference at step/2, so
    the defect measures the integrator-limited semigroup deviation.  Both
    are rows of one ``disk_powers`` pass: the direct flow a k = 1 row to t,
    the composition a k = 2 row to t/2.
    """
    t_end = _check_flow_args(t_end, step)
    if not t_end:
        return 0.0
    z = np.array(DISK_GRID)
    direct, comp = disk_powers([
        (DiskFlowRoot(gen, t_end, 0.5 * step), 1, z, "direct flow at step/2", 1.0),
        (DiskFlowRoot(gen, 0.5 * t_end, step), 2, z, "two half flows", 1.0)])
    return float(np.abs(direct - comp).max())


@dataclass(frozen=True)
class DiskFlowRoot:
    """eta = eta_t of gen's flow, by fixed-step RK4 from 0 to the end time t.

    It is data, not a callable: ``disk_powers`` runs its step schedule once
    per iteration, and the row that iterates it carries the rotation.  Row n
    of a ``CircleArraySpec`` is the root at t = 1/n; the time-one target of
    ``circle_reports`` is the root at t = 1.
    """

    gen: CircleGenerator
    t: float
    step: float

    def __post_init__(self):
        t = _check_flow_args(self.t, self.step)
        if not t > 0.0:
            raise ValidationError(f"a flow root's end time must be above 0; got {self.t!r}")
        object.__setattr__(self, "t", t)

    @functools.cached_property
    def schedule(self):
        """The (h, t) of each RK4 step of one application.

        It steps by h = step from 0, and its last step ends it at t; a root
        with t at most 1e-15 takes no step.
        """
        out, t = [], 0.0
        while t < self.t - 1e-15:
            h = min(self.step, self.t - t)
            t += h
            out.append((h, t))
        return tuple(out)


class _DiskLanes:
    """Rows (eta, k, z, where, lam) of one generator's DiskFlowRoots, as lanes.

    Each point of z iterates w -> lam * eta(w) k times.  The lanes are
    sorted by their tick counts ``ticks``, descending, so the lanes still
    running at tick s are a prefix.  A lane takes one RK4 step a tick on its
    root's schedule, and each of its iterations ends in its row's one
    rotation, lam * w.  Each RK4 step keeps |w| <= r (1 + 1e-9),
    with r the modulus at the start of the iteration, and so does each
    iteration's end, which catches a rotation with |lam| > 1; a failure
    raises a FlowError naming the lane's start point, its iteration and its
    row's where.  A root with no RK4 step (t at most 1e-15) takes no tick:
    each of its iterations is the rotation alone.

    The iteration ends are indexed once: ``ends[s]`` holds the lanes that
    end an iteration at tick s, row by row in the order the rows are listed,
    with each lane's lam, and ticks that end the same rows share one index.
    Each tick's ends are one gather and one scatter over that index, so the
    first failing lane named is the first of the first failing row.
    """

    def __init__(self, rows):
        self.rows, self._a, self.gen = rows, 0, rows[0][0].gen
        period = [len(row[0].schedule) for row in rows]
        sizes = [np.size(row[2]) for row in rows]
        ticks = np.repeat([row[1] * p for row, p in zip(rows, period)], sizes)
        self.order = np.argsort(-ticks, kind="stable")
        self.ticks = ticks[self.order]
        self.row = np.repeat(np.arange(len(rows)), sizes)[self.order]
        self.z = np.concatenate([np.ravel(row[2]) for row in rows]).astype(complex)[self.order]
        self.w = self.z.copy()
        self.lim = np.abs(self.z) * (1.0 + 1e-9)
        lam = np.array([complex(row[4]) for row in rows])[self.row]
        # the h of every row at every tick, and the rows each tick ends an iteration of
        self.h = np.zeros((int(self.ticks[0]), len(rows)))
        ending = np.zeros(self.h.shape, dtype=bool)
        lanes = [np.flatnonzero(self.row == r) for r in range(len(rows))]
        for r, (row, p) in enumerate(zip(rows, period)):
            if not p:
                self.w[lanes[r]] *= lam[lanes[r]] ** row[1]
                continue
            self.h[:row[1] * p, r] = np.tile([h for h, _ in row[0].schedule], row[1])
            ending[p - 1:row[1] * p:p, r] = True
        # one index per set of rows that end together (keyed by the tick's packed row
        # flags): their lanes, row by row
        bits = np.packbits(ending, axis=1)
        _, first, which = np.unique(bits.view(f"V{bits.shape[1]}")[:, 0],
                                    return_index=True, return_inverse=True)
        index = [np.concatenate([lanes[r] for r in np.flatnonzero(u)]) if u.any() else None
                 for u in ending[first]]
        index = [None if i is None else (i, lam[i]) for i in index]
        self.ends = [index[j] for j in which.tolist()]

    def values(self):
        """Each row's lanes in the row's own order, shaped like its z."""
        out = np.empty_like(self.w)
        out[self.order] = self.w
        splits = np.cumsum([np.size(row[2]) for row in self.rows])[:-1]
        return [v.reshape(np.shape(row[2])) for v, row in zip(np.split(out, splits), self.rows)]

    def _step(self, s, a):
        """Advance the first a lanes through tick s."""
        if a != self._a:
            self._a, self._v = a, (self.w[:a], self.lim[:a], self.row[:a])
        w, lim, row = self._v
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
        if self.ends[s] is not None:
            self._end(s, *self.ends[s])

    def _end(self, s, lanes, lam):
        """The iterations that end at tick s: w = lam * w, whose modulus may not pass lim."""
        x = lam * self.w[lanes]
        r = np.abs(x)
        inside = r <= self.lim[lanes]
        if not inside.all():
            i = int(lanes[np.argmin(inside)])
            p = len(self.rows[self.row[i]][0].schedule)
            raise FlowError(f"eta iteration from z0={complex(self.z[i])!r} grew the modulus "
                            f"at iteration {(s + 1) // p} ({self.rows[self.row[i]][3]})")
        self.w[lanes] = x
        self.lim[lanes] = r * (1.0 + 1e-9)


def disk_powers(rows):
    """k iterations of w -> lam * eta(w) for every row (eta, k, z, where, lam), as one pass.

    Every eta is a DiskFlowRoot.  The rows of one generator share one
    kernel (``_DiskLanes``); every tick steps each kernel's running lanes.
    Returns one array per row, shaped like its z; a row without points gets
    an empty one and joins no kernel.
    """
    rows, groups = list(rows), {}
    out = [None] * len(rows)
    for i, (eta, _, z, *_) in enumerate(rows):
        if not np.size(z):
            out[i] = np.empty(np.shape(z), dtype=complex)
            continue
        groups.setdefault(id(eta.gen), []).append(i)
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
    """The semigroup array of a generator, each row rotated by lambda_n.

    Row n's eta is the DiskFlowRoot of the generator at t = 1/n, with step
    min(flow_step, 1/n), raised to the power k_n = n by ``disk_powers`` as
    RK4 lanes; each iteration ends in lambda_n = e^{2 pi i l_n/n}.
    rotation_ell is an integer l (l_n = l) or "half" (l_n = n//2, so
    lambda_n = -1 for even n); l = 0 is the plain semigroup array.
    """

    generator: CircleGenerator
    n_values: tuple
    flow_step: float = FLOW_STEP
    rotation_ell: object = 0     # an int l, or "half"

    def __post_init__(self):
        object.__setattr__(self, "n_values", _check_rows(self.n_values))
        ell = self.rotation_ell
        if not (type(ell) is int or ell == "half"):
            raise ValidationError(f'rotation_ell must be an integer or "half"; got {ell!r}')
        _check_snapshot_step(1.0, self.flow_step)

    @property
    def name(self):
        return "semigroup" if self.rotation_ell == 0 else "rotated_semigroup"

    def eta_of(self, n):
        """Row n's eta, unrotated: the flow root at t = 1/n."""
        return DiskFlowRoot(self.generator, 1.0 / n, min(self.flow_step, 1.0 / n))

    def rotation(self, n, ell=0):
        """e^{2 pi i ((l_n + ell) mod n)/n}: lambda_n, turned further by e^{2 pi i ell/n}.

        The angle is formed from integers, so an ell that cancels l_n mod n
        gives exactly 1, and a huge l loses none of its angle to rounding.
        """
        ell_n = n // 2 if self.rotation_ell == "half" else self.rotation_ell
        return cmath.exp(2j * math.pi * ((ell_n + ell) % n) / n)

    def mean_of(self, n):
        """Row n's mean, lambda_n e^{A'(0)/n}."""
        return self.rotation(n) * cmath.exp(self.generator.mean_rate / n)


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


def circle_reports(spec, gen, tol=0.05):
    """The Boolean/monotone equivalence and the rotation correction, from one lane pass.

    Both compare the rows' k_n-th powers with the laws of gen = (beta,
    sigma): the Boolean powers with the Boolean law of (e^{i beta}, sigma),
    the monotone powers with gen's time-one flow at the array's flow_step.
    All are compared on DISK_GRID.  Both powers and that flow are the lanes
    of one ``disk_powers`` pass.  Row n's grid runs as up to three lane
    groups: once (k = 1), whose eta gives the Boolean power z (eta/z)^n; n
    times with lambda_n, the monotone row and the uncorrected column; and,
    for a rotated array (rotation_ell != 0), n times with
    ``spec.rotation(n, l)``, l detected from beta, the corrected column.
    The flow is the DiskFlowRoot at t = 1, so the monotone row n = 1 of an
    unrotated array is that flow itself.  An unrotated array runs no
    corrected lanes and its correction report is None.
    Returns (equivalence, correction).
    """
    z = np.array(DISK_GRID)
    bool_target = circle_boolean_idiv(cmath.exp(1j * gen.beta), gen.sigma)
    beta_ok, beta_rows = beta_condition_check(spec, gen.beta, tol)
    correct = spec.rotation_ell != 0
    rows = [(DiskFlowRoot(gen, 1.0, spec.flow_step), 1, z, "time-one target", 1.0)]
    ells = []
    for n in spec.n_values:
        e, lam = spec.eta_of(n), spec.rotation(n)
        rows.append((e, 1, z, f"row n={n}, k=1", lam))
        rows.append((e, n, z, f"row n={n}, k={n}", lam))
        if correct:
            ells.append(detect_rotation(spec, gen.beta, n))
            rows.append((e, n, z, f"row n={n}, k={n}, l={ells[-1]}",
                         spec.rotation(n, ells[-1])))
    mono_target, *lanes = disk_powers(rows)
    per_row = 3 if correct else 2
    ns = spec.n_values
    dist_b, dist_m, dist_c = [], [], []
    for i, n in enumerate(ns):
        eta_z, power, *corrected = lanes[per_row * i:per_row * (i + 1)]
        dist_b.append(eta_distance(z * (eta_z / z) ** n, bool_target))
        dist_m.append(eta_distance(power, mono_target))
        if correct:
            dist_c.append(eta_distance(corrected[0], mono_target))
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
