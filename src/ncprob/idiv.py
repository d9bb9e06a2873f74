"""The four infinitely divisible families indexed by (m, gamma, sigma).

One Levy triple generates all four laws: Boolean (exact atomic measure),
free (F(z) is the root in C+ of w + phi(w) = z, found by Newton on a whole
grid at once or at a single point, with the same bits), classical
(characteristic function, FFT density on request), and monotone (the
time-one map of the ODE flow dF/dt = Phi(F) with Phi(z) = -gamma - log(m) z
+ integral of (1+xz)/(x-z) dsigma; the monotone law itself, on a density
grid or as the target of the real-line scenario commands, is read from the
Abel equation of that flow, while the flow snapshots and the flow-root rows
integrate it by fixed-step RK4).  The free and the monotone law each have
at most one atom, whose position and weight follow from the triple
(``free_idiv_atom``, ``monotone_idiv_atom``), so a density sweep reads only
the density off G near the axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowError, NumericalError, ValidationError
from .measures import MASS_TOL
from .rational import upper_root
from .transforms import NevanlinnaData, TransformGrid, ZR, recover_measure

#: default RK4 step for flow integration
FLOW_STEP = 1e-3

#: RK4 step of the Abel-corrected flow, and Newton corrections after each step
ABEL_STEP = 0.2
ABEL_CORRECTIONS = 3

#: largest |Psi(F_1(z)) - Psi(z) - 1| the Abel-corrected flow accepts; converged
#: flows end within 3.1e-13 on 301-bin density sweeps of random triples
ABEL_RESIDUAL = 1e-9

#: most RK4 steps, t_end/step, that a flow's arguments may ask for
MAX_FLOW_STEPS = 10**5

#: RK4 steps a leg may take beyond t_end/step, where the sub-step cap shortens
#: steps near a pole or at a large |Phi|; the density sweeps' and the test
#: suite's legs take at most 47
SUBSTEP_TICKS = 2000

#: smallest RK4 step a leg takes: a point whose sub-step cap asks for less has
#: stalled (a |Phi| of 1e300 caps h at 1e-301) and fails at that tick; the density
#: sweeps' steps stay above 1.1e-7 and the test suite's finished legs above 5e-14
MIN_RK4_STEP = 1e-200


#: the triple (m, gamma, sigma) is the carrier of an atomic F-transform
LevyTriple = NevanlinnaData


def _phi(triple):
    """Phi = -E - z log m of the triple as a closure; log m is taken once.

    It takes a complex scalar or, elementwise, an ndarray of points.
    """
    e, log_m = triple._e, math.log(triple.m)
    return lambda z: -e(z) - log_m * z


def phi_eval(triple, z):
    """Phi(z) = -gamma - log(m) z + sum s (1+pz)/(p-z)."""
    return _phi(triple)(z)


def phi_deriv(triple, z):
    """Phi'(z) = -E'(z) - log m."""
    return -triple._e_prime(z) - math.log(triple.m)


def boolean_idiv(triple):
    """The Boolean law of the triple: exact atomic measure of mass m."""
    return recover_measure(triple)


def free_idiv_eval(triple, z):
    """F of the free law at z, a point or an ndarray: the root in C+ of w + phi(w) = z.

    With phi(w) = gamma' + sum c/(w - p) from the triple's secular data this
    is ``rational.upper_root`` at a = z - gamma'.
    """
    if abs(triple.m - 1.0) > MASS_TOL:
        raise ValidationError("the free family needs m = 1")
    return upper_root(z, *triple._secular)


def free_idiv_atom(triple):
    """The free law's atom as (x0, weight), or None when it has none.

    F solves F + phi(F) = z, so F vanishes at most once on the line: at
    x0 = phi(0) = gamma' - sum c/p, where the residue of G = 1/F is
    1 + phi'(0) = 1 - sum c/p^2 (Bercovici & Voiculescu, Regularity
    questions for free convolution, 1998).  There is no atom when 0 is a
    pole of phi or that weight is not positive; an empty sigma gives the
    Dirac mass at gamma'.
    """
    if abs(triple.m - 1.0) > MASS_TOL:
        raise ValidationError("the free family needs m = 1")
    if 0.0 in triple.sigma.positions:
        return None
    gamma, p, c = triple._secular
    weight = 1.0 - float(np.sum(c / (p * p)))
    if not weight > 0.0:
        return None
    return gamma - float(np.sum(c / p)), weight


def free_idiv(triple, points=ZR):
    values = free_idiv_eval(triple, np.array(points, dtype=complex))
    return TransformGrid(tuple(points), tuple(values.tolist()), "F", mass=1.0)


#: below this |u| = |tx| the classical integrand sums g(u) = (e^{iu} - 1 - iu)/u^2
#: as its Taylor series -sum (iu)^j/(j + 2)! (to u^12), where the quotient cancels
_CF_SERIES_U = 0.25
_CF_SERIES = tuple(1.0 / math.factorial(k) for k in range(14, 1, -1))


def _cf_integrand(t, x):
    """(e^{itx} - 1 - itx/(1+x^2)) (x^2+1)/x^2, continuous at x = 0.

    With u = tx it equals t^2 (1 + x^2) g(u) + iu, and below |u| =
    _CF_SERIES_U g is summed as its series, so no small x divides a
    cancelled difference by x^2; g(0) = -1/2 gives -t^2/2 at x = 0.
    """
    u = t * x
    if abs(u) < _CF_SERIES_U:
        v, acc = 1j * u, 0.0
        for a in _CF_SERIES:
            acc = acc * v + a
        return -t * t * (1.0 + x * x) * acc + 1j * u
    return (cmath.exp(1j * t * x) - 1.0 - 1j * t * x / (1.0 + x * x)) * (x * x + 1.0) / (x * x)


def classical_idiv_cf(triple):
    """Characteristic-function evaluator of the classical law (m = 1)."""
    if abs(triple.m - 1.0) > MASS_TOL:
        raise ValidationError("the classical family needs m = 1")
    atoms = triple.sigma.atoms
    gamma = triple.gamma

    def cf(t):
        acc = 1j * gamma * t
        for x, s in atoms:
            acc = acc + s * _cf_integrand(t, x)
        return cmath.exp(acc)

    return cf


#: the FFT density samples the characteristic function at N_FFT points of [-T_MAX, T_MAX)
T_MAX = 64.0
N_FFT = 2**14


def classical_idiv_density(triple):
    """Density grid by FFT inversion of the characteristic function."""
    cf = classical_idiv_cf(triple)
    n = N_FFT
    dt = 2.0 * T_MAX / n
    ts = -T_MAX + dt * np.arange(n)
    vals = np.array([cf(t) for t in ts])
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    spec = np.fft.fft(vals * signs)
    dens = (dt / (2.0 * math.pi)) * (signs * spec).real
    dx = 2.0 * math.pi / (n * dt)
    xs = -math.pi / dt + dx * np.arange(n)
    return xs, dens


def _pole_distance(poles, w):
    near = math.inf
    for p in poles:
        d = abs(w - p)
        if d < near:
            near = d
    return near


def _rk4_step(phi, w, h, k1):
    """One RK4 step of dF/dt = phi(F) from w, given k1 = phi(w); h may be per point."""
    k2 = phi(w + 0.5 * h * k1)
    k3 = phi(w + 0.5 * h * k2)
    k4 = phi(w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _below_floor(w, t, im0, log_m, exp=math.exp):
    """Im F_t(z0) >= m^-t Im z0 holds on the exact flow; True where it fails."""
    return w.imag < exp(-log_m * t) * im0 * (1.0 - 1e-7) - 1e-12


def _tick_budget(t_end, step):
    return math.ceil(t_end / step) + SUBSTEP_TICKS


def _out_of_ticks(z0, t_end, t, ticks):
    return FlowError(f"flow from z0={z0!r} did not reach t={t_end!r} within {ticks} "
                     f"RK4 steps (t={t:.6g})")


def _fell_below_floor(z0, t):
    return FlowError(f"flow from z0={z0!r}: Im F fell below m^-t Im z at t={t:.6f}")


def _stalled(z0, t, h):
    return FlowError(f"flow from z0={z0!r} stalled at t={t:.6g}: its RK4 steps shrank to "
                     f"h={h:.3e}, below {MIN_RK4_STEP:g}")


def _not_finite(z0, t):
    return FlowError(f"flow from z0={z0!r}: F is not finite at t={t:.6g}")


def _rk4_leg(triple, z, t_end, step, hook=None):
    """Integrate dF/dt = Phi(F) from F_0 = z to t_end.

    Fixed RK4 step, with a deterministic sub-step cap keeping each move well
    inside the distance to Phi's real poles (only relevant when starting
    near the real axis, e.g. on a density grid).  A leg that needs more
    than SUBSTEP_TICKS steps beyond t_end/step, whose step falls below
    MIN_RK4_STEP, or whose state is not finite raises FlowError.  hook(w, t),
    when given, sees each step's end and returns the point to go on from
    (``flow_distance_bound`` collects the states).
    """
    phi = _phi(triple)
    log_m = math.log(triple.m)
    poles = triple.sigma.positions
    w, t, ticks, budget = z, 0.0, 0, _tick_budget(t_end, step)
    while t < t_end - 1e-15:
        if ticks == budget:
            raise _out_of_ticks(z, t_end, t, ticks)
        ticks += 1
        k1 = phi(w)
        speed = abs(k1)
        h = min(step, t_end - t)
        if speed > 0.0:
            h = min(h,
                    0.2 * _pole_distance(poles, w) / speed,
                    0.1 * max(1.0, abs(w)) / speed)
        if not h >= MIN_RK4_STEP:
            raise _stalled(z, t, h)
        w = _rk4_step(phi, w, h, k1)
        t += h
        if hook is not None:
            w = hook(w, t)
        if not cmath.isfinite(w):
            raise _not_finite(z, t)
        if _below_floor(w, t, z.imag, log_m):
            raise _fell_below_floor(z, t)
    return w


def _rk4_leg_array(triple, z, t_end, step, hook=None):
    """_rk4_leg for a 1-d array of start points, run in lockstep.

    Each point keeps its own time, sub-step cap, step floor and checks, and
    leaves the active set once it reaches t_end; the tick budget counts the
    lockstep's steps, and its FlowError names the point furthest behind.
    hook(w, t, i) is called with the indices i into z of the points still
    running.
    """
    phi = _phi(triple)
    log_m = math.log(triple.m)
    poles = np.array(triple.sigma.positions)
    out = np.empty_like(z)
    active = np.arange(z.size)
    w, t, im0 = z, np.zeros(z.size), z.imag
    ticks, budget = 0, _tick_budget(t_end, step)
    while True:
        done = t >= t_end - 1e-15
        if done.any():
            out[active[done]] = w[done]
            keep = ~done
            active, w, t, im0 = active[keep], w[keep], t[keep], im0[keep]
        if not active.size:
            return out
        if ticks == budget:
            i = np.argmin(t)
            raise _out_of_ticks(complex(z[active[i]]), t_end, t[i], ticks)
        ticks += 1
        k1 = phi(w)
        speed = np.abs(k1)
        h = np.minimum(step, t_end - t)
        near = np.abs(w[:, None] - poles).min(axis=1, initial=np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            cap = np.minimum(0.2 * near / speed, 0.1 * np.maximum(1.0, np.abs(w)) / speed)
        h = np.where(speed > 0.0, np.minimum(h, cap), h)
        if not h.min() >= MIN_RK4_STEP:
            i = int(np.argmin(h >= MIN_RK4_STEP))
            raise _stalled(complex(z[active[i]]), t[i], h[i])
        w = _rk4_step(phi, w, h, k1)
        t = t + h
        if hook is not None:
            w = hook(w, t, active)
        finite = np.isfinite(w)
        if not finite.all():
            i = int(np.argmin(finite))
            raise _not_finite(complex(z[active[i]]), t[i])
        bad = _below_floor(w, t, im0, log_m, np.exp)
        if bad.any():
            i = np.argmax(bad)
            raise _fell_below_floor(complex(z[active[i]]), t[i])


def flow_map(triple, t_end, z, step=FLOW_STEP):
    """F_t(z) by RK4 from F_0 = z.

    z is one point or an ndarray of points.  An ndarray is integrated in
    lockstep by array arithmetic, which beats one scalar flow per point
    beyond about a dozen points (a density grid, not ZR); a single point
    takes the scalar leg.  Both legs share Phi, the RK4 step and the floor
    check, and agree to rounding.
    """
    t_end = _check_flow_args(t_end, step)
    if isinstance(z, np.ndarray):
        z = z.astype(complex)
        _check_line_points(z)
        return z if t_end == 0 else _rk4_leg_array(triple, z.ravel(), t_end, step).reshape(z.shape)
    z = complex(z)
    _check_line_points(np.array([z]))
    return z if t_end == 0 else _rk4_leg(triple, z, t_end, step)


#: Log(1 + x) - x is summed as its Taylor series (to x^14) below this |x|,
#: where the difference cancels
_SERIES_X = 0.05
_SERIES = tuple((-1.0) ** (k + 1) / k for k in range(14, 1, -1))


def _series(x):
    acc = 0.0
    for a in _SERIES:
        acc = acc * x + a
    return acc * x * x


def _log1p_minus_x(x):
    """Log(1 + x) - x at a point or, elementwise, an ndarray."""
    if isinstance(x, np.ndarray):
        small = np.abs(x) < _SERIES_X
        out = np.empty_like(x)
        out[small] = _series(x[small])
        big = x[~small]
        out[~small] = np.log(1.0 + big) - big
        return out
    return _series(x) if abs(x) < _SERIES_X else cmath.log(1.0 + x) - x


def _abel_corrector(triple, z):
    """(correct, d) for the flow from z, a point or a 1-d ndarray.

    Psi = integral of 1/Phi solves the Abel equation Psi(F_t(z)) = Psi(z) + t
    (Berkson & Porta, Michigan Math. J. 1978).  d(w) = Psi(w) - Psi(z) is
    summed from ``triple._abel`` as

        (w - z)/Phi(z) + sum r [Log(1 + x) - x] - k (w - z)^2,  x = (w - z)/(z - q),

    with the linear part of every term taken into Phi(z).  The plain form
    beta z + sum r Log(z - q) loses all accuracy at m = 1 and small gamma',
    where beta = -1/gamma' cancels against the Log of a far zero.
    correct(w, t, i) makes ABEL_CORRECTIONS Newton steps
    w <- w - (d(w) - t) Phi(w) on d(w) = t for the points z[i]; d(w)
    alone takes w of z's shape.
    """
    q, r, k = triple._abel
    phi = _phi(triple)
    phi_z = phi(z)

    def d(w, i=None):
        z0, phi0 = (z, phi_z) if i is None else (z[i], phi_z[i])
        u = w - z0
        acc = u / phi0 - k * u * u
        for qj, rj in zip(q, r):
            acc = acc + rj * _log1p_minus_x(u / (z0 - qj))
        return acc

    def correct(w, t, i):
        for _ in range(ABEL_CORRECTIONS):
            w = w - (d(w, i) - t) * phi(w)
        return w

    return correct, d


def monotone_idiv_eval(triple, z):
    """F of the monotone law at z, a point or an ndarray: the time-one flow from z.

    RK4 legs at ABEL_STEP predict, with their pole cap and floor check, and
    after each step ``_abel_corrector`` moves every point onto the exact
    flow.  A single point runs as the one lane of an array.  A point whose
    end misses Psi(F_1(z)) = Psi(z) + 1 by more than ABEL_RESIDUAL raises
    FlowError naming it.
    """
    scalar = not isinstance(z, np.ndarray)
    shape, z = np.shape(z), np.array(z, dtype=complex).ravel()
    _check_line_points(z)
    w = z
    if triple._abel is not None:  # else Phi = 0: the flow stands still
        correct, d = _abel_corrector(triple, z)
        w = _rk4_leg_array(triple, z, 1.0, ABEL_STEP, correct)
        residual = np.abs(d(w) - 1.0)
        bad = ~(residual <= ABEL_RESIDUAL)
        if bad.any():
            i = int(np.argmax(bad))
            raise FlowError(f"flow from z0={complex(z[i])!r}: "
                            f"|Psi(F_1) - Psi(z0) - 1| = {residual[i]:.3e}")
    return complex(w[0]) if scalar else w.reshape(shape)


def monotone_idiv_atom(triple):
    """The monotone law's atom as (x0, weight), or None when it has none.

    F_1 vanishes at most once on the line: at x0 = F_{-1}(0), where the
    real flow from 0 arrives after running back for time one.  By the Abel
    equation (Berkson & Porta 1978) Psi(x0) = Psi(0) - 1, and the weight
    1/F_1'(x0) is Phi(x0)/Phi(0).  x0 lies between 0 and the nearest zero
    q of Phi on the side of -sign Phi(0), where Psi - Psi(0) runs from 0
    to -inf; x0 is bisected on it.  With no zero on that side the bracket
    doubles until Psi - Psi(0) < -1.  There is no atom when 0 is an atom
    of sigma (a pole of Phi) or when the weight comes out <= 0 (x0 within
    rounding of q).  When Phi(0) = 0, 0 is a fixed point,
    F_1'(0) = e^{Phi'(0)} and the weight is e^{-Phi'(0)}; Phi = 0 leaves
    the Dirac mass at 0.  A zero of Phi that rounds to 0 while Phi(0) != 0
    raises NumericalError: the side of 0 it lies on is lost.

    Psi - Psi(0) is d(x) - d(0) for ``_abel_corrector``'s d based at i,
    and Phi(x0)/Phi(0) is the product of (q - x0)/q over the zeros of Phi
    divided by that of (p - x0)/p over its poles.  Neither divides by
    Phi(0): when Phi(0) is within a few roundings of 0 (a triple with
    Phi(0) = 0 in exact arithmetic), so is q, and d based at 0 or the
    plain quotient would divide rounding by rounding.
    """
    if 0.0 in triple.sigma.positions:
        return None
    phi0 = _phi(triple)(0.0)
    if phi0 == 0.0:
        return 0.0, math.exp(-phi_deriv(triple, 0.0))
    zeros = triple._abel[0]
    if 0.0 in zeros:
        # a zero within rounding of 0, on a side that Phi(0) != 0 cannot tell
        raise NumericalError(f"monotone atom of m={triple.m!r} gamma={triple.gamma!r} "
                             f"sigma={triple.sigma.to_json_pairs()!r}: a zero of Phi rounds "
                             f"to 0 while Phi(0) = {phi0:.3e}")
    side = -math.copysign(1.0, phi0)
    _, d = _abel_corrector(triple, 1j)
    d0 = d(0.0)
    psi = lambda x: (d(x) - d0).real
    ahead = [q for q in zeros if side * q > 0.0]
    if ahead:
        end = min(ahead, key=abs)
    else:
        end = side
        while psi(end) > -1.0:
            end *= 2.0
    inner = 0.0
    while True:
        mid = 0.5 * (inner + end)
        if mid == inner or mid == end:
            break
        if psi(mid) > -1.0:
            inner = mid
        else:
            end = mid
    weight = (math.prod((q - mid) / q for q in zeros)
              / math.prod((p - mid) / p for p in triple.sigma.positions))
    return (mid, weight) if weight > 0.0 else None


def monotone_idiv(triple, points=ZR):
    """The monotone law on a grid: F_1 from ``monotone_idiv_eval``, of mass m."""
    values = monotone_idiv_eval(triple, np.array(points, dtype=complex))
    return TransformGrid(tuple(points), tuple(values.tolist()), "F", mass=triple.m)


def _check_flow_args(t_end, step):
    """Reject flow arguments that would loop forever or integrate nothing; returns float t_end.

    Shared by the line and the disk flows: a non-finite or negative t_end,
    a non-finite or non-positive step, or more than MAX_FLOW_STEPS steps
    raises ValidationError.
    """
    t_end, step = float(t_end), float(step)
    if not math.isfinite(t_end):
        raise ValidationError(f"flow end time must be finite; got {t_end!r}")
    if t_end < 0:
        raise ValidationError("backward flows are not supported")
    if not (math.isfinite(step) and step > 0.0):
        raise ValidationError(f"flow step must be finite and positive; got {step!r}")
    if t_end / step > MAX_FLOW_STEPS:
        raise ValidationError(f"flow end time {t_end!r} over step {step!r} asks for more "
                              f"than {MAX_FLOW_STEPS} RK4 steps")
    return t_end


def _check_snapshot_step(t_end, step):
    """_check_flow_args for the snapshot flows, line and disk, whose step is at most 1e-2."""
    t_end = _check_flow_args(t_end, step)
    if step > 1e-2:
        raise ValidationError("flow step must be <= 1e-2")
    return t_end


def _check_line_points(z):
    bad = ~(np.isfinite(z) & (z.imag > 0))
    if bad.any():
        raise ValidationError(
            f"flow starts in the open upper half-plane; got {complex(z[bad][0])!r}")


@dataclass(frozen=True)
class FlowResult:
    """Snapshots of the flow at t = 0, t_end/2, t_end on a fixed grid."""

    times: tuple
    grids: tuple  # TransformGrid per time, kind F
    step_size: float


def monotone_idiv_flow(triple, t_end=1.0, step=FLOW_STEP, points=ZR):
    """Integrate the generator flow; the time-one grid is the monotone law.

    Each point takes ``flow_map`` to t_end/2 and the result ``flow_map``
    for the rest, so the midpoint snapshot is on the way.
    """
    t_end = _check_snapshot_step(t_end, step)
    times = (0.0, 0.5 * t_end, t_end)
    snapshots = [[], [], []]
    for z in points:
        half = flow_map(triple, times[1], z, step)
        snapshots[0].append(complex(z))
        snapshots[1].append(half)
        snapshots[2].append(flow_map(triple, times[1], half, step))
    grids = tuple(
        TransformGrid(tuple(points), tuple(vals), "F", mass=triple.m**t)
        for t, vals in zip(times, snapshots)
    )
    return FlowResult(times, grids, float(step))


def semigroup_defect(triple, t_end=1.0, step=FLOW_STEP, points=ZR):
    """max |F_t(z) - F_{t/2}(F_{t/2}(z))| over the grid.

    The composed legs run at the stated step; the direct reference runs at
    step/2, so the defect is a real quantity (integrator-limited semigroup
    deviation) rather than a bit-identical replay.
    """
    worst = 0.0
    for z in points:
        direct = flow_map(triple, t_end, z, 0.5 * step)
        comp = flow_map(triple, 0.5 * t_end, flow_map(triple, 0.5 * t_end, z, step), step)
        worst = max(worst, abs(direct - comp))
    return worst


@dataclass(frozen=True)
class DistanceBound:
    epsilon: float
    m1: float
    bound: float
    observed: float


def flow_distance_bound(t1, t2):
    """Perturbation bound for two generator flows over the unit time interval.

    Both flows run from ZR at FLOW_STEP; the leg's hook collects every RK4
    state into the enclosing compact C and stops a flow that escapes to
    |w| >= 1e6.  epsilon = max |Phi_1 - Phi_2| over C; m1 = max |Phi_2'|
    over C; the observed time-one distance must stay within twice
    (e^{m1} - 1)/m1 * epsilon, else this raises.
    """
    states = list(ZR)

    def collect(w, t):
        if not abs(w) < 1e6:
            raise FlowError(f"flow escaped the admissible region at t={t:.6f}")
        states.append(w)
        return w

    end1, end2 = (np.array([_rk4_leg(triple, z, 1.0, FLOW_STEP, collect) for z in ZR])
                  for triple in (t1, t2))
    c = np.array(states)
    eps = float(np.abs(_phi(t1)(c) - _phi(t2)(c)).max())
    m1 = float(np.abs(phi_deriv(t2, c)).max())
    factor = (math.expm1(m1) / m1) if m1 > 1e-12 else 1.0
    bound = factor * eps
    observed = float(np.abs(end1 - end2).max())
    if observed > 2.0 * bound + 1e-15:
        raise FlowError(
            f"observed flow distance {observed} exceeds twice the bound {bound}"
        )
    return DistanceBound(eps, m1, bound, observed)
