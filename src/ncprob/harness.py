"""Triangular-array experiments: k_n-fold convolution powers vs their limits.

An ArraySpec fixes one measure per row n together with the power count k_n.
run_powers computes the k_n-fold power for one convolution and its distance
to a target law; bp_crosscheck runs all four convolutions against the four
laws of one Levy triple and asserts that the verdicts agree, which is the
executable content of the limit-theorem correspondence.

"Converges" is operationalized as: distance <= tol at the largest n, with no
distance increase above 10% over the last three horizon points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convolutions import boolean_power, classical_power_cf, free_power_grid
from .errors import NumericalError, ValidationError
from .idiv import (
    FLOW_STEP,
    LevyTriple,
    boolean_idiv,
    classical_idiv_cf,
    flow_map,
    free_idiv,
    monotone_idiv,
    phi_eval,
)
from .measures import MASS_TOL, PARAMETER, FiniteAtomicMeasure
from .transforms import (
    TransformGrid,
    ZR,
    f_powers,
    f_transform,
    stolz_tail_estimate,
    weak_distance,
)

DEFAULT_NS = (16, 32, 64, 128, 256)

#: t-grid for the characteristic-function metric on the classical side
T_GRID = tuple(s * 0.5 * j for j in range(1, 11) for s in (1, -1))

OPS = ("classical", "free", "boolean", "monotone")


def _bernoulli():
    return FiniteAtomicMeasure.from_pairs([(-1.0, 0.5), (1.0, 0.5)])


@dataclass(frozen=True)
class ArraySpec:
    """One measure per row n, plus the power rule k_n and the target triple.

    A row without a measure is the target's flow root: the generator flow
    of ``limit`` at t = 1/k_n, of mass m^(1/k_n).
    """

    name: str
    n_values: tuple
    measure_fn: object = None      # n -> FiniteAtomicMeasure, or None
    k_table: tuple = None          # ((n, k), ...) or None for k_n = n
    limit: LevyTriple = None       # target triple for this array

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_values)
        if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValidationError("n_values must be strictly increasing")
        object.__setattr__(self, "n_values", ns)
        ks = [self.k_of(n) for n in ns]
        if any(b <= a for a, b in zip(ks, ks[1:])) or ks[0] < 1:
            raise ValidationError("k_n must be positive and strictly increasing")

    def k_of(self, n):
        """k_n from the ((n, k), ...) table; k_n = n without one."""
        if self.k_table is None:
            return int(n)
        table = dict(self.k_table)
        if n not in table:
            raise ValidationError(f"k_n table has no entry for n={n}")
        return int(table[n])

    def measure(self, n):
        if self.measure_fn is None:
            return None
        return self.measure_fn(n)

    def f_eval(self, n):
        """F of row n: of its measure, or the limit's flow at t = 1/k_n."""
        mu = self.measure(n)
        if mu is not None:
            return f_transform(mu)
        if self.limit is None:
            raise ValidationError(f"row n={n} has neither a measure nor a limit triple")
        t = 1.0 / self.k_of(n)
        return lambda z: flow_map(self.limit, t, z, step=min(FLOW_STEP, 0.5 * t))

    def mass_of(self, n):
        mu = self.measure(n)
        return mu.mass if mu is not None else self.limit.m ** (1.0 / self.k_of(n))

    # --- shipped families -------------------------------------------------

    @classmethod
    def bernoulli_clt(cls, n_values=DEFAULT_NS):
        """mu_n = symmetric Bernoulli dilated by 1/sqrt(n)."""
        base = _bernoulli()
        return cls(
            name="bernoulli_clt",
            n_values=tuple(n_values),
            measure_fn=lambda n: base.dilate(1.0 / math.sqrt(n)),
            limit=LevyTriple.from_parts(1.0, 0.0, [(0.0, 1.0)]),
        )

    @classmethod
    def poisson(cls, lam=1.0, n_values=DEFAULT_NS):
        """mu_n = (1 - lam/n) delta_0 + (lam/n) delta_1."""
        lam = float(lam)

        def mk(n):
            return FiniteAtomicMeasure.from_pairs(
                [(0.0, 1.0 - lam / n), (1.0, lam / n)]
            )

        return cls(
            name=f"poisson({lam})",
            n_values=tuple(n_values),
            measure_fn=mk,
            limit=LevyTriple.from_parts(1.0, lam / 2.0, [(1.0, lam / 2.0)]),
        )

    @classmethod
    def damped_poisson(cls, lam=1.0, c=1.0, shift_scale=0.0, n_values=DEFAULT_NS):
        """Sub-probability rows: mass (1 - c/n), Poisson shape, optional drift.

        shift_scale > 0 translates row n by shift_scale/sqrt(n); that makes
        k_n gamma_n divergent, the standard broken array.
        """
        lam, c, shift = float(lam), float(c), float(shift_scale)

        def mk(n):
            a = shift / math.sqrt(n)
            return FiniteAtomicMeasure.from_pairs(
                [(a, (1.0 - c / n) * (1.0 - lam / n)),
                 (1.0 + a, (1.0 - c / n) * (lam / n))]
            )

        return cls(
            name=f"damped_poisson(lam={lam},c={c},shift={shift})",
            n_values=tuple(n_values),
            measure_fn=mk,
            limit=LevyTriple.from_parts(math.exp(-c), lam / 2.0, [(1.0, lam / 2.0)]),
        )

    @classmethod
    def fixed(cls, measure=None, n_values=DEFAULT_NS, limit=None):
        """mu_n constant in n: the non-infinitesimal divergence witness."""
        measure = measure if measure is not None else _bernoulli()
        limit = limit if limit is not None else LevyTriple.from_parts(1.0, 0.0, [(0.0, 1.0)])
        return cls(
            name="fixed",
            n_values=tuple(n_values),
            measure_fn=lambda n: measure,
            limit=limit,
        )

    @classmethod
    def custom(cls, measures, limit=None, n_values=None):
        """Explicit row measures, as a mapping n -> measure."""
        table = dict(measures)
        ns = tuple(sorted(table)) if n_values is None else tuple(n_values)
        return cls(
            name="custom",
            n_values=ns,
            measure_fn=lambda n: table[n],
            limit=limit,
        )

    @classmethod
    def flow_root(cls, triple, n_values=DEFAULT_NS):
        """Rows given by the flow map g_n = F_{1/k_n} of a generator triple.

        These rows have no atomic representation; only monotone powers and
        generator diagnostics apply.
        """
        return cls(name="flow_root", n_values=tuple(n_values), limit=triple)


def condition_e(spec, n):
    """The moment-condition data of row n: (gamma_n, sigma_n), both exact.

    sigma_n reweights each atom by k_n w x^2/(x^2+1); gamma_n is
    k_n * sum of w x/(x^2+1).
    """
    mu = spec.measure(n)
    if mu is None:
        raise ValidationError("condition_e needs an atomic row measure")
    k = spec.k_of(n)
    gamma_n = k * sum(w * x / (x * x + 1.0) for x, w in mu.atoms)
    sigma_n = FiniteAtomicMeasure.from_pairs(
        ((x, k * w * x * x / (x * x + 1.0)) for x, w in mu.atoms),
        role=PARAMETER,
    )
    return float(gamma_n), sigma_n


@dataclass(frozen=True)
class ConvergenceReport:
    op: str
    ns: tuple
    ks: tuple
    distances: tuple
    converged: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        d = {
            "op": self.op,
            "rows": [
                {"n": n, "k": k, "distance": dist}
                for n, k, dist in zip(self.ns, self.ks, self.distances)
            ],
            "converged": self.converged,
        }
        d.update(self.extra)
        return d


def _verdict(distances, tol):
    if distances[-1] > tol:
        return False
    tail = distances[-3:]
    for a, b in zip(tail, tail[1:]):
        if b > 1.1 * a + 1e-9:
            return False
    return True


def _resolve_target(op, target):
    if isinstance(target, LevyTriple):
        if op == "boolean":
            return boolean_idiv(target)
        if op == "free":
            return free_idiv(target)
        if op == "monotone":
            return monotone_idiv(target)
        if op == "classical":
            return classical_idiv_cf(target)
    return target


def _cf_distance(cf_a, cf_b):
    return max(abs(cf_a(t) - cf_b(t)) for t in T_GRID)


def _row_inputs(spec, op):
    """Each row's input to op, checked once: its measure, or for monotone its F.

    A monotone row without a measure is the limit triple's flow root.
    """
    if op == "monotone":
        return [spec.f_eval(n) for n in spec.n_values]
    out = []
    for n in spec.n_values:
        mu = spec.measure(n)
        if mu is None:
            raise ValidationError(f"op {op!r} needs a row measure, and row n={n} has none")
        out.append(mu)
    return out


def _monotone_powers(spec, rows, ks):
    """The rows' k_n-fold monotone powers on ZR, all rows in one ``f_powers`` call."""
    ns = spec.n_values
    values = f_powers((f, k, np.array(ZR), f"row n={n}, k={k}")
                      for f, k, n in zip(rows, ks, ns))
    return [TransformGrid(ZR, tuple(v.tolist()), "F", mass=spec.mass_of(n) ** k)
            for v, n, k in zip(values, ns, ks)]


def _power_distance(op, row, k, target):
    """Distance of a row's k-fold op-power to the resolved target; a monotone row is its power."""
    if op == "classical":
        return _cf_distance(classical_power_cf(row, k), target)
    if op == "free":
        row = free_power_grid(row, k)
    elif op == "boolean":
        row = boolean_power(row, k)
    return weak_distance(row, target)


def run_powers(spec, op, target, tol=0.05):
    """Distances of the k_n-fold op-powers of the array to the target law.

    A failure names the op and where it arose: the rows' inputs, the
    target, or the row.
    """
    if op not in OPS:
        raise ValidationError(f"unknown convolution {op!r}")
    ns = spec.n_values
    ks = tuple(spec.k_of(n) for n in ns)
    where, dists = None, []
    try:
        rows = _row_inputs(spec, op)
        where = "target"
        target = _resolve_target(op, target)
        where = None  # the monotone pass names its own row
        if op == "monotone":
            rows = _monotone_powers(spec, rows, ks)
        for n, k, row in zip(ns, ks, rows):
            where = f"row n={n}, k={k}"
            dists.append(float(_power_distance(op, row, k, target)))
    except (NumericalError, ValidationError) as exc:
        at = op if where is None else f"{op}, {where}"
        raise type(exc)(f"{exc} (op={at})") from exc
    return ConvergenceReport(op, ns, ks, tuple(dists), _verdict(dists, tol))


def chernoff_residual(spec, triple, n):
    """max over ZR of |k_n (F_{mu_n}(z) - z) - Phi(z)|: generator convergence."""
    k = spec.k_of(n)
    fe = spec.f_eval(n)
    return max(abs(k * (fe(z) - z) - phi_eval(triple, z)) for z in ZR)


def bp_crosscheck(spec, tol=0.05):
    """Run all four power sequences of one array against one triple's laws.

    The triple is the array's limit field (mass 1 required: free and
    classical convolutions only exist for probability rows).  Also reports
    the moment-condition data per row and whether all four convergence
    verdicts agree.
    """
    triple = spec.limit
    if triple is None:
        raise ValidationError("bp_crosscheck needs the array's target triple")
    if abs(triple.m - 1.0) > MASS_TOL:
        raise ValidationError("bp_crosscheck needs a mass-1 triple")
    cond_rows = []
    for n in spec.n_values:
        gamma_n, sigma_n = condition_e(spec, n)
        cond_rows.append({
            "n": n,
            "gamma_n": gamma_n,
            "gamma_gap": abs(gamma_n - triple.gamma),
            "sigma_distance": weak_distance(sigma_n, triple.sigma),
            "chernoff_residual": chernoff_residual(spec, triple, n),
        })
    cond_converged = (
        cond_rows[-1]["gamma_gap"] <= tol
        and cond_rows[-1]["sigma_distance"] <= tol
    )
    reports = {op: run_powers(spec, op, triple, tol) for op in OPS}
    flags = [r.converged for r in reports.values()] + [cond_converged]
    return {
        "array": spec.name,
        "condition_e": {"rows": cond_rows, "converged": cond_converged},
        "ops": {op: r.to_dict() for op, r in reports.items()},
        "agreement": len(set(flags)) == 1,
        "all_converged": all(flags),
        "tolerance": tol,
    }


def subprobability_equivalence(spec, triple=None, tol=0.05):
    """Boolean vs monotone verdict agreement for sub-probability rows.

    The target triple (m, gamma, sigma) is explicit input; the row masses
    must satisfy mass^{k_n} -> m with m in (0, 1].
    """
    triple = triple if triple is not None else spec.limit
    if triple is None:
        raise ValidationError("subprobability_equivalence needs a target triple")
    n_last = spec.n_values[-1]
    mhat = spec.mass_of(n_last) ** spec.k_of(n_last)
    if mhat < 0.01:
        raise ValidationError("row masses collapse: mass^{k_n} -> 0")
    if abs(mhat - triple.m) > 0.05:
        raise ValidationError(
            f"mass^k = {mhat} at the horizon does not approach m = {triple.m}"
        )
    rep_b = run_powers(spec, "boolean", triple, tol)
    rep_m = run_powers(spec, "monotone", triple, tol)
    return {
        "array": spec.name,
        "mass_limit": {"target": triple.m, "observed": mhat},
        "ops": {"boolean": rep_b.to_dict(), "monotone": rep_m.to_dict()},
        "agreement": rep_b.converged == rep_m.converged,
        "both_converged": rep_b.converged and rep_m.converged,
        "tolerance": tol,
    }


def tightness_diagnostics(spec, n, y_values, m_limit=None):
    """Tail rows at z = iy for one array row; left <= right within 5% slack."""
    mu = spec.measure(n)
    if mu is None:
        raise ValidationError("tightness diagnostics need an atomic row measure")
    ys = np.array(y_values, dtype=float)
    est = stolz_tail_estimate(mu, spec.k_of(n), ys, m_limit=m_limit)
    return [
        {"y": y, "im_left": left, "im_right": right, "right_over_y": right / y,
         "ok": left <= right * 1.05 + 1e-12}
        for y, left, right in zip(ys.tolist(), est["im_left"].tolist(),
                                  est["im_right"].tolist())
    ]
