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
from dataclasses import dataclass

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
    weak_distance,
)

DEFAULT_NS = (16, 32, 64, 128, 256)

#: t-grid for the characteristic-function metric on the classical side
T_GRID = tuple(s * 0.5 * j for j in range(1, 11) for s in (1, -1))

OPS = ("classical", "free", "boolean", "monotone")


def _check_rows(n_values):
    """The rows n of an array as a tuple of ints, checked positive and strictly increasing."""
    ns = tuple(int(n) for n in n_values)
    if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValidationError(f"n_values must be positive and strictly increasing; got {ns!r}")
    return ns


def _bernoulli():
    return FiniteAtomicMeasure.from_pairs([(-1.0, 0.5), (1.0, 0.5)])


@dataclass(frozen=True)
class ArraySpec:
    """One measure per row n >= 1, plus the power rule k_n and the target triple.

    A row without a measure is the target's flow root: the generator flow
    of ``limit`` at t = 1/k_n.  Only ``f_eval`` reads it; every op's power
    needs the row's measure.
    """

    name: str
    n_values: tuple
    measure_fn: object = None      # n -> FiniteAtomicMeasure, or None
    ks: tuple = None               # k_n of each row of n_values, or None for k_n = n
    limit: LevyTriple = None       # target triple for this array

    def __post_init__(self):
        ns = _check_rows(self.n_values)
        object.__setattr__(self, "n_values", ns)
        if self.ks is None:
            return
        ks = tuple(int(k) for k in self.ks)
        if len(ks) != len(ns):
            raise ValidationError(f"ks must align with n_values; got {len(ks)} values "
                                  f"for {len(ns)} rows")
        if any(b <= a for a, b in zip(ks, ks[1:])) or ks[0] < 1:
            raise ValidationError("k_n must be positive and strictly increasing")
        object.__setattr__(self, "ks", ks)

    def k_of(self, n):
        """k_n of row n: its entry in ks, or n without ks."""
        return int(n) if self.ks is None else self.ks[self.n_values.index(n)]

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
        return lambda z: flow_map(self.limit, t, z, step=min(FLOW_STEP, t))

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
        if not c >= 0.0:  # the rows' mass 1 - c/n would pass 1, and exp(-c) may overflow
            raise ValidationError(f"a damped Poisson array needs c >= 0; got {c!r}")

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
    def fixed(cls, n_values=DEFAULT_NS):
        """mu_n = the symmetric Bernoulli law for every n: the non-infinitesimal witness.

        Its target is the Gaussian triple, which its powers do not approach.
        """
        measure = _bernoulli()
        return cls(
            name="fixed",
            n_values=tuple(n_values),
            measure_fn=lambda n: measure,
            limit=LevyTriple.from_parts(1.0, 0.0, [(0.0, 1.0)]),
        )

    @classmethod
    def flow_root(cls, triple, n_values=DEFAULT_NS):
        """Rows given by the flow map g_n = F_{1/k_n} of a generator triple.

        These rows have no atomic representation, so no op's power applies
        (``run_powers`` raises a ValidationError); ``f_eval`` and the
        generator diagnostic ``chernoff_residual`` read them.
        """
        return cls(name="flow_root", n_values=tuple(n_values), limit=triple)


def condition_e(spec, n):
    """The moment-condition data of row n: (gamma_n, sigma_n), both exact.

    sigma_n reweights each atom by k_n w x^2/(x^2+1); gamma_n is
    k_n * sum of w x/(x^2+1).
    """
    mu = _row_measure(spec, n, "condition_e")
    k = spec.k_of(n)
    gamma_n = k * sum(w * x / (x * x + 1.0) for x, w in mu.atoms)
    sigma_n = FiniteAtomicMeasure.from_pairs(
        ((x, k * w * x * x / (x * x + 1.0)) for x, w in mu.atoms),
        role=PARAMETER,
    )
    return float(gamma_n), sigma_n


def _verdict(distances, tol):
    if distances[-1] > tol:
        return False
    tail = distances[-3:]
    for a, b in zip(tail, tail[1:]):
        if b > 1.1 * a + 1e-9:
            return False
    return True


def column(ns, ks, distances, tol):
    """One report column: a row {n, k, distance} per horizon point, and its verdict.

    ``converged`` is the module's verdict on the distances at tol.  Every
    column of every report is built here, on the line and on the disk.
    """
    return {"rows": [{"n": n, "k": k, "distance": d} for n, k, d in zip(ns, ks, distances)],
            "converged": _verdict(distances, tol)}


def equivalence(array, boolean, monotone, tol, **condition):
    """The Boolean/monotone section of a report: both columns and whether they agree.

    boolean and monotone are report columns (``column``); condition is the
    one keyword naming the transfer condition the section rests on:
    ``mass_limit`` on the line, ``beta_condition`` on the disk.
    """
    b, m = boolean["converged"], monotone["converged"]
    return {"array": array, **condition, "ops": {"boolean": boolean, "monotone": monotone},
            "agreement": b == m, "both_converged": b and m, "tolerance": tol}


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


def _row_measure(spec, n, what):
    """Row n's measure; a row without one raises a ValidationError naming what needed it."""
    mu = spec.measure(n)
    if mu is None:
        raise ValidationError(f"{what} needs a row measure, and row n={n} has none")
    return mu


def _monotone_powers(ns, rows, ks):
    """The row measures' k_n-fold monotone powers on ZR, all rows in one ``f_powers`` call."""
    values = f_powers((f_transform(mu), k, np.array(ZR), f"row n={n}, k={k}")
                      for mu, k, n in zip(rows, ks, ns))
    return [TransformGrid(v, mu.mass ** k) for v, mu, k in zip(values, rows, ks)]


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
    """The report column of the k_n-fold op-powers' distances to the target law, with its op.

    A failure names the op and where it arose: the rows' inputs, the
    target, or the row.
    """
    if op not in OPS:
        raise ValidationError(f"unknown convolution {op!r}")
    ns = spec.n_values
    ks = tuple(spec.k_of(n) for n in ns)
    where, dists = None, []
    try:
        rows = [_row_measure(spec, n, f"op {op!r}") for n in ns]
        where = "target"
        target = _resolve_target(op, target)
        where = None  # the monotone pass names its own row
        if op == "monotone":
            rows = _monotone_powers(ns, rows, ks)
        for n, k, row in zip(ns, ks, rows):
            where = f"row n={n}, k={k}"
            dists.append(float(_power_distance(op, row, k, target)))
    except (NumericalError, ValidationError) as exc:
        at = op if where is None else f"{op}, {where}"
        raise type(exc)(f"{exc} (op={at})") from exc
    return {"op": op, **column(ns, ks, dists, tol)}


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
    flags = [r["converged"] for r in reports.values()] + [cond_converged]
    return {
        "array": spec.name,
        "condition_e": {"rows": cond_rows, "converged": cond_converged},
        "ops": reports,
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
    mhat = _row_measure(spec, n_last, "subprobability_equivalence").mass ** spec.k_of(n_last)
    if mhat < 0.01:
        raise ValidationError("row masses collapse: mass^{k_n} -> 0")
    if abs(mhat - triple.m) > 0.05:
        raise ValidationError(
            f"mass^k = {mhat} at the horizon does not approach m = {triple.m}"
        )
    return equivalence(spec.name, run_powers(spec, "boolean", triple, tol),
                       run_powers(spec, "monotone", triple, tol), tol,
                       mass_limit={"target": triple.m, "observed": mhat})
