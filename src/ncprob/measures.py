"""Finite atomic measures on the real line and on the unit circle.

These are the value types every engine consumes.  Both are written once, as
one private base over (positions, weights, role): ``FiniteAtomicMeasure``
keeps positions on R, ``CircleMeasure`` angles in [0, 2pi) (also read as
``angles``).  Each adds only its period, the mass rule of its state role, its
moments and its own extras.  Instances are immutable; construction
normalizes the atom list (sorted positions, strictly positive weights,
near-duplicate positions merged), so rebuilding a measure from its own atoms
is a no-op.  A malformed atom raises ValidationError naming it.

Two roles exist.  ``state`` measures are the (sub-)probability inputs of the
convolution calculus: total mass in (0, 1] on the line, exactly 1 on the
circle.  ``parameter`` measures carry Nevanlinna / Levy data and may have any
finite mass, including zero.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

#: positions closer than this are summed at construction time (root finders
#: downstream produce near-duplicate atoms)
MERGE_TOL = 1e-12

#: slack on the "mass <= 1" / "mass == 1" checks, for float noise from engines
MASS_TOL = 1e-9

STATE = "state"
PARAMETER = "parameter"

TWO_PI = 2.0 * math.pi


def _normalize(pairs, merge_tol, wrap=None):
    cleaned = []
    for x, w in pairs:
        try:
            x, w = float(x), float(w)
        except (TypeError, ValueError):
            raise ValidationError(f"atom ({x!r}, {w!r}) is not a pair of numbers") from None
        if not (math.isfinite(x) and math.isfinite(w)):
            raise ValidationError(f"non-finite atom ({x}, {w})")
        if w < 0.0:
            raise ValidationError(f"negative weight {w} at position {x}")
        if w == 0.0:
            continue
        if wrap is not None:
            x = x % wrap
        cleaned.append((x, w))
    cleaned.sort()
    merged: list[list[float]] = []
    for x, w in cleaned:
        if merged and x - merged[-1][0] <= merge_tol:
            x0, w0 = merged[-1]
            merged[-1] = [(x0 * w0 + x * w) / (w0 + w), w0 + w]
        else:
            merged.append([x, w])
    if wrap is not None and len(merged) >= 2:
        # endpoints may coincide modulo the period
        if merged[0][0] + wrap - merged[-1][0] <= merge_tol:
            xl, wl = merged.pop()
            x0, w0 = merged[0]
            merged[0] = [(((xl - wrap) * wl + x0 * w0) / (wl + w0)) % wrap, wl + w0]
            merged.sort()
    return tuple(tuple(a) for a in merged)


@dataclass(frozen=True)
class _AtomicMeasure:
    """Positive weighted atoms at ``positions``, reduced modulo the class's ``_PERIOD``.

    The line and the circle measures differ only in that period (None on
    the line), in the mass rule of their state role (``_check_state_mass``)
    and in what they add on top.
    """

    positions: tuple
    weights: tuple
    role: str = STATE

    def __post_init__(self):
        if self.role not in (STATE, PARAMETER):
            raise ValidationError(f"unknown role {self.role!r}")
        positions, weights = tuple(self.positions), tuple(self.weights)
        if len(positions) != len(weights):
            raise ValidationError(f"{len(positions)} positions but {len(weights)} weights")
        pairs = _normalize(zip(positions, weights), MERGE_TOL, self._PERIOD)
        object.__setattr__(self, "positions", tuple(x for x, _ in pairs))
        object.__setattr__(self, "weights", tuple(w for _, w in pairs))
        if self.role == STATE:
            self._check_state_mass(sum(self.weights))

    @classmethod
    def from_pairs(cls, pairs, role=STATE):
        """The measure of (position, weight) pairs; a malformed entry raises ValidationError."""
        if not isinstance(pairs, Iterable):
            raise ValidationError(f"atoms must be (position, weight) pairs; got {pairs!r}")
        positions, weights = [], []
        for entry in pairs:
            try:
                x, w = entry
            except (TypeError, ValueError):
                raise ValidationError(f"atom {entry!r} is not a (position, weight) pair") from None
            positions.append(x)
            weights.append(w)
        return cls(tuple(positions), tuple(weights), role)

    @classmethod
    def dirac(cls, position, weight=1.0, role=STATE):
        return cls((position,), (weight,), role)

    @classmethod
    def zero(cls):
        """The zero measure; only valid in parameter role."""
        return cls((), (), PARAMETER)

    @property
    def atoms(self):
        return tuple(zip(self.positions, self.weights))

    @property
    def is_zero(self):
        return not self.positions

    @property
    def mass(self):
        return sum(self.weights)

    @property
    def mean(self):
        return self.moment(1)

    def with_role(self, role):
        return type(self)(self.positions, self.weights, role)

    def to_json_pairs(self):
        """[[position, weight], ...] for JSON output; round-trips exactly."""
        return [[x, w] for x, w in self.atoms]


class FiniteAtomicMeasure(_AtomicMeasure):
    """Positive weighted atoms on the real line."""

    _PERIOD = None

    def _check_state_mass(self, total):
        if not self.positions:
            raise ValidationError("state measure must be non-zero")
        if total > 1.0 + MASS_TOL:
            raise ValidationError(f"state measure mass {total} exceeds 1")

    def moment(self, k):
        return sum(w * x**k for x, w in self.atoms)

    @property
    def generalized_variance(self):
        """mu(x^2) mu(R) - mu(x)^2; reduces to variance for probability mass."""
        return self.moment(2) * self.mass - self.mean**2

    def dilate(self, s):
        """Pushforward under x -> s*x.  Mass preserved; s must be non-zero."""
        s = float(s)
        if s == 0.0:
            raise ValidationError("dilation factor must be non-zero")
        return FiniteAtomicMeasure(
            tuple(s * x for x in self.positions), self.weights, self.role
        )

    def translate(self, a):
        """Pushforward under x -> x + a."""
        a = float(a)
        return FiniteAtomicMeasure(
            tuple(x + a for x in self.positions), self.weights, self.role
        )

    def scale_mass(self, c):
        """Multiply every weight by c > 0 (role preserved)."""
        c = float(c)
        if c <= 0.0:
            raise ValidationError("mass scale must be positive")
        return FiniteAtomicMeasure(
            self.positions, tuple(c * w for w in self.weights), self.role
        )


class CircleMeasure(_AtomicMeasure):
    """Positive weighted atoms on the unit circle, stored by angle in [0, 2pi)."""

    _PERIOD = TWO_PI

    def _check_state_mass(self, total):
        if abs(total - 1.0) > MASS_TOL:
            raise ValidationError(f"circle state measure mass {total} must equal 1")

    @property
    def angles(self):
        """The atoms' angles: ``positions`` under its name on the circle."""
        return self.positions

    @property
    def points(self):
        """Atom locations as unit complex numbers."""
        return tuple(cmath.exp(1j * t) for t in self.angles)

    @cached_property
    def disk_poles(self):
        """(conj(e^{i theta}), weight) as complex arrays, built once for ``circle._psi_over_z``."""
        return np.conj(self.points), np.array(self.weights, dtype=complex)

    def moment(self, p):
        """Integral of zeta^p: sum of w * e^{i p theta}."""
        return sum(w * cmath.exp(1j * p * t) for t, w in self.atoms)
