"""Independent checks of ncprob's outputs.

Each check recomputes the answer by a route that does not go through the
engine it checks: Cauchy transforms as plain atom sums, closed-form
densities, the limit theorems' predicted verdicts, and Voiculescu's phi
(Newton inversion of F) against the subordination engine.  Every check
returns a normalized gap; an operation is wrong when its gap exceeds the
tolerance of its kind.
"""

from __future__ import annotations

import math

import numpy as np

#: gap above which a completed operation counts as wrong, per check kind.
#: Exact algebra is held to three digits: recoveries of unseparated atoms
#: lose up to five of sixteen digits (3.7e-5 seen in 1500 pairs), which
#: oracle_digits reports; a gap above 1e-3 means a wrong measure, not a
#: rounded one.  Free subordination is held to its cross-check scale.  A swept
#: density is held to 1e-4 against an independent F at the same points, and
#: to 2e-2 against a closed-form law, the O(eps) smoothing of reading the
#: density at Im z = 1e-3.
TOL = {
    "exact": 1e-3,
    "free": 1e-8,
    "pointwise": 1e-4,
    "density": 2e-2,
    "boolean_row": 1e-9,
}

#: points w of the free oracle, high in the upper half-plane
W_FREE = tuple(complex(x, 8.0) for x in (-4.0, -2.0, 0.0, 2.0, 4.0))


def g_atoms(pairs, z):
    """Cauchy transform sum of w/(z - x) of an atom list, vectorized over z."""
    z = np.asarray(z, dtype=complex)
    x = np.array([p for p, _ in pairs], dtype=float)
    w = np.array([q for _, q in pairs], dtype=float)
    return (w / (z[..., None] - x)).sum(axis=-1)


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


# --- convolve --------------------------------------------------------------

def classical_gap(mu, nu, result, zs):
    """Result's G against the double sum of w_i v_j / (z - x_i - y_j)."""
    pairs = [(x + y, w * v) for x, w in mu for y, v in nu]
    return _rel(g_atoms(result, zs), g_atoms(pairs, zs))


def boolean_gap(mu, nu, result, zs):
    """E = z/mass - 1/G adds under Boolean convolution; mass multiplies."""
    def e(pairs):
        mass = sum(w for _, w in pairs)
        return np.asarray(zs) / mass - 1.0 / g_atoms(pairs, zs)

    mass_gap = abs(sum(w for _, w in result) - sum(w for _, w in mu) * sum(w for _, w in nu))
    return max(_rel(e(result), e(mu) + e(nu)), mass_gap)


def monotone_gap(mu, nu, result, zs):
    """G of the monotone convolution is G_mu composed with F_nu = 1/G_nu."""
    return _rel(g_atoms(result, zs), g_atoms(mu, 1.0 / g_atoms(nu, zs)))


def free_gap(engine, phi_mu, phi_nu):
    """F(w + phi_mu(w) + phi_nu(w)) = w at the points W_FREE.

    phi_* are Voiculescu transforms computed by Newton inversion of each
    factor's F, an algorithm independent of the subordination engine.
    """
    worst = 0.0
    for w in W_FREE:
        z = w + phi_mu(w) + phi_nu(w)
        worst = max(worst, abs(engine(z) - w) / abs(w))
    return worst


def nevanlinna_gap(points, values):
    """Im F(z) >= Im z on the upper half-plane, for a probability measure.

    Returns the worst shortfall relative to Im z (0 when it holds).
    """
    worst = 0.0
    for z, f in zip(points, values):
        worst = max(worst, (z.imag - f.imag) / z.imag)
    return worst


# --- density -----------------------------------------------------------------

def poisson_kernel(x, eps):
    return eps / (math.pi * (x * x + eps * eps))


def mass_gap(xs, dens, atoms, eps, m):
    """Density mass plus atom weights against the law's total mass m.

    The density read at Im z = eps carries each atom as a Cauchy spike of
    width eps; that spike is removed before integrating, so the atom is not
    counted twice.
    """
    xs = np.asarray(xs)
    smooth = np.asarray(dens, dtype=float).copy()
    for a, w in atoms:
        smooth -= w * poisson_kernel(xs - a, eps)
    mass = float(np.trapezoid(smooth, xs)) + sum(w for _, w in atoms)
    return abs(mass - m) / m


def _interior_gap(xs, dens, exact, lo, hi):
    xs = np.asarray(xs)
    dens = np.asarray(dens)
    keep = (xs >= lo) & (xs <= hi)
    ref = exact(xs[keep])
    return float(np.max(np.abs(dens[keep] - ref) / ref))


def arcsine_gap(xs, dens, v):
    """Monotone law of (1, 0, v delta_0): arcsine on [-sqrt(2v), sqrt(2v)]."""
    r = math.sqrt(2.0 * v)
    return _interior_gap(xs, dens, lambda x: 1.0 / (math.pi * np.sqrt(r * r - x * x)),
                         -0.8 * r, 0.8 * r)


def semicircle_gap(xs, dens, v):
    """Free law of (1, 0, v delta_0): semicircle of variance v."""
    r = 2.0 * math.sqrt(v)
    return _interior_gap(xs, dens, lambda x: np.sqrt(r * r - x * x) / (2.0 * math.pi * v),
                         -0.8 * r, 0.8 * r)


def free_poisson_gap(xs, dens, lam):
    """Free law of (1, lam/2, lam/2 delta_1), lam > 1: Marchenko-Pastur of
    rate lam, on [(1 - sqrt lam)^2, (1 + sqrt lam)^2]."""
    a = (1.0 - math.sqrt(lam)) ** 2
    b = (1.0 + math.sqrt(lam)) ** 2
    pad = 0.1 * (b - a)
    return _interior_gap(xs, dens, lambda x: np.sqrt((b - x) * (x - a)) / (2.0 * math.pi * x),
                         a + pad, b - pad)


# --- limits ------------------------------------------------------------------

def boolean_row_gap(rows, row_measure, triple, zr):
    """Reported Boolean distances against a direct recomputation.

    The k-fold Boolean power has F = z/m^k - k (z/m - 1/G_mu); the target's
    F is the Nevanlinna form z/M - gamma + sum s (1 + p z)/(p - z).  The
    distance is max over ZR of |G_power - G_target| plus the mass gap.
    """
    big_m, gamma, sigma = triple
    zs = np.array([complex(x, y) for x, y in zr])
    f_target = zs / big_m - gamma + sum(s * (1.0 + p * zs) / (p - zs) for p, s in sigma)
    g_target = 1.0 / f_target
    worst = 0.0
    for row in rows:
        n, k = row["n"], row["k"]
        if k != n:
            return math.inf
        pairs = row_measure(n)
        m = sum(w for _, w in pairs)
        e_mu = zs / m - 1.0 / g_atoms(pairs, zs)
        g_power = 1.0 / (zs / m**k - k * e_mu)
        dist = float(np.max(np.abs(g_power - g_target))) + abs(m**k - big_m)
        worst = max(worst, abs(row["distance"] - dist))
    return worst


# --- density: pointwise -------------------------------------------------------

# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = ((),
         (1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def time_one(field, z, rtol=1e-11):
    """w(1) for dw/dt = field(w), w(0) = z.

    An adaptive Dormand-Prince 5(4) integrator with local error control,
    independent of the package's fixed-step RK4 and its sub-step cap.
    """
    t, w, h = 0.0, complex(z), 1e-4
    while t < 1.0:
        h = min(h, 1.0 - t)
        k = []
        for i in range(7):
            k.append(field(w + h * sum(a * kj for a, kj in zip(_DP_A[i], k))))
        w5 = w + h * sum(b * kj for b, kj in zip(_DP_B5, k))
        w4 = w + h * sum(b * kj for b, kj in zip(_DP_B4, k))
        err = abs(w5 - w4) / (rtol * max(abs(w), abs(w5), 1e-3))
        if err <= 1.0:
            t, w = t + h, w5
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
    return w


def flow_time_one(m, gamma, sigma, z):
    """F_1(z) of dF/dt = Phi(F), Phi(w) = -gamma - log(m) w + sum s (1+pw)/(p-w)."""
    log_m = math.log(m)

    def phi(w):
        acc = -gamma - log_m * w
        for p, s in sigma:
            acc += s * (1.0 + p * w) / (p - w)
        return acc

    return time_one(phi, z)


def free_f(gamma, sigma, z):
    """F of the free law at z: the root in the upper half-plane of
    (w + gamma - z) prod (w - p) + sum s (1 + p w) prod_{q != p} (w - q).

    w + phi(w) = z has exactly one root there, since Im phi <= 0; numpy's
    companion-matrix roots replace the package's guarded Newton solve.
    """
    P = np.polynomial.Polynomial
    lhs, den = P([gamma - z, 1.0]), P([1.0])
    for p, s in sigma:
        # (w + gamma - z) + N/D  ->  add s (1 + p w)/(w - p)
        lhs = lhs * P([-p, 1.0]) + s * P([1.0, p]) * den
        den = den * P([-p, 1.0])
    roots = lhs.roots()
    return complex(roots[np.argmax(roots.imag)])


def pointwise_density_gap(xs, dens, eps, f_of_z, every=20):
    """Swept density against -Im(1/F)/pi from an independent F, on every
    ``every``-th bin; the gap is relative, with a floor of 1e-2."""
    worst = 0.0
    for x, d in list(zip(xs, dens))[::every]:
        ref = -(1.0 / f_of_z(complex(x, eps))).imag / math.pi
        worst = max(worst, abs(d - ref) / max(abs(ref), 1e-2))
    return worst


def rotated_limit_gap(beta, sigma, ell, disk):
    """Distance between the target disk flow and the limit of the rotated rows.

    The target is the time-one flow of A(z) = z (i beta - sum w (1 + e^{it} z)/
    (1 - e^{it} z)).  Rows rotated by e^{2 pi i/k} iterate to the flow of
    A(z) + 2 pi i z (Lie-Trotter); rows rotated by -1 (k even) alternate
    F_{1/k} with z -> -F_{1/k}(-z), whose field is -A(-z), so they iterate
    to the flow of the odd part (A(z) - A(-z))/2.
    """
    zetas = [(complex(math.cos(t), math.sin(t)), w) for t, w in sigma]

    def field(z):
        acc = 1j * beta
        for zeta, w in zetas:
            acc -= w * (1.0 + zeta * z) / (1.0 - zeta * z)
        return z * acc

    if ell == 1:
        rotated = lambda z: field(z) + 2j * math.pi * z
    else:
        rotated = lambda z: 0.5 * (field(z) - field(-z))
    return max(abs(time_one(rotated, complex(x, y)) - time_one(field, complex(x, y)))
               for x, y in disk)
