"""Kernels behind the pole-residue form of atomic transforms.

The F-transform of an atomic measure is carried as Nevanlinna data
(``transforms.NevanlinnaData``), F(z) = z/m - gamma + sum s (1+pz)/(p-z).
Every exact step between measures and that form is a symmetric eigenproblem
(Golub, *Some modified matrix eigenvalue problems*, SIAM Rev. 1973):

- the poles p of F are the zeros of G, the eigenvalues of diag(x) compressed
  against the unit vector sqrt(w/m);
- the measure with G(z) = b^T (z - A)^{-1} b for a symmetric A has its atoms
  at the eigenvalues of A and weights (q^T b)^2; an arrowhead A recovers a
  measure from its data, a rank-one update of diag(y) composes F-transforms.

The free law of a triple, and the free power of a measure, solve the
secular equation w - a + sum c/(w - p) = 0 pointwise; its root in C+ is the
value of F.  Newton finds it in real float64 arithmetic, with the same steps
on the lanes of a grid and on a single point (Bunch, Nielsen & Sorensen,
*Rank-one modification of the symmetric eigenproblem*, Numer. Math. 1978).
The roots are also the eigenvalues of a complex-symmetric arrowhead; that
eigen-solve re-solves the points whose Newton root fails its certificate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, NumericalError


def _eigen(solve, a, kernel):
    """solve(a) for a numpy eigen-solver; its LinAlgError (no convergence,
    or a non-finite entry) is raised as a NumericalError naming the kernel."""
    try:
        return solve(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{kernel}: eigen-solve failed ({exc})") from exc


def spectral_measure(a, b):
    """Atoms and weights of the measure with G(z) = b^T (z - a)^{-1} b.

    a is a real symmetric matrix; the atoms are its eigenvalues (ascending)
    and the weights the squared projections of b on its eigenvectors.
    """
    evals, evecs = _eigen(np.linalg.eigh, a, "spectral_measure")
    return evals, (evecs.T @ b) ** 2


def cauchy_zeros(x, u):
    """Compress diag(x) against the unit vector u: returns (a, p, c).

    A Householder reflector H sends u to -+e_0, so H diag(x) H is
    [[a, b^T], [b, B]] with a = sum u^2 x.  With B = V diag(p) V^T and
    c = V^T b,
        1 / sum u_j^2/(z - x_j) = z - a - sum c_k^2/(z - p_k),
    so the p (ascending) are the zeros of the left-hand sum's reciprocal.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = u.copy()
    v[0] += 1.0 if v[0] >= 0.0 else -1.0
    h = np.eye(x.size) - (2.0 / (v @ v)) * np.outer(v, v)
    t = (h * x) @ h
    p, vecs = _eigen(np.linalg.eigh, t[1:, 1:], "cauchy_zeros")
    return float(x @ (u * u)), p, vecs.T @ t[1:, 0]


#: Newton on the secular equation: the step cap, and the squared step, relative
#: to max(1, |w|^2), at which a point stops
_NEWTON_STEPS = 60
_STEP_TOL2 = 1e-28

#: the certificate of a root w: Im w > 0 and |f(w)| <= _RESIDUAL_TOL max(1, |a|)
_RESIDUAL_TOL = 1e-12

#: grids of fewer points go through ``_root_point`` one point at a time, which
#: beats the lanes' per-ufunc cost there (10 points: about 0.1 ms against 0.35 ms)
_LANES_FROM = 20


def _secular(wr, wi, ar, ai, pairs):
    """(Re f, Im f, Re f', Im f') at w = wr + i wi, a = ar + i ai.

    f(w) = w - a + sum c q and f'(w) = 1 - sum c q^2 with
    q = 1/(w - p) = (xr, -wi)/(xr^2 + wi^2), xr = wr - p.  The arguments
    are Python floats or float64 ndarrays (one lane per point), and pairs
    holds (p, c) as Python floats.  Only + - * / appear, which round
    correctly on both, so a lane and the same point as floats agree bit
    for bit.  A pole at w divides by zero: ZeroDivisionError on floats,
    inf or nan on ndarrays.
    """
    wi2, nwi = wi * wi, -wi
    fr, fi, dr, di = wr - ar, wi - ai, 1.0, 0.0
    for p, c in pairs:
        xr = wr - p
        d = xr * xr + wi2
        qr, qi = xr / d, nwi / d
        fr = fr + c * qr
        fi = fi + c * qi
        dr = dr - c * (qr * qr - qi * qi)
        di = di - c * (2.0 * qr * qi)
    return fr, fi, dr, di


def _newton_step(wr, wi, ar, ai, pairs):
    """One Newton step w - f(w)/f'(w): the new (wr, wi) and the squared step."""
    fr, fi, dr, di = _secular(wr, wi, ar, ai, pairs)
    den = dr * dr + di * di
    sr = (fr * dr + fi * di) / den
    si = (fi * dr - fr * di) / den
    return wr - sr, wi - si, sr * sr + si * si


def _eigen_roots(ar, ai, p, c):
    """(Re, Im) of the eigenvalue of largest Im of each arrowhead
    [[a, i sqrt(c)^T], [i sqrt(c), diag p]], for 1-d arrays ar, ai."""
    n = p.size
    arrow = np.zeros((ar.size, n + 1, n + 1), dtype=complex)
    arrow[:, 0, 0].real, arrow[:, 0, 0].imag = ar, ai
    arrow[:, 0, 1:] = arrow[:, 1:, 0] = 1j * np.sqrt(c)
    arrow[:, range(1, n + 1), range(1, n + 1)] = p
    evals = _eigen(np.linalg.eigvals, arrow, "upper_root's arrowhead")
    w = np.take_along_axis(evals, evals.imag.argmax(axis=-1)[:, None], axis=-1)[:, 0]
    return w.real, w.imag


def _residual2(wr, wi, ar, ai, pairs):
    """|f(w)|^2, or nan where a float w sits on a pole."""
    try:
        fr, fi, _, _ = _secular(wr, wi, ar, ai, pairs)
    except ZeroDivisionError:
        return math.nan
    return fr * fr + fi * fi


def _root_point(ar, ai, pairs, lift, p, c):
    """(wr, wi, |f|^2, certified) at one point, in Python floats."""
    wr, wi = ar, ai + lift
    try:
        for _ in range(_NEWTON_STEPS):
            wr, wi, s2 = _newton_step(wr, wi, ar, ai, pairs)
            if s2 <= _STEP_TOL2 * max(1.0, wr * wr + wi * wi) or not math.isfinite(s2):
                break
    except ZeroDivisionError:
        wr = wi = math.nan
    tol2 = _RESIDUAL_TOL * _RESIDUAL_TOL * max(1.0, ar * ar + ai * ai)
    r2 = _residual2(wr, wi, ar, ai, pairs)
    if not (wi > 0.0 and r2 <= tol2):
        er, ei = _eigen_roots(np.array([ar]), np.array([ai]), p, c)
        wr, wi = float(er[0]), float(ei[0])
        r2 = _residual2(wr, wi, ar, ai, pairs)
    return wr, wi, r2, wi > 0.0 and r2 <= tol2


def _root_lanes(ar, ai, pairs, lift, p, c):
    """_root_point for 1-d arrays ar, ai, one lane per point: a lane leaves
    the iteration when its own step is small, and only the lanes that fail
    the certificate are re-solved."""
    wr, wi = np.empty_like(ar), np.empty_like(ai)
    live = np.arange(ar.size)
    xr, xi, br, bi = ar, ai + lift, ar, ai
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            if not live.size:
                break
            xr, xi, s2 = _newton_step(xr, xi, br, bi, pairs)
            done = (s2 <= _STEP_TOL2 * np.maximum(1.0, xr * xr + xi * xi)) | ~np.isfinite(s2)
            if done.any():
                wr[live[done]], wi[live[done]] = xr[done], xi[done]
                keep = ~done
                live, xr, xi, br, bi = live[keep], xr[keep], xi[keep], br[keep], bi[keep]
        wr[live], wi[live] = xr, xi
        tol2 = _RESIDUAL_TOL * _RESIDUAL_TOL * np.maximum(1.0, ar * ar + ai * ai)
        r2 = _residual2(wr, wi, ar, ai, pairs)
        ok = (wi > 0.0) & (r2 <= tol2)
        redo = np.flatnonzero(~ok)
        if redo.size:
            wr[redo], wi[redo] = _eigen_roots(ar[redo], ai[redo], p, c)
            r2[redo] = _residual2(wr[redo], wi[redo], ar[redo], ai[redo], pairs)
            ok[redo] = (wi[redo] > 0.0) & (r2[redo] <= tol2[redo])
    return wr, wi, r2, ok


def upper_root(z, shift, p, c):
    """The root in C+ of f(w) = w - a + sum c_k/(w - p_k), a = z - shift, for each z.

    p are real poles and c > 0 their weights.  For Im z > 0 exactly one of
    the n + 1 roots lies in C+, since on the real line Im f = -Im z.
    Newton runs from w = a + i sqrt(sum c) (Bunch, Nielsen & Sorensen,
    Numer. Math. 1978), at most _NEWTON_STEPS steps, until the squared step
    is at most _STEP_TOL2 max(1, |w|^2), in the real arithmetic of
    ``_secular``: an ndarray z of at least _LANES_FROM points runs one lane
    per point, and any other z the same steps in Python floats, so a grid
    value equals the single-point value bit for bit.  Each root is certified: Im w > 0 and a residual
    |f(w)| <= 1e-12 max(1, |a|).  Newton can land on a root in C-; a point
    it leaves uncertified is solved again as the eigenvalue of largest Im
    of the complex-symmetric arrowhead [[a, i sqrt(c)^T], [i sqrt(c),
    diag p]], whose eigenvalues are the n + 1 roots, and certified again;
    a point that still fails raises ConvergenceError naming z.  The result
    has the shape of z.
    """
    pairs = tuple(zip(p.tolist(), c.tolist()))
    lift = math.sqrt(sum(v for _, v in pairs))
    if not (isinstance(z, np.ndarray) and z.ndim):
        z = complex(z)
        wr, wi, r2, ok = _root_point(z.real - shift, z.imag, pairs, lift, p, c)
        if not ok:
            _no_root(z, wr, wi, r2)
        return complex(wr, wi)
    zf = z.astype(complex).ravel()
    ar, ai = zf.real - shift, zf.imag
    if zf.size >= _LANES_FROM:
        wr, wi, r2, ok = _root_lanes(ar, ai, pairs, lift, p, c)
    else:
        rows = [_root_point(x, y, pairs, lift, p, c) for x, y in zip(ar.tolist(), ai.tolist())]
        wr, wi, r2, ok = np.array(rows, dtype=float).reshape(-1, 4).T
    if not ok.all():
        i = int(np.argmin(ok))
        _no_root(zf[i], wr[i], wi[i], r2[i])
    w = np.empty(zf.shape, dtype=complex)
    w.real, w.imag = wr, wi
    return w.reshape(z.shape)


def _no_root(z, wr, wi, r2):
    raise ConvergenceError(
        f"no root in the upper half-plane at z={complex(z)!r} "
        f"(root {complex(wr, wi)!r}, residual {math.sqrt(r2):.3e})")
