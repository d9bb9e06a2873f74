"""Symmetric eigen-kernels behind the pole-residue form of atomic transforms.

The F-transform of an atomic measure is carried as Nevanlinna data
(``transforms.NevanlinnaData``), F(z) = z/m - gamma + sum s (1+pz)/(p-z).
Every exact step between measures and that form is a symmetric eigenproblem
(Golub, *Some modified matrix eigenvalue problems*, SIAM Rev. 1973):

- the poles p of F are the zeros of G, the eigenvalues of diag(x) compressed
  against the unit vector sqrt(w/m);
- the measure with G(z) = b^T (z - A)^{-1} b for a symmetric A has its atoms
  at the eigenvalues of A and weights (q^T b)^2; an arrowhead A recovers a
  measure from its data, a rank-one update of diag(y) composes F-transforms;
- the free law of a triple, and the free power of a measure, solve the
  secular equation w - a + sum c/(w - p) = 0; its roots are the eigenvalues
  of a complex-symmetric arrowhead, and the one in C+ is the value of F.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError


def spectral_measure(a, b):
    """Atoms and weights of the measure with G(z) = b^T (z - a)^{-1} b.

    a is a real symmetric matrix; the atoms are its eigenvalues (ascending)
    and the weights the squared projections of b on its eigenvectors.
    """
    evals, evecs = np.linalg.eigh(a)
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
    p, vecs = np.linalg.eigh(t[1:, 1:])
    return float(x @ (u * u)), p, vecs.T @ t[1:, 0]


def upper_root(z, shift, p, c):
    """The root in C+ of w - a + sum c_k/(w - p_k), a = z - shift, for each z.

    p are real poles and c > 0 their weights.  The n + 1 roots are the
    eigenvalues of the complex-symmetric arrowhead [[a, i sqrt(c)^T],
    [i sqrt(c), diag p]]; for Im z > 0 exactly one lies in C+, since on the
    real line the left-hand side has imaginary part -Im z.  One eigen-solve
    runs on the whole stack of arrowheads, and the root of largest Im is
    checked: Im <= 0, or a residual above 1e-12 max(1, |a|), raises
    ConvergenceError.  z is a complex scalar or an ndarray; the result
    has its shape.
    """
    a = np.asarray(z, dtype=complex) - shift
    n = p.size
    arrow = np.zeros(a.shape + (n + 1, n + 1), dtype=complex)
    arrow[..., 0, 0] = a
    arrow[..., 0, 1:] = arrow[..., 1:, 0] = 1j * np.sqrt(c)
    arrow[..., range(1, n + 1), range(1, n + 1)] = p
    evals = np.linalg.eigvals(arrow)
    w = np.take_along_axis(evals, evals.imag.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    residual = np.abs(w - a + (c / (w[..., None] - p)).sum(axis=-1))
    bad = ~((w.imag > 0.0) & (residual <= 1e-12 * np.maximum(1.0, np.abs(a))))
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ConvergenceError(
            f"no root in the upper half-plane at z={complex(np.asarray(z)[i])!r} "
            f"(root {complex(w[i])!r}, residual {residual[i]:.3e})")
    return complex(w) if w.ndim == 0 else w
