"""Symmetric eigen-kernels behind the pole-residue form of atomic transforms.

The F-transform of an atomic measure is carried as Nevanlinna data
(``transforms.NevanlinnaData``), F(z) = z/m - gamma + sum s (1+pz)/(p-z).
Every exact step between measures and that form is a symmetric eigenproblem
(Golub, *Some modified matrix eigenvalue problems*, SIAM Rev. 1973):

- the poles p of F are the zeros of G, the eigenvalues of diag(x) compressed
  against the unit vector sqrt(w/m);
- the measure with G(z) = b^T (z - A)^{-1} b for a symmetric A has its atoms
  at the eigenvalues of A and weights (q^T b)^2; an arrowhead A recovers a
  measure from its data, a rank-one update of diag(y) composes F-transforms.
"""

from __future__ import annotations

import numpy as np


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
