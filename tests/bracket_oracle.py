"""Matricized bracket operator: an independent oracle for the closed-form
solver and for the kernel dimension.

Symmetric matrices are flattened into coordinates in the orthonormal basis
{E_ii} u {(E_ij + E_ji)/sqrt(2)}, so the trace inner product becomes the dot
product and the adjoint bracket matricizes to the transpose of the bracket.
"""

import numpy as np

from homscat.majorize import hessian_bracket, hessian_bracket_adjoint


def _sym_index_pairs(d):
    # fixed ordering: row-major upper triangle, diagonal entries included in place
    return [(i, j) for i in range(d) for j in range(i, d)]


def sym_coords(M):
    """Coordinates of a symmetric matrix, row-major upper-triangle order."""
    A = np.asarray(M, dtype=float)
    root2 = np.sqrt(2.0)
    return np.array([A[i, j] if i == j else root2 * A[i, j] for i, j in _sym_index_pairs(A.shape[0])])


def sym_from_coords(v, d):
    """Inverse of sym_coords for dimension d."""
    vec = np.asarray(v, dtype=float)
    pairs = _sym_index_pairs(d)
    if vec.shape != (len(pairs),):
        raise ValueError(f"expected {len(pairs)} coordinates for dimension {d}, got {vec.shape}")
    A = np.zeros((d, d))
    inv_root2 = 1.0 / np.sqrt(2.0)
    for k, (i, j) in enumerate(pairs):
        if i == j:
            A[i, i] = vec[k]
        else:
            A[i, j] = A[j, i] = vec[k] * inv_root2
    return A


def _matricize(op, d):
    N = len(_sym_index_pairs(d))
    return np.column_stack([sym_coords(op(sym_from_coords(e, d))) for e in np.eye(N)])


def bracket_matrix(block):
    """Matricization of B -> B J D - D J B on the symmetric matrices."""
    return _matricize(lambda B: hessian_bracket(block, B), block.dim)


def bracket_adjoint_matrix(block):
    """Matricization of the adjoint bracket; equals bracket_matrix(block).T."""
    return _matricize(lambda M: hessian_bracket_adjoint(block, M), block.dim)


def bracket_adjoint_nullity(block, rel_tol=1e-8):
    """Dimension of the numerical nullspace of the matricized adjoint bracket.

    Singular values come straight from an SVD of the matricization, which
    resolves the kernel ones to rounding level relative to the largest;
    eigenvalues of X^T X would only resolve them to sqrt(machine eps).
    """
    sv = np.linalg.svd(bracket_adjoint_matrix(block), compute_uv=False)
    if sv[0] == 0.0:
        return int(sv.size)
    return int(np.sum(sv <= rel_tol * sv[0]))
