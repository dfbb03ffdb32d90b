"""Dense real linear algebra kernel.

Symmetric eigendecomposition and its eigenvalues alone, singular value
decomposition, the smallest eigenvalue and PSD testing.
Everything here is deterministic: a fixed sign convention and a fixed
tie-breaking rule make repeated calls on identical input bit-identical.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "SymEigen",
    "Svd",
    "sym_eigen",
    "sym_eigenvalues",
    "svd",
    "is_psd",
    "min_eigenvalue",
]

# Below this, a coordinate does not count as the "first nonzero" of a vector.
_SIGN_EPS = 1e-12
# Eigen/singular values closer than this are treated as tied and reordered
# by the sign-fixed vectors (lexicographically greatest first).
_TIE_TOL = 1e-9


class SymEigen(NamedTuple):
    """Spectral decomposition of a symmetric matrix.

    eigenvalues are descending; eigenvectors are the matching orthonormal
    columns, each signed so its first nonzero coordinate is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class Svd(NamedTuple):
    """Trimmed singular value decomposition m = u @ diag(s) @ v.T.

    Only min(rows, cols) singular triples are kept. u holds left singular
    vectors as columns, v right singular vectors as columns.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _as_symmetric(m, tol: float = 1e-12) -> np.ndarray:
    # finiteness first: an infinity would reach the symmetry test as inf - inf, a warning
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.size and np.abs(a - a.T).max() > tol:
        raise ValueError(f"matrix is not symmetric within {tol}")
    return a


def _column_signs(vectors: np.ndarray) -> np.ndarray:
    """Per-column +1 or -1 that makes each column's first nonzero coordinate positive."""
    if not len(vectors):
        return np.ones(vectors.shape[1])  # no coordinates, so nothing to flip
    first = (np.abs(vectors) > _SIGN_EPS).argmax(axis=0)
    # a column with no nonzero coordinate leads with its row 0, which is not below -_SIGN_EPS
    lead = vectors[first, np.arange(vectors.shape[1])]
    return np.where(lead < -_SIGN_EPS, -1.0, 1.0)


def _tie_sorted(values: np.ndarray, key_vectors: np.ndarray, *paired: np.ndarray) -> tuple:
    """Descending values, then key_vectors and each paired matrix, with tied columns reordered.

    Values whose adjacent gap is below _TIE_TOL form one tie group, sorted
    by the key vectors' coordinates, greatest first. Without a tie nothing moves.
    """
    gaps = values[:-1] - values[1:]
    if not np.any(gaps <= _TIE_TOL):
        return (values, key_vectors, *paired)
    groups = np.concatenate(([0], np.cumsum(gaps > _TIE_TOL)))
    # lexsort's last key is its first; it is stable, so tied key columns keep their order
    order = np.lexsort((*-key_vectors[::-1], groups))
    return (values[order], *map(lambda m: m[:, order], (key_vectors, *paired)))


def sym_eigen(m) -> SymEigen:
    """Eigendecomposition of a symmetric matrix with the canonical ordering.

    Raises ValueError for non-square or asymmetric (beyond 1e-12) input.
    Satisfies E @ diag(w) @ E.T == m within 1e-10.
    """
    a = _as_symmetric(m)
    w, v = np.linalg.eigh(a)
    w, v = w[::-1], v[:, ::-1]  # eigh is ascending
    w, v = _tie_sorted(w, v * _column_signs(v))
    return SymEigen(np.ascontiguousarray(w), np.ascontiguousarray(v))


def sym_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, for callers that read no vectors.

    Same input checks as sym_eigen. The values are eigh's, the ones
    sym_eigen starts from, without its sign pass and tie sort; within a tie
    group (gaps below _TIE_TOL) their order can differ from sym_eigen's.
    This is not eigvalsh: LAPACK computes eigenvalues alone by a different
    algorithm, whose results differ from eigh's in the last bits. On the
    density of the pure state of the uniform (orange, fruit), (green,
    fruit), (purple, vegetable) table, eigvalsh's top eigenvalue is
    0.9999999999999998 where eigh's is 1.0, so that state's von Neumann
    entropy would be 2.2e-16, not 0.0.
    """
    return np.ascontiguousarray(np.linalg.eigh(_as_symmetric(m))[0][::-1])


def svd(m) -> Svd:
    """Trimmed SVD keeping min(rows, cols) triples, descending.

    Sign convention: each right singular vector's first nonzero coordinate
    is positive; the paired left vector is flipped with it so the
    reconstruction u @ diag(s) @ v.T is unchanged.
    """
    a = _as_matrix(m)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    signs = _column_signs(vt.T)
    s, v, u = _tie_sorted(s, vt.T * signs, u * signs)
    return Svd(np.ascontiguousarray(u), s, np.ascontiguousarray(v))


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a square float matrix, inf when it is empty.

    eigvalsh reads only the lower triangle, so a is taken as symmetric:
    callers check that, or build a from matrices already checked.
    """
    return float(np.linalg.eigvalsh(a)[0]) if len(a) else np.inf


def is_psd(m, tol: float) -> bool:
    """True iff the smallest eigenvalue of the symmetric matrix m is >= -tol."""
    return min_eigenvalue(_as_symmetric(m)) >= -tol
