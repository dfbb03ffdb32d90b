"""Joint distributions modeled as pure states and their reduced densities.

A joint probability table becomes a unit vector whose coefficients are the
square roots of the probabilities. Projecting onto that vector gives a
rank-one density whose two reduced densities carry the classical marginals
on their diagonals and cross-subsystem interactions off-diagonal. This
module computes the reductions by three independent routes (partial trace,
Gram products, slice projections), decodes their spectra, and reassembles
the state from the spectral data.

Pair layout: the basis of the product space lists pairs with the suffix
index varying slower, so the coefficient vector of a state reshapes in C
order into the matrix M with M[a, i] = amplitude(x_i, y_a).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from . import linalg

__all__ = [
    "Alphabet",
    "ProductBasis",
    "JointDistribution",
    "PureState",
    "DensityMatrix",
    "SchmidtData",
    "build_state",
    "density_diag",
    "density_projection",
    "partial_trace",
    "reduced_via_gram",
    "kraus_reduced",
    "born_distribution",
    "marginalize",
    "schmidt",
    "reconstruct_state",
    "shannon_entropy",
    "von_neumann_entropy",
    "entanglement_entropy",
]

NORM_TOL = 1e-12
DENSITY_TOL = 1e-10
ENTROPY_CUTOFF = 1e-14
MAX_PRODUCT_DIM = 2**20


def _readonly(a, dtype=float) -> np.ndarray:
    """A read-only copy of a, in a's memory order."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _readonly_setstate(self, state: dict) -> None:
    """The records' __setstate__: every array, in a field or a tuple field, read-only again."""
    for value in state.values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
    self.__dict__.update(state)


def _cacheless_getstate(self) -> dict:
    """The cached records' __getstate__: every field but the caches, those declared init=False."""
    return {f.name: self.__dict__[f.name] for f in fields(self) if f.init}


def _unit_total(total: float, what: str, tol: float) -> None:
    """ValueError "{what} {total!r}, expected 1" unless total is within tol of 1; NaN never is."""
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"{what} {total!r}, expected 1")


def _bounded(what: str, size: int, unit: str, limit: int) -> int:
    """size if it is at most limit; the one check of every size bound, made before allocating."""
    if size > limit:
        raise ValueError(f"{what} of {size} {unit} exceeds the supported {limit}")
    return size


def _product_size(rows: int, cols: int) -> int:
    """rows * cols, the entries of a table; ValueError above MAX_PRODUCT_DIM."""
    return _bounded("product space", rows * cols, "entries", MAX_PRODUCT_DIM)


def _square(mat: np.ndarray, basis) -> None:
    """ValueError unless mat is square with one row per element of the basis."""
    dim = len(basis)
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {mat.shape} does not match basis size {dim}")


def _table(values, x: Alphabet, y: Alphabet, what: str, dtype=float) -> np.ndarray:
    """A read-only copy of values, checked to have one row per x and one column per y symbol."""
    shape = (len(x), len(y))
    _product_size(*shape)  # before the copy
    table = _readonly(values, dtype)
    if table.shape != shape:
        raise ValueError(f"{what} shape {table.shape} does not match alphabets {shape}")
    return table


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free list of tokens naming the basis vectors.

    positions maps each token to its index. It is built once, from symbols,
    and is read-only by convention; it takes no part in == or hash.
    """

    symbols: tuple[str, ...]
    positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        positions = {t: i for i, t in enumerate(self.symbols)}
        if len(positions) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def index(self, symbol: str) -> int:
        """Position of symbol; ValueError when it is not in the alphabet."""
        return int(self.encode((symbol,))[0])

    def encode(self, symbols: Iterable[str]) -> np.ndarray:
        """The int64 position of each symbol; ValueError names the first one not in the alphabet."""
        try:
            return np.fromiter(map(self.positions.__getitem__, symbols), dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not in the alphabet") from None

    @classmethod
    def first_appearance(cls, tokens: Iterable[str]) -> tuple["Alphabet", np.ndarray]:
        """The tokens' alphabet in first-appearance order, and each token's int32 code."""
        positions: defaultdict[str, int] = defaultdict()
        positions.default_factory = positions.__len__  # a new token's code: the count before it
        codes = np.fromiter(map(positions.__getitem__, tokens), dtype=np.int32)
        return cls(tuple(positions)), codes


@dataclass(frozen=True)
class ProductBasis:
    """Basis of a two-factor product space, pairs listed suffix-major."""

    x: Alphabet
    y: Alphabet

    def __len__(self) -> int:
        return len(self.x) * len(self.y)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability table over an ordered product of two alphabets.

    probs[i, a] is the probability of (x_i, y_a); entries are nonnegative
    and sum to one within 1e-12.
    """

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    probs: np.ndarray

    __setstate__ = _readonly_setstate

    def __post_init__(self):
        table = _table(self.probs, self.x_alphabet, self.y_alphabet, "probability table")
        if np.any(table < 0):
            raise ValueError("probabilities must be nonnegative")
        _unit_total(float(table.sum()), "probabilities sum to", NORM_TOL)
        object.__setattr__(self, "probs", table)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector over the product basis, stored as its amplitude table.

    amplitudes[i, a] belongs to the pair (x_i, y_a). States built from a
    distribution have nonnegative amplitudes (square roots of
    probabilities); reconstructed states may carry signs.
    """

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    amplitudes: np.ndarray

    __setstate__ = _readonly_setstate

    def __post_init__(self):
        table = _table(self.amplitudes, self.x_alphabet, self.y_alphabet, "amplitude table")
        _unit_total(float((table**2).sum()), "squared amplitudes sum to", NORM_TOL)
        object.__setattr__(self, "amplitudes", table)

    @property
    def vector(self) -> np.ndarray:
        """Coefficient vector in the canonical suffix-major order."""
        return self.amplitudes.T.reshape(-1)

    def matrix(self) -> np.ndarray:
        """The |Y| x |X| coefficient matrix M with M[a, i] = amplitude(x_i, y_a)."""
        return np.ascontiguousarray(self.amplitudes.T)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Symmetric PSD matrix with unit trace over a declared basis.

    Construction checks that the entries are finite, symmetric and of unit
    trace within DENSITY_TOL; use from_matrix to also verify positive
    semidefiniteness of matrices from untrusted sources.
    """

    basis: Alphabet | ProductBasis
    matrix: np.ndarray

    __setstate__ = _readonly_setstate

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        _square(mat, self.basis)
        linalg._as_symmetric(mat, DENSITY_TOL)
        _unit_total(float(np.trace(mat)), "density matrix has trace", DENSITY_TOL)
        object.__setattr__(self, "matrix", _readonly(mat))

    @classmethod
    def from_matrix(cls, basis: Alphabet | ProductBasis, matrix) -> "DensityMatrix":
        """Fully validated constructor, including the PSD check."""
        dm = cls(basis, matrix)  # finite and symmetric within DENSITY_TOL, so eigvalsh applies
        if linalg.min_eigenvalue(dm.matrix) < -DENSITY_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        return dm


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt decomposition of a two-factor pure state.

    coefficients are descending and their squares sum to one; x_vectors and
    y_vectors hold the matched orthonormal factor columns.
    """

    coefficients: np.ndarray
    x_vectors: np.ndarray
    y_vectors: np.ndarray
    x_alphabet: Alphabet
    y_alphabet: Alphabet

    __setstate__ = _readonly_setstate

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        _unit_total(float((coeffs**2).sum()), "squared Schmidt coefficients sum to", DENSITY_TOL)
        object.__setattr__(self, "coefficients", _readonly(coeffs))
        object.__setattr__(self, "x_vectors", _readonly(self.x_vectors))
        object.__setattr__(self, "y_vectors", _readonly(self.y_vectors))


def _check_keep(keep: str) -> str:
    if keep not in ("X", "Y"):
        raise ValueError(f"keep must be 'X' or 'Y', got {keep!r}")
    return keep


def build_state(pi: JointDistribution) -> PureState:
    """Weight every basis pair by the square root of its probability."""
    return PureState(pi.x_alphabet, pi.y_alphabet, np.sqrt(pi.probs))


def density_diag(pi: JointDistribution) -> DensityMatrix:
    """Maximal-rank density with the joint probabilities on the diagonal."""
    vec = pi.probs.T.reshape(-1)
    return DensityMatrix(ProductBasis(pi.x_alphabet, pi.y_alphabet), np.diag(vec))


def density_projection(psi: PureState) -> DensityMatrix:
    """Rank-one density projecting onto the state vector."""
    v = psi.vector  # unit norm: PureState holds its squared amplitudes' sum within 1e-12 of 1
    return DensityMatrix(ProductBasis(psi.x_alphabet, psi.y_alphabet), np.outer(v, v))


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Trace out one factor of a density on a declared product basis.

    keep='X' sums matched suffix indices, keep='Y' matched prefix indices.
    """
    _check_keep(keep)
    if not isinstance(rho.basis, ProductBasis):
        raise ValueError("partial trace requires a density on a product basis")
    n, m = len(rho.basis.x), len(rho.basis.y)
    # Suffix-major layout: flat index of (i, a) is a*n + i.
    t = rho.matrix.reshape(m, n, m, n)
    if keep == "X":
        return DensityMatrix(rho.basis.x, np.einsum("aiaj->ij", t))
    return DensityMatrix(rho.basis.y, np.einsum("aibi->ab", t))


def reduced_via_gram(psi: PureState, keep: str) -> DensityMatrix:
    """Reduced density as a Gram product of the reshaped state.

    With M the coefficient matrix, keep='X' gives M.T @ M and keep='Y'
    gives M @ M.T; both agree with the partial trace.
    """
    _check_keep(keep)
    m = psi.matrix()
    if keep == "X":
        return DensityMatrix(psi.x_alphabet, m.T @ m)
    return DensityMatrix(psi.y_alphabet, m @ m.T)


def kraus_reduced(psi: PureState, keep: str) -> DensityMatrix:
    """Reduced density as a sum of slice projections of the state.

    Each basis vector of the traced-out factor contributes the projection
    onto its slice of the coefficient matrix (operator-sum form).
    """
    _check_keep(keep)
    m = psi.matrix()
    slices, alphabet = (m.T, psi.y_alphabet) if keep == "Y" else (m, psi.x_alphabet)
    return DensityMatrix(alphabet, sum(np.outer(v, v) for v in slices))


def born_distribution(rho: DensityMatrix) -> np.ndarray:
    """Probabilities of the basis elements: the diagonal of the density."""
    diag = np.diag(rho.matrix).copy()
    if np.any(diag < -1e-12):
        raise ValueError("density diagonal has a negative entry")
    return diag  # sums to 1 within DENSITY_TOL: a DensityMatrix holds its trace so


def marginalize(pi: JointDistribution, keep: str) -> np.ndarray:
    """Classical marginal obtained by summing over the other factor."""
    _check_keep(keep)
    return pi.probs.sum(axis=1) if keep == "X" else pi.probs.sum(axis=0)


def schmidt(psi: PureState) -> SchmidtData:
    """Schmidt decomposition via the SVD of the coefficient matrix.

    The right singular vectors live on the prefix side, the left ones on
    the suffix side, and the singular values are the Schmidt coefficients.
    """
    u, s, v = linalg.svd(psi.matrix())
    return SchmidtData(
        coefficients=s,
        x_vectors=v,
        y_vectors=u,
        x_alphabet=psi.x_alphabet,
        y_alphabet=psi.y_alphabet,
    )


def reconstruct_state(sd: SchmidtData) -> PureState:
    """Reassemble the pure state from its Schmidt data.

    Round-trips schmidt() within 1e-10. For synthetic Schmidt data the
    reconstructed amplitudes may carry signs.
    """
    m = sd.y_vectors @ np.diag(sd.coefficients) @ sd.x_vectors.T
    return PureState(sd.x_alphabet, sd.y_alphabet, m.T)


def shannon_entropy(weights: np.ndarray) -> float:
    """-sum w ln w over the weights above ENTROPY_CUTOFF, floored at 0: a
    weight rounded to 1 + 2**-52 gives -2.2e-16, and one of exactly 1 -0.0."""
    w = weights[weights > ENTROPY_CUTOFF]
    return max(0.0, float(-(w * np.log(w)).sum()))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Shannon entropy of the density's eigenvalue distribution.

    The eigenvalues come from linalg.sym_eigenvalues: eigh's, the values
    sym_eigen reads, without the eigenvectors' canonical form, which this
    does not use. It is not eigvalsh, whose values differ in the last bits
    (see sym_eigenvalues).
    """
    return shannon_entropy(linalg.sym_eigenvalues(rho.matrix))


def entanglement_entropy(psi: PureState) -> float:
    """Shannon entropy of the squared Schmidt coefficients.

    Zero exactly when the state is a product (Schmidt rank one).
    """
    return shannon_entropy(schmidt(psi).coefficients ** 2)
