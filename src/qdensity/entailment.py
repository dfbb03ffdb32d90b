"""Densities for words and phrases of a corpus, ordered by entailment.

Every observed prefix of a fixed-length corpus maps to a projection acting
on the suffix space; summing the projections over all prefixes matching a
partial assignment gives the (unnormalized) density of that expression.
Refining an expression can only remove summands, so refinements sit below
their generalizations in the Loewner order, with conditional probabilities
as the natural entailment strengths.

Patterns are position-anchored: a pattern assigns tokens to 1-based prefix
slots, and the suffix (last position) is always the retained subsystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import linalg
from .empirical import SequenceDataset, _decode, _labels, cut_counts
from .qprob import DENSITY_TOL, Alphabet, _readonly, _readonly_setstate, _square

__all__ = [
    "CorpusState",
    "EntailmentDensity",
    "PatternUnobservedError",
    "pattern_density",
    "decompose",
    "loewner_geq",
    "difference_min_eigenvalue",
]

class PatternUnobservedError(ValueError):
    """No observed prefix matches the pattern."""


@dataclass(frozen=True, eq=False)
class CorpusState:
    """State of a corpus cut before its last position.

    prefix_codes holds the distinct observed prefixes as alphabet codes, in
    first-appearance order and in the dataset's code dtype. columns[:, p] is
    the suffix-space image of observed prefix p under the map associated to
    the corpus state: entries sqrt(count(prefix, suffix) / n_samples).
    """

    dataset: SequenceDataset
    prefix_codes: np.ndarray
    prefix_probs: np.ndarray
    suffix_alphabet: Alphabet
    columns: np.ndarray

    __setstate__ = _readonly_setstate

    @classmethod
    def from_dataset(cls, ds: SequenceDataset) -> "CorpusState":
        if ds.length < 2:
            raise ValueError("corpus sequences must have length at least 2")
        prefixes, suffixes, counts = cut_counts(ds, ds.length - 1)
        # C order: the BLAS products in pattern_density read columns as laid out
        cols = _readonly(np.ascontiguousarray(np.sqrt(counts / ds.n_samples).T))
        totals = _readonly(counts.sum(axis=1) / ds.n_samples)
        prefixes = _readonly(prefixes, prefixes.dtype)
        return cls(ds, prefixes, totals, _labels(ds.alphabet, suffixes), cols)

    @property
    def cut(self) -> int:
        return self.dataset.length - 1

    @property
    def prefixes(self) -> tuple[tuple[str, ...], ...]:
        return _decode(self.dataset.alphabet, self.prefix_codes)


@dataclass(frozen=True, eq=False)
class EntailmentDensity:
    """Suffix-space density of a position-anchored expression.

    weight is the empirical probability of the pattern (the trace of the
    unnormalized matrix); when normalized the matrix has unit trace.
    """

    pattern: tuple[tuple[int, str], ...]
    suffix_alphabet: Alphabet
    matrix: np.ndarray
    weight: float
    normalized: bool

    __setstate__ = _readonly_setstate

    def __post_init__(self):
        mat = _readonly(self.matrix)
        if not 0.0 <= self.weight <= 1.0 + 1e-12:
            raise ValueError(f"weight {self.weight!r} outside [0, 1]")
        _square(mat, self.suffix_alphabet)
        if not linalg.is_psd(mat, DENSITY_TOL):
            raise ValueError("entailment density must be positive semidefinite")
        expected = 1.0 if self.normalized else self.weight
        if abs(float(np.trace(mat)) - expected) > DENSITY_TOL:
            raise ValueError("trace does not match the declared normalization")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _part(cls, prefix: tuple[str, ...], suffix_alphabet: Alphabet, matrix, weight: float):
        """decompose's normalized density of one full prefix, built with no checks.

        matrix is the read-only outer product of the prefix's column with
        itself divided by weight, its trace: square on the suffix basis,
        PSD and of unit trace by construction, with weight the prefix's
        probability. So __post_init__'s checks, an eigensolve among them,
        would only re-verify what decompose just built.
        """
        self = cls.__new__(cls)
        vars(self).update(  # frozen: the fields are set past __setattr__, as __post_init__ does
            pattern=tuple(enumerate(prefix, 1)),
            suffix_alphabet=suffix_alphabet,
            matrix=matrix,
            weight=weight,
            normalized=True,
        )
        return self


def _match(
    cs: CorpusState, pattern: Mapping[int, str]
) -> tuple[tuple[tuple[int, str], ...], np.ndarray]:
    """The pattern's sorted (position, token) items and the observed prefixes matching them.

    Raises PatternUnobservedError when no observed prefix matches.
    """
    if not pattern:
        raise ValueError("pattern must assign at least one position")
    items = tuple((int(pos), str(token)) for pos, token in sorted(pattern.items()))
    mask = np.ones(len(cs.prefix_codes), dtype=bool)
    positions = cs.dataset.alphabet.positions
    for pos, token in items:
        if not 1 <= pos <= cs.cut:
            raise ValueError(f"pattern position {pos} outside the prefix range 1..{cs.cut}")
        # a foreign token's code, -1, matches nothing
        mask &= cs.prefix_codes[:, pos - 1] == positions.get(token, -1)
    idx = np.flatnonzero(mask)
    if not idx.size:
        raise PatternUnobservedError(f"pattern unobserved: {dict(items)!r}")
    return items, idx


def pattern_density(
    cs: CorpusState, pattern: Mapping[int, str], normalized: bool = False
) -> EntailmentDensity:
    """Density of the expression fixing the given prefix positions.

    Sums the suffix-space projections of every observed prefix matching
    the pattern; raises PatternUnobservedError when nothing matches. The
    result goes through EntailmentDensity's public, fully checked
    constructor.
    """
    items, idx = _match(cs, pattern)
    cols = cs.columns[:, idx]
    mat = cols @ cols.T
    weight = float(np.trace(mat))
    if normalized:
        mat = mat / weight
    return EntailmentDensity(items, cs.suffix_alphabet, mat, weight, normalized)


def decompose(
    cs: CorpusState, pattern: Mapping[int, str]
) -> list[tuple[tuple[str, ...], float, EntailmentDensity]]:
    """Split a pattern's density over the full prefixes refining it.

    Returns (prefix, conditional probability, normalized density) triples;
    the weights sum to one and the weighted sum of the densities equals the
    pattern's normalized density. Every part is built in one batched step:
    the outer product of each matched column with itself, its trace, and
    one division. The parts are rank-one densities by construction, so
    they are not verified again (see EntailmentDensity._part); their bytes
    are those of pattern_density on each full prefix.
    """
    _, idx = _match(cs, pattern)
    total = cs.prefix_probs[idx].sum()
    cols = cs.columns.T[idx]
    mats = cols[:, :, None] * cols[:, None, :]
    weights = mats.trace(axis1=1, axis2=2)
    mats /= weights[:, None, None]
    mats.flags.writeable = False
    probs = (cs.prefix_probs[idx] / total).tolist()
    prefixes = _decode(cs.dataset.alphabet, cs.prefix_codes[idx])
    return [
        (prefix, prob, EntailmentDensity._part(prefix, cs.suffix_alphabet, mat, weight))
        for prefix, prob, mat, weight in zip(prefixes, probs, mats, weights.tolist())
    ]


def loewner_geq(a: EntailmentDensity, b: EntailmentDensity, scale: float = 1.0) -> bool:
    """True iff a.matrix - scale * b.matrix is positive semidefinite within DENSITY_TOL."""
    return difference_min_eigenvalue(a, b, scale) >= -DENSITY_TOL


def difference_min_eigenvalue(
    a: EntailmentDensity, b: EntailmentDensity, scale: float = 1.0
) -> float:
    """Smallest eigenvalue of a.matrix - scale * b.matrix.

    Both densities must live on the same suffix basis, and scale must be
    finite and nonnegative.
    """
    if a.suffix_alphabet != b.suffix_alphabet:
        raise ValueError("entailment densities live on different suffix bases")
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"scale must be finite and nonnegative, got {scale!r}")
    # each matrix passed is_psd, so the difference is finite and symmetric up to rounding
    return linalg.min_eigenvalue(a.matrix - scale * b.matrix)
