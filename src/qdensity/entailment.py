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
from .qprob import Alphabet

__all__ = [
    "CorpusState",
    "EntailmentDensity",
    "PatternUnobservedError",
    "pattern_density",
    "decompose",
    "loewner_geq",
    "difference_min_eigenvalue",
]

PSD_TOL = 1e-10


class PatternUnobservedError(ValueError):
    """No observed prefix matches the pattern."""


@dataclass(frozen=True)
class CorpusState:
    """State of a corpus cut before its last position.

    prefix_codes holds the distinct observed prefixes as alphabet codes, in
    first-appearance order. columns[:, p] is the suffix-space image of
    observed prefix p under the map associated to the corpus state: entries
    sqrt(count(prefix, suffix) / n_samples).
    """

    dataset: SequenceDataset
    prefix_codes: np.ndarray
    prefix_probs: np.ndarray
    suffix_alphabet: Alphabet
    columns: np.ndarray

    @classmethod
    def from_dataset(cls, ds: SequenceDataset) -> "CorpusState":
        if ds.length < 2:
            raise ValueError("corpus sequences must have length at least 2")
        prefixes, suffixes, counts = cut_counts(ds, ds.length - 1)
        cols = np.ascontiguousarray(np.sqrt(counts / ds.n_samples).T)
        totals = counts.sum(axis=1) / ds.n_samples
        for arr in (prefixes, cols, totals):
            arr.flags.writeable = False
        return cls(ds, prefixes, totals, _labels(ds.alphabet, suffixes), cols)

    @property
    def cut(self) -> int:
        return self.dataset.length - 1

    @property
    def prefixes(self) -> tuple[tuple[str, ...], ...]:
        return _decode(self.dataset.alphabet, self.prefix_codes)


@dataclass(frozen=True)
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

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if not 0.0 <= self.weight <= 1.0 + 1e-12:
            raise ValueError(f"weight {self.weight!r} outside [0, 1]")
        if not linalg.is_psd(mat, PSD_TOL):
            raise ValueError("entailment density must be positive semidefinite")
        expected = 1.0 if self.normalized else self.weight
        if abs(float(np.trace(mat)) - expected) > PSD_TOL:
            raise ValueError("trace does not match the declared normalization")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def _normalize_pattern(cs: CorpusState, pattern: Mapping[int, str]) -> tuple[tuple[int, str], ...]:
    if not pattern:
        raise ValueError("pattern must assign at least one position")
    items = []
    for pos, token in sorted(pattern.items()):
        if not 1 <= pos <= cs.cut:
            raise ValueError(
                f"pattern position {pos} outside the prefix range 1..{cs.cut}"
            )
        items.append((int(pos), str(token)))
    return tuple(items)


def _matching_indices(cs: CorpusState, items: tuple[tuple[int, str], ...]) -> np.ndarray:
    symbols = cs.dataset.alphabet.symbols
    mask = np.ones(len(cs.prefix_codes), dtype=bool)
    for pos, token in items:
        code = symbols.index(token) if token in symbols else -1  # a foreign token matches nothing
        mask &= cs.prefix_codes[:, pos - 1] == code
    return np.flatnonzero(mask)


def pattern_density(
    cs: CorpusState, pattern: Mapping[int, str], normalized: bool = False
) -> EntailmentDensity:
    """Density of the expression fixing the given prefix positions.

    Sums the suffix-space projections of every observed prefix matching
    the pattern; raises PatternUnobservedError when nothing matches.
    """
    items = _normalize_pattern(cs, pattern)
    idx = _matching_indices(cs, items)
    if not idx.size:
        raise PatternUnobservedError(f"pattern unobserved: {dict(items)!r}")
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
    pattern's normalized density.
    """
    items = _normalize_pattern(cs, pattern)
    idx = _matching_indices(cs, items)
    if not idx.size:
        raise PatternUnobservedError(f"pattern unobserved: {dict(items)!r}")
    total = cs.prefix_probs[idx].sum()
    out = []
    for i, prefix in zip(idx, _decode(cs.dataset.alphabet, cs.prefix_codes[idx])):
        col = cs.columns[:, [i]]
        mat = col @ col.T
        weight = float(np.trace(mat))
        dens = EntailmentDensity(
            tuple(enumerate(prefix, 1)), cs.suffix_alphabet, mat / weight, weight, True
        )
        out.append((prefix, float(cs.prefix_probs[i] / total), dens))
    return out


def loewner_geq(
    a: EntailmentDensity, b: EntailmentDensity, scale: float = 1.0, tol: float = PSD_TOL
) -> bool:
    """True iff a.matrix - scale * b.matrix is positive semidefinite within tol."""
    return difference_min_eigenvalue(a, b, scale) >= -tol


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
    return float(np.linalg.eigvalsh(a.matrix - scale * b.matrix)[0])
