"""Formal concept analysis of a binary relation, compared with eigenvectors.

A relation between objects and attributes induces a Galois pair of
order-reversing maps between the power sets; formal concepts are the pairs
fixed by both maps, equivalently the maximal complete bipartite subgraphs.
The same table, read as a uniform probability distribution on its edges,
yields reduced densities whose eigenvectors can be compared against the
concepts; the two notions coincide exactly when the graph is a disjoint
union of complete bipartite clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

import numpy as np

from . import qprob
from .qprob import Alphabet, JointDistribution

__all__ = [
    "Relation",
    "FormalConcept",
    "EigenConceptPair",
    "EigenConceptReport",
    "galois_f",
    "galois_g",
    "formal_concepts",
    "compare_eigen_concepts",
]

MAX_ENUM_SIDE = 24
EIGEN_CUTOFF = 1e-10
SUPPORT_CUTOFF = 1e-10


@dataclass(frozen=True)
class Relation:
    """Boolean incidence table between an object and an attribute alphabet."""

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    incidence: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.incidence, dtype=bool)
        if table.shape != (len(self.x_alphabet), len(self.y_alphabet)):
            raise ValueError(
                f"incidence shape {table.shape} does not match alphabets "
                f"({len(self.x_alphabet)}, {len(self.y_alphabet)})"
            )
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "incidence", table)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[str, str]],
        x_alphabet: Alphabet | None = None,
        y_alphabet: Alphabet | None = None,
    ) -> "Relation":
        """Build from related pairs, inferring alphabets in first-appearance order."""
        pairs = list(pairs)
        if x_alphabet is None:
            x_alphabet = Alphabet(tuple(dict.fromkeys(x for x, _ in pairs)))
        if y_alphabet is None:
            y_alphabet = Alphabet(tuple(dict.fromkeys(y for _, y in pairs)))
        table = np.zeros((len(x_alphabet), len(y_alphabet)), dtype=bool)
        for x, y in pairs:
            table[x_alphabet.index(x), y_alphabet.index(y)] = True
        return cls(x_alphabet, y_alphabet, table)

    @property
    def n_edges(self) -> int:
        return int(self.incidence.sum())


@dataclass(frozen=True)
class FormalConcept:
    """Extent/intent pair closed under the relation's Galois maps."""

    extent: frozenset[str]
    intent: frozenset[str]


def _symbols(alphabet: Alphabet, mask: np.ndarray) -> frozenset[str]:
    return frozenset(compress(alphabet.symbols, mask))


def galois_f(r: Relation, a: Iterable[str]) -> frozenset[str]:
    """Attributes shared by every object in a; all attributes for the empty set."""
    rows = [r.x_alphabet.index(s) for s in a]
    return _symbols(r.y_alphabet, r.incidence[rows].all(axis=0))


def galois_g(r: Relation, b: Iterable[str]) -> frozenset[str]:
    """Objects related to every attribute in b; all objects for the empty set."""
    cols = [r.y_alphabet.index(s) for s in b]
    return _symbols(r.x_alphabet, r.incidence[:, cols].all(axis=1))


def _close_by_one(table: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every (row mask, column mask) concept of a boolean table, each once.

    Close-by-One (Kuznetsov 1993): from a concept, adding a column j at or
    after the branch's start closes to another concept, and the branch is
    kept only when that closure adds no column before j. Each concept then
    has exactly one parent, so the walk costs one closure per column per
    concept and recurses at most as deep as the table has columns.
    """
    concepts = []

    def walk(extent: np.ndarray, intent: np.ndarray, start: int) -> None:
        concepts.append((extent, intent))
        for j in range(start, table.shape[1]):
            if intent[j]:
                continue
            child = extent & table[:, j]
            closed = table[child].all(axis=0)
            if not (closed[:j] & ~intent[:j]).any():
                walk(child, closed, j + 1)

    walk(np.ones(table.shape[0], dtype=bool), table.all(axis=0), 0)
    return concepts


def _concept_masks(r: Relation, include_degenerate: bool) -> tuple[np.ndarray, np.ndarray]:
    """Extent and intent masks of formal_concepts' listing, one row per concept."""
    n, m = len(r.x_alphabet), len(r.y_alphabet)
    if min(n, m) > MAX_ENUM_SIDE:
        raise ValueError(
            f"relation sides {n}x{m} exceed the enumeration limit {MAX_ENUM_SIDE}"
        )
    if m <= n:
        extents, intents = map(np.array, zip(*_close_by_one(r.incidence)))
    else:
        intents, extents = map(np.array, zip(*_close_by_one(r.incidence.T)))
    proper = extents.any(axis=1) & intents.any(axis=1)
    if not include_degenerate and proper.any():
        extents, intents = extents[proper], intents[proper]
    # Between equal-size extents, the sorted index lists compare like the
    # masks read from the first object with True before False.
    order = np.lexsort(np.vstack([~extents[:, ::-1].T, extents.sum(axis=1)]))
    return extents[order], intents[order]


def formal_concepts(r: Relation, include_degenerate: bool = False) -> list[FormalConcept]:
    """All formal concepts, sorted by extent size then lexicographically.

    The concepts are walked by Close-by-One over the smaller side, which
    may have at most MAX_ENUM_SIDE symbols. The two degenerate closures
    with an empty extent or intent are dropped unless include_degenerate
    is set; for the edgeless relation they are the only concepts and are
    always returned.
    """
    return [
        FormalConcept(_symbols(r.x_alphabet, x), _symbols(r.y_alphabet, y))
        for x, y in zip(*_concept_masks(r, include_degenerate))
    ]


@dataclass(frozen=True)
class EigenConceptPair:
    """One eigenpair matched against its most similar concept."""

    eigenvalue: float
    concept: FormalConcept
    extent_cosine: float
    intent_cosine: float
    exact_support_match: bool


@dataclass(frozen=True)
class EigenConceptReport:
    """Outcome of comparing reduced-density eigenpairs with formal concepts."""

    eigenvalues: tuple[float, ...]
    pairs: tuple[EigenConceptPair, ...]
    n_eigenpairs: int
    n_concepts: int
    matched: int
    unmatched_eigenpairs: int
    unmatched_concepts: int
    mismatch: bool

    def to_dict(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "pairs": [
                {
                    "eigenvalue": p.eigenvalue,
                    "extent": sorted(p.concept.extent),
                    "intent": sorted(p.concept.intent),
                    "extent_cosine": p.extent_cosine,
                    "intent_cosine": p.intent_cosine,
                    "exact_support_match": p.exact_support_match,
                }
                for p in self.pairs
            ],
            "n_eigenpairs": self.n_eigenpairs,
            "n_concepts": self.n_concepts,
            "matched": self.matched,
            "unmatched_eigenpairs": self.unmatched_eigenpairs,
            "unmatched_concepts": self.unmatched_concepts,
            "mismatch": self.mismatch,
        }


def uniform_distribution(r: Relation) -> JointDistribution:
    """Uniform probability on the relation's edges."""
    if r.n_edges == 0:
        raise ValueError("relation has no edges")
    return JointDistribution(
        r.x_alphabet, r.y_alphabet, r.incidence.astype(float) / r.n_edges
    )


def compare_eigen_concepts(r: Relation) -> EigenConceptReport:
    """Pair reduced-density eigenpairs with their closest formal concepts.

    Each eigenpair is matched to the concept maximizing the mean cosine
    similarity between the eigenvectors' absolute values and the normalized
    characteristic vectors of extent and intent. An exact match means the
    eigenvector supports equal extent and intent on the nose.
    """
    extents, intents = _concept_masks(r, include_degenerate=False)
    sd = qprob.schmidt(qprob.build_state(uniform_distribution(r)))
    keep = sd.coefficients**2 > EIGEN_CUTOFF
    eigenvalues = tuple(float(v) for v in sd.coefficients[keep] ** 2)
    evec_x, evec_y = np.abs(sd.x_vectors[:, keep]), np.abs(sd.y_vectors[:, keep])
    # cos_x[i, c] is eigenpair i's cosine with concept c's extent
    norm_x, norm_y = np.linalg.norm(evec_x, axis=0), np.linalg.norm(evec_y, axis=0)
    cos_x = (evec_x.T @ extents.T) / np.outer(norm_x, np.sqrt(extents.sum(axis=1)))
    cos_y = (evec_y.T @ intents.T) / np.outer(norm_y, np.sqrt(intents.sum(axis=1)))
    best = np.argmax(cos_x + cos_y, axis=1)  # the first of equal maxima
    support_x, support_y = evec_x.T > SUPPORT_CUTOFF, evec_y.T > SUPPORT_CUTOFF
    exact = (support_x == extents[best]).all(axis=1) & (support_y == intents[best]).all(axis=1)
    pairs = tuple(
        EigenConceptPair(
            eigenvalue=lam,
            concept=FormalConcept(_symbols(r.x_alphabet, x), _symbols(r.y_alphabet, y)),
            extent_cosine=float(cos_x[i, c]),
            intent_cosine=float(cos_y[i, c]),
            exact_support_match=bool(exact[i]),
        )
        for i, (lam, c, x, y) in enumerate(zip(eigenvalues, best, extents[best], intents[best]))
    )
    matched = int(exact.sum())
    unmatched_con = len(extents) - len(set(best[exact].tolist()))
    return EigenConceptReport(
        eigenvalues=eigenvalues,
        pairs=pairs,
        n_eigenpairs=len(pairs),
        n_concepts=len(extents),
        matched=matched,
        unmatched_eigenpairs=len(pairs) - matched,
        unmatched_concepts=unmatched_con,
        mismatch=(matched < len(pairs) or unmatched_con > 0),
    )
