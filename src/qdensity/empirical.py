"""Empirical distributions from sequence datasets and their graph combinatorics.

Cutting each length-N sample into a prefix and a suffix yields a bipartite
multigraph whose adjacency counts give the reduced-density entries directly,
with no need to build the full state: diagonals are vertex degrees and
off-diagonals count shared neighbors (length-two paths). For parity-block
graphs the top eigenvectors of the prefix density are plane rotations whose
angles come from the block degrees and shared-suffix counts.

Every dataset stores its codes in one dtype, _code_dtype of its alphabet
size: the smallest unsigned integer that holds them, uint8 up to 256
symbols. Code rows are grouped one way, by _rank_pass' right-to-left
ranking pass: cut_counts ranks its prefix and suffix rows with it, keeping
only the running ranks, and the MPS sweep reads every cut's suffix groups
off the table of all of them, _suffix_ranks, which is int32 below 2**31
samples. Every key built from codes is computed in intp.

A dataset file is read only by load_dataset, a file is named in a message
only by _naming, and a count table is allocated only by cut_counts, which
checks qprob.MAX_PRODUCT_DIM first.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import chain
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .qprob import Alphabet, DensityMatrix, JointDistribution, _product_size, _readonly, _readonly_setstate

__all__ = [
    "SequenceDataset",
    "EmpiricalGraph",
    "parse_dataset",
    "load_dataset",
    "line_tokens",
    "cut_counts",
    "empirical_distribution",
    "graph_reduced_density",
    "parity_graph",
    "summarizer_angles",
    "PARITY_PREFIX_ORDER",
]

# Two-bit prefixes grouped into the even block then the odd block.
PARITY_PREFIX_ORDER = (("0", "0"), ("1", "1"), ("0", "1"), ("1", "0"))


def _code_dtype(d: int) -> np.dtype:
    """The smallest unsigned dtype holding the codes 0 .. d - 1 of a d-symbol alphabet."""
    return np.min_scalar_type(d - 1)


def _rank_dtype(n: int) -> type:
    """The dtype of the ranks of n keys: int32 below 2**31 keys, intp from there."""
    return np.int32 if n < 2**31 else np.intp


def _decode(alphabet: Alphabet, codes: np.ndarray) -> tuple[tuple[str, ...], ...]:
    symbols = np.array(alphabet.symbols, dtype=object)
    return tuple(map(tuple, symbols[codes].tolist()))


@dataclass(frozen=True, eq=False, init=False)
class SequenceDataset:
    """Multiset of fixed-length token sequences over one alphabet.

    codes is a read-only (n_samples, length) matrix in the smallest unsigned
    dtype of the alphabet, _code_dtype(len(alphabet)): uint8 up to 256
    symbols, uint16 up to 65536. codes[i, k] is the alphabet index of token
    k of sample i. It is stored column-major, because every reader takes it
    one column at a time: the ranking pass, the cut's prefix and suffix
    columns, and the sweep's symbols at each site. Every reduction reads the
    codes; samples decodes them back to token tuples on request.
    """

    alphabet: Alphabet
    codes: np.ndarray

    __setstate__ = _readonly_setstate

    def __init__(self, alphabet: Alphabet, length: int, samples: Iterable[Sequence[str]]):
        if length < 1:
            raise ValueError("sequence length must be positive")

        def checked(sample: Sequence[str]) -> tuple[str, ...]:
            if len(sample := tuple(sample)) != length:
                raise ValueError(f"sample {sample!r} does not have length {length}")
            return sample

        codes = alphabet.encode(chain.from_iterable(map(checked, samples))).reshape(-1, length)
        self._store(alphabet, np.array(codes, dtype=_code_dtype(len(alphabet)), order="F"))

    def _store(self, alphabet: Alphabet, codes: np.ndarray) -> "SequenceDataset":
        """self over the alphabet, taking over codes: a column-major code matrix
        in _code_dtype(len(alphabet)) that its caller owns and no longer
        writes. It is made read-only."""
        codes.flags.writeable = False
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "codes", codes)
        return self

    @classmethod
    def from_codes(cls, alphabet: Alphabet, codes) -> "SequenceDataset":
        """Dataset over the alphabet from an integer (n_samples, length) code matrix."""
        arr = np.asarray(codes)
        ok = not arr.size or arr.dtype.kind in "iu" and 0 <= arr.min() <= arr.max() < len(alphabet)
        if arr.ndim != 2 or arr.shape[1] < 1 or not ok:
            raise ValueError(f"codes must be a 2-d matrix of integers in [0, {len(alphabet)})")
        dtype = _code_dtype(len(alphabet))
        return cls.__new__(cls)._store(alphabet, np.array(arr, dtype=dtype, order="F"))

    @property
    def length(self) -> int:
        return self.codes.shape[1]

    @property
    def n_samples(self) -> int:
        return self.codes.shape[0]

    @property
    def samples(self) -> tuple[tuple[str, ...], ...]:
        return _decode(self.alphabet, self.codes)


def line_tokens(line: str) -> tuple[str, ...]:
    """Tokens of one stripped sample line: space separated, or one per character without spaces."""
    return tuple(line.split(" ")) if " " in line else tuple(line) if len(line) > 1 else (line,)


def _check_symbols(symbols: Iterable[str]) -> None:
    """ValueError unless line_tokens reads each symbol back from a stripped line of them."""
    for t in symbols:
        if not t or t != t.strip() or any(c in t for c in " \n\r"):
            raise ValueError(f"symbol {t!r} cannot stand in a sample line: it is empty, holds a space, "
                             "newline or carriage return, or starts or ends with whitespace")


def parse_dataset(lines: Iterable[str], alphabet: Alphabet | None = None) -> SequenceDataset:
    """Parse one sample per line; tokens are space separated.

    A line without spaces and longer than one character is read as a
    contiguous bitstring-style sample, one token per character. The tokens
    stream into Alphabet.first_appearance, and the distinct codes are then
    remapped onto the given alphabet or, without one and when every token is
    a bit, onto ('0', '1').
    """
    lengths: list[int] = []

    def samples():
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            tokens = line_tokens(line)
            if "" in tokens:
                raise ValueError(f"line {lineno}: malformed sample {raw!r}")
            lengths.append(len(tokens))
            yield tokens

    rows = samples()
    if (first := next(rows, None)) is None:
        raise ValueError("dataset is empty")
    seen, codes = Alphabet.first_appearance(chain(first, chain.from_iterable(rows)))
    if len(set(lengths)) != 1:
        raise ValueError(f"samples have mixed lengths {sorted(set(lengths))}")
    if alphabet is None:
        alphabet = Alphabet(("0", "1")) if set(seen) <= {"0", "1"} else seen
    # the int32 first-appearance codes remapped in the narrow dtype: the parse holds no int64 matrix
    codes = alphabet.encode(seen).astype(_code_dtype(len(alphabet)))[codes]
    return SequenceDataset.from_codes(alphabet, codes.reshape(len(lengths), -1))


@contextmanager
def _naming(path):
    """The only place a message names a file: a ValueError raised inside becomes "{path}: {message}"."""
    try:
        yield
    except ValueError as exc:
        if isinstance(exc, UnicodeDecodeError):
            with open(path, "rb") as fh:  # decoded whole, the position counts from the file's start
                try:
                    fh.read().decode("utf-8")
                except UnicodeDecodeError as whole:
                    exc = whole
        raise ValueError(f"{path}: {exc}") from None


def load_dataset(path) -> SequenceDataset:
    """parse_dataset of the file's lines, streamed; a refusal names the file."""
    with _naming(path), open(path, encoding="utf-8") as fh:
        return parse_dataset(fh)


def _dense_ranks(keys: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """Rank of every key among the distinct keys, in _rank_dtype, and their count; keys lie in [0, span).

    When the span is at most twice the key count, a presence table over the
    span ranks each key by the table's running count: O(span) work and no
    sort. Wider spans rank each key by its np.searchsorted position in
    np.unique(keys), in memory linear in the key count whatever the span.
    """
    if span <= 2 * len(keys):
        seen = np.zeros(span, dtype=bool)
        seen[keys] = True
        table = np.cumsum(seen, dtype=_rank_dtype(len(keys)))
        table -= 1
        return table[keys], int(table[-1]) + 1 if span else 0
    distinct = np.unique(keys)
    return np.searchsorted(distinct, keys).astype(_rank_dtype(len(keys))), len(distinct)


def _rank_pass(codes: np.ndarray) -> Iterator[np.ndarray]:
    """Ranks of the suffixes among the distinct suffixes, one column at a time, right to left.

    Yields the ranks of codes[:, k:] for k from the last column down to 0,
    holding only the running ranks. The suffix at column k is the pair
    (codes[:, k], suffix at k + 1), so ranking the keys codes[:, k] * size
    + g, where g holds the ranks at k + 1 and size their count, orders the
    suffixes lexicographically, exactly as a row-wise np.unique of
    codes[:, k:] does. The keys are computed in intp, whatever the codes'
    dtype: under NumPy 2's promotion a uint8 column times a Python int stays
    uint8 and wraps. They lie below d * size <= d * n_samples, d =
    codes.max() + 1, so _dense_ranks ranks them by presence table whenever
    d * size is at most twice n_samples (every column of a bit dataset) and
    by sort otherwise. The last ranks yielded rank the whole rows.
    """
    d = int(codes.max(initial=0)) + 1
    g, size = np.zeros(len(codes), dtype=_rank_dtype(len(codes))), 1
    for k in range(codes.shape[1] - 1, -1, -1):
        keys = np.multiply(codes[:, k], size, dtype=np.intp)
        keys += g
        g, size = _dense_ranks(keys, d * size)
        yield g


def _suffix_ranks(codes: np.ndarray) -> np.ndarray:
    """Rank table of _rank_pass: ranks[k, i] ranks codes[i, k:]; row 0 ranks the whole rows."""
    ranks = np.empty(codes.shape[::-1], dtype=_rank_dtype(len(codes)))
    for row, g in zip(ranks[::-1], _rank_pass(codes)):
        row[...] = g
    return ranks


def _check_cut(length: int, cut: int) -> None:
    """ValueError unless a cut at cut leaves both sides of a length-long sample nonempty."""
    if not 1 <= cut < length:
        raise ValueError(f"cut must lie in [1, {length - 1}], got {cut}")


def cut_counts(ds: SequenceDataset, cut: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count table of the dataset cut into prefix and suffix.

    Returns the distinct prefix and suffix code rows, each in first-appearance
    order, and counts[i, j], the number of samples made of prefix i followed
    by suffix j. A table above qprob.MAX_PRODUCT_DIM entries is refused
    before it is allocated.
    """
    _check_cut(ds.length, cut)
    if not ds.n_samples:
        raise ValueError("dataset is empty")
    sides = []
    for rows in (ds.codes[:, :cut], ds.codes[:, cut:]):
        for ranks in _rank_pass(rows):  # the last ranks rank the whole rows
            pass
        _, first = np.unique(ranks, return_index=True)  # first[r]: the first row of rank r
        order = np.argsort(first)  # first-appearance position -> rank
        sides.append((rows[first[order]], np.argsort(order)[ranks]))
    (prefixes, p_idx), (suffixes, s_idx) = sides
    shape = (len(prefixes), len(suffixes))
    _product_size(*shape)  # before the table is allocated
    counts = np.bincount(p_idx * shape[1] + s_idx, minlength=shape[0] * shape[1])
    return prefixes, suffixes, counts.reshape(shape)


def _labels(alphabet: Alphabet, codes: np.ndarray) -> Alphabet:
    return Alphabet(tuple(" ".join(tokens) for tokens in _decode(alphabet, codes)))


def empirical_distribution(ds: SequenceDataset, cut: int) -> JointDistribution:
    """Joint table of prefix/suffix frequencies at the given cut.

    Prefixes and suffixes are indexed in first-appearance order.
    """
    prefixes, suffixes, counts = cut_counts(ds, cut)
    table = counts / ds.n_samples
    return JointDistribution(_labels(ds.alphabet, prefixes), _labels(ds.alphabet, suffixes), table)


@dataclass(frozen=True, eq=False)
class EmpiricalGraph:
    """Bipartite prefix/suffix multigraph: counts[i, j] edges join prefixes[i] and suffixes[j]."""

    prefixes: tuple[tuple[str, ...], ...]
    suffixes: tuple[tuple[str, ...], ...]
    counts: np.ndarray

    __setstate__ = _readonly_setstate

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (len(self.prefixes), len(self.suffixes)):
            raise ValueError(f"count matrix shape {counts.shape} does not match the vertices")
        if counts.size and (counts.dtype.kind not in "iu" or counts.min() < 0):
            raise ValueError("edge counts must be nonnegative integers")
        object.__setattr__(self, "counts", _readonly(counts, np.int64))

    @property
    def total_edges(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_dataset(
        cls,
        ds: SequenceDataset,
        cut: int,
        prefix_order: Iterable[tuple[str, ...]] | None = None,
    ) -> "EmpiricalGraph":
        """Graph at the cut; prefix_order, naming every observed prefix once, orders the rows."""
        prefix_codes, suffix_codes, counts = cut_counts(ds, cut)
        prefixes = _decode(ds.alphabet, prefix_codes)
        if prefix_order is not None:
            order = tuple(prefix_order)
            _product_size(len(order), counts.shape[1])  # before the padded table and its index
            order = tuple(map(tuple, order))
            rows = {p: i for i, p in enumerate(order)}
            if len(rows) != len(order):
                raise ValueError("prefix_order repeats a prefix")
            if not rows.keys() >= set(prefixes):
                raise ValueError("prefix_order does not cover all observed prefixes")
            padded = np.zeros((len(order), counts.shape[1]), dtype=counts.dtype)
            padded[[rows[p] for p in prefixes]] = counts
            prefixes, counts = order, padded
        return cls(prefixes, _decode(ds.alphabet, suffix_codes), counts)


def graph_reduced_density(g: EmpiricalGraph, keep: str) -> DensityMatrix:
    """Reduced density read off the graph: degrees and shared-neighbor counts.

    For a simple graph, entry (i, j) counts the length-two paths joining
    vertices i and j (the degree when i == j), divided by the number of
    edges. Multi-edges enter through the square roots of their counts so
    the result matches the state-based reduction exactly.
    """
    if keep not in ("prefix", "suffix"):
        raise ValueError(f"keep must be 'prefix' or 'suffix', got {keep!r}")
    total = g.total_edges
    if total <= 0:
        raise ValueError("graph has no edges")
    adj, vertices = np.sqrt(g.counts), g.prefixes
    if keep == "suffix":
        adj, vertices = adj.T, g.suffixes
    return DensityMatrix(Alphabet(tuple(" ".join(v) for v in vertices)), adj @ adj.T / total)


def parity_graph(ds: SequenceDataset) -> EmpiricalGraph:
    """Cut-2 graph of a bitstring dataset with the parity-block prefix basis."""
    if tuple(ds.alphabet) != ("0", "1"):
        raise ValueError("parity graphs require the bit alphabet ('0', '1')")
    if ds.length < 3:
        raise ValueError("parity graphs need sequences of length at least 3")
    return EmpiricalGraph.from_dataset(ds, cut=2, prefix_order=PARITY_PREFIX_ORDER)


def _block_angle(gap: float, shared: float) -> float:
    """t in [0, pi/2] with (cos t, sin t) the top eigenvector of [[d1, s], [s, d2]], gap = d1 - d2."""
    return 0.5 * math.atan2(2.0 * shared, gap)


def summarizer_angles(g: EmpiricalGraph) -> tuple[float, float]:
    """Rotation angles of the top eigenvectors of the two parity blocks.

    The prefix basis must be the parity order (00, 11, 01, 10). Within each
    block the top eigenvector is (cos t, sin t), t = atan2(2s, d1 - d2) / 2,
    where d1 and d2 are the two degrees and s the shared-suffix count. A
    block with no shared suffix is diagonal: t is 0 when the first degree
    is the larger and pi/2 when the second is. An exact tie, s = 0 and
    d1 = d2, has no single top eigenvector and gets 0 by convention.
    """
    if g.prefixes != PARITY_PREFIX_ORDER:
        raise ValueError(
            "summarizer angles require the parity prefix basis (00, 11, 01, 10)"
        )
    adj = np.sqrt(g.counts)
    gram = adj @ adj.T
    d1, d2, s_e = gram[0, 0], gram[1, 1], gram[0, 1]
    d3, d4, s_o = gram[2, 2], gram[3, 3], gram[2, 3]
    theta = _block_angle(d1 - d2, s_e)
    phi = _block_angle(d3 - d4, s_o)
    return theta, phi
