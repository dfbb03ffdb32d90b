"""The narrow code dtype changes storage only: every result equals that of int64 codes.

Each dataset is built twice from the same codes: once by a public
constructor, in the smallest unsigned dtype of its alphabet, and once
stored as int64 through SequenceDataset._store. The ranking pass,
cut_counts, empirical_distribution, CorpusState, pattern_density and the
sweep must give the same values, bit for bit, on both. The rank keys
codes[:, k] * size + g reach past 2**8 and 2**16 on every dataset here, so
a key computed in a uint8 or uint16 code dtype would wrap (NumPy 2) or
overflow.
"""

import numpy as np
import pytest

from qdensity import mps
from qdensity.empirical import (
    SequenceDataset,
    _code_dtype,
    _rank_pass,
    _suffix_ranks,
    cut_counts,
    empirical_distribution,
)
from qdensity.entailment import CorpusState, PatternUnobservedError, pattern_density
from qdensity.mps import TrainConfig
from qdensity.qprob import Alphabet


def int64_twin(ds: SequenceDataset) -> SequenceDataset:
    """ds with its codes stored as column-major int64, the dtype before the narrow codes."""
    codes = np.array(ds.codes, dtype=np.int64, order="F")
    return SequenceDataset.__new__(SequenceDataset)._store(ds.alphabet, codes)


def word_dataset(d: int, seed: int) -> SequenceDataset:
    """3000 length-3 samples over d words, drawn with repeats from a pool of 1500
    rows whose first row holds the largest code, d - 1."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(d, size=(1500, 3))
    pool[0] = d - 1
    alphabet = Alphabet(tuple(f"w{i}" for i in range(d)))
    return SequenceDataset.from_codes(alphabet, pool[rng.integers(len(pool), size=3000)])


def repeated_bits(seed: int) -> SequenceDataset:
    """80000 length-18 bit samples drawn with repeats from a pool of 50000 rows:
    about 40000 distinct, so the sweep's weights are not all equal."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(2, size=(50000, 18))
    return SequenceDataset.from_codes(Alphabet(("0", "1")), pool[rng.integers(len(pool), size=80000)])


CASES = {
    "bits": lambda: mps.draw_even_subset(18, 40000, 7),
    "bits_repeated": lambda: repeated_bits(3),
    **{f"words_{d}": (lambda d=d: word_dataset(d, d)) for d in (255, 256, 257, 300)},
}


@pytest.fixture(scope="module", params=sorted(CASES))
def pair(request):
    ds = CASES[request.param]()
    return ds, int64_twin(ds)


@pytest.fixture(scope="module", params=["bits", "bits_repeated"])
def bit_pair(request):
    """The bit cases only: the sweep's first step density is d**2 x d**2, 4e9
    entries at 256 symbols."""
    ds = CASES[request.param]()
    return ds, int64_twin(ds)


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values, and for floats equal bytes."""
    if a.dtype.kind == "f":
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a.shape == b.shape and np.array_equal(a, b)


class TestCodeDtypeInvariance:
    def test_the_pair_differs_only_in_storage(self, pair):
        narrow, wide = pair
        assert narrow.codes.dtype == _code_dtype(len(narrow.alphabet)) != wide.codes.dtype == np.int64
        assert narrow.codes.dtype.itemsize == (2 if len(narrow.alphabet) > 256 else 1)
        assert np.array_equal(narrow.codes, wide.codes)

    def test_rank_keys_cross_two_and_sixteen_bits(self, pair):
        narrow, _ = pair
        d = int(narrow.codes.max()) + 1
        spans, size = [], 1
        for g in _rank_pass(narrow.codes):
            spans.append(d * size)
            size = int(g.max()) + 1
        assert max(spans) > 2**16 and any(2**8 < s for s in spans)

    def test_ranks(self, pair):
        narrow, wide = pair
        # int32 from either branch of _dense_ranks: the word sets' wide keys take its sort
        for a, b in zip(_rank_pass(narrow.codes), _rank_pass(wide.codes), strict=True):
            assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b)
        a, b = _suffix_ranks(narrow.codes), _suffix_ranks(wide.codes)
        assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b)

    def test_cut_counts_and_empirical_distribution(self, pair):
        narrow, wide = pair
        for cut in sorted({1, narrow.length // 2, narrow.length - 1}):
            for a, b in zip(cut_counts(narrow, cut), cut_counts(wide, cut), strict=True):
                assert same(a, b)
            a, b = empirical_distribution(narrow, cut), empirical_distribution(wide, cut)
            assert a.x_alphabet == b.x_alphabet and a.y_alphabet == b.y_alphabet
            assert same(a.probs, b.probs)

    def test_corpus_state_and_pattern_density(self, pair):
        narrow, wide = pair
        a, b = CorpusState.from_dataset(narrow), CorpusState.from_dataset(wide)
        assert a.prefix_codes.dtype == narrow.codes.dtype and same(a.prefix_codes, b.prefix_codes)
        assert same(a.prefix_probs, b.prefix_probs) and same(a.columns, b.columns)
        assert a.suffix_alphabet == b.suffix_alphabet and a.prefixes == b.prefixes
        # a prefix holding the largest code: its first token, its last, and all of them
        row = a.prefix_codes[np.argmax(a.prefix_codes.max(axis=1))]
        prefix = tuple(narrow.alphabet.symbols[c] for c in row)
        patterns = [{1: prefix[0]}, {a.cut: prefix[-1]}, dict(enumerate(prefix, 1))]
        for pattern in patterns:
            for normalized in (False, True):
                x, y = pattern_density(a, pattern, normalized), pattern_density(b, pattern, normalized)
                assert same(x.matrix, y.matrix) and x.weight == y.weight
        # a foreign token's code, -1, matches no code of either dtype
        for cs in (a, b):
            with pytest.raises(PatternUnobservedError):
                pattern_density(cs, {1: "foreign"})
            with pytest.raises(PatternUnobservedError):
                pattern_density(cs, {1: prefix[0], 2: "foreign"})

    def test_sweep(self, bit_pair):
        narrow, wide = bit_pair
        for (k, rho, iso), (k2, rho2, iso2) in zip(
            mps._sweep(narrow, TrainConfig(chi=2)), mps._sweep(wide, TrainConfig(chi=2)), strict=True
        ):
            assert k == k2 and same(iso, iso2)
            assert (rho is None and rho2 is None) or same(rho, rho2)
