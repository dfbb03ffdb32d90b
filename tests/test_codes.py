"""The int-coded dataset: code matrix, first-appearance split, and its consumers."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qdensity import mps
from qdensity.empirical import (
    EmpiricalGraph,
    SequenceDataset,
    _code_dtype,
    cut_counts,
    empirical_distribution,
    load_dataset,
    parse_dataset,
)
from qdensity.entailment import CorpusState, PatternUnobservedError, pattern_density
from qdensity.qprob import Alphabet

from conftest import BITS, random_dataset


def counter_oracle(ds: SequenceDataset, cut: int):
    """Prefixes, suffixes (first-appearance order) and counts, from token tuples."""
    counts = Counter((s[:cut], s[cut:]) for s in ds.samples)
    prefixes = list(dict.fromkeys(p for p, _ in counts))
    suffixes = list(dict.fromkeys(s for _, s in counts))
    table = np.zeros((len(prefixes), len(suffixes)))
    for (p, s), c in counts.items():
        table[prefixes.index(p), suffixes.index(s)] = c
    return prefixes, suffixes, table


def labels(tuples) -> tuple[str, ...]:
    return tuple(" ".join(t) for t in tuples)


def written(path, text: str):
    path.write_text(text)
    return path


def int64_bytes(ds: SequenceDataset) -> int:
    """The bytes ds.codes would take in int64: the unit of the memory bounds below,
    so that a narrower code dtype cannot carry a bound down with it."""
    return ds.n_samples * ds.length * 8


def words(d: int) -> Alphabet:
    return Alphabet(tuple(f"w{i}" for i in range(d)))


def random_cases(seed: int, count: int):
    """count datasets over 1-5 symbols, then count // 4 over 20-39 symbols: a
    few dozen rows drawn from a smaller pool, so that cut_counts ranks columns
    by presence table and by sort on both sides of the cut."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        ds = random_dataset(
            rng,
            alphabet_size=int(rng.integers(1, 6)),
            length=int(rng.integers(2, 7)),
            n_samples=int(rng.integers(1, 80)),
        )
        yield rng, ds, int(rng.integers(1, ds.length))
    for _ in range(count // 4):
        d, length = int(rng.integers(20, 40)), int(rng.integers(2, 7))
        pool = rng.integers(d, size=(int(rng.integers(2, 30)), length))
        codes = pool[rng.integers(len(pool), size=int(rng.integers(20, 60)))]
        ds = SequenceDataset.from_codes(Alphabet(tuple(f"w{i}" for i in range(d))), codes)
        yield rng, ds, int(rng.integers(1, length))


class TestSplitMatchesCounterOracle:
    def test_empirical_distribution(self):
        for _, ds, cut in random_cases(61, 60):
            prefixes, suffixes, table = counter_oracle(ds, cut)
            pi = empirical_distribution(ds, cut)
            assert tuple(pi.x_alphabet) == labels(prefixes)
            assert tuple(pi.y_alphabet) == labels(suffixes)
            assert np.array_equal(pi.probs, table / ds.n_samples)

    def test_graph_count_matrix(self):
        for _, ds, cut in random_cases(63, 60):
            prefixes, suffixes, table = counter_oracle(ds, cut)
            g = EmpiricalGraph.from_dataset(ds, cut)
            assert g.prefixes == tuple(prefixes)
            assert g.suffixes == tuple(suffixes)
            assert g.counts.dtype == np.int64 and np.array_equal(g.counts, table)
            assert g.total_edges == ds.n_samples

    def test_corpus_state(self):
        for _, ds, _ in random_cases(64, 60):
            prefixes, suffixes, table = counter_oracle(ds, ds.length - 1)
            cs = CorpusState.from_dataset(ds)
            assert cs.prefixes == tuple(prefixes)
            assert tuple(cs.suffix_alphabet) == labels(suffixes)
            assert np.array_equal(cs.prefix_probs, table.sum(axis=1) / ds.n_samples)
            assert np.array_equal(cs.columns, np.sqrt(table / ds.n_samples).T)

    def test_pattern_matching(self):
        for rng, ds, _ in random_cases(65, 40):
            cs = CorpusState.from_dataset(ds)
            prefix = cs.prefixes[int(rng.integers(len(cs.prefixes)))]
            positions = rng.choice(cs.cut, size=int(rng.integers(1, cs.cut + 1)), replace=False)
            pattern = {int(p) + 1: prefix[p] for p in positions}
            matches = [
                i for i, q in enumerate(cs.prefixes)
                if all(q[pos - 1] == tok for pos, tok in pattern.items())
            ]
            cols = cs.columns[:, matches]
            dens = pattern_density(cs, pattern)
            assert np.array_equal(dens.matrix, cols @ cols.T)

    def test_foreign_token_matches_nothing(self):
        ds = SequenceDataset(Alphabet(("a", "b")), 3, [("a", "b", "a"), ("b", "b", "a")])
        cs = CorpusState.from_dataset(ds)
        with pytest.raises(PatternUnobservedError):
            pattern_density(cs, {1: "z"})
        with pytest.raises(PatternUnobservedError):
            pattern_density(cs, {1: "a", 2: "z"})

    def test_cut_counts_memory_stays_near_the_codes(self):
        # each side is ranked holding only the running ranks, int32, from the
        # uint8 codes: 0.56x measured; int64 codes peaked at 1.29x, and a table
        # of the ranks at every column of the 18-column suffix side at 2.14x
        ds = mps.draw_even_subset(20, 2**17, 0)
        tracemalloc.start()
        try:
            prefixes, _, counts = cut_counts(ds, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(prefixes) == 4 and counts.sum() == 2**17
        assert peak < 0.75 * int64_bytes(ds)


class TestCodes:
    def test_positional_constructor_encodes(self):
        alphabet = Alphabet(("x", "y", "z"))
        samples = (("z", "x"), ("y", "y"), ("z", "x"))
        ds = SequenceDataset(alphabet, 2, samples)
        assert ds.codes.tolist() == [[2, 0], [1, 1], [2, 0]]
        assert (ds.length, ds.n_samples) == (2, 3)
        assert ds.samples == samples
        assert not ds.codes.flags.writeable

    def test_positional_constructor_rejects(self):
        with pytest.raises(ValueError):
            SequenceDataset(BITS, 3, [("0", "1")])
        with pytest.raises(ValueError):
            SequenceDataset(BITS, 2, [("0", "2")])
        with pytest.raises(ValueError):
            SequenceDataset(BITS, 0, [])

    def test_from_codes_round_trip(self):
        codes = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.int8)
        ds = SequenceDataset.from_codes(BITS, codes)
        assert ds.codes.dtype == _code_dtype(2) == np.uint8
        assert ds.samples == (("0", "1", "1"), ("1", "0", "1"))
        assert not ds.codes.flags.writeable
        codes[0, 0] = 1  # the dataset holds its own copy
        assert ds.codes[0, 0] == 0

    @pytest.mark.parametrize("d, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65537, np.uint32)])
    def test_from_codes_keeps_values_at_the_dtype_edges(self, d, dtype):
        # the largest code of each alphabet, d - 1, is the largest its dtype must hold
        codes = np.array([[0, d - 1], [d - 1, d // 2]], dtype=np.int64)
        ds = SequenceDataset.from_codes(words(d), codes)
        assert ds.codes.dtype == _code_dtype(d) == dtype
        assert np.array_equal(ds.codes, codes)
        assert ds.samples == (("w0", f"w{d - 1}"), (f"w{d - 1}", f"w{d // 2}"))

    def test_empty_code_matrix_keeps_length(self):
        ds = SequenceDataset.from_codes(BITS, np.empty((0, 4), dtype=np.int64))
        assert (ds.n_samples, ds.length, ds.samples) == (0, 4, ())
        with pytest.raises(ValueError):
            cut_counts(ds, 2)

    @pytest.mark.parametrize(
        "codes",
        [
            [[0, 2]],  # out of range
            [[0, -1]],  # negative
            [0, 1, 1],  # 1-d
            [[[0, 1]]],  # 3-d
            np.zeros((2, 0), dtype=np.int64),  # no columns
            [[0.0, 1.0]],  # not integers
            [[True, False]],  # not integers
        ],
    )
    def test_from_codes_rejects(self, codes):
        with pytest.raises(ValueError):
            SequenceDataset.from_codes(BITS, codes)

    @pytest.mark.parametrize(
        "build",
        [
            lambda tmp: SequenceDataset(BITS, 3, [("0", "1", "1"), ("1", "0", "1")]),
            lambda tmp: SequenceDataset.from_codes(BITS, np.array([[0, 1, 1], [1, 0, 1]], dtype=np.int8)),
            lambda tmp: parse_dataset(["a b c", "c b a"]),
            lambda tmp: load_dataset(written(tmp / "d.txt", "011\n101\n")),
            lambda tmp: mps.draw_even_subset(9, 40, 2),
            lambda tmp: mps.draw_even_subset(2, 1, 0),
            lambda tmp: SequenceDataset(words(256), 2, [("w0", "w255"), ("w255", "w7")]),
            lambda tmp: SequenceDataset(words(257), 2, [("w0", "w256"), ("w256", "w7")]),
            lambda tmp: parse_dataset(f"w{i} w{255 - i}" for i in range(256)),
            lambda tmp: load_dataset(written(tmp / "w.txt", "".join(f"w{i} w{256 - i}\n" for i in range(257)))),
        ],
        ids=[
            "init", "from_codes", "parse", "load", "draw", "draw_n2",
            "init_256", "init_257", "parse_256", "load_257",
        ],
    )
    def test_every_constructor_stores_read_only_int64_columns(self, build, tmp_path):
        # the name predates the narrow codes: every constructor now stores the
        # smallest unsigned dtype of its alphabet, _code_dtype(len(alphabet))
        ds = build(tmp_path)
        codes = ds.codes
        assert codes.dtype == _code_dtype(len(ds.alphabet))
        assert codes.dtype == (np.uint16 if len(ds.alphabet) > 256 else np.uint8)
        assert codes.flags.f_contiguous
        assert not codes.flags.writeable
        reference = [[ds.alphabet.index(t) for t in sample] for sample in ds.samples]
        assert np.array_equal(codes, reference)


def string_even_subset(n: int, count: int, seed: int) -> tuple[tuple[str, ...], ...]:
    """The even-subset draw built one string at a time, as a reference."""
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(2 ** (n - 1), size=count, replace=False))
    samples = []
    for code in picks:
        head = [(int(code) >> (n - 2 - i)) & 1 for i in range(n - 1)]
        head.append(sum(head) % 2)
        samples.append(tuple(str(b) for b in head))
    return tuple(samples)


class TestDrawEvenSubsetCodes:
    def test_even_and_distinct_rows(self):
        ds = mps.draw_even_subset(12, 300, seed=21)
        assert ds.codes.shape == (300, 12)
        assert np.all(ds.codes.sum(axis=1) % 2 == 0)
        assert len(np.unique(ds.codes, axis=0)) == 300

    @pytest.mark.parametrize(
        "n, count, seed",
        [
            (2, 1, 0), (2, 2, 1), (5, 7, 2), (8, 64, 3), (9, 256, 4),
            # the experiment's n at fractions 0.025 and 0.2, and n = 20 at both
            (16, 819, 5), (16, 6554, 6), (20, 13107, 7), (20, 104858, 8),
        ],
    )
    def test_matches_string_builder(self, n, count, seed):
        assert mps.draw_even_subset(n, count, seed).samples == string_even_subset(n, count, seed)

    def test_draw_memory_stays_near_the_codes(self):
        # each bit column is shifted once, straight into the uint8 storage the
        # dataset keeps, with no int64 block: 0.19x measured, against 1.07x for
        # int64 codes; building the rows and then copying them into a dataset
        # peaked near 3x
        tracemalloc.start()
        try:
            ds = mps.draw_even_subset(20, 2**18, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.codes.shape == (2**18, 20)
        assert peak < 0.3 * int64_bytes(ds)


class TestMaxWorkers:
    @pytest.mark.parametrize(
        "env, cores, expected",
        [("500", 2, 2), ("4", 2, 2), ("1", 8, 1), ("0", 4, 1), ("3", 8, 3), (None, 6, 6), ("9", None, 1)],
    )
    def test_capped_by_core_count(self, monkeypatch, env, cores, expected):
        monkeypatch.setattr(mps.os, "cpu_count", lambda: cores)
        if env is None:
            monkeypatch.delenv(mps.THREADS_ENV, raising=False)
        else:
            monkeypatch.setenv(mps.THREADS_ENV, env)
        assert mps._max_workers() == expected

    def test_rejects_non_integer(self, monkeypatch):
        monkeypatch.setenv(mps.THREADS_ENV, "many")
        with pytest.raises(ValueError):
            mps._max_workers()
