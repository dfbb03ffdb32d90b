"""The sweep beyond bits: larger alphabets, repeated samples, every chi, and saved alphabets."""

import itertools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from qdensity import empirical, mps
from qdensity.cli import main
from qdensity.empirical import SequenceDataset, parse_dataset
from qdensity.mps import TrainConfig
from qdensity.qprob import Alphabet
from conftest import dense_sweep_distribution, reference_sweep


def repeated_dataset(rng, d: int, n: int) -> SequenceDataset:
    """Samples drawn with replacement from a small pool under non-uniform weights."""
    pool = rng.integers(d, size=(int(rng.integers(2, 12)), n))
    weights = rng.random(len(pool)) ** 2 + 0.05
    picks = rng.choice(len(pool), size=int(rng.integers(len(pool), 4 * len(pool))), p=weights / weights.sum())
    symbols = tuple(chr(ord("a") + i) for i in range(d))
    return SequenceDataset.from_codes(Alphabet(symbols), pool[picks])


def dense_amplitudes(ds: SequenceDataset) -> np.ndarray:
    """Square-root empirical frequencies as a full d**n vector, lexicographic."""
    d, n = len(ds.alphabet), ds.length
    positions = ds.codes @ d ** np.arange(n - 1, -1, -1)
    return np.sqrt(np.bincount(positions, minlength=d**n) / ds.n_samples)


def sweep_cases(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(4, 8))
        chi = int(rng.integers(1, min(3, d * d) + 1))
        yield repeated_dataset(rng, d, n), chi


@pytest.mark.parametrize("ds, chi", list(sweep_cases(30, seed=2024)))
def test_step_densities_and_born_table_match_dense_sweep(ds, chi):
    # every cut's density equals the dense reduced density of the state mapped
    # through the sweep's own isometries, and the whole model equals the
    # dense sweep's
    d, n = len(ds.alphabet), ds.length
    cfg = TrainConfig(chi=chi)
    model = mps.train(ds, cfg)
    vec, bond = dense_amplitudes(ds), d
    for k in range(2, n):
        mat = vec.reshape(bond * d, -1)
        rho_dense = mat @ mat.T
        rho_dense /= np.trace(rho_dense)
        assert np.max(np.abs(mps.step_density(ds, cfg, k) - rho_dense)) < 1e-12
        iso = model.tensors[k - 1].reshape(bond * d, -1)
        vec, bond = (iso.T @ mat).reshape(-1), iso.shape[1]
    table = mps.distribution_table(model)
    assert np.max(np.abs(table - dense_sweep_distribution(ds, chi))) < 1e-10


def word_dataset(rng, d: int, n: int) -> SequenceDataset:
    """Repeated samples over d words, few enough that most first-symbol pairs are absent."""
    ds = repeated_dataset(rng, d, n)
    ds = SequenceDataset.from_codes(Alphabet(tuple(f"w{i}" for i in range(d))), ds.codes)
    assert len(np.unique(ds.codes, axis=0)) < ds.n_samples
    assert len(np.unique(ds.codes[:, :2], axis=0)) < d * d
    return ds


def bit_identity_cases():
    for chi in range(1, 5):
        for n, count, seed in ((6, 9, 1), (10, 200, 2), (12, 1024, 3)):
            yield pytest.param(mps.draw_even_subset(n, count, seed + 10 * chi), chi, id=f"even-n{n}-chi{chi}")
    rng = np.random.default_rng(31)
    for d, chis in ((5, (1, 3, 7)), (30, (2, 31))):
        for chi in chis:
            yield pytest.param(word_dataset(rng, d, int(rng.integers(4, 7))), chi, id=f"words-d{d}-chi{chi}")
    yield pytest.param(SequenceDataset(Alphabet(("a", "b", "c")), 5, [tuple("abcab")]), 2, id="one-sample")
    yield pytest.param(mps.draw_even_subset(3, 3, 4), 3, id="n3-bits")
    yield pytest.param(word_dataset(rng, 5, 3), 4, id="n3-words")


@pytest.mark.parametrize("ds, chi", list(bit_identity_cases()))
def test_sweep_is_bit_identical_to_the_reference(ds, chi):
    # the 1-D bincounts and row takes sum the same addends in the same order as
    # the 2-D bins and fancy gathers they replace, so nothing may differ by a bit
    got = list(mps._sweep(ds, TrainConfig(chi=chi)))
    want = list(reference_sweep(ds, chi))
    assert [k for k, _, _ in got] == [k for k, _, _ in want] == list(range(2, ds.length + 1))
    for (_, rho, payload), (_, rho_ref, payload_ref) in zip(got, want):
        assert (rho is None) == (rho_ref is None)
        assert rho is None or np.array_equal(rho, rho_ref)
        assert np.array_equal(payload, payload_ref)
    model = mps.train(ds, TrainConfig(chi=chi))
    for tensor, (_, _, iso) in zip(model.tensors[1:-1], want):
        assert np.array_equal(tensor.reshape(iso.shape), iso)
    final = want[-1][2]
    assert np.array_equal(model.tensors[-1].reshape(final.shape), final / np.linalg.norm(final))


def rank_cases():
    """Code matrices for the suffix ranks: small alphabets, then wide ones over a
    few dozen rows, where d * size outgrows twice the row count and the sort
    ranks the keys, then codes that use only a sparse subset of their alphabet."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 9))
        pool = rng.integers(d, size=(int(rng.integers(1, 40)), n))
        yield pool[rng.integers(len(pool), size=int(rng.integers(1, 120)))]
    rng = np.random.default_rng(17)
    for _ in range(25):
        d = int(rng.integers(20, 300))
        n = int(rng.integers(1, 7))
        pool = rng.integers(d, size=(int(rng.integers(1, 30)), n))
        yield pool[rng.integers(len(pool), size=int(rng.integers(1, 60)))]
    for _ in range(25):
        used = rng.choice(300, size=int(rng.integers(1, 5)), replace=False)
        n = int(rng.integers(1, 7))
        yield used[rng.integers(len(used), size=(int(rng.integers(1, 60)), n))]


def test_suffix_ranks_match_row_unique():
    for codes in rank_cases():
        n = codes.shape[1]
        ranks = empirical._suffix_ranks(codes)
        assert ranks.shape == (n, len(codes))
        for k in range(n):
            _, inverse = np.unique(codes[:, k:], axis=0, return_inverse=True)
            assert np.array_equal(ranks[k], inverse.reshape(-1))


@pytest.mark.parametrize("extra", [0, 1])
def test_dense_ranks_match_unique_on_both_sides_of_the_table_bound(extra):
    # span 2 * len(keys) takes the presence table, one more takes the sort
    rng = np.random.default_rng(19 + extra)
    for size in (1, 2, 5, 40, 300):
        span = 2 * size + extra
        for keys in (rng.integers(span, size=size), np.full(size, span - 1), np.arange(size) * 2 + extra):
            distinct, inverse = np.unique(keys, return_inverse=True)
            ranks, count = empirical._dense_ranks(keys, span)
            assert np.array_equal(ranks, inverse.reshape(-1))
            assert count == len(distinct)


def test_dense_ranks_never_tabulate_a_wide_span():
    # a presence table over 10**12 keys cannot be allocated, so this returns at once only by sorting
    ranks, count = empirical._dense_ranks(np.array([5, 10**12 - 1, 5]), 10**12)
    assert ranks.tolist() == [0, 1, 0]
    assert count == 2


def test_sample_arrays_are_the_distinct_rows():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ds = repeated_dataset(rng, int(rng.integers(2, 5)), int(rng.integers(3, 8)))
        rows, weights, ranks = mps._sample_arrays(ds)
        distinct, counts = np.unique(ds.codes, axis=0, return_counts=True)
        assert np.array_equal(ds.codes[rows], distinct)
        assert np.array_equal(weights, np.sqrt(counts / ds.n_samples))
        assert np.array_equal(ranks, empirical._suffix_ranks(ds.codes))


class TestAlphabet:
    def test_abc_round_trip_through_the_cli(self, tmp_path):
        rng = np.random.default_rng(9)
        lines = ["".join("abc"[i] for i in row) for row in rng.integers(3, size=(40, 5))]
        data, model_path = tmp_path / "abc.txt", tmp_path / "model.json"
        data.write_text("\n".join(lines) + "\n")
        runner = CliRunner()
        args = ["parity", "train", "--data", str(data), "--chi", "3", "--model", str(model_path)]
        assert runner.invoke(main, args, catch_exceptions=False).exit_code == 0
        model = mps.load_model(model_path)
        symbols = "".join(model.alphabet)
        assert symbols == "".join(dict.fromkeys("".join(lines)))  # first-appearance order
        args = ["parity", "sample", "--model", str(model_path), "--count", "200", "--seed", "3"]
        drawn = runner.invoke(main, args, catch_exceptions=False).output.splitlines()
        assert len(drawn) == 200
        assert all(len(s) == 5 and set(s) <= set("abc") for s in drawn)
        table = mps.distribution_table(model)
        for s in drawn:
            index = int("".join(str(symbols.index(t)) for t in s), 3)
            assert mps.born_probability(model, s) == pytest.approx(table[index], abs=1e-12)
        assert parse_dataset(drawn, model.alphabet).samples == tuple(map(tuple, drawn))

    def test_multi_character_tokens_are_space_joined(self):
        words = Alphabet(("red", "green"))
        rows = [("red", "green", "green"), ("green", "red", "red"), ("red", "red", "green")]
        model = mps.train(SequenceDataset(words, 3, rows), TrainConfig(chi=2))
        drawn = mps.sample(model, 30, seed=4)
        assert parse_dataset(drawn, words).samples == tuple(tuple(s.split(" ")) for s in drawn)
        for s in drawn:
            assert mps.born_probability(model, s) == mps.born_probability(model, s.split(" "))
            assert mps.born_probability(model, s) > 0
        with pytest.raises(ValueError):
            mps.born_probability(model, "red blue red")

    def test_legacy_file_without_alphabet_loads_as_bits(self, tmp_path):
        path = tmp_path / "model.json"
        mps.save_model(mps.parity_target(5), path)
        payload = json.loads(path.read_text())
        del payload["alphabet"]
        path.write_text(json.dumps(payload))
        model = mps.load_model(path)
        assert model.alphabet.symbols == ("0", "1")
        assert mps.born_probability(model, "01100") == pytest.approx(1 / 16, abs=1e-15)
        assert mps.born_probability(model, [0, 1, 1, 0, 0]) == mps.born_probability(model, "0 1 1 0 0")

    def test_default_alphabet_is_the_index_strings(self):
        trained = mps.train(SequenceDataset(Alphabet(("x", "y", "z")), 3, [("x", "y", "z")]), TrainConfig(chi=1))
        model = mps.MatrixProductState(3, 3, trained.tensors)
        assert model.alphabet.symbols == ("0", "1", "2")
        assert mps.sample(model, 2, seed=0) == ["012", "012"]

    def test_alphabet_must_name_every_state_with_a_string(self, tmp_path):
        tensors = mps.parity_target(2).tensors
        with pytest.raises(ValueError):
            mps.MatrixProductState(2, 2, tensors, Alphabet(("a", "b", "c")))
        path = tmp_path / "model.json"
        mps.save_model(mps.parity_target(3), path)
        payload = json.loads(path.read_text())
        payload["alphabet"] = [0, 1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            mps.load_model(path)


def test_overlap_distance():
    assert mps.overlap_distance(0.0) == math.inf
    assert mps.overlap_distance(-0.25) == math.inf
    assert mps.overlap_distance(1.5) == 0.0
    assert mps.overlap_distance(0.5) == pytest.approx(math.log(2), abs=1e-15)
    p = np.array([0.5, 0.25, 0.25, 0.0])
    q = np.array([0.25, 0.25, 0.25, 0.25])
    assert mps.bhattacharyya(p, q) == mps.overlap_distance(float(np.sqrt(p * q).sum()))


def test_eval_reports_the_overlap_distance(tmp_path):
    path = tmp_path / "model.json"
    model = mps.train(mps.draw_even_subset(8, 20, seed=5), TrainConfig(chi=2))
    mps.save_model(model, path)
    out = CliRunner().invoke(main, ["parity", "eval", "--model", str(path)], catch_exceptions=False)
    payload = json.loads(out.output)
    overlap = mps.inner_product(model, mps.parity_target(8))
    assert payload["inner_product"] == overlap
    assert payload["bhattacharyya"] == mps.overlap_distance(overlap)


def test_complete_ternary_set_is_exact():
    # a complete ternary dataset of distinct strings is reproduced exactly at chi = d**2
    symbols = Alphabet(("a", "b", "c"))
    rows = list(itertools.product(symbols.symbols, repeat=4))
    model = mps.train(SequenceDataset(symbols, 4, rows), TrainConfig(chi=9))
    assert np.max(np.abs(mps.distribution_table(model) - 1 / 81)) < 1e-12


def ledger_cases():
    """Seeded bit and word datasets, d 2-3 and n 4-8, under every chi from 1 to d**2.

    exact marks the cases whose every cut has rank at most chi: the complete
    even set at chi >= 2, whose cuts have rank 2, and n = 4 at chi = d**2.
    """
    rng = np.random.default_rng(1515)
    for n in range(4, 9):
        bits = rng.integers(2, size=(int(rng.integers(5, 40)), n))
        sets = {
            "even": mps.draw_even_subset(n, 2 ** (n - 3) + 1, n),
            "even-all": mps.draw_even_subset(n, 2 ** (n - 1), n),
            "bits": SequenceDataset.from_codes(Alphabet(("0", "1")), bits),
            "words2": SequenceDataset.from_codes(Alphabet(("yes", "no")), repeated_dataset(rng, 2, n).codes),
            "words3": SequenceDataset.from_codes(Alphabet(("red", "green", "blue")), repeated_dataset(rng, 3, n).codes),
        }
        for name, ds in sets.items():
            d = len(ds.alphabet)
            for chi in range(1, d * d + 1):
                exact = name == "even-all" and chi >= 2 or n == 4 and chi == d * d
                yield pytest.param(ds, chi, exact, id=f"{name}-n{n}-chi{chi}")


def signed_amplitudes(m) -> np.ndarray:
    """The model's amplitudes of all d**n strings, lexicographic, signs kept."""
    amps = m.tensors[0][0]
    for t in m.tensors[1:]:
        amps = np.tensordot(amps, t, axes=([-1], [0]))
    return amps.reshape(-1)


@pytest.mark.parametrize("ds, chi, exact", list(ledger_cases()))
def test_truncation_ledger(ds, chi, exact):
    # psi_T, the square roots of the training frequencies, is projected through
    # the trained model's own isometries; the weight each cut discards is the
    # sum of its unnormalized density's eigenvalues below the top chi, and all
    # of them together are what the model loses: <model|psi_T>**2 = 1 - sum
    model = mps.train(ds, TrainConfig(chi=chi))
    d = len(ds.alphabet)
    root = dense_amplitudes(ds)
    vec, discarded, rank = root.reshape(d, -1), 0.0, 0  # the first tensor is the identity
    for t in model.tensors[1:-1]:
        left, _, right = t.shape
        mat = vec.reshape(left * d, -1)
        spectrum = np.linalg.eigvalsh(mat @ mat.T)[::-1]
        discarded += spectrum[right:].sum()
        rank = max(rank, int((spectrum > 1e-12).sum()))
        vec = t.reshape(left * d, right).T @ mat
    fidelity = (signed_amplitudes(model) @ root) ** 2
    assert abs(fidelity - (1.0 - discarded)) <= 1e-12
    if exact:
        assert rank <= chi and abs(fidelity - 1.0) <= 1e-12
