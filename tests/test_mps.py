import itertools
import math

import numpy as np
import pytest

from qdensity import mps
from qdensity.empirical import SequenceDataset
from qdensity.mps import MatrixProductState, TrainConfig
from qdensity.qprob import Alphabet
from conftest import BITS, dense_sweep_distribution, even_dataset, even_indices

CFG = TrainConfig(chi=2)


def single_sample_dataset(s: str) -> SequenceDataset:
    return SequenceDataset(BITS, len(s), (tuple(s),))


def random_even_subset(n, count, seed):
    return mps.draw_even_subset(n, count, seed)


class TestTrain:
    def test_full_even_set_step_two_density(self):
        rho2 = mps.step_density(even_dataset(5), CFG, 2)
        perm = np.ix_([0, 3, 1, 2], [0, 3, 1, 2])  # to basis order 00, 11, 01, 10
        expected = np.array([[4, 4, 0, 0], [4, 4, 0, 0], [0, 0, 4, 4], [0, 0, 4, 4]]) / 16
        assert np.array_equal(rho2[perm], expected)
        assert np.allclose(np.linalg.eigvalsh(rho2)[-2:], [0.5, 0.5], atol=1e-12)

    def test_ideal_sweep_recovers_uniform_even(self):
        for n in (3, 5, 8):
            model = mps.train(even_dataset(n), CFG)
            table = mps.distribution_table(model)
            evens = even_indices(n)
            assert np.max(np.abs(table[evens] - 1 / 2 ** (n - 1))) < 1e-10
            odds = np.setdiff1d(np.arange(2**n), evens)
            assert np.max(table[odds]) <= 1e-10

    def test_single_sample_point_mass(self):
        model = mps.train(single_sample_dataset("01101"), CFG)
        assert mps.born_probability(model, "01101") == pytest.approx(1.0, abs=1e-12)
        table = mps.distribution_table(model)
        assert np.isclose(table.max(), 1.0, atol=1e-12)
        assert np.isclose(table.sum(), 1.0, atol=1e-12)

    def test_unit_norm(self):
        model = mps.train(random_even_subset(8, 20, seed=1), CFG)
        assert mps.inner_product(model, model) == pytest.approx(1.0, abs=1e-10)

    def test_interior_tensors_are_isometries(self):
        model = mps.train(random_even_subset(9, 30, seed=2), CFG)
        for t in model.tensors[1:-1]:
            mat = t.reshape(-1, t.shape[2])
            assert np.max(np.abs(mat.T @ mat - np.eye(t.shape[2]))) < 1e-10

    def test_odd_strings_unsupported_for_subsets(self):
        for seed in (3, 4):
            model = mps.train(random_even_subset(9, 40, seed=seed), CFG)
            table = mps.distribution_table(model)
            odds = np.setdiff1d(np.arange(2**9), even_indices(9))
            assert np.max(table[odds]) <= 1e-10

    def test_matches_dense_sweep(self):
        for n, count, seed in ((6, 10, 5), (8, 25, 6), (10, 100, 7)):
            ds = random_even_subset(n, count, seed)
            streamed = mps.distribution_table(mps.train(ds, CFG))
            dense = dense_sweep_distribution(ds, chi=2)
            assert np.max(np.abs(streamed - dense)) < 1e-10

    def test_step_density_spectrum_matches_reshaped_map(self):
        # eigenvalues at each cut equal the squared singular values of the
        # corresponding dense reshaped state
        ds = random_even_subset(7, 12, seed=8)
        lookup = {s: i for i, s in enumerate(ds.alphabet)}
        amps = np.zeros(2**7)
        for sample in ds.samples:
            pos = 0
            for tok in sample:
                pos = pos * 2 + lookup[tok]
            amps[pos] += 1
        amps = np.sqrt(amps / ds.n_samples)
        mat = amps.reshape(4, -1)
        sing = np.linalg.svd(mat, compute_uv=False)
        rho2 = mps.step_density(ds, CFG, 2)
        eig = np.sort(np.linalg.eigvalsh(rho2))[::-1]
        assert np.max(np.abs(eig - sing**2)) < 1e-10

    def test_step_densities_match_dense_mirror(self):
        # every interior step density equals the one a dense sweep would see
        from qdensity import linalg

        ds = random_even_subset(7, 18, seed=20)
        n, d, chi = 7, 2, 2
        lookup = {s: i for i, s in enumerate(ds.alphabet)}
        vec = np.zeros(2**n)
        for sample in ds.samples:
            pos = 0
            for tok in sample:
                pos = pos * 2 + lookup[tok]
            vec[pos] += 1
        vec = np.sqrt(vec / ds.n_samples)
        bond = d
        for k in range(2, n):
            mat = vec.reshape(bond * d, -1)
            rho_dense = mat @ mat.T
            rho_dense /= np.trace(rho_dense)
            rho_streamed = mps.step_density(ds, CFG, k)
            assert np.max(np.abs(rho_dense - rho_streamed)) < 1e-12
            iso = linalg.sym_eigen(rho_dense).eigenvectors[:, :chi]
            vec = (iso.T @ mat).reshape(-1)
            bond = chi

    def test_errors(self):
        with pytest.raises(ValueError):
            mps.train(SequenceDataset(BITS, 5, ()), CFG)
        with pytest.raises(ValueError):
            mps.train(single_sample_dataset("01"), CFG)
        with pytest.raises(ValueError):
            mps.train(single_sample_dataset("01100"), TrainConfig(chi=5))
        with pytest.raises(ValueError):
            TrainConfig(chi=0)


class TestBornProbability:
    def test_even_string_probability(self):
        model = mps.train(even_dataset(5), CFG)
        assert mps.born_probability(model, "00110") == pytest.approx(1 / 16, abs=1e-12)

    def test_odd_string_excluded(self):
        model = mps.train(even_dataset(5), CFG)
        assert mps.born_probability(model, "00111") <= 1e-12

    def test_point_mass(self):
        model = mps.train(single_sample_dataset("0110"), CFG)
        assert mps.born_probability(model, "0110") == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        model = mps.train(random_even_subset(6, 12, seed=9), CFG)
        total = sum(
            mps.born_probability(model, "".join(bits))
            for bits in itertools.product("01", repeat=6)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_length_mismatch(self):
        model = mps.train(even_dataset(4), CFG)
        with pytest.raises(ValueError):
            mps.born_probability(model, "01")


class TestParityTarget:
    def test_two_sites(self):
        table = mps.distribution_table(mps.parity_target(2))
        assert np.allclose(table, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_five_sites_uniform(self):
        table = mps.distribution_table(mps.parity_target(5))
        evens = even_indices(5)
        assert np.allclose(table[evens], 1 / 16, atol=1e-15)
        assert table.sum() == pytest.approx(1.0)

    def test_self_inner_product(self):
        tgt = mps.parity_target(9)
        assert mps.inner_product(tgt, tgt) == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_up_to_twelve(self):
        for n in (3, 7, 12):
            table = mps.distribution_table(mps.parity_target(n))
            evens = even_indices(n)
            assert np.max(np.abs(table[evens] - 1 / 2 ** (n - 1))) < 1e-12
            odds = np.setdiff1d(np.arange(2**n), evens)
            assert np.max(table[odds]) < 1e-15


class TestInnerProduct:
    def test_trained_full_set_matches_target(self):
        model = mps.train(even_dataset(5), CFG)
        assert mps.inner_product(model, mps.parity_target(5)) == pytest.approx(1.0, abs=1e-10)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(75)

        def random_model(n):
            tensors = [np.eye(2).reshape(1, 2, 2)]
            tensors += [rng.standard_normal((2, 2, 2)) for _ in range(n - 2)]
            tensors.append(rng.standard_normal((2, 2, 1)))
            return MatrixProductState(n, 2, tuple(tensors))

        def amplitude(m, bits):
            vec = np.ones(1)
            for t, b in zip(m.tensors, bits):
                vec = vec @ t[:, b, :]
            return vec[0]

        for n in (4, 7):
            a, b = random_model(n), random_model(n)
            brute = sum(
                amplitude(a, bits) * amplitude(b, bits)
                for bits in itertools.product((0, 1), repeat=n)
            )
            assert mps.inner_product(a, b) == pytest.approx(brute, abs=1e-10)

    def test_symmetry_and_cauchy_schwarz(self):
        a = mps.train(random_even_subset(6, 8, seed=10), CFG)
        b = mps.parity_target(6)
        ab = mps.inner_product(a, b)
        assert ab == pytest.approx(mps.inner_product(b, a), abs=1e-14)
        assert ab**2 <= mps.inner_product(a, a) * mps.inner_product(b, b) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mps.inner_product(mps.parity_target(4), mps.parity_target(5))

    def test_alphabet_mismatch(self):
        target = mps.parity_target(4)
        letters = MatrixProductState(4, 2, target.tensors, Alphabet(("a", "b")))
        with pytest.raises(ValueError, match="alphabet"):
            mps.inner_product(letters, target)

    def test_equality_is_identity(self):
        a, b = mps.parity_target(4), mps.parity_target(4)
        assert (a == b) is False
        assert (a == a) is True


class TestBhattacharyya:
    def test_identical_distributions(self):
        p = np.full(8, 1 / 8)
        assert mps.bhattacharyya(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_trained_model_close_to_uniform_even(self):
        model = mps.train(even_dataset(6), CFG)
        table = mps.distribution_table(model)
        target = mps.distribution_table(mps.parity_target(6))
        assert mps.bhattacharyya(table, target) < 1e-8

    def test_point_mass_against_uniform_pair(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.0])
        assert mps.bhattacharyya(p, q) == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_disjoint_supports_infinite(self):
        assert mps.bhattacharyya([1.0, 0.0], [0.0, 1.0]) == math.inf

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            mps.bhattacharyya([0.5, 0.4], [0.5, 0.5])


class TestSample:
    def test_point_mass_samples(self):
        model = mps.train(single_sample_dataset("00110"), CFG)
        assert mps.sample(model, 5, seed=11) == ["00110"] * 5

    def test_deterministic_given_seed(self):
        model = mps.train(even_dataset(6), CFG)
        assert mps.sample(model, 50, seed=12) == mps.sample(model, 50, seed=12)
        assert mps.sample(model, 50, seed=12) != mps.sample(model, 50, seed=13)

    def test_trained_model_frequencies(self):
        model = mps.train(even_dataset(5), CFG)
        draws = mps.sample(model, 10_000, seed=14)
        assert all(s.count("1") % 2 == 0 for s in draws)
        counts = {s: 0 for s in ("".join(b) for b in itertools.product("01", repeat=5))}
        for s in draws:
            counts[s] += 1
        sigma = math.sqrt((1 / 16) * (15 / 16) / 10_000)
        for bits, c in counts.items():
            p = 1 / 16 if bits.count("1") % 2 == 0 else 0.0
            assert abs(c / 10_000 - p) < 5 * sigma

    def test_monte_carlo_matches_target(self):
        target = mps.parity_target(8)
        draws = mps.sample(target, 100_000, seed=15)
        empirical = np.zeros(2**8)
        for s in draws:
            empirical[int(s, 2)] += 1
        empirical /= len(draws)
        assert mps.bhattacharyya(empirical, mps.distribution_table(target)) < 0.01


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = mps.train(random_even_subset(7, 15, seed=16), CFG)
        path = tmp_path / "model.json"
        mps.save_model(model, path)
        back = mps.load_model(path)
        assert back.n == model.n
        assert back.bond_dims == model.bond_dims
        for a, b in zip(back.tensors, model.tensors):
            assert np.array_equal(a, b)

    def test_validates_shape_chain(self, tmp_path):
        model = mps.train(even_dataset(4), CFG)
        path = tmp_path / "model.json"
        mps.save_model(model, path)
        import json

        payload = json.loads(path.read_text())
        payload["bond_dims"][1] = 9
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            mps.load_model(path)


class TestDrawEvenSubset:
    def test_all_even_and_distinct(self):
        ds = mps.draw_even_subset(10, 64, seed=17)
        assert ds.n_samples == 64
        assert len(set(ds.samples)) == 64
        for s in ds.samples:
            assert sum(map(int, s)) % 2 == 0

    def test_deterministic(self):
        a = mps.draw_even_subset(8, 30, seed=18)
        b = mps.draw_even_subset(8, 30, seed=18)
        assert a.samples == b.samples

    def test_full_draw_is_whole_even_set(self):
        ds = mps.draw_even_subset(5, 16, seed=19)
        assert set(ds.samples) == set(even_dataset(5).samples)

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            mps.draw_even_subset(5, 17, seed=0)

    def test_length_bound(self):
        assert mps.draw_even_subset(63, 5, seed=0).length == 63
        with pytest.raises(ValueError, match="int64"):
            mps.draw_even_subset(64, 5, seed=0)


class TestRunExperiment:
    def test_full_fraction_is_exact(self):
        rows = mps.run_experiment(8, [1.0], replicas=2, base_seed=3, cfg=CFG)
        assert len(rows) == 2
        for row in rows:
            assert row.n_samples == 128
            assert row.bhattacharyya < 1e-8

    def test_rows_are_deterministic(self):
        a = mps.run_experiment(9, [0.25, 1.0], replicas=2, base_seed=5, cfg=CFG)
        b = mps.run_experiment(9, [0.25, 1.0], replicas=2, base_seed=5, cfg=CFG)
        assert a == b

    def test_replica_seeds_offset_from_base(self):
        rows = mps.run_experiment(8, [0.5], replicas=3, base_seed=100, cfg=CFG)
        assert [r.seed for r in rows] == [100, 101, 102]

    def test_empty_draw_rejected(self):
        with pytest.raises(ValueError):
            mps.run_experiment(8, [0.001], replicas=1, base_seed=0, cfg=CFG)

    def test_small_fraction_beats_random_isometry_baseline(self):
        # oracle baseline: models whose interior tensors are random isometries
        n = 16
        rows = mps.run_experiment(n, [0.025], replicas=3, base_seed=7, cfg=CFG)
        trained_mean = np.mean([r.bhattacharyya for r in rows])
        assert math.isfinite(trained_mean)

        rng = np.random.default_rng(99)
        target = mps.parity_target(n)
        baseline = []
        for _ in range(10):
            tensors = [np.eye(2).reshape(1, 2, 2)]
            for _ in range(n - 2):
                q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
                tensors.append(q.reshape(2, 2, 2))
            last = rng.standard_normal((2, 2, 1))
            tensors.append(last / np.linalg.norm(last))
            model = mps.MatrixProductState(n, 2, tuple(tensors))
            overlap = mps.inner_product(model, target)
            baseline.append(math.inf if overlap <= 0 else -math.log(min(overlap, 1.0)))
        assert trained_mean < np.mean(baseline)
