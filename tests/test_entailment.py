import numpy as np
import pytest

from qdensity import qprob
from qdensity.empirical import empirical_distribution, parse_dataset
from qdensity.entailment import (
    CorpusState,
    PatternUnobservedError,
    decompose,
    difference_min_eigenvalue,
    loewner_geq,
    pattern_density,
)

from conftest import FIVE_PHRASE_LINES, random_dataset


@pytest.fixture(scope="module")
def corpus():
    return CorpusState.from_dataset(parse_dataset(FIVE_PHRASE_LINES))


class TestPatternDensity:
    def test_orange_normalized(self, corpus):
        dens = pattern_density(corpus, {3: "orange"}, normalized=True)
        assert np.allclose(dens.matrix, np.array([[2, 1], [1, 2]]) / 4, atol=1e-12)
        assert dens.weight == pytest.approx(4 / 5)

    def test_full_prefix_normalized(self, corpus):
        dens = pattern_density(
            corpus, {1: "small", 2: "ripe", 3: "orange"}, normalized=True
        )
        assert np.allclose(dens.matrix, np.array([[1, 1], [1, 1]]) / 2, atol=1e-12)
        assert dens.weight == pytest.approx(2 / 5)

    def test_ripe_orange_unnormalized(self, corpus):
        dens = pattern_density(corpus, {2: "ripe", 3: "orange"}, normalized=False)
        assert np.allclose(dens.matrix, np.array([[1, 1], [1, 2]]) / 5, atol=1e-12)
        assert np.trace(dens.matrix) == pytest.approx(dens.weight)

    def test_unobserved_pattern(self, corpus):
        with pytest.raises(PatternUnobservedError):
            pattern_density(corpus, {1: "large", 2: "rotten", 3: "orange"})

    def test_position_out_of_range(self, corpus):
        with pytest.raises(ValueError):
            pattern_density(corpus, {4: "fruit"})


class TestDecompose:
    def test_orange_weights(self, corpus):
        terms = decompose(corpus, {3: "orange"})
        weights = [w for _, w, _ in terms]
        assert weights == pytest.approx([1 / 2, 1 / 4, 1 / 4])
        prefixes = [p for p, _, _ in terms]
        assert prefixes[0] == ("small", "ripe", "orange")

    def test_full_prefix_single_term(self, corpus):
        terms = decompose(corpus, {1: "large", 2: "rotten", 3: "green"})
        assert len(terms) == 1
        assert terms[0][1] == pytest.approx(1.0)

    def test_weighted_sum_reproduces_density(self, corpus):
        target = pattern_density(corpus, {3: "orange"}, normalized=True)
        acc = np.zeros_like(target.matrix)
        for _, w, dens in decompose(corpus, {3: "orange"}):
            acc += w * dens.matrix
        assert np.max(np.abs(acc - target.matrix)) < 1e-12

    def test_weighted_sum_random_corpus(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            ds = random_dataset(rng, 3, 4, int(rng.integers(4, 30)))
            cs = CorpusState.from_dataset(ds)
            pos = int(rng.integers(1, 4))
            token = cs.prefixes[0][pos - 1]
            pattern = {pos: token}
            target = pattern_density(cs, pattern, normalized=True)
            terms = decompose(cs, pattern)
            assert sum(w for _, w, _ in terms) == pytest.approx(1.0, abs=1e-12)
            acc = sum(w * d.matrix for _, w, d in terms)
            assert np.max(np.abs(acc - target.matrix)) < 1e-12

    def test_parts_equal_full_prefix_densities(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            cs = CorpusState.from_dataset(random_dataset(rng, 3, 4, int(rng.integers(4, 40))))
            pos = int(rng.integers(1, 4))
            for prefix, _, dens in decompose(cs, {pos: cs.prefixes[0][pos - 1]}):
                want = pattern_density(cs, dict(enumerate(prefix, 1)), normalized=True)
                assert dens.pattern == want.pattern
                assert dens.weight == want.weight
                assert dens.normalized
                assert dens.matrix.tobytes() == want.matrix.tobytes()


class TestLoewnerOrder:
    def test_chain(self, corpus):
        orange = pattern_density(corpus, {3: "orange"})
        ripe_orange = pattern_density(corpus, {2: "ripe", 3: "orange"})
        small_ripe_orange = pattern_density(
            corpus, {1: "small", 2: "ripe", 3: "orange"}
        )
        assert loewner_geq(orange, ripe_orange)
        assert loewner_geq(ripe_orange, small_ripe_orange)

    def test_chain_reversed_fails(self, corpus):
        orange = pattern_density(corpus, {3: "orange"})
        ripe_orange = pattern_density(corpus, {2: "ripe", 3: "orange"})
        assert not loewner_geq(ripe_orange, orange)
        assert difference_min_eigenvalue(ripe_orange, orange) < -1e-3

    def test_scaled_refinement(self, corpus):
        orange = pattern_density(corpus, {3: "orange"}, normalized=True)
        x1 = pattern_density(corpus, {1: "small", 2: "ripe", 3: "orange"}, normalized=True)
        assert loewner_geq(orange, x1, scale=0.5)

    def test_self_comparison(self, corpus):
        orange = pattern_density(corpus, {3: "orange"})
        assert loewner_geq(orange, orange)
        assert difference_min_eigenvalue(orange, orange) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("scale", [-0.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("compare", [loewner_geq, difference_min_eigenvalue])
    def test_bad_scale_rejected(self, corpus, compare, scale):
        orange = pattern_density(corpus, {3: "orange"})
        with pytest.raises(ValueError, match="scale"):
            compare(orange, orange, scale)

    def test_basis_mismatch(self, corpus):
        other = CorpusState.from_dataset(parse_dataset(["a b c", "a b d"]))
        with pytest.raises(ValueError):
            loewner_geq(
                pattern_density(corpus, {3: "orange"}),
                pattern_density(other, {1: "a"}),
            )


class TestInvariants:
    def test_kraus_sum_equals_suffix_density(self, corpus):
        # unnormalized full-prefix densities add up to rho_Y of the corpus state
        acc = np.zeros((2, 2))
        for prefix in corpus.prefixes:
            full = dict(enumerate(prefix, start=1))
            acc += pattern_density(corpus, full, normalized=False).matrix
        ds = parse_dataset(FIVE_PHRASE_LINES)
        psi = qprob.build_state(empirical_distribution(ds, cut=3))
        rho_y = qprob.kraus_reduced(psi, "Y").matrix
        assert np.max(np.abs(acc - rho_y)) < 1e-12

    def test_refinement_difference_psd_random(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            ds = random_dataset(rng, 2, 4, int(rng.integers(5, 25)))
            cs = CorpusState.from_dataset(ds)
            base_prefix = cs.prefixes[int(rng.integers(len(cs.prefixes)))]
            coarse = {2: base_prefix[1]}
            fine = {2: base_prefix[1], 3: base_prefix[2]}
            a = pattern_density(cs, coarse)
            b = pattern_density(cs, fine)
            assert loewner_geq(a, b)

    def test_decompose_weights_are_conditional_counts(self, corpus):
        # 4 prefix tokens end in orange; small-ripe-orange appears twice
        terms = decompose(corpus, {3: "orange"})
        lookup = {p: w for p, w, _ in terms}
        assert lookup[("small", "ripe", "orange")] == pytest.approx(2 / 4)
        assert lookup[("large", "ripe", "orange")] == pytest.approx(1 / 4)
