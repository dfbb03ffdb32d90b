import dataclasses
import math
import pickle

import numpy as np
import pytest

from qdensity import entailment, mps, qprob
from qdensity.empirical import EmpiricalGraph, SequenceDataset
from qdensity.fca import Relation
from qdensity.qprob import Alphabet, DensityMatrix, JointDistribution, PureState, SchmidtData

from conftest import random_joint, three_phrase_distribution

ROOT3 = math.sqrt(3)
AB, U = Alphabet(("a", "b")), Alphabet(("u",))


def point_mass(n=2, m=2):
    table = np.zeros((n, m))
    table[0, 0] = 1.0
    return JointDistribution(
        Alphabet(tuple(f"x{i}" for i in range(n))),
        Alphabet(tuple(f"y{i}" for i in range(m))),
        table,
    )


def _dataset():
    return SequenceDataset(AB, 2, [("a", "b"), ("b", "a"), ("a", "a")])


def _corpus():
    return entailment.CorpusState.from_dataset(_dataset())


# each makes one of the records that hold arrays, equal in content on every call
ARRAY_RECORDS = {
    "JointDistribution": lambda: point_mass(),
    "PureState": lambda: qprob.build_state(point_mass()),
    "DensityMatrix": lambda: qprob.reduced_via_gram(qprob.build_state(point_mass()), "X"),
    "SchmidtData": lambda: qprob.schmidt(qprob.build_state(point_mass())),
    "Relation": lambda: Relation.from_pairs([("a", "x"), ("b", "y")]),
    "CorpusState": _corpus,
    "EntailmentDensity": lambda: entailment.pattern_density(_corpus(), {1: "a"}),
    "SequenceDataset": _dataset,
    "EmpiricalGraph": lambda: EmpiricalGraph.from_dataset(_dataset(), 1),
    "MatrixProductState": lambda: mps.parity_target(5),
}


def held_arrays(value) -> list[np.ndarray]:
    """Every array a value holds: itself, in its tuples, and in the fields of the records it holds."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in held_arrays(v)]
    if dataclasses.is_dataclass(value):
        return [a for v in vars(value).values() for a in held_arrays(v)]
    return []


def plain_distribution(probs):
    """A 1-factor distribution as an (n x 1) joint table."""
    table = np.asarray(probs, dtype=float).reshape(-1, 1)
    return JointDistribution(
        Alphabet(tuple(f"s{i}" for i in range(len(probs)))), Alphabet(("_",)), table
    )


class TestTypes:
    @pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
    def test_records_holding_arrays_compare_and_hash_by_identity(self, name):
        first, second = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
        assert type(first).__name__ == name
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert {first, second, first} == {second, first} and len({first, second}) == 2

    @pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
    def test_records_stay_read_only_through_pickle(self, name):
        record = ARRAY_RECORDS[name]()
        back = pickle.loads(pickle.dumps(record))
        arrays, restored = held_arrays(record), held_arrays(back)
        assert arrays and len(restored) == len(arrays)
        for a, b in zip(arrays, restored):
            assert not b.flags.writeable
            assert b.dtype == a.dtype and b.flags.f_contiguous == a.flags.f_contiguous and np.array_equal(a, b)

    def test_alphabet_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_alphabet_positions(self):
        a = Alphabet(["u", "v", "w"])
        assert a.positions == {"u": 0, "v": 1, "w": 2}
        assert [a.index(s) for s in ("w", "u", "v")] == [2, 0, 1]
        for unknown in ("x", "", 0):
            with pytest.raises(ValueError, match="not in the alphabet"):
                a.index(unknown)

    def test_encode_codes_in_order_as_int64(self):
        a = Alphabet(("u", "v", "w"))
        codes = a.encode(iter(["w", "u", "w", "v"]))
        assert codes.dtype == np.int64 and codes.tolist() == [2, 0, 2, 1]
        empty = a.encode([])
        assert empty.dtype == np.int64 and empty.shape == (0,)

    def test_encode_names_the_first_foreign_symbol(self):
        with pytest.raises(ValueError, match=r"^'c' is not in the alphabet$"):
            Alphabet(("a", "b")).encode(["a", "c", "d"])

    @pytest.mark.parametrize(
        "cls, what",
        [
            (JointDistribution, "probability table"),
            (PureState, "amplitude table"),
            (Relation, "incidence"),
        ],
    )
    def test_table_shape_message(self, cls, what):
        with pytest.raises(ValueError) as err:
            cls(Alphabet(("a", "b")), Alphabet(("u",)), np.array([[1.0, 0.0]]))
        assert str(err.value) == f"{what} shape (1, 2) does not match alphabets (2, 1)"

    def test_first_appearance_codes_each_token(self):
        alphabet, codes = Alphabet.first_appearance(iter(["v", "u", "v", "w", "u"]))
        assert alphabet == Alphabet(("v", "u", "w"))
        assert codes.dtype == np.int32 and codes.tolist() == [0, 1, 0, 2, 1]
        with pytest.raises(ValueError, match="nonempty"):
            Alphabet.first_appearance(())

    def test_alphabet_positions_take_no_part_in_equality(self):
        a, b = Alphabet(("u", "v")), Alphabet(["u", "v"])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Alphabet(("v", "u"))
        assert repr(a) == "Alphabet(symbols=('u', 'v'))"

    def test_pure_state_rejects_mismatched_amplitude_table(self):
        with pytest.raises(ValueError, match="does not match alphabets"):
            PureState(Alphabet(("a", "b")), Alphabet(("u",)), np.array([[1.0, 0.0]]))

    def test_joint_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution(Alphabet(("a",)), Alphabet(("u", "v")), [[1.1, -0.1]])

    def test_joint_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            JointDistribution(Alphabet(("a",)), Alphabet(("u", "v")), [[0.5, 0.4]])

    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValueError):
            PureState(Alphabet(("a", "b")), Alphabet(("u",)), [[0.5], [0.5]])

    def test_joint_rejects_oversized_product(self):
        table = np.zeros((1025, 1024))
        table[0, 0] = 1.0
        with pytest.raises(ValueError):
            JointDistribution(
                Alphabet(tuple(f"x{i}" for i in range(1025))),
                Alphabet(tuple(f"y{i}" for i in range(1024))),
                table,
            )

    def test_density_requires_unit_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(Alphabet(("a", "b")), np.eye(2))

    def test_density_from_matrix_rejects_indefinite(self):
        mat = np.array([[0.5, 0.7], [0.7, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(Alphabet(("a", "b")), mat)

    def test_density_from_matrix_gives_a_verdict_within_the_symmetry_tolerance(self):
        # asymmetric by 5e-11: above linalg's default 1e-12, within DENSITY_TOL
        dm = DensityMatrix.from_matrix(AB, [[0.5, 0.1], [0.1 + 5e-11, 0.5]])
        assert dm.matrix.tolist() == [[0.5, 0.1], [0.1 + 5e-11, 0.5]]
        with pytest.raises(ValueError, match="density matrix must be positive semidefinite"):
            DensityMatrix.from_matrix(AB, [[0.5, 0.7], [0.7 + 5e-11, 0.5]])

    @pytest.mark.parametrize(
        "build, nan_message, total_message",
        [
            (
                lambda v: JointDistribution(AB, U, np.reshape(v, (2, 1))),
                "probabilities sum to nan, expected 1",
                "probabilities sum to 0.75, expected 1",
            ),
            (
                lambda v: PureState(AB, U, np.reshape(v, (2, 1))),
                "squared amplitudes sum to nan, expected 1",
                "squared amplitudes sum to 0.3125, expected 1",
            ),
            (
                lambda v: DensityMatrix(AB, np.diag(v)),
                "matrix entries must be finite",
                "density matrix has trace 0.75, expected 1",
            ),
            (
                lambda v: SchmidtData(np.array(v), np.eye(2), np.eye(2), AB, AB),
                "squared Schmidt coefficients sum to nan, expected 1",
                "squared Schmidt coefficients sum to 0.3125, expected 1",
            ),
            (
                lambda v: mps.bhattacharyya(v, [0.5, 0.5]),
                "p sums to nan, expected 1",
                "p sums to 0.75, expected 1",
            ),
        ],
        ids=["JointDistribution", "PureState", "DensityMatrix", "SchmidtData", "bhattacharyya"],
    )
    def test_unit_totals_refuse_nan(self, build, nan_message, total_message):
        # a NaN total is never within tolerance of 1; 0.5 and 0.25 square exactly
        for values, message in (([math.nan, 1.0], nan_message), ([0.5, 0.25], total_message)):
            with pytest.raises(ValueError) as err:
                build(values)
            assert str(err.value) == message

    def test_values_are_immutable(self):
        pi = three_phrase_distribution()
        psi = qprob.build_state(pi)
        rho = qprob.reduced_via_gram(psi, "X")
        for arr in (pi.probs, psi.amplitudes, rho.matrix):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5


class TestCoefficientMatrix:
    def test_three_pair_state(self):
        psi = qprob.build_state(three_phrase_distribution())
        assert np.allclose(psi.matrix(), np.array([[1, 1, 0], [0, 0, 1]]) / ROOT3)

    def test_one_suffix_state_gives_one_row(self):
        psi = qprob.build_state(plain_distribution([0.25, 0.75]))
        assert np.array_equal(psi.matrix(), [[0.5, math.sqrt(0.75)]])

    def test_contiguous_and_flattens_to_the_vector(self):
        psi = qprob.build_state(random_joint(np.random.default_rng(43), 3, 4))
        m = psi.matrix()
        assert m.shape == (4, 3) and m.flags.c_contiguous
        assert np.array_equal(m.reshape(-1), psi.vector)


class TestBuildState:
    def test_three_phrase_vector(self):
        psi = qprob.build_state(three_phrase_distribution())
        assert np.allclose(psi.vector, np.array([1, 1, 0, 0, 0, 1]) / ROOT3, atol=1e-15)

    def test_point_mass_is_one_hot(self):
        psi = qprob.build_state(point_mass())
        assert sorted(psi.vector.tolist()) == [0, 0, 0, 1]

    def test_uniform_two_by_two(self):
        pi = JointDistribution(Alphabet(("a", "b")), Alphabet(("u", "v")), np.full((2, 2), 0.25))
        psi = qprob.build_state(pi)
        assert np.allclose(psi.amplitudes, 0.5)


class TestDensities:
    def test_density_diag_margin_example(self):
        rho = qprob.density_diag(plain_distribution([3 / 5, 1 / 5, 1 / 5]))
        assert np.allclose(rho.matrix, np.diag([3 / 5, 1 / 5, 1 / 5]))

    def test_density_diag_point_mass(self):
        rho = qprob.density_diag(point_mass())
        assert np.count_nonzero(rho.matrix) == 1

    def test_density_diag_uniform(self):
        pi = JointDistribution(Alphabet(("a", "b")), Alphabet(("u", "v")), np.full((2, 2), 0.25))
        assert np.allclose(qprob.density_diag(pi).matrix, np.eye(4) / 4)

    def test_projection_three_phrase(self):
        psi = qprob.build_state(three_phrase_distribution())
        rho = qprob.density_projection(psi)
        expected = np.zeros((6, 6))
        for i in (0, 1, 5):
            for j in (0, 1, 5):
                expected[i, j] = 1 / 3
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_projection_margin_example(self):
        psi = qprob.build_state(plain_distribution([3 / 5, 1 / 5, 1 / 5]))
        rho = qprob.density_projection(psi)
        r3 = math.sqrt(3) / 5
        expected = np.array([[3 / 5, r3, r3], [r3, 1 / 5, 1 / 5], [r3, 1 / 5, 1 / 5]])
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_projection_is_rank_one(self):
        rng = np.random.default_rng(7)
        rho = qprob.density_projection(qprob.build_state(random_joint(rng, 3, 4)))
        eigvals = np.linalg.eigvalsh(rho.matrix)
        assert np.isclose(eigvals[-1], 1.0, atol=1e-12)
        assert np.all(np.abs(eigvals[:-1]) < 1e-12)


class TestReductions:
    def test_partial_trace_three_phrase(self):
        rho = qprob.density_projection(qprob.build_state(three_phrase_distribution()))
        rx = qprob.partial_trace(rho, "X")
        ry = qprob.partial_trace(rho, "Y")
        assert np.allclose(rx.matrix, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3, atol=1e-15)
        assert np.allclose(ry.matrix, np.diag([2, 1]) / 3, atol=1e-15)

    def test_partial_trace_of_product_recovers_factor(self):
        rng = np.random.default_rng(13)
        pa = rng.random(3)
        pa /= pa.sum()
        pb = rng.random(4)
        pb /= pb.sum()
        pi = JointDistribution(
            Alphabet(("a", "b", "c")), Alphabet(("u", "v", "w", "z")), np.outer(pa, pb)
        )
        rho = qprob.density_projection(qprob.build_state(pi))
        sigma = qprob.partial_trace(rho, "X").matrix
        expected = np.outer(np.sqrt(pa), np.sqrt(pa))
        assert np.allclose(sigma, expected, atol=1e-12)

    def test_partial_trace_requires_product_basis(self):
        rho = DensityMatrix(Alphabet(("a", "b")), np.eye(2) / 2)
        with pytest.raises(ValueError):
            qprob.partial_trace(rho, "X")

    def test_gram_three_phrase(self):
        psi = qprob.build_state(three_phrase_distribution())
        rx = qprob.reduced_via_gram(psi, "X")
        ry = qprob.reduced_via_gram(psi, "Y")
        assert np.allclose(rx.matrix, np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3, atol=1e-15)
        assert np.allclose(ry.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-15)

    def test_product_state_reductions_are_rank_one(self):
        pa = np.array([0.5, 0.5])
        pb = np.array([0.25, 0.25, 0.5])
        pi = JointDistribution(Alphabet(("a", "b")), Alphabet(("u", "v", "w")), np.outer(pa, pb))
        psi = qprob.build_state(pi)
        for keep in "XY":
            w = np.linalg.eigvalsh(qprob.reduced_via_gram(psi, keep).matrix)
            assert np.isclose(w[-1], 1.0, atol=1e-12)

    def test_kraus_five_phrase_corpus(self):
        # five length-four phrases cut before the last word
        table = np.array(
            [
                [1 / 5, 1 / 5],  # small ripe orange: fruit and vegetable
                [0.0, 1 / 5],  # large ripe orange
                [1 / 5, 0.0],  # small rotten orange
                [0.0, 1 / 5],  # large rotten green
            ]
        )
        pi = JointDistribution(
            Alphabet(("sro", "lro", "sno", "lng")), Alphabet(("fruit", "vegetable")), table
        )
        ry = qprob.kraus_reduced(qprob.build_state(pi), "Y")
        assert np.allclose(ry.matrix, np.array([[2, 1], [1, 3]]) / 5, atol=1e-15)

    def test_kraus_one_hot(self):
        psi = qprob.build_state(point_mass(2, 3))
        rho = qprob.kraus_reduced(psi, "Y")
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_three_way_agreement_random(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            pi = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            psi = qprob.build_state(pi)
            rho = qprob.density_projection(psi)
            for keep in "XY":
                a = qprob.partial_trace(rho, keep).matrix
                b = qprob.reduced_via_gram(psi, keep).matrix
                c = qprob.kraus_reduced(psi, keep).matrix
                assert np.max(np.abs(a - b)) < 1e-12
                assert np.max(np.abs(a - c)) < 1e-12

    def test_partial_trace_preserves_trace_symmetry_psd(self):
        from qdensity import linalg

        rng = np.random.default_rng(45)
        for _ in range(10):
            pi = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            rho = qprob.density_projection(qprob.build_state(pi))
            for keep in "XY":
                reduced = qprob.partial_trace(rho, keep).matrix
                assert abs(np.trace(reduced) - np.trace(rho.matrix)) < 1e-12
                assert np.max(np.abs(reduced - reduced.T)) < 1e-14
                assert linalg.is_psd(reduced, tol=1e-10)

    def test_off_diagonal_formula(self):
        rng = np.random.default_rng(21)
        pi = random_joint(rng, 4, 5)
        rx = qprob.reduced_via_gram(qprob.build_state(pi), "X").matrix
        p = pi.probs
        for i in range(4):
            for j in range(4):
                expected = sum(math.sqrt(p[i, a] * p[j, a]) for a in range(5))
                assert abs(rx[i, j] - expected) < 1e-12


class TestBornAndMarginals:
    def test_born_three_phrase(self):
        psi = qprob.build_state(three_phrase_distribution())
        assert np.allclose(qprob.born_distribution(qprob.reduced_via_gram(psi, "X")), [1 / 3] * 3)
        assert np.allclose(qprob.born_distribution(qprob.reduced_via_gram(psi, "Y")), [2 / 3, 1 / 3])

    def test_born_of_diag_recovers_distribution(self):
        pi = three_phrase_distribution()
        born = qprob.born_distribution(qprob.density_diag(pi))
        assert np.allclose(born, pi.probs.T.reshape(-1))

    def test_marginalize_example(self):
        pi = three_phrase_distribution()
        assert np.allclose(qprob.marginalize(pi, "X"), [1 / 3] * 3)
        assert np.allclose(qprob.marginalize(pi, "Y"), [2 / 3, 1 / 3])

    def test_marginal_of_product_recovers_factors(self):
        pa = np.array([0.2, 0.8])
        pb = np.array([0.5, 0.3, 0.2])
        pi = JointDistribution(Alphabet(("a", "b")), Alphabet(("u", "v", "w")), np.outer(pa, pb))
        assert np.allclose(qprob.marginalize(pi, "X"), pa)
        assert np.allclose(qprob.marginalize(pi, "Y"), pb)

    def test_born_marginal_consistency_random(self):
        # diagonal of each reduced density equals the classical marginal
        rng = np.random.default_rng(27)
        pi = random_joint(rng, 4, 5)
        rho = qprob.density_projection(qprob.build_state(pi))
        for keep in "XY":
            diag = qprob.born_distribution(qprob.partial_trace(rho, keep))
            assert np.max(np.abs(diag - qprob.marginalize(pi, keep))) < 1e-12


class TestSchmidt:
    def test_three_phrase_coefficients(self):
        sd = qprob.schmidt(qprob.build_state(three_phrase_distribution()))
        assert np.allclose(sd.coefficients, [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-12)

    def test_product_state_is_rank_one(self):
        pa = np.array([0.3, 0.7])
        pb = np.array([0.6, 0.4])
        pi = JointDistribution(Alphabet(("a", "b")), Alphabet(("u", "v")), np.outer(pa, pb))
        sd = qprob.schmidt(qprob.build_state(pi))
        assert np.isclose(sd.coefficients[0], 1.0, atol=1e-12)

    def test_non_product_has_rank_at_least_two(self):
        rng = np.random.default_rng(81)
        found = 0
        while found < 10:
            pi = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            product = np.outer(qprob.marginalize(pi, "X"), qprob.marginalize(pi, "Y"))
            if np.max(np.abs(pi.probs - product)) < 1e-9:
                continue  # happened to be (near) a product table
            sd = qprob.schmidt(qprob.build_state(pi))
            assert sd.coefficients[1] > 1e-9
            found += 1

    def test_random_state_reassembly(self):
        rng = np.random.default_rng(33)
        pi = random_joint(rng, 3, 4)
        psi = qprob.build_state(pi)
        sd = qprob.schmidt(psi)
        rebuilt = sum(
            sd.coefficients[i] * np.outer(sd.y_vectors[:, i], sd.x_vectors[:, i])
            for i in range(len(sd.coefficients))
        )
        assert np.max(np.abs(rebuilt - psi.matrix())) < 1e-10

    def test_reconstruct_round_trip_three_phrase(self):
        psi = qprob.build_state(three_phrase_distribution())
        back = qprob.reconstruct_state(qprob.schmidt(psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10

    def test_reconstruct_one_hot(self):
        sd = qprob.SchmidtData(
            coefficients=np.array([1.0]),
            x_vectors=np.array([[1.0], [0.0]]),
            y_vectors=np.array([[0.0], [1.0]]),
            x_alphabet=Alphabet(("a", "b")),
            y_alphabet=Alphabet(("u", "v")),
        )
        psi = qprob.reconstruct_state(sd)
        assert psi.amplitudes[0, 1] == 1.0

    def test_reconstruct_random_round_trip(self):
        rng = np.random.default_rng(35)
        pi = random_joint(rng, 4, 4)
        psi = qprob.build_state(pi)
        back = qprob.reconstruct_state(qprob.schmidt(psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10

    def test_shared_spectrum_random(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            pi = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            psi = qprob.build_state(pi)
            wx = np.linalg.eigvalsh(qprob.reduced_via_gram(psi, "X").matrix)[::-1]
            wy = np.linalg.eigvalsh(qprob.reduced_via_gram(psi, "Y").matrix)[::-1]
            k = min(len(wx), len(wy))
            assert np.max(np.abs(wx[:k] - wy[:k])) < 1e-10
            assert np.all(np.abs(wx[k:]) < 1e-10)
            assert np.all(np.abs(wy[k:]) < 1e-10)


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        rho = qprob.density_projection(qprob.build_state(three_phrase_distribution()))
        assert qprob.von_neumann_entropy(rho) == 0.0

    def test_uniform_two_point(self):
        rho = DensityMatrix(Alphabet(("a", "b")), np.diag([0.5, 0.5]))
        assert np.isclose(qprob.von_neumann_entropy(rho), math.log(2), atol=1e-12)

    def test_three_phrase_reduced_entropy(self):
        # eigenvalues 2/3 and 1/3
        expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        rx = qprob.reduced_via_gram(qprob.build_state(three_phrase_distribution()), "X")
        assert np.isclose(qprob.von_neumann_entropy(rx), expected, atol=1e-12)

    def test_entanglement_product_zero(self):
        pa = np.array([0.3, 0.7])
        pb = np.array([0.6, 0.4])
        pi = JointDistribution(Alphabet(("a", "b")), Alphabet(("u", "v")), np.outer(pa, pb))
        assert qprob.entanglement_entropy(qprob.build_state(pi)) < 1e-12

    def test_entanglement_three_phrase(self):
        expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        psi = qprob.build_state(three_phrase_distribution())
        assert np.isclose(qprob.entanglement_entropy(psi), expected, atol=1e-12)

    def test_entanglement_even_parity_split(self):
        # uniform even-parity strings of length 5 cut after two bits:
        # common reduced spectrum (1/2, 1/2)
        import itertools

        prefixes = tuple("".join(b) for b in itertools.product("01", repeat=2))
        suffixes = tuple("".join(b) for b in itertools.product("01", repeat=3))
        table = np.zeros((4, 8))
        for i, p in enumerate(prefixes):
            for j, s in enumerate(suffixes):
                if (p + s).count("1") % 2 == 0:
                    table[i, j] = 1 / 16
        pi = JointDistribution(Alphabet(prefixes), Alphabet(suffixes), table)
        assert np.isclose(
            qprob.entanglement_entropy(qprob.build_state(pi)), math.log(2), atol=1e-12
        )
