import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdensity import linalg, mps
from conftest import reference_column_signs, reference_sym_eigen


class TestSymEigen:
    def test_shared_suffix_block(self):
        m = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3
        eig = linalg.sym_eigen(m)
        assert np.allclose(eig.eigenvalues, [2 / 3, 1 / 3, 0], atol=1e-12)
        assert np.allclose(eig.eigenvectors[:, 0], [1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-12)
        assert np.allclose(eig.eigenvectors[:, 1], [0, 0, 1], atol=1e-12)

    def test_identity_tie_break(self):
        eig = linalg.sym_eigen(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1, 1])
        assert np.array_equal(eig.eigenvectors, np.eye(2))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5))
        m = (a + a.T) / 2
        eig = linalg.sym_eigen(m)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.max(np.abs(rebuilt - m)) < 1e-10

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        eig = linalg.sym_eigen(a + a.T)
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.sym_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.sym_eigen(np.zeros((2, 3)))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 2), (0, 1), (2, 0)])
    @pytest.mark.parametrize("both", [False, True])
    def test_rejects_a_non_finite_entry_as_such(self, entry, where, both):
        # a NaN or infinity, on or off the diagonal, mirrored or not, is named
        # as such, and raises no floating-point warning on the way
        m = np.eye(3) / 3
        m[where] = entry
        if both:
            m[where[::-1]] = entry
        for check in (linalg.sym_eigen, linalg.sym_eigenvalues, lambda a: linalg.is_psd(a, tol=1e-10)):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                check(m)

    @pytest.mark.parametrize(
        "m, message",
        [
            ([[0.0, 1.0], [0.0, 0.0]], r"^matrix is not symmetric within 1e-12$"),
            ([[0.0, 1.0], [1.0 + 1e-11, 0.0]], r"^matrix is not symmetric within 1e-12$"),
            (np.zeros((2, 3)), r"^matrix must be square, got shape \(2, 3\)$"),
            (np.zeros(4), r"^expected a 2-d matrix, got array of shape \(4,\)$"),
            (np.zeros((2, 2, 2)), r"^expected a 2-d matrix, got array of shape \(2, 2, 2\)$"),
        ],
    )
    def test_validation_messages(self, m, message):
        for check in (linalg.sym_eigen, linalg.sym_eigenvalues, lambda a: linalg.is_psd(a, tol=1e-10)):
            with pytest.raises(ValueError, match=message):
                check(m)

    def test_symmetric_within_the_bound_and_empty_matrices_pass(self):
        m = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        assert np.allclose(linalg.sym_eigen(m).eigenvalues, [1.5, 0.5], atol=1e-12)
        assert linalg.is_psd(m, tol=0.0)
        assert linalg.is_psd(np.zeros((0, 0)), tol=0.0)

    def test_empty_matrix_has_an_empty_decomposition(self):
        eig = linalg.sym_eigen(np.zeros((0, 0)))
        assert eig.eigenvalues.shape == (0,) and eig.eigenvectors.shape == (0, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 40])
    def test_eigenvalues_alone_are_sym_eigens(self, n):
        # without ties the canonical order is eigh's, reversed; exact ties leave
        # the values equal whatever their order
        rng = np.random.default_rng(2200 + n)
        a = rng.standard_normal((n, n))
        for m in (a + a.T, a @ a.T / max(n, 1), np.eye(n) / max(n, 1)):
            got = linalg.sym_eigenvalues(m)
            assert np.array_equal(got, linalg.sym_eigen(m).eigenvalues)
            assert np.array_equal(got, np.linalg.eigh(m)[0][::-1]) and got.flags.c_contiguous

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        m = a + a.T
        first = linalg.sym_eigen(m)
        second = linalg.sym_eigen(m.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_sign_convention(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            eig = linalg.sym_eigen(a + a.T)
            for j in range(4):
                col = eig.eigenvectors[:, j]
                nz = np.nonzero(np.abs(col) > 1e-12)[0]
                assert col[nz[0]] > 0

    def test_bit_identical_to_the_reference_canonicalization(self):
        rng = np.random.default_rng(23)
        cases = []
        for _ in range(300):
            k = int(rng.integers(1, 7))
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            w = rng.choice([0.0, 0.25, 1.0, 2.0, rng.standard_normal()], size=k)  # planted ties
            m = (q * w) @ q.T
            m = (m + m.T) / 2
            zero = rng.random(k) < 0.3  # planted zero rows and columns
            m[zero, :] = m[:, zero] = 0.0
            cases.append(m)
        cases += [np.eye(3), np.zeros((4, 4)), np.diag([1.0, -1.0, 1.0 + 1e-10, -1.0])]
        for seed in range(4):
            ds = mps.draw_even_subset(12, 300 + 100 * seed, seed)
            cases += [mps.step_density(ds, mps.TrainConfig(chi=2), k) for k in range(2, 12)]
        for m in cases:
            eig = linalg.sym_eigen(m)
            values, vectors = reference_sym_eigen(m)
            assert np.array_equal(eig.eigenvalues, values)
            assert np.array_equal(eig.eigenvectors, vectors)
            assert eig.eigenvectors.flags.c_contiguous and eig.eigenvalues.flags.c_contiguous

    @pytest.mark.parametrize("cols", [0, 1, 3])
    def test_column_signs_of_zero_rows_are_positive(self, cols):
        assert np.array_equal(linalg._column_signs(np.zeros((0, cols))), np.ones(cols))

    def test_column_signs_match_the_reference(self):
        rng = np.random.default_rng(29)
        tiny = [0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, -2e-12, 2e-12]
        for _ in range(2000):
            shape = tuple(int(x) for x in rng.integers(1, 6, size=2))
            v = rng.choice(tiny, size=shape)
            dense = rng.random(shape) < 0.3
            v[dense] = rng.standard_normal(int(dense.sum()))
            assert np.array_equal(linalg._column_signs(v), reference_column_signs(v))


class TestSvd:
    def test_two_by_three_coefficient_matrix(self):
        m = np.array([[1, 1, 0], [0, 0, 1]]) / math.sqrt(3)
        out = linalg.svd(m)
        assert np.allclose(out.singular_values, [math.sqrt(2 / 3), math.sqrt(1 / 3)], atol=1e-12)

    def test_zero_matrix(self):
        out = linalg.svd(np.zeros((2, 3)))
        assert np.allclose(out.singular_values, [0, 0])

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
    def test_empty_matrices_have_empty_trimmed_factors(self, shape):
        rows, cols = shape
        out = linalg.svd(np.zeros(shape))
        assert out.u.shape == (rows, 0) and out.singular_values.shape == (0,)
        assert out.v.shape == (cols, 0)
        assert np.array_equal(out.u @ np.diag(out.singular_values) @ out.v.T, np.zeros(shape))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((4, 6))
        out = linalg.svd(m)
        rebuilt = out.u @ np.diag(out.singular_values) @ out.v.T
        assert np.max(np.abs(rebuilt - m)) < 1e-10
        assert out.u.shape == (4, 4)
        assert out.v.shape == (6, 4)

    def test_matches_gram_eigenvalues(self):
        # squared singular values of m are the eigenvalues of m.T @ m
        rng = np.random.default_rng(29)
        m = rng.standard_normal((3, 5))
        sv = linalg.svd(m).singular_values
        ev = linalg.sym_eigen(m.T @ m).eigenvalues[:3]
        assert np.allclose(sv**2, ev, atol=1e-10)

    def test_trace_identity(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((5, 4))
        sv = linalg.svd(m).singular_values
        assert np.isclose(np.trace(m.T @ m), (sv**2).sum(), atol=1e-10)

    def test_right_vector_sign_convention(self):
        rng = np.random.default_rng(37)
        out = linalg.svd(rng.standard_normal((5, 5)))
        for j in range(5):
            col = out.v[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            assert col[nz[0]] > 0


class TestIsPsd:
    def test_orange_difference(self):
        # difference of the two unnormalized phrase densities
        assert linalg.is_psd(np.array([[0.0, 0.0], [0.0, 1.0]]) / 5, tol=1e-10)

    def test_swap_matrix(self):
        assert not linalg.is_psd([[0.0, 1.0], [1.0, 0.0]], tol=1e-10)

    def test_outer_products(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            v = rng.standard_normal(4)
            assert linalg.is_psd(np.outer(v, v), tol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            linalg.is_psd([[0.0, 1.0], [0.0, 0.0]], tol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(0, 2**31 - 1),
)
def test_svd_eigen_consistency_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols))
    out = linalg.svd(m)
    rebuilt = out.u @ np.diag(out.singular_values) @ out.v.T
    assert np.max(np.abs(rebuilt - m)) < 1e-10
    k = min(rows, cols)
    ev = linalg.sym_eigen(m.T @ m).eigenvalues[:k]
    assert np.allclose(out.singular_values**2, ev, atol=1e-10)


def loop_tie_sorted(values, key_vectors, *paired):
    """The group-by-group tie sort that linalg._tie_sorted's array sort replaced."""
    gaps = values[:-1] - values[1:]
    if not np.any(gaps <= linalg._TIE_TOL):
        return (values, key_vectors, *paired)
    order, start = list(range(len(values))), 0
    for end in range(1, len(values) + 1):
        if end == len(values) or gaps[end - 1] > linalg._TIE_TOL:
            if end - start > 1:
                group = order[start:end]
                order[start:end] = sorted(group, key=lambda j: tuple(key_vectors[:, j]), reverse=True)
            start = end
    return (values[order], key_vectors[:, order], *(c[:, order] for c in paired))


# values a tie tolerance apart, or less, or more; keys with signed zeros
TIE_VALUES = [2.0, 1.0 + 2e-9, 1.0 + 5e-10, 1.0, 1.0 - 5e-10, 1e-10, 0.0, -0.0, -1e-10]
TIE_KEYS = [1.0, 0.5, 0.0, -0.0, -0.5, -1.0]


@st.composite
def tie_cases(draw):
    k = draw(st.integers(0, 8))
    values = np.array(draw(st.lists(st.sampled_from(TIE_VALUES), min_size=k, max_size=k)))
    if draw(st.booleans()):
        values = -np.sort(-values)  # descending, as eigh and svd hand them over
    rows = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(st.sampled_from(TIE_KEYS), min_size=rows, max_size=rows),
                         min_size=1, max_size=3))  # few distinct columns: many duplicates
    keys = np.array([draw(st.sampled_from(pool)) for _ in range(k)]).reshape(k, rows).T
    heights = draw(st.lists(st.integers(1, 3), max_size=2))
    paired = [np.arange(k * r, dtype=float).reshape(r, k) for r in heights]
    return values, keys, paired


@settings(max_examples=300, deadline=None)
@given(tie_cases())
def test_tie_sorted_matches_the_loop_bit_for_bit(case):
    values, keys, paired = case
    got = linalg._tie_sorted(values, keys, *paired)
    want = loop_tie_sorted(values, keys, *paired)
    assert len(got) == len(want) == 2 + len(paired)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
