import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdensity import fca
from qdensity.qprob import Alphabet

from conftest import brute_force_concepts, eigen_concept_scores

THREE_EDGE = [("orange", "fruit"), ("green", "fruit"), ("purple", "vegetable")]
FOUR_EDGE = THREE_EDGE[:2] + [("green", "vegetable"), ("purple", "vegetable")]


def three_edge():
    return fca.Relation.from_pairs(THREE_EDGE)


def four_edge():
    return fca.Relation.from_pairs(FOUR_EDGE)


def as_sets(concepts):
    return {(frozenset(c.extent), frozenset(c.intent)) for c in concepts}


def relation(table):
    rows, cols = table.shape
    return fca.Relation(
        Alphabet(tuple(f"x{i}" for i in range(rows))),
        Alphabet(tuple(f"y{j}" for j in range(cols))),
        table,
    )


class TestGaloisMaps:
    def test_f_shared_attribute(self):
        assert fca.galois_f(three_edge(), {"orange", "green"}) == {"fruit"}

    def test_f_disjoint_pair(self):
        assert fca.galois_f(three_edge(), {"orange", "purple"}) == frozenset()

    def test_f_empty_set_is_everything(self):
        assert fca.galois_f(three_edge(), set()) == {"fruit", "vegetable"}

    def test_g_fruit(self):
        assert fca.galois_g(three_edge(), {"fruit"}) == {"orange", "green"}

    def test_g_both_attributes(self):
        assert fca.galois_g(three_edge(), {"fruit", "vegetable"}) == frozenset()

    def test_g_empty_set_is_everything(self):
        assert fca.galois_g(three_edge(), set()) == {"orange", "green", "purple"}

    def test_order_reversing(self):
        r = four_edge()
        assert fca.galois_f(r, {"green"}) >= fca.galois_f(r, {"green", "orange"})

    def test_closure_identities(self):
        # fgf = f and gfg = g
        r = four_edge()
        xs = list(r.x_alphabet)
        for size in range(len(xs) + 1):
            for sub in itertools.combinations(xs, size):
                b = fca.galois_f(r, sub)
                assert fca.galois_f(r, fca.galois_g(r, b)) == b
        ys = list(r.y_alphabet)
        for size in range(len(ys) + 1):
            for sub in itertools.combinations(ys, size):
                a = fca.galois_g(r, sub)
                assert fca.galois_g(r, fca.galois_f(r, a)) == a


class TestFormalConcepts:
    def test_three_edge_concepts(self):
        concepts = fca.formal_concepts(three_edge())
        assert as_sets(concepts) == {
            (frozenset({"orange", "green"}), frozenset({"fruit"})),
            (frozenset({"purple"}), frozenset({"vegetable"})),
        }

    def test_four_edge_concepts(self):
        concepts = fca.formal_concepts(four_edge())
        assert as_sets(concepts) == {
            (frozenset({"orange", "green"}), frozenset({"fruit"})),
            (frozenset({"green", "purple"}), frozenset({"vegetable"})),
            (frozenset({"green"}), frozenset({"fruit", "vegetable"})),
        }

    def test_empty_relation_extremes(self):
        r = fca.Relation(Alphabet(("a", "b")), Alphabet(("u", "v")), np.zeros((2, 2), bool))
        concepts = fca.formal_concepts(r)
        assert as_sets(concepts) == {
            (frozenset(), frozenset({"u", "v"})),
            (frozenset({"a", "b"}), frozenset()),
        }

    def test_sorted_by_extent_size(self):
        sizes = [len(c.extent) for c in fca.formal_concepts(four_edge())]
        assert sizes == sorted(sizes)

    def test_every_output_is_closed(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            table = rng.random((4, 5)) < 0.45
            r = fca.Relation(
                Alphabet(tuple("abcd")), Alphabet(tuple("uvwxy")), table
            )
            for c in fca.formal_concepts(r, include_degenerate=True):
                assert fca.galois_f(r, c.extent) == c.intent
                assert fca.galois_g(r, c.intent) == c.extent

    def test_fixed_point_bijection(self):
        # closed extents and closed intents are in bijection with concepts
        rng = np.random.default_rng(67)
        for _ in range(10):
            table = rng.random((4, 4)) < 0.4
            r = fca.Relation(Alphabet(tuple("abcd")), Alphabet(tuple("uvwx")), table)
            concepts = fca.formal_concepts(r, include_degenerate=True)
            xs = list(r.x_alphabet)
            ys = list(r.y_alphabet)
            fix_gf = set()
            for size in range(len(xs) + 1):
                for sub in itertools.combinations(xs, size):
                    a = frozenset(sub)
                    if fca.galois_g(r, fca.galois_f(r, a)) == a:
                        fix_gf.add(a)
            fix_fg = set()
            for size in range(len(ys) + 1):
                for sub in itertools.combinations(ys, size):
                    b = frozenset(sub)
                    if fca.galois_f(r, fca.galois_g(r, b)) == b:
                        fix_fg.add(b)
            assert len(fix_gf) == len(fix_fg) == len(concepts)
            assert {c.extent for c in concepts} == fix_gf
            assert {c.intent for c in concepts} == fix_fg

    def test_size_limit(self):
        n = 25
        r = fca.Relation(
            Alphabet(tuple(f"x{i}" for i in range(n))),
            Alphabet(tuple(f"y{i}" for i in range(n))),
            np.eye(n, dtype=bool),
        )
        with pytest.raises(ValueError):
            fca.formal_concepts(r)


class TestCloseByOneAgainstOracle:
    @pytest.mark.parametrize("include_degenerate", [False, True])
    @pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
    @pytest.mark.parametrize("density", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    def test_matches_brute_force(self, density, tall, include_degenerate):
        # tall tables (more objects than attributes) walk the incidence,
        # wide ones its transpose
        rng = np.random.default_rng([int(density * 10), tall, include_degenerate])
        for _ in range(5):
            short = int(rng.integers(1, 9))
            long = int(rng.integers(short + 1, 11))
            shape = (long, short) if tall else (short, long)
            r = relation(rng.random(shape) < density)
            concepts = fca.formal_concepts(r, include_degenerate=include_degenerate)
            assert concepts == brute_force_concepts(r, include_degenerate)
            assert len(set(concepts)) == len(concepts)

    @pytest.mark.parametrize("include_degenerate", [False, True])
    def test_all_true(self, include_degenerate):
        r = relation(np.ones((3, 5), dtype=bool))
        concepts = fca.formal_concepts(r, include_degenerate=include_degenerate)
        assert concepts == brute_force_concepts(r, include_degenerate)
        assert as_sets(concepts) == {(frozenset(r.x_alphabet), frozenset(r.y_alphabet))}

    @pytest.mark.parametrize("include_degenerate", [False, True])
    def test_all_false(self, include_degenerate):
        r = relation(np.zeros((5, 3), dtype=bool))
        concepts = fca.formal_concepts(r, include_degenerate=include_degenerate)
        assert concepts == brute_force_concepts(r, include_degenerate)
        assert as_sets(concepts) == {
            (frozenset(), frozenset(r.y_alphabet)),
            (frozenset(r.x_alphabet), frozenset()),
        }

    @pytest.mark.parametrize("transpose", [False, True])
    def test_single_row_or_column(self, transpose):
        table = np.array([[True, False, True, True, False]])
        r = relation(table.T if transpose else table)
        for include_degenerate in (False, True):
            concepts = fca.formal_concepts(r, include_degenerate=include_degenerate)
            assert concepts == brute_force_concepts(r, include_degenerate)
        ones = {"x0", "x2", "x3"} if transpose else {"y0", "y2", "y3"}
        other = {"y0"} if transpose else {"x0"}
        expected = (ones, other) if transpose else (other, ones)
        assert as_sets(fca.formal_concepts(r)) == {tuple(map(frozenset, expected))}


class TestCompareEigenConcepts:
    def test_three_edge_exact_match(self):
        report = fca.compare_eigen_concepts(three_edge())
        assert report.n_eigenpairs == 2
        assert np.allclose(report.eigenvalues, [2 / 3, 1 / 3], atol=1e-10)
        assert report.matched == 2
        assert not report.mismatch
        supports = {
            (frozenset(p.concept.extent), frozenset(p.concept.intent)) for p in report.pairs
        }
        assert supports == as_sets(fca.formal_concepts(three_edge()))

    def test_four_edge_mismatch(self):
        report = fca.compare_eigen_concepts(four_edge())
        assert report.n_eigenpairs == 2
        assert report.n_concepts == 3
        assert np.allclose(report.eigenvalues, [3 / 4, 1 / 4], atol=1e-10)
        assert report.mismatch

    def test_disjoint_complete_bipartite_clusters(self):
        # two clusters: {a,b} x {u,v} and {c} x {w}; eigenpairs match exactly
        pairs = [("a", "u"), ("a", "v"), ("b", "u"), ("b", "v"), ("c", "w")]
        report = fca.compare_eigen_concepts(fca.Relation.from_pairs(pairs))
        assert report.n_eigenpairs == report.n_concepts == 2
        assert report.matched == 2
        assert not report.mismatch

    def test_report_round_trips_to_dict(self):
        d = fca.compare_eigen_concepts(three_edge()).to_dict()
        assert d["matched"] == 2
        assert len(d["pairs"]) == 2

    def test_exact_tie_goes_to_first_concept(self):
        # swapping the sides maps the relation onto itself, so the top
        # eigenpair scores both concepts equally; the first listed wins
        r = fca.Relation.from_pairs([("a", "u"), ("a", "v"), ("b", "u")])
        _, oracle = eigen_concept_scores(r)
        (ax, ay), (bx, by) = oracle[0]["scores"]
        assert ax + ay == pytest.approx(bx + by, abs=1e-12)
        assert fca.compare_eigen_concepts(r).pairs[0].concept == fca.formal_concepts(r)[0]

    @pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
    @pytest.mark.parametrize("density", [0.2, 0.4, 0.6, 0.8, 1.0])
    def test_matches_per_pair_oracle(self, density, tall):
        rng = np.random.default_rng([int(density * 10), tall, 7])
        for _ in range(6):
            short = int(rng.integers(1, 9))
            long = int(rng.integers(short + 1, 11))
            table = rng.random((long, short) if tall else (short, long)) < density
            if not table.any():
                continue
            r = relation(table)
            concepts, oracle = eigen_concept_scores(r)
            report = fca.compare_eigen_concepts(r)
            assert report.n_concepts == len(concepts)
            assert report.eigenvalues == tuple(p["eigenvalue"] for p in oracle)
            assert report.n_eigenpairs == len(report.pairs) == len(oracle)
            exact_concepts = set()
            for pair, want in zip(report.pairs, oracle):
                assert pair.eigenvalue == want["eigenvalue"]
                means = [(sx + sy) / 2 for sx, sy in want["scores"]]
                best = means[want["best"]]
                tied = [i for i, m in enumerate(means) if best - m <= 1e-12]
                idx = concepts.index(pair.concept)
                assert idx in tied
                if len(tied) == 1:
                    assert idx == want["best"]
                sx, sy = want["scores"][idx]
                assert abs(pair.extent_cosine - sx) <= 1e-14
                assert abs(pair.intent_cosine - sy) <= 1e-14
                exact = want["support"] == (pair.concept.extent, pair.concept.intent)
                assert pair.exact_support_match == exact
                if exact:
                    exact_concepts.add(idx)
            assert report.matched == sum(p.exact_support_match for p in report.pairs)
            assert report.unmatched_eigenpairs == report.n_eigenpairs - report.matched
            assert report.unmatched_concepts == len(concepts) - len(exact_concepts)
            assert report.mismatch == (
                report.unmatched_eigenpairs > 0 or report.unmatched_concepts > 0
            )

    def test_edgeless_relation_rejected(self):
        r = fca.Relation(Alphabet(("a",)), Alphabet(("u",)), np.zeros((1, 1), bool))
        with pytest.raises(ValueError):
            fca.compare_eigen_concepts(r)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(2, 6))
def test_galois_adjunction_property(seed, n, m):
    # A <= g(B) exactly when B <= f(A)
    rng = np.random.default_rng(seed)
    table = rng.random((n, m)) < 0.5
    xs = Alphabet(tuple(f"x{i}" for i in range(n)))
    ys = Alphabet(tuple(f"y{i}" for i in range(m)))
    r = fca.Relation(xs, ys, table)
    for _ in range(25):
        a = frozenset(s for s in xs if rng.random() < 0.4)
        b = frozenset(s for s in ys if rng.random() < 0.4)
        assert (a <= fca.galois_g(r, b)) == (b <= fca.galois_f(r, a))
