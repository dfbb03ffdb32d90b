import math
import tracemalloc

import numpy as np
import pytest

from qdensity import qprob
from qdensity.empirical import (
    PARITY_PREFIX_ORDER,
    EmpiricalGraph,
    SequenceDataset,
    _code_dtype,
    empirical_distribution,
    graph_reduced_density,
    load_dataset,
    parity_graph,
    parse_dataset,
    summarizer_angles,
)
from qdensity.entailment import CorpusState
from qdensity.qprob import Alphabet

from conftest import (
    BITS,
    FIVE_EDGE_LINES,
    FIVE_PHRASE_LINES,
    THREE_PHRASE_LINES,
    even_dataset,
    random_dataset,
    three_phrase_distribution,
)

# Seven even-parity length-5 samples; prefix degrees 2,2,1,2 and one shared
# suffix within each parity block.
SEVEN_SAMPLE_LINES = ["00000", "00110", "11000", "11011", "01001", "10001", "10111"]


class TestParsing:
    def test_constructor_names_a_foreign_token(self):
        with pytest.raises(ValueError, match=r"^'2' is not in the alphabet$"):
            SequenceDataset(BITS, 2, [("0", "2")])

    def test_word_corpus(self):
        ds = parse_dataset(THREE_PHRASE_LINES)
        assert ds.length == 2
        assert ds.n_samples == 3
        assert tuple(ds.alphabet) == ("orange", "fruit", "green", "purple", "vegetable")

    def test_bitstring_lines(self):
        ds = parse_dataset(["0011", "1100"])
        assert ds.length == 4
        assert tuple(ds.alphabet) == ("0", "1")

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match=r"mixed lengths \[2, 3\]"):
            parse_dataset(["a b", "a b c"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="dataset is empty"):
            parse_dataset(["", "  "])

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 3: malformed sample 'a  b'"):
            parse_dataset(["a b", "", "a  b", "a b c"])

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", ["words", "bits", "bits from 1", "ones"])
    def test_alphabet_and_codes_match_a_first_appearance_oracle(self, kind, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(2 if kind == "words" else 1, 6))  # a one-word line reads as characters
        if kind == "words":
            vocab = [f"w{i}" for i in range(int(rng.integers(1, 30)))]
            rows = [[vocab[j] for j in rng.zipf(1.5, length) % len(vocab)] for _ in range(40)]
        else:
            rows = rng.integers(2, size=(40, length)).astype(str).tolist()
            if kind == "bits from 1":
                rows[0][0] = "1"
            elif kind == "ones":
                rows = [["1"] * length for _ in rows]
        lines = [" ".join(r) if kind == "words" or seed % 2 else "".join(r) for r in rows]
        seen = tuple(dict.fromkeys(t for r in rows for t in r))
        symbols = ("0", "1") if set(seen) <= {"0", "1"} else seen
        ds = parse_dataset(line + "\n" for line in lines)
        assert tuple(ds.alphabet) == symbols
        assert ds.codes.tolist() == [[symbols.index(t) for t in r] for r in rows]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["words", "bits", "wide"])
    def test_given_alphabet_codes_match_the_constructor(self, kind, seed):
        rng = np.random.default_rng(100 + seed)
        length = int(rng.integers(2, 6))
        if kind == "words":
            symbols = [f"w{i}" for i in range(int(rng.integers(2, 30)))]
        elif kind == "wide":  # with "spare", 256 symbols (uint8) for even seeds, 257 (uint16) for odd
            symbols = [f"w{i}" for i in range(255 + seed % 2)]
        else:
            symbols = ["0", "1"]
        used = symbols[: len(symbols) - seed % 2]  # odd seeds leave a symbol unused
        rows = [[used[j] for j in rng.integers(len(used), size=length)] for _ in range(40)]
        lines = [" ".join(r) if kind != "bits" or seed % 4 > 1 else "".join(r) for r in rows]
        alphabet = Alphabet(tuple(rng.permutation(symbols + ["spare"]).tolist()))
        ds = parse_dataset((line + "\n" for line in lines), alphabet)
        assert ds.alphabet == alphabet
        assert ds.codes.dtype == _code_dtype(len(alphabet))
        assert np.array_equal(ds.codes, SequenceDataset(alphabet, length, rows).codes)
        assert ds.codes.tolist() == [[alphabet.index(t) for t in r] for r in rows]

    def test_given_alphabet_rejects_a_foreign_token(self):
        with pytest.raises(ValueError, match="'c' is not in the alphabet"):
            parse_dataset(["a b", "b c"], Alphabet(("a", "b")))

    def test_given_alphabet_checks_lengths_first(self):
        with pytest.raises(ValueError, match=r"mixed lengths \[2, 3\]"):
            parse_dataset(["a c", "a b c"], Alphabet(("a", "b")))
        with pytest.raises(ValueError, match="dataset is empty"):
            parse_dataset([" "], Alphabet(("a", "b")))

    def test_load_dataset_memory_stays_near_the_codes(self, tmp_path):
        # 20000 five-word lines over 400 words: 0.2 MB of uint16 codes, 0.8 MB
        # in int64, from a 0.7 MB file. The tokens' int32 first-appearance codes
        # are remapped in the narrow dtype: 1.14x the int64 bytes measured,
        # against 1.62x with int64 first-appearance codes and 2.30x when every
        # copy was int64
        rng = np.random.default_rng(12)
        vocab = [f"word{i}" for i in range(400)]
        rows = rng.zipf(1.3, size=(20000, 5)) % len(vocab)
        path = tmp_path / "corpus.txt"
        path.write_text("".join(" ".join(vocab[j] for j in row) + "\n" for row in rows))
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.codes.shape == (20000, 5) and ds.codes.dtype == np.uint16
        # in int64 bytes; a parse that keeps every line's tokens peaks near 11
        assert peak < 1.4 * 20000 * 5 * 8

    def test_load_dataset_names_the_file_and_offset_of_a_late_bad_byte(self, tmp_path):
        # the byte lies past the text reader's first decoded chunk, so it fails mid-parse
        data = bytearray(b"small ripe fruit\n" * 3001)
        data[18000] = 0xFF
        path = tmp_path / "late.txt"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(err.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position 18000: invalid start byte"
        )


class TestEmpiricalDistribution:
    def test_three_phrase_table(self):
        pi = empirical_distribution(parse_dataset(THREE_PHRASE_LINES), cut=1)
        assert pi.probs.shape == (3, 2)
        ref = three_phrase_distribution()
        assert tuple(pi.x_alphabet) == tuple(ref.x_alphabet)
        assert tuple(pi.y_alphabet) == tuple(ref.y_alphabet)
        assert np.allclose(pi.probs, ref.probs, atol=1e-15)

    def test_repeated_sample_point_mass(self):
        pi = empirical_distribution(parse_dataset(["a b", "a b", "a b"]), cut=1)
        assert pi.probs.tolist() == [[1.0]]

    def test_five_phrase_cut_three(self):
        pi = empirical_distribution(parse_dataset(FIVE_PHRASE_LINES), cut=3)
        x = tuple(pi.x_alphabet)
        y = tuple(pi.y_alphabet)
        assert pi.probs[x.index("small ripe orange"), y.index("fruit")] == pytest.approx(1 / 5)
        assert pi.probs[x.index("small ripe orange"), y.index("vegetable")] == pytest.approx(1 / 5)
        assert pi.probs[x.index("large rotten green"), y.index("vegetable")] == pytest.approx(1 / 5)
        assert pi.probs.sum() == pytest.approx(1.0)

    def test_multiplicities_accumulate(self):
        pi = empirical_distribution(parse_dataset(["a u", "a u", "b u", "a v"]), cut=1)
        x = tuple(pi.x_alphabet)
        y = tuple(pi.y_alphabet)
        assert pi.probs[x.index("a"), y.index("u")] == pytest.approx(0.5)

    def test_bad_cut(self):
        ds = parse_dataset(["a b"])
        with pytest.raises(ValueError):
            empirical_distribution(ds, cut=2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda ds: empirical_distribution(ds, 1),
            CorpusState.from_dataset,
            lambda ds: EmpiricalGraph.from_dataset(ds, 1),
        ],
        ids=["empirical_distribution", "CorpusState", "EmpiricalGraph"],
    )
    def test_oversized_count_table_is_refused_before_allocation(self, build):
        # 2000 x 2000 int64 counts would take 32 MB before any float copy
        ds = parse_dataset(f"p{i} s{i}" for i in range(2000))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                build(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "product space of 4000000 entries exceeds the supported 1048576"
        assert peak < 5 << 20

    def test_oversized_prefix_order_is_refused_before_padding(self):
        # 2 observed suffixes and 700002 prefix rows: 1400004 entries of padded counts
        ds = parse_dataset(["a x", "b y"])
        order = (("a",), ("b",)) + tuple((f"p{i}",) for i in range(700000))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                EmpiricalGraph.from_dataset(ds, 1, prefix_order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "product space of 1400004 entries exceeds the supported 1048576"
        assert peak < 5 << 20


class TestGraphReducedDensity:
    def test_five_edge_graph(self):
        g = EmpiricalGraph.from_dataset(parse_dataset(FIVE_EDGE_LINES), cut=1)
        rx = graph_reduced_density(g, "prefix").matrix
        ry = graph_reduced_density(g, "suffix").matrix
        assert np.array_equal(rx, np.array([[1, 1, 1], [1, 2, 2], [1, 2, 2]]) / 5)
        assert np.array_equal(ry, np.array([[3, 2], [2, 2]]) / 5)

    def test_seven_sample_parity_density(self):
        g = parity_graph(parse_dataset(SEVEN_SAMPLE_LINES))
        rho = graph_reduced_density(g, "prefix").matrix
        expected = np.array([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]]) / 7
        assert np.allclose(rho, expected, atol=1e-15)

    def test_matches_state_route(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            ds = random_dataset(
                rng,
                alphabet_size=int(rng.integers(2, 5)),
                length=int(rng.integers(2, 5)),
                n_samples=int(rng.integers(3, 40)),
            )
            cut = int(rng.integers(1, ds.length))
            g = EmpiricalGraph.from_dataset(ds, cut)
            psi = qprob.build_state(empirical_distribution(ds, cut))
            for keep, side in (("X", "prefix"), ("Y", "suffix")):
                a = qprob.reduced_via_gram(psi, keep).matrix
                b = graph_reduced_density(g, side).matrix
                assert np.max(np.abs(a - b)) < 1e-12

    def test_trace_is_one(self):
        g = EmpiricalGraph.from_dataset(parse_dataset(FIVE_PHRASE_LINES), cut=2)
        assert np.isclose(np.trace(graph_reduced_density(g, "prefix").matrix), 1.0)
        assert np.isclose(np.trace(graph_reduced_density(g, "suffix").matrix), 1.0)

    def test_counts_are_read_only(self):
        g = EmpiricalGraph.from_dataset(parse_dataset(FIVE_EDGE_LINES), cut=1)
        with pytest.raises(ValueError, match="read-only"):
            g.counts[0, 0] = 99

    def test_counts_are_copied_from_the_caller(self):
        table = np.array([[1, 2]])
        g = EmpiricalGraph((("a",),), (("u",), ("v",)), table)
        table[0, 0] = 7
        assert g.counts.tolist() == [[1, 2]] and g.total_edges == 3

    def test_edgeless_graph_rejected(self):
        g = EmpiricalGraph((("a",),), (("b",),), [[0]])
        assert g.total_edges == 0
        with pytest.raises(ValueError, match="no edges"):
            graph_reduced_density(g, "prefix")

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[1, 2]], "shape"),
            ([[1], [2], [3]], "shape"),
            ([[1.0], [2.0]], "nonnegative integers"),
            ([[1], [-1]], "nonnegative integers"),
        ],
    )
    def test_rejects_a_bad_count_matrix(self, counts, message):
        with pytest.raises(ValueError, match=message):
            EmpiricalGraph((("a",), ("b",)), (("u",),), counts)

    def test_prefix_order_pads_and_orders_rows(self):
        ds = parse_dataset(["0 1 1", "0 1 1", "1 1 0"])
        order = [("1", "1"), ("0", "0"), ("0", "1"), ("1", "0")]
        g = EmpiricalGraph.from_dataset(ds, 2, order)
        assert g.prefixes == tuple(order) and g.suffixes == (("1",), ("0",))
        assert g.counts.tolist() == [[0, 1], [0, 0], [2, 0], [0, 0]]

    def test_prefix_order_repeating_a_prefix_rejected(self):
        ds = parse_dataset(["0 1 1", "1 1 0"])
        with pytest.raises(ValueError, match="repeats a prefix"):
            EmpiricalGraph.from_dataset(ds, 2, [("0", "1"), ("1", "1"), ("0", "1")])

    def test_prefix_order_missing_a_prefix_rejected(self):
        ds = parse_dataset(["0 1 1", "1 1 0"])
        with pytest.raises(ValueError, match="does not cover"):
            EmpiricalGraph.from_dataset(ds, 2, [("0", "1")])


class TestSummarizerAngles:
    def test_full_even_set_gives_quarter_turn(self):
        theta, phi = summarizer_angles(parity_graph(even_dataset(5)))
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert phi == pytest.approx(math.pi / 4, abs=1e-12)

    def test_seven_sample_even_block(self):
        # d1 = d2 = 2 and one shared suffix: gap 0, angle arctan(1)
        theta, phi = summarizer_angles(parity_graph(parse_dataset(SEVEN_SAMPLE_LINES)))
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        # odd block: d3=1, d4=2, s_o=1
        gap = 1 - 2
        expected_phi = math.atan(2 / (math.sqrt(gap**2 + 4) + gap))
        assert phi == pytest.approx(expected_phi, abs=1e-12)

    def test_no_shared_suffix_angle_zero(self):
        # 00 and 11 never share a suffix here
        ds = parse_dataset(["00000", "11011", "01001", "10100"])
        theta, _ = summarizer_angles(parity_graph(ds))
        assert theta == 0.0

    def test_no_shared_suffix_smaller_first_degree_gives_quarter_turn(self):
        # the even block is [[1, 0], [0, 2]]: its top eigenvector is (0, 1)
        ds = parse_dataset(["00000", "11011", "11101", "01001"])
        theta, _ = summarizer_angles(parity_graph(ds))
        assert theta == math.pi / 2

    def test_eigenvector_matches_angle(self):
        rng = np.random.default_rng(53)
        from qdensity import linalg

        checked = set()

        for _ in range(10):
            n_samp = int(rng.integers(6, 30))
            samples = []
            for _ in range(n_samp):
                head = rng.integers(0, 2, size=6)
                samples.append(tuple(str(b) for b in list(head) + [int(head.sum()) % 2]))
            ds = SequenceDataset(Alphabet(("0", "1")), 7, tuple(samples))
            g = parity_graph(ds)
            theta, phi = summarizer_angles(g)
            rho = graph_reduced_density(g, "prefix").matrix
            for angle, block in ((theta, rho[:2, :2]), (phi, rho[2:, 2:])):
                if block[0, 1] == 0 and block[0, 0] == block[1, 1]:
                    continue  # an exact tie: no single top eigenvector
                top = linalg.sym_eigen(block).eigenvectors[:, 0]
                assert np.max(np.abs(top - [math.cos(angle), math.sin(angle)])) < 1e-10
                checked.add("0" if angle == 0 else "pi/2" if angle == math.pi / 2 else "between")
        # diagonal blocks with either degree the larger were among those checked
        assert checked == {"0", "pi/2", "between"}

    def test_requires_parity_basis(self):
        # first-appearance order (01, 10, 00) is not the parity basis
        g = EmpiricalGraph.from_dataset(parse_dataset(["01001", "10001", "00000"]), cut=2)
        with pytest.raises(ValueError):
            summarizer_angles(g)

    def test_parity_order_constant(self):
        assert PARITY_PREFIX_ORDER == (("0", "0"), ("1", "1"), ("0", "1"), ("1", "0"))
