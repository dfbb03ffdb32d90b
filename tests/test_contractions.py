"""The contractions against their oracles: ancestral draws against the
one-site-at-a-time einsum sampler, and Born probabilities, from the cached
table of block products or left to right, against distribution_table."""

import dataclasses
import itertools
import pickle

import numpy as np
import pytest

from qdensity import mps
from qdensity.empirical import SequenceDataset
from qdensity.mps import MatrixProductState, TrainConfig
from qdensity.qprob import Alphabet
from conftest import (
    drawn_codes,
    parent_born_probability,
    parent_sample,
    parent_sample_codes,
    reference_sample_codes,
)

WORDS = Alphabet(("red", "green", "blue", "gold"))


def trained_models():
    """Seeded models with d = 2-4, chi 1-5 and n = 3-9, and parity_target(7)."""
    rng = np.random.default_rng(901)
    models = []
    for n in range(3, 10):
        even = mps.draw_even_subset(n, 2 ** (n - 2), int(rng.integers(1000)))
        models.append(mps.train(even, TrainConfig(chi=1 + n % 4)))
        bits = SequenceDataset.from_codes(Alphabet(("0", "1")), rng.integers(2, size=(30, n)))
        models.append(mps.train(bits, TrainConfig(chi=1 + (n + 1) % 4)))
        abc = SequenceDataset.from_codes(Alphabet(("a", "b", "c")), rng.integers(3, size=(40, n)))
        models.append(mps.train(abc, TrainConfig(chi=1 + n % 5)))
        words = SequenceDataset.from_codes(WORDS, rng.integers(4, size=(50, n)))
        models.append(mps.train(words, TrainConfig(chi=1 + (n + 2) % 5)))
    models.append(mps.parity_target(7))
    return models


def hand_built_models():
    """Random tensors with uneven bonds, not unit norm, at n = 2, 3, 5 and 8."""
    rng = np.random.default_rng(902)
    models = []
    for n, d in ((2, 2), (2, 3), (3, 2), (3, 4), (5, 3), (5, 2), (8, 2), (8, 3)):
        bonds = [1, d] + [int(b) for b in rng.integers(1, 6, size=n - 2)] + [1]
        tensors = [np.eye(d).reshape(1, d, d)]
        tensors += [3 * rng.standard_normal((bonds[k], d, bonds[k + 1])) for k in range(1, n)]
        models.append(MatrixProductState(n, d, tuple(tensors)))
    return models


def lines_of(m, codes):
    symbols = m.alphabet.symbols
    sep = "" if all(len(t) == 1 for t in symbols) else " "
    return [sep.join(symbols[i] for i in row) for row in codes]


def small(models):
    """The models with at most 4096 strings, so that every string is checked."""
    return [m for m in models if m.physical_dim**m.n <= 4096]


def assert_born_matches_table(m):
    table = mps.distribution_table(m)
    strings = itertools.product(m.alphabet.symbols, repeat=m.n)
    born = np.array([mps.born_probability(m, s) for s in strings])
    assert np.all(np.abs(born - table) <= np.maximum(1e-13 * np.abs(table), 1e-15))


class TestSampleOracle:
    @pytest.mark.parametrize("count", [1, 7, 1500])
    def test_lines_equal_the_einsum_sampler(self, count):
        for seed, m in enumerate(trained_models(), start=count):
            assert mps.sample(m, count, seed) == lines_of(m, reference_sample_codes(m, count, seed))

    def test_wide_alphabets_equal_the_einsum_sampler(self):
        # hand-built word models with d well above chi**2, bonds d then chi
        rng = np.random.default_rng(904)
        for d, n, chi in ((30, 4, 2), (86, 3, 2), (50, 5, 3)):
            words = Alphabet(tuple(f"w{i}" for i in range(d)))
            bonds = [1, d] + [chi] * (n - 2) + [1]
            tensors = [np.eye(d).reshape(1, d, d)]
            tensors += [np.abs(rng.standard_normal((bonds[k], d, bonds[k + 1]))) for k in range(1, n)]
            m = MatrixProductState(n, d, tuple(tensors), words)
            assert mps.sample(m, 300, d) == lines_of(m, reference_sample_codes(m, 300, d))

    def test_zero_weights_pick_symbol_zero_without_warnings(self):
        # every conditional weight is 0: each chain takes symbol 0 at every site
        d = 3
        tensors = (np.eye(d).reshape(1, d, d), np.zeros((d, d, 2)), np.ones((2, d, 1)))
        zero = MatrixProductState(3, d, tensors)
        assert mps.sample(zero, 5, seed=1) == ["000"] * 5
        # nonzero weights only under symbol 2 at the last site: 0 and 1 never drawn there
        last = np.zeros((2, d, 1))
        last[:, 2, 0] = 1.0
        lopsided = MatrixProductState(3, d, tensors[:1] + (np.ones((d, d, 2)), last))
        assert {s[-1] for s in mps.sample(lopsided, 200, seed=2)} == {"2"}


def parent_cases() -> dict[str, MatrixProductState]:
    """Fresh models, one per decode path and symbol kind, for the parent oracles.

    Bits at n = 10 and 20, one-character alphabets of d = 5, of non-ASCII
    symbols and with a NUL symbol, words, and a hand-built model whose zero
    middle tensor leaves every chain all-zero weights.
    """
    rng = np.random.default_rng(1501)
    models = {}
    for n in (10, 20):
        models[f"bits{n}"] = mps.train(mps.draw_even_subset(n, 400, n), TrainConfig(chi=2))
    for name, symbols in (("five", tuple("abcde")), ("accented", ("é", "ü", "ø")), ("nul", ("a", "\0", "b"))):
        ds = SequenceDataset.from_codes(Alphabet(symbols), rng.integers(len(symbols), size=(80, 5)))
        models[name] = mps.train(ds, TrainConfig(chi=3))
    models["words"] = mps.train(SequenceDataset.from_codes(WORDS, rng.integers(4, size=(60, 6))), TrainConfig(chi=3))
    d = 3
    tensors = (np.eye(d).reshape(1, d, d), np.zeros((d, d, 2)), np.ones((2, d, 1)))
    models["zero"] = MatrixProductState(3, d, tensors)
    return models


class TestParentOracles:
    """The sampler, its decode and the Born gather, byte for byte and float for
    float against verbatim copies of their cumsum, object-join and fancy-index
    versions."""

    @pytest.mark.parametrize(
        "count",
        [1, 1023, 1025, mps.CHAIN_BLOCK - 1, mps.CHAIN_BLOCK + 1,
         2 * mps.CHAIN_BLOCK + 1, 50000],
    )
    @pytest.mark.parametrize("name", list(parent_cases()))
    def test_draws_and_lines_equal_the_parent(self, name, count):
        m = parent_cases()[name]
        codes = drawn_codes(m, count, seed=count)
        want = parent_sample_codes(m, count, seed=count)
        assert codes.dtype == want.dtype and codes.tobytes() == want.tobytes()
        assert mps.sample(m, count, seed=count) == parent_sample(m, count, seed=count)

    def test_cases_reach_each_decode_path(self):
        models = parent_cases()
        # a NUL at a line's end would be lost to a string view: the join keeps it
        assert any(s.endswith("\0") for s in mps.sample(models["nul"], 200, seed=1))
        assert {len(s) for s in mps.sample(models["accented"], 200, seed=1)} == {5}
        assert mps.sample(models["zero"], 3, seed=1) == ["000"] * 3

    @pytest.mark.parametrize("width", [mps.BORN_STACK_WIDTH, 0])
    @pytest.mark.parametrize("name", list(parent_cases()))
    def test_born_probabilities_equal_the_parent(self, name, width, monkeypatch):
        monkeypatch.setattr(mps, "BORN_STACK_WIDTH", width)
        m, twin = parent_cases()[name], parent_cases()[name]
        symbols = m.alphabet.symbols
        rows = drawn_codes(m, 100, seed=8).tolist()
        inputs = mps.sample(m, 300, seed=7) + [[symbols[i] for i in row] for row in rows]
        if all(t.isdigit() for t in symbols):
            inputs += rows  # ints, looked up by str()
        assert [mps.born_probability(m, s) for s in inputs] == [parent_born_probability(twin, s) for s in inputs]
        assert (m.born_cache is None) == (width == 0)

    @pytest.mark.parametrize("width", [mps.BORN_STACK_WIDTH, 0])
    def test_born_probabilities_match_the_table(self, width, monkeypatch):
        monkeypatch.setattr(mps, "BORN_STACK_WIDTH", width)
        for m in small(list(parent_cases().values())):
            assert_born_matches_table(m)


class Pieces:
    """A file that keeps every piece written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)


class TestStreamedSample:
    """sample(m, count, seed, fh) writes the lines sample returns,
    newline-separated, one write per chain block."""

    @pytest.mark.parametrize(
        "count", [0, 1, mps.CHAIN_BLOCK - 1, mps.CHAIN_BLOCK + 1, 2 * mps.CHAIN_BLOCK + 1]
    )
    @pytest.mark.parametrize("name", list(parent_cases()))
    def test_written_text_is_the_joined_lines(self, name, count):
        m = parent_cases()[name]
        fh = Pieces()
        assert mps.sample(m, count, count, fh) is None
        assert "".join(fh.pieces) == "\n".join(mps.sample(m, count, count))
        assert len(fh.pieces) == -(-count // mps.CHAIN_BLOCK)

    def test_surrogate_symbols_take_the_byte_gather(self):
        # lone surrogates, three UTF-8 bytes each, are gathered and decoded
        # back to themselves, as the parent's string table kept them
        m = dataclasses.replace(mps.parity_target(7), alphabet=("\ud800", "\udc00"))
        lines = mps.sample(m, 300, 9)
        assert lines == parent_sample(m, 300, 9) and {len(s) for s in lines} == {7}
        fh = Pieces()
        mps.sample(m, 300, 9, fh)
        assert fh.pieces == ["\n".join(lines)]


def left_canonical_model(n: int, d: int, chi: int, scale: float, seed: int) -> MatrixProductState:
    """Random isometries, so every right environment has trace scale**2, and
    a last tensor of norm scale. A chain's unrescaled weights are about
    scale**2 times its prefix's probability. Bonds are d, then min(d**k, chi)."""
    rng = np.random.default_rng(seed)
    bonds = [1, d] + [min(d**k, chi) for k in range(2, n)] + [1]
    tensors = [np.eye(d).reshape(1, d, d)]
    for k in range(1, n - 1):
        q, _ = np.linalg.qr(rng.standard_normal((bonds[k] * d, bonds[k + 1])))
        tensors.append(q.reshape(bonds[k], d, bonds[k + 1]))
    last = rng.standard_normal(chi * d)
    tensors.append((scale * last / np.linalg.norm(last)).reshape(chi, d, 1))
    return MatrixProductState(n, d, tuple(tensors))


class TestSampleRounding:
    def test_weights_rounded_below_zero_draw_as_zero(self):
        # symbol 1's weight at site 1 is v @ E @ v, v = (1, -1), with E the
        # rounded outer product of h = (a, b), a and b five ulps apart: exactly
        # (a - b)**2, about 1.2e-30, but every difference in it is exact, so the
        # computed value is fl(a*a) - 2 fl(a*b) + fl(b*b) = -2.2e-16 on any
        # IEEE machine; clipped, it draws as the zero weight it rounds from
        a = 1.1
        b = float(np.nextafter(a, 2))
        for _ in range(4):
            b = float(np.nextafter(b, 2))
        assert (a * a - a * b) - (a * b - b * b) < 0
        first, last = np.eye(2).reshape(1, 2, 2), np.zeros((2, 2, 1))
        last[:, 0, 0] = a, b
        middle = np.zeros((2, 2, 2))
        middle[1, 0] = 1.0, -1.0
        rounded = MatrixProductState(3, 2, (first, middle, last))
        removed = MatrixProductState(3, 2, (first, np.zeros((2, 2, 2)), last))
        assert mps.sample(rounded, 50, seed=4) == mps.sample(removed, 50, seed=4) == ["000"] * 50

    @pytest.mark.parametrize("n, d, chi", [(300, 2, 2), (200, 3, 3)])
    def test_draws_do_not_depend_on_the_model_scale(self, n, d, chi):
        # scaled by 2**-480, a chain's unrescaled weights fall below the
        # smallest double 80 to 180 sites in, while the environments, about
        # 2**-960, stay normal; power-of-two scales leave every rescaled
        # quantity exact, so the draws are those at scale 1
        drawn = mps.sample(left_canonical_model(n, d, chi, 1.0, seed=5), 100, seed=3)
        for scale in (2.0**-480, 2.0**480):
            assert mps.sample(left_canonical_model(n, d, chi, scale, seed=5), 100, seed=3) == drawn


class TestBornOracle:
    def test_trained_models_match_the_table(self):
        for m in small(trained_models()):
            assert_born_matches_table(m)

    def test_hand_built_models_match_the_table(self):
        for m in hand_built_models():
            assert_born_matches_table(m)

    def test_left_to_right_path_matches_the_table(self, monkeypatch):
        monkeypatch.setattr(mps, "BORN_STACK_WIDTH", 0)
        for m in hand_built_models() + small(trained_models())[:8]:
            assert_born_matches_table(m)
            assert m.born_cache is None

    def test_wide_model_contracts_left_to_right(self):
        rng = np.random.default_rng(903)
        ds = SequenceDataset.from_codes(Alphabet(tuple("abcde")), rng.integers(5, size=(60, 4)))
        wide = mps.train(ds, TrainConfig(chi=mps.BORN_STACK_WIDTH + 1))
        assert max(wide.bond_dims) > mps.BORN_STACK_WIDTH
        assert_born_matches_table(wide)
        assert wide.born_cache is None

    @pytest.mark.parametrize(
        "n, depth", [(2, 2), (3, 4), (4, 4), (5, 8), (8, 8), (9, 16), (20, 32)]
    )
    def test_stack_layout(self, n, depth):
        m = mps.parity_target(n)
        stack = mps._born_stack(m)
        assert stack.shape == (depth, 2, 2, 2)
        for k, t in enumerate(m.tensors):
            l, _, r = t.shape
            assert np.array_equal(stack[k, :, :l, :r], t.transpose(1, 0, 2))
            assert not stack[k, :, l:, :].any() and not stack[k, :, :, r:].any()
        assert np.array_equal(stack[n:], np.broadcast_to(np.eye(2), (depth - n, 2, 2, 2)))


class TestBornStackCache:
    def test_cache_is_invisible(self):
        m = mps.train(mps.draw_even_subset(9, 60, 5), TrainConfig(chi=3))
        twin = MatrixProductState(m.n, m.physical_dim, m.tensors, m.alphabet)
        before = (repr(m), hash(m), pickle.dumps(m))
        first = mps.born_probability(m, "011000110")
        assert m.born_cache[0].shape == (2, 256, 3, 3)  # merged: two blocks of 8 sites
        assert (repr(m), hash(m), pickle.dumps(m)) == before
        assert repr(m) == repr(twin) and m == m and m != twin
        back = pickle.loads(pickle.dumps(m))
        assert back.born_cache is None
        assert mps.born_probability(back, "011000110") == first
        assert mps.born_probability(back, [0, 1, 1, 0, 0, 0, 1, 1, 0]) == first
        assert all(not t.flags.writeable for t in back.tensors)

    def test_tensors_and_stack_stay_read_only(self):
        m = mps.parity_target(6)
        mps.born_probability(m, "011000")
        assert m.born_cache[0].shape == (1, 256, 2, 2)  # one block of the whole padded string
        assert mps._born_table(m) is m.born_cache
        assert all(not t.flags.writeable for t in m.tensors)
        with pytest.raises(ValueError):
            m.born_cache[0][0, 0, 0, 0] = 2.0
        # a lone block's leaf is the amplitude: a read-only view into the table
        leaf = m.born_cache[1](tuple("011000"))
        assert leaf.shape == (2, 2) and np.shares_memory(leaf, m.born_cache[0])
        with pytest.raises(ValueError):
            leaf[0, 0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.born_cache = None
        with pytest.raises(ValueError):
            m.tensors[1][0, 0, 0] = 2.0


class SliceLog(tuple):
    """A token tuple that records the (start, stop) of every slice taken of it."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.spans.append((key.start, key.stop))
        return tuple.__getitem__(self, key)


def watched_call(amplitude, tokens):
    """The spans one call of amplitude takes of the tokens, in order, and its product."""
    watched = SliceLog(tokens)
    watched.spans = []
    product = amplitude(watched)
    return watched.spans, product


class TestBornKeys:
    """born_probability's per-block reads of a string's tokens: their spans,
    and the messages of the strings they cannot look up."""

    @pytest.mark.parametrize(
        "n, spans",
        [
            (13, [(0, 8), (8, 13)]),  # the last block partly padded
            (20, [(0, 8), (8, 16), (16, 20)]),  # and a fourth block of pad sites only, never read
            (16, [(0, 8), (8, 16)]),  # a power of two: no pad sites
        ],
    )
    def test_one_lookup_per_block(self, n, spans):
        m = block_case(n, 2, 4)
        mps.born_probability(m, "0" * n)
        table, amplitude = m.born_cache
        assert table.shape == (len(mps._born_stack(m)) // 8, 256, 4, 4) and not table.flags.writeable
        for codes in case_codes(m)[:20]:
            tokens = tuple(m.alphabet.symbols[i] for i in codes)
            taken, product = watched_call(amplitude, tokens)
            # each real block's tokens read once, in the tree's order, none from pad sites
            assert taken == spans and all(lo < n for lo, _ in taken)
            assert float(product[0, 0] ** 2) == mps.born_probability(m, tokens)

    @pytest.mark.parametrize(
        "s, message",
        [
            ("0" * 19, "sequence length 19 does not match model n=20"),
            ("0 1", "sequence length 2 does not match model n=20"),
            ("2" + "0" * 18 + "3", "token '2' is not in the model's alphabet"),
            ("0" * 18 + "x1", "token 'x' is not in the model's alphabet"),
            ([0] * 9 + [5] + [0] * 10, "token '5' is not in the model's alphabet"),
        ],
    )
    def test_refusals_keep_their_messages(self, s, message):
        m = block_case(20, 2, 4)
        mps.born_probability(m, "0" * 20)  # the keys are built
        with pytest.raises(ValueError) as refused:
            mps.born_probability(m, s)
        assert str(refused.value) == message


# (n, d, widest bond): the tables have blocks of 8 sites at d = 2 and of 4 at
# d = 3 and 5, save at n = 3, one block of 4; so n = 3, 9 and 13 are no
# multiple of the width, nor is 20 at d = 2, whose last block holds pad
# sites only, while n = 16 has no pad site. At bond 16, d = 2 merges to
# blocks of 4 and d = 6 stays at the per-site stack.
BLOCK_CASES = [(n, d, 4) for n in (3, 9, 13, 16, 20) for d in (2, 3, 5)] + [(13, 2, 16), (6, 6, 16)]


def block_case(n: int, d: int, bond: int) -> MatrixProductState:
    return left_canonical_model(n, d, bond, 1.0, seed=1600 + 7 * n + d)


def case_codes(m: MatrixProductState) -> np.ndarray:
    """Every string when there are at most 4096, else 300 seeded ones, as index rows."""
    d, n = m.physical_dim, m.n
    if d**n <= 4096:
        return np.array(list(itertools.product(range(d), repeat=n)))
    return np.random.default_rng(d * n).integers(d, size=(300, n))


def tree_product(mats: np.ndarray) -> np.ndarray:
    while len(mats) > 1:
        mats = mats[0::2] @ mats[1::2]
    return mats[0]


class TestBornBlockTable:
    """born_probability from the cached block products, float for float against
    the parent's full pairwise tree and within rounding of distribution_table."""

    @pytest.mark.parametrize("width", [mps.BORN_STACK_WIDTH, 0])
    @pytest.mark.parametrize("n, d, bond", BLOCK_CASES)
    def test_probabilities_equal_the_parent_and_the_table(self, n, d, bond, width, monkeypatch):
        monkeypatch.setattr(mps, "BORN_STACK_WIDTH", width)
        m, twin = block_case(n, d, bond), block_case(n, d, bond)
        codes = case_codes(m)
        lines = lines_of(m, codes)
        born = [mps.born_probability(m, s) for s in lines]
        assert born == [parent_born_probability(twin, s) for s in lines]
        assert (m.born_cache is None) == (width == 0)
        if d**n <= mps.MAX_OUTCOMES:
            table = mps.distribution_table(m)[codes @ d ** np.arange(n - 1, -1, -1)]
            assert np.all(np.abs(np.array(born) - table) <= np.maximum(1e-13 * table, 1e-15))

    @pytest.mark.parametrize("n, d, bond", BLOCK_CASES)
    def test_table_holds_the_trees_block_products(self, n, d, bond):
        m = block_case(n, d, bond)
        stack = mps._born_stack(m)
        table, *_ = mps._born_table(m)
        depth = len(stack)
        blocks, combos = table.shape[:2]
        width = depth // blocks
        assert table.shape == (blocks, d**width) + stack.shape[2:] and blocks * width == depth
        # the byte rule: within P * BORN_STACK_WIDTH**3 floats, and the next level beyond it
        limit = depth * mps.BORN_STACK_WIDTH**3
        assert table.size <= limit
        assert blocks == 1 or table.size * combos // 2 > limit
        rng = np.random.default_rng(n * d)
        for j in range(blocks):
            for c in rng.choice(combos, size=min(combos, 40), replace=False):
                digits = np.unravel_index(c, (d,) * width)
                mats = stack[np.arange(j * width, j * width + width), digits]
                assert table[j, c].tobytes() == tree_product(mats).tobytes()

    def test_width_at_the_benchmark_shape(self):
        # an n = 20 bit model of chi 2: 4 blocks of 8 sites, 1024 rows, 32 KB
        m = mps.train(mps.draw_even_subset(20, 2000, 1), TrainConfig(chi=2))
        mps.born_probability(m, "0" * 20)
        table, *_ = m.born_cache
        assert table.shape == (4, 256, 2, 2) and table.nbytes == 32768

    def test_real_block_counts_reach_every_tree_shape(self):
        # 1 to 4 real blocks, and more, each float-equal to the parent's full
        # tree in test_probabilities_equal_the_parent_and_the_table: a lone
        # block, pairs, a last block carried up a level, and deeper trees
        counts = set()
        for n, d, bond in BLOCK_CASES:
            m = block_case(n, d, bond)
            _, amplitude = mps._born_table(m)
            taken, _ = watched_call(amplitude, m.alphabet.symbols[:1] * n)
            counts.add(len(taken))
        assert {1, 2, 3, 4} <= counts and max(counts) >= 5

    @pytest.mark.parametrize("n, d, bond", BLOCK_CASES)
    def test_no_pad_only_block_is_looked_up(self, n, d, bond):
        m = block_case(n, d, bond)
        table, amplitude = mps._born_table(m)
        width = len(mps._born_stack(m)) // len(table)
        real = [(lo, min(lo + width, n)) for lo in range(0, n, width)]  # the blocks that hold a real site
        for codes in case_codes(m)[:50]:
            tokens = tuple(m.alphabet.symbols[i] for i in codes)
            taken, product = watched_call(amplitude, tokens)
            assert taken == real and all(lo < n for lo, _ in taken)
            assert float(product[0, 0] ** 2) == mps.born_probability(m, tokens)

    def test_int_tokens_on_a_bit_model(self):
        m = block_case(13, 2, 4)
        bits = (0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1)
        assert mps.born_probability(m, bits) == mps.born_probability(m, "0110100011101")
        assert mps.born_probability(m, bits) == mps.born_probability(m, [str(b) for b in bits])

    @pytest.mark.parametrize(
        "s, message",
        [
            ("01", "sequence length 2 does not match model n=5"),
            ((0, 1, 1), "sequence length 3 does not match model n=5"),
            ("01201", "token '2' is not in the model's alphabet"),
            ((0, 1, 2, 0, 1), "token '2' is not in the model's alphabet"),
            ("0 1 x 0 1", "token 'x' is not in the model's alphabet"),
        ],
    )
    def test_messages_are_unchanged(self, s, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            mps.born_probability(mps.parity_target(5), s)
