import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from qdensity._format import dumps
from qdensity.cli import main

from conftest import per_element_dumps

SPECIAL_DOUBLES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # largest subnormal
    2.2250738585072014e-308,  # smallest normal
    1e16,
    1e17,
    -1e17,
    2.0**53 + 2.0,
    0.1,
    1 / 3,
    1.7976931348623157e308,
    -1.7976931348623157e308,
]


def random_doubles(rng, count: int) -> list[float]:
    """Finite doubles: half uniform over the bit patterns, half log-uniform over 1e-300..1e300."""
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    spread = rng.choice([-1.0, 1.0], size=count) * 10.0 ** rng.uniform(-300, 300, size=count)
    return bits.tolist() + spread.tolist()


def random_leaf(rng):
    kind = int(rng.integers(0, 16))
    if kind == 0:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-30, 30))
    if kind == 1:
        return [math.nan, math.inf, -math.inf, -0.0][rng.integers(0, 4)]
    if kind == 2:
        return int(rng.integers(-(10**6), 10**6))
    if kind == 3:
        return bool(rng.integers(0, 2))
    if kind == 4:
        return None
    if kind == 5:
        return "".join(rng.choice(list("ab\t\"\\é "), size=rng.integers(0, 6)))
    if kind == 6:
        return rng.choice([np.float64, np.float32, np.int64, np.bool_])(rng.standard_normal())
    if kind == 7:
        shape = tuple(int(s) for s in rng.integers(1, 5, size=rng.integers(1, 4)))
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5)
        if rng.random() < 0.5:
            a.flat[rng.integers(0, a.size)] = [math.nan, math.inf, -math.inf][rng.integers(0, 3)]
        return a
    if kind == 8:
        return rng.standard_normal((int(rng.integers(1, 4)), int(rng.integers(1, 5)))).astype(np.float32)
    if kind == 9:
        return rng.integers(-50, 50, size=(int(rng.integers(1, 4)), int(rng.integers(1, 4))))
    if kind == 10:
        return rng.random(int(rng.integers(1, 6))) < 0.5
    if kind == 11:
        return np.array(rng.standard_normal())  # 0-d
    if kind == 12:
        return np.zeros([(0,), (0, 3), (2, 0)][rng.integers(0, 3)])
    if kind == 13:  # a row mixing ints, floats and numpy floats
        return [1, 2.5, np.float64(0.1), -3, 1e-300][: int(rng.integers(1, 6))]
    if kind == 14:
        return rng.random(int(rng.integers(1, 8))).tolist()
    return []


def random_value(rng, depth: int = 0):
    kind = int(rng.integers(0, 4 if depth < 3 else 1))
    if kind == 0:
        return random_leaf(rng)
    size = int(rng.integers(0, 5))
    if kind == 1:
        return [random_value(rng, depth + 1) for _ in range(size)]
    if kind == 2:
        return tuple(random_value(rng, depth + 1) for _ in range(size))
    return {f"k{i}\t{depth}": random_value(rng, depth + 1) for i in range(size)}


class TestDumpsAgainstOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_nested_values(self, seed):
        rng = np.random.default_rng(seed)
        obj = {f"v{i}": random_value(rng) for i in range(6)}
        assert dumps(obj) == per_element_dumps(obj)

    @pytest.mark.parametrize(
        "row",
        [
            [0.1, math.nan, 2.0],
            [math.inf, 1.0],
            [-math.inf],
            [1, 0.5],
            [0.5, 1],
            [True, 1.0],
            [1.0, False],
            [np.float64(0.1), 0.2],
            [0.2, np.float32(0.1)],
            ["a", 1.0],
            [1.0, None],
            [[1.0, 2.0], [3.0, math.nan]],
            [1.0, [2.0]],
            np.array([[0.1, 0.2], [math.nan, 0.3], [math.inf, -math.inf]]),
            # arrays: each gives the bytes of its tolist through the per-element
            # oracle, whether it is checked once (finite float64) or entry by entry
            np.array([0.5, math.nan]),
            np.array([[math.inf], [1.0]]),
            np.array([[1.0, -math.inf]]),
            np.array([[-0.0, 0.0], [1e-300, -5e-324]]),
            np.array([[3, -4], [0, 2**62]], dtype=np.int64),
            np.array([[True, False]]),
            np.zeros((0, 3)),
            np.zeros((3, 0)),
            np.array([0.1, -0.0, 1e17, 2.0**53 + 2.0]),
            np.arange(24.0).reshape(2, 3, 4) / 7,
            np.arange(6.0).reshape(1, 1, 6) - 2.5,
        ],
    )
    def test_rows_taking_the_per_element_path(self, row):
        assert dumps(row) == per_element_dumps(row)

    def test_finite_row_text(self):
        assert dumps([0.1, -0.0, 1e17, 0.5]) == "[0.10000000000000001, -0, 1e+17, 0.5]"
        assert dumps(np.eye(2)) == "[[1, 0], [0, 1]]"
        assert dumps([0.1, math.nan]) == "[0.10000000000000001, NaN]"
        assert dumps([1, 0.5]) == "[1, 0.5]"

    @pytest.mark.parametrize("seed", range(4))
    def test_long_rows(self, seed):
        rng = np.random.default_rng(100 + seed)
        values = random_doubles(rng, 2000)
        rows = [values[i : i + 397] for i in range(0, len(values), 397)]
        assert dumps(rows) == per_element_dumps(rows)
        assert dumps(np.array(values)) == per_element_dumps(values)


class TestStreamedDumps:
    def test_written_pieces_join_to_dumps(self, tmp_path):
        rng = np.random.default_rng(40)
        for _ in range(50):
            obj = random_value(rng)
            path = tmp_path / "out.json"
            with open(path, "w", encoding="utf-8") as fh:
                assert dumps(obj, fh) is None
            assert path.read_text(encoding="utf-8") == dumps(obj)

    def test_heap_is_bounded_by_a_row_not_by_the_output(self, tmp_path):
        # 4.9 MB of JSON from a 400 x 400 and a 180 x 400 array: the heap the
        # writer needs was measured at 0.20 MB (the larger array's isfinite
        # mask, 0.16 MB, and one row's text), against 9.9 MB for joining the
        # whole text and writing it at once
        rng = np.random.default_rng(41)
        result = {"labels": [f"s{i}" for i in range(400)], "rho": rng.standard_normal((400, 400)),
                  "vectors": rng.standard_normal((180, 400)), "entropies": {"x": 0.5}}
        path = tmp_path / "out.json"
        with open(path, "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                dumps(result, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert path.stat().st_size >= 4 * 10**6
        assert peak <= 0.5 * 10**6
        assert path.read_text(encoding="utf-8") == dumps(result)


class TestPercentG:
    """dumps formats a finite row with %, the oracle with format()."""

    def test_special_doubles(self):
        for x in SPECIAL_DOUBLES:
            assert "%.17g" % x == format(x, ".17g"), x
        assert dumps(SPECIAL_DOUBLES) == per_element_dumps(SPECIAL_DOUBLES)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_doubles(self, seed):
        rng = np.random.default_rng(seed)
        values = random_doubles(rng, 25000)
        subnormal = (rng.random(2000) * 2.2250738585072014e-308).tolist()
        for x in values + subnormal:
            assert "%.17g" % x == format(x, ".17g"), x


# The pinned reduce inputs keep every printed number fixed by IEEE arithmetic
# alone, so the hashes do not depend on the LAPACK build or the CPU. Each
# prefix has one suffix of its own and both are first seen in the same order,
# so the amplitude matrix is diagonal and the SVD and eigensolvers return it
# exactly. Every probability is 1/4 or 1/16: square roots and squares are
# exact, and the logarithms are multiples of ln 2 that numpy's log and
# math.log agree on. Sample lines are discrete. The hashes are those of the
# per-element emitter's output.
EXACT_PROBS = (0.25, 0.25, 0.25, 0.0625, 0.0625, 0.0625, 0.0625)

PINNED = {
    "reduce_dataset": "f9db3621e079a964d92be2f77c011f3a230c843879386ae9e5caaa246a6db7e5",
    "reduce_csv": "070ab961d8759ca1fd0978e0b371b985e06157108b08c2f7ed166601cba90a92",
    "sample_bits": "d0d8334ffc2f31f566e3310be05b00b55bee6dbfd20d9724a99891e84aee0cf1",
    "sample_words": "7cea34f93dac7ccd44f12282cdf5c5e866d74735cb21e6a1cb66b5e7b4fccb27",
}


def exact_pairs(seed: int) -> list[tuple[str, str, float]]:
    rng = np.random.default_rng(seed)
    pairs = [(f"w{i} p{i}", f"s{i} t{i}", p) for i, p in enumerate(EXACT_PROBS)]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestPinnedOutputs:
    def test_reduce_dataset(self, tmp_path):
        lines = [f"{x} {y}" for x, y, p in exact_pairs(3) for _ in range(round(p * 16))]
        order = np.random.default_rng(4).permutation(len(lines))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(lines[i] + "\n" for i in order))
        out = tmp_path / "reduce.json"
        run(["reduce", str(corpus), "--cut", "2", "--out", str(out)])
        assert sha256_of(out) == PINNED["reduce_dataset"]

    def test_reduce_csv(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("x,y,p\n" + "".join(f"{x},{y},{p}\n" for x, y, p in exact_pairs(5)))
        out = tmp_path / "reduce.json"
        run(["reduce", str(path), "--out", str(out)])
        assert sha256_of(out) == PINNED["reduce_csv"]

    def test_sample_bits(self, tmp_path):
        model, out = tmp_path / "model.json", tmp_path / "samples.txt"
        run(["parity", "train", "--n", "10", "--fraction", "0.25", "--seed", "7", "--model", str(model)])
        run(["parity", "sample", "--model", str(model), "--count", "9000", "--seed", "8", "--out", str(out)])
        assert sha256_of(out) == PINNED["sample_bits"]

    def test_sample_words(self, tmp_path):
        rng = np.random.default_rng(9)
        words = np.array(["red", "green", "blue"])[rng.integers(0, 3, size=(300, 5))]
        data = tmp_path / "words.txt"
        data.write_text("".join(" ".join(row) + "\n" for row in words.tolist()))
        model, out = tmp_path / "model.json", tmp_path / "samples.txt"
        run(["parity", "train", "--data", str(data), "--chi", "3", "--model", str(model)])
        run(["parity", "sample", "--model", str(model), "--count", "5000", "--seed", "10", "--out", str(out)])
        assert sha256_of(out) == PINNED["sample_words"]
