"""Every size bound, one row each: refused just above its limit before anything
is allocated, with the one message shape, and accepted just below it."""

import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from click.testing import CliRunner

from qdensity import fca, mps
from qdensity.cli import main
from qdensity.empirical import cut_counts, parse_dataset
from qdensity.mps import TrainConfig
from qdensity.qprob import Alphabet, JointDistribution

PEAK_BOUND = 5 * 2**20


def pairs(rows: int, cols: int) -> list[tuple[str, str]]:
    """rows x symbols against cols y symbols: x_i relates to y_(i mod cols)."""
    return [(f"x{i}", f"y{i % cols}") for i in range(rows)]


def product_via_cut_counts(rows: int) -> Callable:
    # each line is one prefix and one suffix at cut 1: a rows x 1024 count table
    ds = parse_dataset(f"{x} {y}" for x, y in pairs(rows, 1024))
    return lambda: cut_counts(ds, 1)


def product_via_table(rows: int) -> Callable:
    x, y = Alphabet([f"x{i}" for i in range(rows)]), Alphabet([f"y{j}" for j in range(1024)])
    probs = np.full((rows, 1024), 2.0**-20)  # exact unit total at 1024 rows
    return lambda: JointDistribution(x, y, probs)


def product_via_from_pairs(rows: int) -> Callable:
    related = pairs(rows, 1024)
    return lambda: fca.Relation.from_pairs(related)


def ternary_model(n: int) -> mps.MatrixProductState:
    # 3**13 outcomes lie below MAX_OUTCOMES = 2**22 and 3**14 above it, in a
    # table of 13 MB where 2**22 bit strings would take 32 MB
    first = np.eye(3).reshape(1, 3, 3)
    rest = (np.full((1, 3, 1), 3**-0.5),) * (n - 2)
    return mps.MatrixProductState(n, 3, (first, np.full((3, 3, 1), 1 / 3)) + rest)


def outcomes(n: int) -> Callable:
    model = ternary_model(n)
    return lambda: mps.distribution_table(model)


def enumeration_side(side: int) -> Callable:
    # side objects, side + 1 attributes: the smaller side is the one bounded
    relation = fca.Relation.from_pairs(pairs(side, side) + [("x0", f"y{side}")])
    return lambda: fca.formal_concepts(relation)


def experiment_length(n: int) -> Callable:
    return lambda: mps.run_experiment(n, [2.0**-20], 1, 0, TrainConfig(chi=2))


def indexed_length(n: int) -> Callable:
    return lambda: mps.draw_even_subset(n, 5, seed=0)


@dataclass(frozen=True)
class Bound:
    build: Callable[[int], Callable]  # the size -> a call that meets the bound
    below: int
    above: int
    message: str


BOUNDS = {
    "product-cut-counts": Bound(
        product_via_cut_counts, 1024, 1025,
        "product space of 1049600 entries exceeds the supported 1048576",
    ),
    "product-table": Bound(
        product_via_table, 1024, 1025,
        "product space of 1049600 entries exceeds the supported 1048576",
    ),
    "product-from-pairs": Bound(
        product_via_from_pairs, 1024, 1025,
        "product space of 1049600 entries exceeds the supported 1048576",
    ),
    "outcomes": Bound(
        outcomes, 13, 14, "distribution table of 4782969 outcomes exceeds the supported 4194304"
    ),
    "enumeration-side": Bound(
        enumeration_side, 24, 25, "relation's smaller side of 25 symbols exceeds the supported 24"
    ),
    "experiment-length": Bound(
        experiment_length, 24, 25, "experiment length of 25 bits exceeds the supported 24"
    ),
    "int64-length": Bound(
        indexed_length, 63, 64,
        "int64-indexed even-string length of 64 bits exceeds the supported 63",
    ),
}


@pytest.mark.parametrize("bound", BOUNDS.values(), ids=BOUNDS.keys())
def test_just_above_the_limit_is_refused_before_allocating(bound):
    call = bound.build(bound.above)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == bound.message
    assert peak < PEAK_BOUND


@pytest.mark.parametrize("bound", BOUNDS.values(), ids=BOUNDS.keys())
def test_just_below_the_limit_is_accepted(bound):
    bound.build(bound.below)()


def lines(related, head=None, row="{} {}"):
    return "".join(([head + "\n"] if head else []) + [row.format(x, y) + "\n" for x, y in related])


# test_cli.py covers a distribution CSV's product refusal, which names the
# file, and the enumeration side's, at the command line. A refusal of what
# an input file holds names the file; one of a flag's value does not.
@pytest.mark.parametrize(
    "text, args, bound, prefix",
    [
        (lines(pairs(1025, 1024)), ["reduce", "{path}", "--cut", "1"], "product-cut-counts", "{path}: "),
        (lines(pairs(1025, 1024), "x,y", "{},{}"), ["concepts", "{path}"], "product-from-pairs", "{path}: "),
        ("", ["parity", "experiment", "--n", "25", "--fractions", "0.5", "--replicas", "1"], "experiment-length", ""),
        ("", ["parity", "train", "--n", "64", "--fraction", "0.5", "--model", "{model}"], "int64-length", ""),
    ],
    ids=["reduce-cut", "concepts", "experiment", "train"],
)
def test_commands_report_the_refusal_as_an_error_line(tmp_path, text, args, bound, prefix):
    path, model = tmp_path / "input", tmp_path / "m.json"
    path.write_text(text)
    result = CliRunner().invoke(main, [a.format(path=path, model=model) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {prefix.format(path=path)}{BOUNDS[bound].message}\n" in result.output
    assert "Traceback" not in result.output
    assert not model.exists()
