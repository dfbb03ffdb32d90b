"""The four benchmark workloads: seeded inputs, the ops of one pass, output checks.

Each workload turns the benchmark seed into input files and flags, lists the
ops of one pass (CLI invocations plus the two library calls the CLI does not
expose), names the trace spans it must produce, and checks the outputs of a
pass with numpy alone, never with qdensity. Everything here runs outside the
timed region.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TOL_TABLE_SUM = 1e-9
TOL_OVERLAP = 1e-10
TOL_BORN = 1e-12  # relative: the probabilities are about 2**-19
TOL_DECOMPOSE = 1e-10
TOL_COUNTED = 1e-12

# parity_experiment: the ROADMAP headline, run serially.
EXPERIMENT_N = 16
EXPERIMENT_FRACTIONS = (0.025, 0.05, 0.1, 0.2)
EXPERIMENT_REPLICAS = 10

# parity_model: one large sweep, then the contractions on its model.
MODEL_N = 20
MODEL_FRACTION = 0.05
MODEL_SAMPLES = 50000
MODEL_BORN = 5000

# corpus: Zipf(1.1) tokens per position, position-specific vocabularies.
CORPUS_LINES = 20000
CORPUS_VOCAB = (6, 30, 40, 10)
CORPUS_ZIPF = 1.1
CORPUS_LETTERS = "abcd"
CORPUS_REDUCE_CUT = 2

# concepts: planted bicliques plus noise on an 18 x 24 relation.
RELATION_SHAPE = (18, 24)
RELATION_BICLIQUES = 6
RELATION_NOISE = 0.22


@dataclass
class Plan:
    """What one run of a workload executes and how its outputs are judged."""

    ops: list[dict]
    properties: dict
    context: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[str, int], Plan]
    check: Callable[[str, Plan], dict[str, list[str]]]
    spans: tuple[str, ...]


def _cli(name: str, args: list[str], outputs: list[str]) -> dict:
    return {"name": name, "kind": "cli", "args": args, "outputs": outputs}


def _even_codes(n: int, count: int, seed: int) -> np.ndarray:
    """Bit matrix of the even-parity draw, replayed with numpy's generator."""
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(2 ** (n - 1), size=count, replace=False))
    head = (picks[:, None] >> np.arange(n - 2, -1, -1)) & 1
    return np.hstack([head, head.sum(axis=1, keepdims=True) % 2])


def _suffix_groups(bits: np.ndarray) -> int:
    """Sum over the sweep's cuts k = 2..n-1 of the distinct suffixes bits[:, k:]."""
    n = bits.shape[1]
    total = 0
    for k in range(2, n):
        codes = bits[:, k:] @ (1 << np.arange(n - k - 1, -1, -1))
        total += len(np.unique(codes))
    return total


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _guarded(problems: dict[str, list[str]], op: str, check: Callable[[], list[str]]) -> None:
    """Run one op's check; a crash in the check (bad JSON, missing file) is a failure."""
    try:
        problems[op] = check()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems[op] = [f"unreadable output: {exc!r}"]


# --- parity_experiment -------------------------------------------------------


def _make_experiment(workdir: str, seed: int) -> Plan:
    args = [
        "parity", "experiment", "--n", str(EXPERIMENT_N),
        "--fractions", ",".join(str(f) for f in EXPERIMENT_FRACTIONS),
        "--replicas", str(EXPERIMENT_REPLICAS), "--seed", str(seed), "--out", "experiment.csv",
    ]
    samples = distinct = groups = 0
    for f in EXPERIMENT_FRACTIONS:
        count = round(f * 2 ** (EXPERIMENT_N - 1))
        for r in range(EXPERIMENT_REPLICAS):
            bits = _even_codes(EXPERIMENT_N, count, seed + r)
            samples += count
            distinct += len(np.unique(bits @ (1 << np.arange(EXPERIMENT_N)[::-1])))
            groups += _suffix_groups(bits)
    props = {
        "n": EXPERIMENT_N,
        "sweeps": len(EXPERIMENT_FRACTIONS) * EXPERIMENT_REPLICAS,
        "samples": samples,
        "distinct_samples": distinct,
        "suffix_groups": groups,
    }
    return Plan([_cli("parity_experiment", args, ["experiment.csv"])], props, {"seed": seed})


def _check_experiment(workdir: str, plan: Plan) -> dict[str, list[str]]:
    def check() -> list[str]:
        lines = _read_lines(f"{workdir}/experiment.csv")
        bad = []
        if lines[0] != "fraction,replica,seed,n_samples,bhattacharyya":
            bad.append(f"header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(EXPERIMENT_FRACTIONS) * EXPERIMENT_REPLICAS:
            bad.append(f"{len(rows)} rows")
        by_fraction: dict[float, list[float]] = {}
        for cells in rows:
            f, r, s, count, dist = float(cells[0]), int(cells[1]), int(cells[2]), int(cells[3]), float(cells[4])
            if count != round(f * 2 ** (EXPERIMENT_N - 1)) or s != plan.context["seed"] + r:
                bad.append(f"row {cells}: wrong n_samples or seed")
            if not (math.isfinite(dist) and dist >= 0):
                bad.append(f"row {cells}: distance not finite and nonnegative")
            by_fraction.setdefault(f, []).append(dist)
        if sorted(by_fraction) != list(EXPERIMENT_FRACTIONS):
            bad.append(f"fractions {sorted(by_fraction)}")
        means = [float(np.mean(by_fraction.get(f, [np.nan]))) for f in EXPERIMENT_FRACTIONS]
        if not all(a > b for a, b in zip(means, means[1:])):
            bad.append(f"per-fraction means do not decrease: {means}")
        return bad

    problems: dict[str, list[str]] = {}
    _guarded(problems, "parity_experiment", check)
    return problems


# --- parity_model ------------------------------------------------------------


def _make_model(workdir: str, seed: int) -> Plan:
    count = round(MODEL_FRACTION * 2 ** (MODEL_N - 1))
    bits = _even_codes(MODEL_N, count, seed)
    ops = [
        _cli("parity_train", ["parity", "train", "--n", str(MODEL_N), "--fraction", str(MODEL_FRACTION),
                              "--seed", str(seed), "--model", "model.json"], ["model.json"]),
        _cli("parity_eval", ["parity", "eval", "--model", "model.json", "--out", "eval.json"], ["eval.json"]),
        _cli("parity_sample", ["parity", "sample", "--model", "model.json", "--count", str(MODEL_SAMPLES),
                               "--seed", str(seed), "--out", "samples.txt"], ["samples.txt"]),
        {"name": "born_probability", "kind": "born", "model": "model.json", "samples": "samples.txt",
         "count": MODEL_BORN, "outputs": ["born.json"]},
    ]
    props = {
        "n": MODEL_N,
        "samples": count,
        "distinct_samples": len(np.unique(bits @ (1 << np.arange(MODEL_N)[::-1]))),
        "suffix_groups": _suffix_groups(bits),
        "sampled_strings": MODEL_SAMPLES,
        "born_strings": MODEL_BORN,
    }
    return Plan(ops, props)


def _born_table(model: dict) -> np.ndarray:
    """Signed amplitudes of every sequence, contracted from the saved tensors."""
    tensors = [np.asarray(t, dtype=float) for t in model["tensors"]]
    amps = tensors[0][0]
    for t in tensors[1:]:
        amps = np.tensordot(amps, t, axes=([-1], [0]))
    return amps[..., 0].reshape(-1)


def _check_model(workdir: str, plan: Plan) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    state: dict = {}

    def check_train() -> list[str]:
        model = _load_json(f"{workdir}/model.json")
        amps = _born_table(model)
        state["amps"], state["n"] = amps, int(model["n"])
        total = float((amps**2).sum())
        return [] if abs(total - 1.0) <= TOL_TABLE_SUM else [f"Born table sums to {total!r}"]

    _guarded(problems, "parity_train", check_train)
    if "amps" not in state:
        for op in ("parity_eval", "parity_sample", "born_probability"):
            problems[op] = ["no model to check against"]
        return problems
    amps, n = state["amps"], state["n"]
    probs = amps**2
    parity = np.arange(len(amps))
    for shift in (32, 16, 8, 4, 2, 1):
        parity ^= parity >> shift
    even = (parity & 1) == 0

    def check_eval() -> list[str]:
        reported = float(_load_json(f"{workdir}/eval.json")["inner_product"])
        overlap = float(amps[even].sum() * 2 ** (-(n - 1) / 2))
        if abs(reported - overlap) > TOL_OVERLAP:
            return [f"inner product {reported!r} != independent overlap {overlap!r}"]
        return []

    def sample_codes() -> tuple[np.ndarray, int]:
        lines = _read_lines(f"{workdir}/samples.txt")
        return np.array([int(line, 2) for line in lines]), len(lines)

    def check_sample() -> list[str]:
        drawn, count = sample_codes()
        bad = [] if count == MODEL_SAMPLES else [f"{count} samples"]
        zero = int((probs[drawn] <= 0).sum())
        return bad + ([f"{zero} samples with zero table probability"] if zero else [])

    def check_born() -> list[str]:
        reported = np.asarray(_load_json(f"{workdir}/born.json"), dtype=float)
        drawn, _ = sample_codes()
        expected = probs[drawn[: len(reported)]]
        bad = [] if len(reported) == MODEL_BORN else [f"{len(reported)} probabilities"]
        err = float(np.max(np.abs(reported - expected) / expected)) if len(reported) else math.inf
        return bad + ([f"born_probability off the table by {err!r} relative"] if err > TOL_BORN else [])

    _guarded(problems, "parity_eval", check_eval)
    _guarded(problems, "parity_sample", check_sample)
    _guarded(problems, "born_probability", check_born)
    return problems


# --- corpus ------------------------------------------------------------------


def _zipf_column(rng: np.random.Generator, vocab: int, letter: str) -> np.ndarray:
    p = np.arange(1, vocab + 1, dtype=float) ** -CORPUS_ZIPF
    return np.array([f"{letter}{i}" for i in range(vocab)])[rng.choice(vocab, size=CORPUS_LINES, p=p / p.sum())]


def _make_corpus(workdir: str, seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    columns = [_zipf_column(rng, v, letter) for v, letter in zip(CORPUS_VOCAB, CORPUS_LETTERS)]
    rows = [tuple(r) for r in zip(*(c.tolist() for c in columns))]
    with open(f"{workdir}/corpus.txt", "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(r) + "\n" for r in rows)
    top1 = Counter(r[0] for r in rows).most_common(1)[0][0]
    top2 = Counter(r[1] for r in rows if r[0] == top1).most_common(1)[0][0]
    cut = len(CORPUS_VOCAB) - 1
    ops = [
        _cli("reduce", ["reduce", "corpus.txt", "--cut", str(CORPUS_REDUCE_CUT), "--out", "reduce.json"],
             ["reduce.json"]),
        _cli("entail", ["entail", "corpus.txt", "--pattern", f"1={top1}", "--against", f"1={top1},2={top2}",
                        "--out", "entail.json"], ["entail.json"]),
        {"name": "decompose", "kind": "decompose", "corpus": "corpus.txt", "pattern": {"1": top1},
         "outputs": ["decompose.json"]},
    ]
    props = {
        "lines": CORPUS_LINES,
        "reduce_prefixes": len({r[:CORPUS_REDUCE_CUT] for r in rows}),
        "reduce_suffixes": len({r[CORPUS_REDUCE_CUT:] for r in rows}),
        "prefixes": len({r[:cut] for r in rows}),
        "suffixes": len({r[cut:] for r in rows}),
        "decompose_parts": len({r[:cut] for r in rows if r[0] == top1}),
    }
    return Plan(ops, props, {"rows": rows, "top1": top1, "top2": top2})


def _check_corpus(workdir: str, plan: Plan) -> dict[str, list[str]]:
    rows, top1, top2 = plan.context["rows"], plan.context["top1"], plan.context["top2"]
    total = len(rows)
    problems: dict[str, list[str]] = {}

    def check_reduce() -> list[str]:
        out = _load_json(f"{workdir}/reduce.json")
        bad = []
        for side, key, part in (("x", "marginal_x", slice(0, CORPUS_REDUCE_CUT)),
                                ("y", "marginal_y", slice(CORPUS_REDUCE_CUT, None))):
            counted = Counter(" ".join(r[part]) for r in rows)
            labels = out[f"{side}_alphabet"]
            if sorted(labels) != sorted(counted) or len(out[key]) != len(labels):
                bad.append(f"{side} alphabet differs from the counted one")
                continue
            err = max(abs(p - counted[lab] / total) for lab, p in zip(labels, out[key]))
            if err > TOL_COUNTED:
                bad.append(f"{key} off the counted frequencies by {err!r}")
        return bad

    def check_entail() -> list[str]:
        out = _load_json(f"{workdir}/entail.json")
        with_top1 = [r for r in rows if r[0] == top1]
        expected = sum(r[1] == top2 for r in with_top1) / len(with_top1)
        if abs(float(out["scale"]) - expected) > TOL_COUNTED:
            return [f"scale {out['scale']!r} != counted conditional probability {expected!r}"]
        return []

    def check_decompose() -> list[str]:
        out = _load_json(f"{workdir}/decompose.json")
        labels = out["suffix_alphabet"]
        index = {lab: i for i, lab in enumerate(labels)}
        weights = np.asarray(out["weights"], dtype=float)
        mixed = np.einsum("p,pab->ab", weights, np.asarray(out["densities"], dtype=float))
        counts = Counter((r[:-1], r[-1]) for r in rows if r[0] == top1)
        prefixes = sorted({p for p, _ in counts})
        cols = np.zeros((len(labels), len(prefixes)))
        pidx = {p: i for i, p in enumerate(prefixes)}
        for (p, s), c in counts.items():
            cols[index[s], pidx[p]] = math.sqrt(c / total)
        expected = cols @ cols.T
        expected /= np.trace(expected)
        bad = []
        if sorted(tuple(p) for p in out["prefixes"]) != prefixes:
            bad.append("parts are not the full prefixes refining the pattern")
        if abs(float(weights.sum()) - 1.0) > TOL_DECOMPOSE:
            bad.append(f"weights sum to {float(weights.sum())!r}")
        err = float(np.max(np.abs(mixed - expected)))
        if err > TOL_DECOMPOSE:
            bad.append(f"weighted densities off the pattern density by {err!r}")
        return bad

    _guarded(problems, "reduce", check_reduce)
    _guarded(problems, "entail", check_entail)
    _guarded(problems, "decompose", check_decompose)
    return problems


# --- concepts ----------------------------------------------------------------


def _make_relation(seed: int) -> np.ndarray:
    """Planted bicliques plus uniform noise; every row and column gets an edge."""
    rng = np.random.default_rng(seed)
    rows, cols = RELATION_SHAPE
    table = rng.random(RELATION_SHAPE) < RELATION_NOISE
    for _ in range(RELATION_BICLIQUES):
        r = rng.choice(rows, size=rng.integers(3, 7), replace=False)
        c = rng.choice(cols, size=rng.integers(3, 8), replace=False)
        table[np.ix_(r, c)] = True
    for i in np.flatnonzero(~table.any(axis=1)):
        table[i, rng.integers(cols)] = True
    for j in np.flatnonzero(~table.any(axis=0)):
        table[rng.integers(rows), j] = True
    return table


def _row_masks(table: np.ndarray) -> np.ndarray:
    return (table.astype(np.int64) << np.arange(table.shape[1])).sum(axis=1)


def count_concepts(table: np.ndarray) -> int:
    """Concepts with nonempty extent and intent, by closing every row subset.

    Intents are attribute bitmasks; the intent of each of the 2^rows row
    subsets is built by doubling, and each distinct one is a closed intent.
    """
    masks = _row_masks(table)
    intents = np.array([(1 << table.shape[1]) - 1], dtype=np.int64)
    for m in masks:
        intents = np.unique(np.concatenate([intents, intents & m]))
    return sum(1 for b in intents if b and ((masks & b) == b).any())


def _make_concepts(workdir: str, seed: int) -> Plan:
    table = _make_relation(seed)
    with open(f"{workdir}/relation.csv", "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        fh.writelines(f"o{i},a{j}\n" for i, j in zip(*np.nonzero(table)))
    concepts = count_concepts(table)
    ops = [_cli("concepts", ["concepts", "relation.csv", "--compare-eigen", "--out", "concepts.json"],
                ["concepts.json"])]
    props = {
        "objects": RELATION_SHAPE[0],
        "attributes": RELATION_SHAPE[1],
        "edges": int(table.sum()),
        "density": float(table.mean()),
        "concepts": concepts,
    }
    return Plan(ops, props, {"table": table, "concepts": concepts})


def _check_concepts(workdir: str, plan: Plan) -> dict[str, list[str]]:
    table, expected = plan.context["table"], plan.context["concepts"]

    def check() -> list[str]:
        out = _load_json(f"{workdir}/concepts.json")
        bad = []
        seen = set()
        for c in out["concepts"]:
            extent = frozenset(int(x[1:]) for x in c["extent"])
            intent = frozenset(int(y[1:]) for y in c["intent"])
            shared = frozenset(np.flatnonzero(table[sorted(extent)].all(axis=0)).tolist())
            holders = frozenset(np.flatnonzero(table[:, sorted(intent)].all(axis=1)).tolist())
            if shared != intent or holders != extent:
                bad.append(f"concept {c} is not Galois-closed")
            if (extent, intent) in seen:
                bad.append(f"concept {c} repeats")
            seen.add((extent, intent))
        if len(out["concepts"]) != expected or out["count"] != expected:
            bad.append(f"{len(out['concepts'])} concepts (count field {out['count']}), enumerated {expected}")
        return bad

    problems: dict[str, list[str]] = {}
    _guarded(problems, "concepts", check)
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("parity_experiment", _make_experiment, _check_experiment,
                 ("cli.parity_experiment", "mps.train", "mps.draw_even_subset", "linalg.sym_eigen",
                  "mps.inner_product")),
        Workload("parity_model", _make_model, _check_model,
                 ("cli.parity_train", "cli.parity_eval", "cli.parity_sample", "mps.train",
                  "mps.draw_even_subset", "linalg.sym_eigen", "mps.inner_product", "mps.sample",
                  "mps.born_probability", "mps.save_model", "mps.load_model", "format.dumps")),
        Workload("corpus", _make_corpus, _check_corpus,
                 ("cli.reduce", "cli.entail", "empirical.load_dataset", "empirical.empirical_distribution",
                  "qprob.schmidt", "qprob.reduced_via_gram", "linalg.svd", "entailment.pattern_density",
                  "entailment.decompose", "linalg.is_psd", "format.dumps")),
        Workload("concepts", _make_concepts, _check_concepts,
                 ("cli.concepts", "fca.formal_concepts", "fca.compare_eigen_concepts", "qprob.schmidt",
                  "linalg.svd", "format.dumps")),
    )
}
