import itertools
import json
import math

import numpy as np
import pytest

from qdensity import qprob
from qdensity.empirical import SequenceDataset
from qdensity.fca import FormalConcept, Relation, galois_f, galois_g, uniform_distribution
from qdensity.qprob import Alphabet, JointDistribution

BITS = Alphabet(("0", "1"))

# Three-phrase corpus: the uniform distribution with pairs
# (orange, fruit), (green, fruit), (purple, vegetable).
THREE_PHRASE_LINES = ["orange fruit", "green fruit", "purple vegetable"]

# Five-phrase, length-four corpus used throughout the entailment material.
FIVE_PHRASE_LINES = [
    "small ripe orange fruit",
    "large ripe orange vegetable",
    "small rotten orange fruit",
    "large rotten green vegetable",
    "small ripe orange vegetable",
]

# Five-edge bipartite graph: x1-y1, x2-y1, x2-y2, x3-y1, x3-y2.
FIVE_EDGE_LINES = ["x1 y1", "x2 y1", "x2 y2", "x3 y1", "x3 y2"]


def three_phrase_distribution() -> JointDistribution:
    table = np.array([[1 / 3, 0.0], [1 / 3, 0.0], [0.0, 1 / 3]])
    return JointDistribution(
        Alphabet(("orange", "green", "purple")),
        Alphabet(("fruit", "vegetable")),
        table,
    )


def even_dataset(n: int) -> SequenceDataset:
    """All even-parity bitstrings of length n as a dataset."""
    samples = tuple(
        tuple(bits)
        for bits in itertools.product("01", repeat=n)
        if sum(map(int, bits)) % 2 == 0
    )
    return SequenceDataset(BITS, n, samples)


def even_indices(n: int) -> np.ndarray:
    """Positions of even-parity strings in the lexicographic enumeration."""
    flags = [
        sum(bits) % 2 == 0 for bits in itertools.product((0, 1), repeat=n)
    ]
    return np.nonzero(flags)[0]


def random_dataset(rng, alphabet_size: int, length: int, n_samples: int) -> SequenceDataset:
    symbols = tuple(chr(ord("a") + i) for i in range(alphabet_size))
    raw = rng.integers(alphabet_size, size=(n_samples, length))
    samples = tuple(tuple(symbols[j] for j in row) for row in raw)
    return SequenceDataset(Alphabet(symbols), length, samples)


def random_joint(rng, n: int, m: int) -> JointDistribution:
    table = rng.random((n, m))
    # sprinkle zeros so supports are ragged
    table[rng.random((n, m)) < 0.3] = 0.0
    if table.sum() == 0:
        table[0, 0] = 1.0
    table /= table.sum()
    xs = Alphabet(tuple(f"x{i}" for i in range(n)))
    ys = Alphabet(tuple(f"y{i}" for i in range(m)))
    return JointDistribution(xs, ys, table)


def dense_sweep_distribution(ds: SequenceDataset, chi: int) -> np.ndarray:
    """Oracle: the sweep applied to the explicit amplitude vector.

    Materializes the full 2**n state, truncates each cut's dense reduced
    density independently of the sample-streamed code path, and expands the
    resulting tensors back into a full Born table.
    """
    from qdensity import linalg

    n = ds.length
    d = len(ds.alphabet)
    lookup = {s: i for i, s in enumerate(ds.alphabet)}
    amps = np.zeros(d**n)
    for sample in ds.samples:
        pos = 0
        for tok in sample:
            pos = pos * d + lookup[tok]
        amps[pos] += 1.0
    amps = np.sqrt(amps / ds.n_samples)

    isometries = []
    vec = amps
    bond = d
    for k in range(2, n):
        rest = d ** (n - k)
        mat = vec.reshape(bond * d, rest)
        rho = mat @ mat.T
        rho /= np.trace(rho)
        iso = linalg.sym_eigen(rho).eigenvectors[:, :chi]
        isometries.append(iso)
        vec = (iso.T @ mat).reshape(-1)
        bond = chi
    final = vec / np.linalg.norm(vec)

    cur = final.reshape(bond, d)
    for iso in reversed(isometries):
        rows = iso.shape[0]
        cur = iso @ cur.reshape(iso.shape[1], -1)
        cur = cur.reshape(rows // d, d * cur.shape[1])
    return cur.reshape(-1) ** 2


def reference_sample_codes(m, count: int, seed: int) -> np.ndarray:
    """Oracle: the ancestral sampler one site at a time, by einsum contractions.

    The (count, n) alphabet indices of count > 0 draws. Right environments
    and conditional probabilities are path-searched einsums, the branches a
    stack of per-symbol slices, and each chain is renormalized by its
    Euclidean norm; only ratios of weights decide a draw, so the choices
    are those of mps.sample on the same seed.
    """
    d = m.physical_dim
    envs: list[np.ndarray] = [np.ones((1, 1))]
    for t in reversed(m.tensors):
        envs.append(np.einsum("lpr,mps,rs->lm", t, t, envs[-1], optimize=True))
    envs.reverse()  # envs[k] covers sites k..n-1 (0-based)
    rng = np.random.default_rng(seed)
    vecs = np.ones((count, 1))
    choices = np.empty((count, m.n), dtype=np.min_scalar_type(d - 1))  # one byte each for d <= 256
    for k, t in enumerate(m.tensors):
        env = envs[k + 1]
        branch = np.stack([vecs @ t[:, p, :] for p in range(d)], axis=1)  # (count, d, r)
        probs = np.einsum("cpr,rs,cps->cp", branch, env, branch, optimize=True)
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        draws = rng.random(count)
        cdf = np.cumsum(probs, axis=1)
        pick = np.minimum((draws[:, None] > cdf).sum(axis=1), d - 1)
        choices[:, k] = pick
        vecs = branch[np.arange(count), pick, :]
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        vecs /= norms
    return choices


def drawn_codes(m, count: int, seed: int) -> np.ndarray:
    """The (count, n) alphabet indices of the sampler's count draws: every
    block mps._draws yields, each copied as it comes, because the generator
    reuses one buffer for all of them."""
    from qdensity.empirical import _code_dtype
    from qdensity.mps import _draws

    blocks = [block.copy() for block in _draws(m, count, seed)]
    return np.concatenate(blocks) if blocks else np.empty((0, m.n), dtype=_code_dtype(m.physical_dim))


def parent_sample_codes(m, count: int, seed: int) -> np.ndarray:
    """Oracle: the sampler's codes as they were drawn with a cumsum over
    (count, d) weights, a matrix-product pick and a fancy row gather; its
    draws must be the sampler's, byte for byte."""
    d = m.physical_dim
    envs: list[np.ndarray] = [np.ones((1, 1))]
    for t in reversed(m.tensors):
        l, _, r = t.shape
        half = (t.reshape(l * d, r) @ envs[-1]).reshape(l, d * r)
        envs.append(half @ t.reshape(l, d * r).T)
    envs.reverse()  # envs[k] covers sites k..n-1 (0-based)
    rng = np.random.default_rng(seed)
    vecs = np.ones((count, 1))
    choices = np.empty((count, m.n), dtype=np.min_scalar_type(d - 1))  # one byte each for d <= 256
    offsets = np.arange(count) * d
    for k, t in enumerate(m.tensors):
        l, _, r = t.shape
        branch = (vecs @ t.reshape(l, d * r)).reshape(count * d, r)  # row c * d + p: chain c, symbol p
        weights = branch @ envs[k + 1]
        weights *= branch
        weights = weights @ np.ones(r)
        weights = np.clip(weights, 0.0, None, out=weights).reshape(count, d)
        running = np.cumsum(weights, axis=1)
        scaled = rng.random(count) * running[:, -1]
        pick = np.minimum((running < scaled[:, None]) @ np.ones(d), d - 1).astype(np.intp)
        choices[:, k] = pick
        chosen = offsets + pick
        vecs = branch[chosen]
        scale = weights.reshape(-1)[chosen]
        scale[scale == 0] = 1.0  # an all-zero chain picks symbol 0 and stays as it is
        vecs /= np.sqrt(scale)[:, None]
    return choices


def parent_sample(m, count: int, seed: int) -> list[str]:
    """Oracle: mps.sample as it was, every draw decoded by an object-table
    lookup and a join per row."""
    if count == 0:
        return []
    choices = parent_sample_codes(m, count, seed)
    symbols = np.array(m.alphabet.symbols, dtype=object)
    sep = "" if all(len(t) == 1 for t in m.alphabet) else " "
    return list(map(sep.join, symbols[choices].tolist()))


def parent_born_probability(m, s) -> float:
    """Oracle: mps.born_probability as it was, gathering the stack's matrices by
    a fancy index over (site, symbol); its floats must be the function's."""
    from qdensity.mps import _born_stack, _indices

    indices = _indices(m, s)
    stack = _born_stack(m)
    if stack is None:
        vec = np.ones(1)
        for tensor, i in zip(m.tensors, indices):
            vec = vec @ tensor[:, i, :]
        return float(vec[0] ** 2)
    mats = stack[np.arange(len(stack)), indices + [0] * (len(stack) - m.n)]
    while len(mats) > 1:
        mats = mats[0::2] @ mats[1::2]
    return float(mats[0, 0, 0] ** 2)


def reference_group_sums(
    mapped: np.ndarray, bits: np.ndarray, groups: np.ndarray, weights: np.ndarray, d: int
) -> np.ndarray:
    """Oracle: the per-group sums by one bincount over (sample, bond) bins.

    Column bond * d + bit of row g sums weights * mapped[:, bond] over the
    samples of group g whose physical symbol is bit.
    """
    b = mapped.shape[1]
    size = (int(groups.max()) + 1) * b * d
    bins = (groups[:, None] * b + np.arange(b)) * d + bits[:, None]
    sums = np.bincount(bins.reshape(-1), (weights[:, None] * mapped).reshape(-1), minlength=size)
    return sums.reshape(-1, b * d)


def reference_step_density_matrix(
    mapped: np.ndarray, bits: np.ndarray, groups: np.ndarray, weights: np.ndarray, d: int
) -> np.ndarray:
    """Oracle: unit-trace reduced density on (bond x physical) at the current cut."""
    rows = reference_group_sums(mapped, bits, groups, weights, d)
    rho = rows.T @ rows
    return rho / np.trace(rho)


def reference_sweep(ds: SequenceDataset, chi: int):
    """Oracle: mps._sweep as it was with 2-D bins and fancy gathers.

    Yields (site, density, isometry) per interior step, then the residual
    map. Every per-sample sum sees the same addends in the same order as the
    sweep's, so its outputs must be bit-identical to mps._sweep's.
    """
    from qdensity import linalg
    from qdensity.mps import _sample_arrays

    n, d = ds.length, len(ds.alphabet)
    rows, weights, ranks = _sample_arrays(ds)
    mapped = np.eye(d)[ds.codes[rows, 0]]  # site 1 is the identity tensor
    for k in range(2, n):
        bits = ds.codes[rows, k - 1]
        rho = reference_step_density_matrix(mapped, bits, ranks[k, rows], weights, d)
        eig = linalg.sym_eigen(rho)
        iso = eig.eigenvectors[:, :chi]
        yield k, rho, iso
        # map every sample through every symbol's slice, then keep its own symbol's
        branches = (mapped @ iso.reshape(-1, d * chi)).reshape(-1, d, chi)
        mapped = branches[np.arange(len(bits)), bits]
    one_group = np.zeros(len(rows), dtype=np.intp)
    final = reference_group_sums(mapped, ds.codes[rows, n - 1], one_group, weights, d)
    yield n, None, final.reshape(-1, d)


_SIGN_EPS = 1e-12
_TIE_TOL = 1e-9


def reference_sym_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: linalg.sym_eigen's canonical form by its first construction.

    Each column's sign comes from a running count of its coordinates above
    1e-12, and every spectrum goes through the tie pass, which groups
    adjacent eigenvalues no more than 1e-9 apart and sorts each group's
    vectors lexicographically, greatest first. Returns (values, vectors).
    """
    a = np.asarray(m, dtype=float)
    w, v = np.linalg.eigh(a)
    w, v = w[::-1], v[:, ::-1]  # eigh is ascending
    v = v * reference_column_signs(v)
    order = list(range(len(w)))
    start = 0
    for end in range(1, len(w) + 1):
        if end == len(w) or w[end - 1] - w[end] > _TIE_TOL:
            if end - start > 1:
                order[start:end] = sorted(
                    order[start:end],
                    key=lambda j: tuple(v[:, j]),
                    reverse=True,
                )
            start = end
    return w[order], np.ascontiguousarray(v[:, order])


def reference_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Oracle: +1 or -1 per column, making its first coordinate above 1e-12 in size positive."""
    nonzero = np.abs(vectors) > _SIGN_EPS
    first = nonzero & (np.cumsum(nonzero, axis=0) == 1)
    return np.where((vectors * first).sum(axis=0) < 0, -1.0, 1.0)


def brute_force_concepts(r: Relation, include_degenerate: bool = False) -> list[FormalConcept]:
    """Oracle: close every object subset with the Galois maps.

    Applies formal_concepts' documented rules independently: degenerate
    closures only when asked for or when nothing else exists, sorted by
    extent size and then by the extent's object indices.
    """
    closed = set()
    for size in range(len(r.x_alphabet) + 1):
        for subset in itertools.combinations(r.x_alphabet, size):
            intent = galois_f(r, subset)
            closed.add(FormalConcept(galois_g(r, intent), intent))
    concepts = list(closed)
    proper = [c for c in concepts if c.extent and c.intent]
    if proper and not include_degenerate:
        concepts = proper
    return sorted(
        concepts, key=lambda c: (len(c.extent), sorted(r.x_alphabet.index(s) for s in c.extent))
    )


def eigen_concept_scores(r: Relation):
    """Oracle: score every eigenpair against every concept, one pair at a time.

    Returns the oracle's concepts, and per kept eigenpair its eigenvalue,
    the (extent cosine, intent cosine) of each concept, the index of the
    first concept with the best mean score (strict >), and the supports of
    the eigenvector's absolute values.
    """
    concepts = brute_force_concepts(r)
    sd = qprob.schmidt(qprob.build_state(uniform_distribution(r)))
    squares = sd.coefficients**2
    eigenvalues = [float(v) for v in squares[squares > 1e-10]]

    def characteristic(alphabet: Alphabet, subset) -> np.ndarray:
        return np.array([1.0 if s in subset else 0.0 for s in alphabet])

    def cosine(a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    pairs = []
    for rank, lam in enumerate(eigenvalues):
        evec_x = np.abs(sd.x_vectors[:, rank])
        evec_y = np.abs(sd.y_vectors[:, rank])
        scores = [
            (
                cosine(evec_x, characteristic(r.x_alphabet, c.extent)),
                cosine(evec_y, characteristic(r.y_alphabet, c.intent)),
            )
            for c in concepts
        ]
        best, best_score = -1, -np.inf
        for idx, (sx, sy) in enumerate(scores):
            if (sx + sy) / 2.0 > best_score:
                best, best_score = idx, (sx + sy) / 2.0
        support = (
            frozenset(s for s, v in zip(r.x_alphabet, evec_x) if v > 1e-10),
            frozenset(s for s, v in zip(r.y_alphabet, evec_y) if v > 1e-10),
        )
        pairs.append({"eigenvalue": lam, "scores": scores, "best": best, "support": support})
    return concepts, pairs


def per_part_decompose(cs, pattern):
    """Oracle: entailment.decompose built one part at a time.

    Each part is the product of its prefix's one-column slice with its
    transpose, divided by its trace, and goes through the public, fully
    checked EntailmentDensity constructor.
    """
    from qdensity.entailment import EntailmentDensity

    idx = np.flatnonzero(
        [all(prefix[pos - 1] == token for pos, token in pattern.items()) for prefix in cs.prefixes]
    )
    total = cs.prefix_probs[idx].sum()
    out = []
    for i in idx:
        prefix = cs.prefixes[i]
        cols = cs.columns[:, [i]]
        mat = cols @ cols.T
        weight = float(np.trace(mat))
        part = (tuple(enumerate(prefix, 1)), cs.suffix_alphabet, mat / weight, weight, True)
        out.append((prefix, float(cs.prefix_probs[i] / total), EntailmentDensity(*part)))
    return out


def per_element_dumps(obj, indent: int = 0) -> str:
    """Oracle: the pinned JSON text built one value at a time.

    Every float is formatted on its own with format(x, ".17g"), NaN and the
    infinities spelled as the json module reads them; strings and keys go
    through json.dumps; numpy scalars and arrays become Python values first.
    """
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(k, ensure_ascii=False)}: {per_element_dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(per_element_dumps(v, indent) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@pytest.fixture
def five_phrase_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(FIVE_PHRASE_LINES) + "\n")
    return path


@pytest.fixture
def three_phrase_csv(tmp_path):
    path = tmp_path / "three.csv"
    rows = ["x,y,p"]
    for x, y in (("orange", "fruit"), ("green", "fruit"), ("purple", "vegetable")):
        rows.append(f"{x},{y},{1 / 3!r}")
    path.write_text("\n".join(rows) + "\n")
    return path
