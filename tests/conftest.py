import itertools

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
