"""Matrix-product generative model trained by a left-to-right spectral sweep.

The sweep never materializes the full state. One right-to-left ranking
pass over the dataset's code matrix gives every sample's suffix rank at
every position; the ranks of the whole samples pick out and count the
distinct samples, and the ranks at position k group them by suffix for the
cut at k. At each cut the sweep maps every distinct sample's prefix through
the isometries collected so far, sums the weighted (bond x physical)
vectors of each suffix group with one bincount, forms the reduced density
from those sums, keeps its top eigenvectors as the next tensor, and applies
that tensor with one matrix product and one gather. It finishes with the
untruncated residual map. The resulting chain of order-3 tensors supports
exact Born probabilities, inner products, ancestral sampling, and the
subset-fraction experiment.

Tensor layout: tensors[k] has axes (left bond, physical, right bond); the
first tensor is the identity on the physical space with a dummy left bond,
so the first interior bond has the physical dimension.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._format import dumps
from .empirical import SequenceDataset, line_tokens
from .qprob import Alphabet

__all__ = [
    "TrainConfig",
    "MatrixProductState",
    "ExperimentRow",
    "train",
    "step_density",
    "born_probability",
    "distribution_table",
    "parity_target",
    "inner_product",
    "bhattacharyya",
    "overlap_distance",
    "sample",
    "draw_even_subset",
    "run_experiment",
    "save_model",
    "load_model",
]

THREADS_ENV = "QDENSITY_THREADS"


@dataclass(frozen=True)
class TrainConfig:
    """Sweep parameters: truncation rank and numeric tolerance."""

    chi: int = 2
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.chi < 1:
            raise ValueError("chi must be at least 1")


@dataclass(frozen=True, eq=False)
class MatrixProductState:
    """Chain of order-3 tensors with matching bond dimensions.

    alphabet names the physical basis states; it defaults to the index
    strings "0", ..., "d-1", which are the bits when d = 2.
    """

    n: int
    physical_dim: int
    tensors: tuple[np.ndarray, ...]
    alphabet: Alphabet | None = None

    def __post_init__(self):
        tensors = tuple(np.asarray(t, dtype=float) for t in self.tensors)
        if self.n < 2 or len(tensors) != self.n:
            raise ValueError(f"expected {self.n} tensors, got {len(tensors)}")
        d = self.physical_dim
        symbols = tuple(str(i) for i in range(d)) if self.alphabet is None else tuple(self.alphabet)
        if len(symbols) != d or not all(isinstance(t, str) for t in symbols):
            raise ValueError(f"alphabet must be {d} strings, got {symbols!r}")
        object.__setattr__(self, "alphabet", Alphabet(symbols))
        if tensors[0].shape != (1, d, d) or not np.allclose(
            tensors[0][0], np.eye(d), atol=1e-12
        ):
            raise ValueError("first tensor must be the identity on the physical space")
        for k, t in enumerate(tensors):
            if t.ndim != 3 or t.shape[1] != d:
                raise ValueError(f"tensor {k} has shape {t.shape}, expected (left, {d}, right)")
            if k > 0 and t.shape[0] != tensors[k - 1].shape[2]:
                raise ValueError(f"bond mismatch between tensors {k - 1} and {k}")
        if tensors[-1].shape[2] != 1:
            raise ValueError("last tensor must close with a bond of size 1")
        frozen = []
        for t in tensors:
            t = t.copy()
            t.flags.writeable = False
            frozen.append(t)
        object.__setattr__(self, "tensors", tuple(frozen))

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return (1,) + tuple(t.shape[2] for t in self.tensors)


def _suffix_ranks(codes: np.ndarray) -> np.ndarray:
    """Rank of every suffix among the distinct suffixes: ranks[k, i] ranks codes[i, k:].

    One right-to-left pass: the suffix at column k is the pair (codes[:, k],
    suffix at k + 1), so ranking the keys codes[:, k] * size + g, where g
    holds the ranks at k + 1 and size their count, orders the suffixes
    lexicographically, exactly as a row-wise np.unique of codes[:, k:] does.
    The keys stay below n_samples * d. Row 0 ranks the whole samples.
    """
    ranks = np.empty(codes.shape[::-1], dtype=np.intp)
    g, size = np.zeros(len(codes), dtype=np.intp), 1
    for k in range(codes.shape[1] - 1, -1, -1):
        keys, inverse = np.unique(codes[:, k] * size + g, return_inverse=True)
        # numpy 2.0.x returns the inverse with the input's shape; flatten it
        g, size = inverse.reshape(-1), len(keys)
        ranks[k] = g
    return ranks


def _sample_arrays(ds: SequenceDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ds.codes row per distinct sample, in lexicographic order, their
    amplitude weights, and every sample's suffix ranks."""
    ranks = _suffix_ranks(ds.codes)
    counts = np.bincount(ranks[0])
    rows = np.empty(len(counts), dtype=np.intp)
    rows[ranks[0]] = np.arange(ds.n_samples)  # any occurrence will do: equal ranks, equal rows
    return rows, np.sqrt(counts / ds.n_samples), ranks


def _group_sums(
    mapped: np.ndarray, bits: np.ndarray, groups: np.ndarray, weights: np.ndarray, d: int
) -> np.ndarray:
    """Weighted (bond x physical) vectors summed per group, one row per group.

    Column bond * d + bit of row g sums weights * mapped[:, bond] over the
    samples of group g whose physical symbol is bit.
    """
    b = mapped.shape[1]
    size = (int(groups.max()) + 1) * b * d
    bins = (groups[:, None] * b + np.arange(b)) * d + bits[:, None]
    sums = np.bincount(bins.reshape(-1), (weights[:, None] * mapped).reshape(-1), minlength=size)
    return sums.reshape(-1, b * d)


def _step_density_matrix(
    mapped: np.ndarray, bits: np.ndarray, groups: np.ndarray, weights: np.ndarray, d: int
) -> np.ndarray:
    """Unit-trace reduced density on (bond x physical) at the current cut.

    Samples sharing a suffix interfere, so their weighted (bond x physical)
    vectors are summed per suffix group before the outer products.
    """
    rows = _group_sums(mapped, bits, groups, weights, d)
    rho = rows.T @ rows
    return rho / np.trace(rho)


def _sweep(ds: SequenceDataset, cfg: TrainConfig):
    """Yield (site, density, isometry) per interior step, then the residual map."""
    n, d = ds.length, len(ds.alphabet)
    if n < 3:
        raise ValueError("training requires sequences of length at least 3")
    if not ds.n_samples:
        raise ValueError("training dataset is empty")
    if cfg.chi > d * d:
        raise ValueError(f"chi={cfg.chi} exceeds the first step's rank bound {d * d}")
    rows, weights, ranks = _sample_arrays(ds)
    mapped = np.eye(d)[ds.codes[rows, 0]]  # site 1 is the identity tensor
    for k in range(2, n):
        bits = ds.codes[rows, k - 1]
        rho = _step_density_matrix(mapped, bits, ranks[k, rows], weights, d)
        eig = linalg.sym_eigen(rho)
        iso = eig.eigenvectors[:, : cfg.chi]
        yield k, rho, iso
        # map every sample through every symbol's slice, then keep its own symbol's
        branches = (mapped @ iso.reshape(-1, d * cfg.chi)).reshape(-1, d, cfg.chi)
        mapped = branches[np.arange(len(bits)), bits]
    one_group = np.zeros(len(rows), dtype=np.intp)
    final = _group_sums(mapped, ds.codes[rows, n - 1], one_group, weights, d)
    yield n, None, final.reshape(-1, d)


def train(ds: SequenceDataset, cfg: TrainConfig) -> MatrixProductState:
    """Run the sweep and assemble the tensors into a unit-norm model.

    The first tensor is the identity; each interior tensor keeps the top
    chi eigenvectors of its step density; the last is the residual map,
    untruncated and rescaled so the state has unit norm (the interior
    tensors are isometries, so the norm sits entirely in the last tensor).
    """
    d = len(ds.alphabet)
    tensors = [np.eye(d).reshape(1, d, d)]
    bond = d
    for site, _, payload in _sweep(ds, cfg):
        if site < ds.length:
            tensors.append(payload.reshape(bond, d, cfg.chi))
            bond = cfg.chi
        else:
            norm = np.linalg.norm(payload)
            if norm < cfg.tolerance:
                raise ValueError("sweep collapsed the state to zero norm")
            tensors.append((payload / norm).reshape(bond, d, 1))
    return MatrixProductState(ds.length, d, tuple(tensors), ds.alphabet)


def step_density(ds: SequenceDataset, cfg: TrainConfig, site: int) -> np.ndarray:
    """The unit-trace reduced density the sweep sees at the given site.

    Basis order on (bond x physical) is bond-major; at site 2 the bond is
    the first symbol, so pairs run 00, 01, 10, 11 for bits.
    """
    if not 2 <= site <= ds.length - 1:
        raise ValueError(f"site must lie in [2, {ds.length - 1}]")
    for k, rho, _ in _sweep(ds, cfg):
        if k == site:
            return rho
    raise AssertionError("unreachable")


def _indices(m: MatrixProductState, s) -> list[int]:
    tokens = line_tokens(s.strip()) if isinstance(s, str) else tuple(s)
    if len(tokens) != m.n:
        raise ValueError(f"sequence length {len(tokens)} does not match model n={m.n}")
    lookup = {t: i for i, t in enumerate(m.alphabet)}
    try:
        return [lookup[str(t)] for t in tokens]
    except KeyError as exc:
        raise ValueError(f"token {exc.args[0]!r} is not in the model's alphabet") from None


def born_probability(m: MatrixProductState, s) -> float:
    """Squared amplitude of one sequence via left-to-right contraction.

    s is a sequence of alphabet tokens (compared as strings, so the bits of
    a bit model may be ints), or a string read the way a dataset line is:
    tokens separated by spaces, or one token per character.
    """
    vec = np.ones(1)
    for tensor, i in zip(m.tensors, _indices(m, s)):
        vec = vec @ tensor[:, i, :]
    return float(vec[0] ** 2)


def distribution_table(m: MatrixProductState, max_outcomes: int = 2**22) -> np.ndarray:
    """Born probabilities of all physical_dim**n sequences, lexicographic.

    Materializes the full amplitude vector; guarded to small state spaces.
    """
    if m.physical_dim**m.n > max_outcomes:
        raise ValueError(f"refusing to enumerate {m.physical_dim}**{m.n} outcomes")
    amps = m.tensors[0][0]
    for t in m.tensors[1:]:
        amps = np.tensordot(amps, t, axes=([-1], [0]))
    return (amps[..., 0].reshape(-1)) ** 2


def parity_target(n: int) -> MatrixProductState:
    """Exact bond-2 model of the uniform superposition of even bitstrings."""
    if n < 2:
        raise ValueError("parity target needs n >= 2")
    first = np.eye(2).reshape(1, 2, 2)
    xor = np.zeros((2, 2, 2))
    for left in range(2):
        for p in range(2):
            xor[left, p, left ^ p] = 1.0
    last = np.zeros((2, 2, 1))
    last[0, 0, 0] = last[1, 1, 0] = 1.0 / math.sqrt(2 ** (n - 1))
    tensors = [first] + [xor] * (n - 2) + [last]
    return MatrixProductState(n, 2, tuple(tensors))


def inner_product(a: MatrixProductState, b: MatrixProductState) -> float:
    """Exact overlap of two models via the transfer contraction."""
    if a.n != b.n or a.physical_dim != b.physical_dim:
        raise ValueError("models must share length and physical dimension")
    if a.alphabet != b.alphabet:
        raise ValueError(
            f"models must share an alphabet, got {a.alphabet.symbols!r} and {b.alphabet.symbols!r}"
        )
    env = np.ones((1, 1))
    for ta, tb in zip(a.tensors, b.tensors):
        env = np.einsum("lm,lpr,mps->rs", env, ta, tb, optimize=True)
    return float(env[0, 0])


def bhattacharyya(p, q) -> float:
    """Distance -ln sum(sqrt(p*q)) between two aligned distributions.

    Zero when the distributions coincide; infinity when their supports are
    disjoint.
    """
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError("distributions must be aligned on the same outcomes")
    for name, arr in (("p", pa), ("q", qa)):
        if np.any(arr < -1e-12):
            raise ValueError(f"{name} has a negative probability")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"{name} sums to {total!r}, expected 1")
    return overlap_distance(float(np.sqrt(np.clip(pa, 0, None) * np.clip(qa, 0, None)).sum()))


def overlap_distance(overlap: float) -> float:
    """-ln of an overlap capped at 1; infinity when the overlap is not positive.

    Between two vectors of square-root probabilities this is their
    Bhattacharyya distance; between two models, only when their amplitudes
    are nonnegative wherever both are nonzero.
    """
    if overlap <= 0:
        return math.inf
    return float(-np.log(min(overlap, 1.0)))


def sample(m: MatrixProductState, count: int, seed: int) -> list[str]:
    """Ancestral draws from the exact Born distribution, seeded.

    Conditional probabilities come from right environments, so each symbol
    is drawn from its true conditional given the prefix so far. All chains
    advance together, one site per round. Each draw is a line of alphabet
    tokens, joined without separator when every token is one character and
    by single spaces otherwise, so parse_dataset reads the lines back.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
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
    tokens = m.alphabet.symbols
    sep = "" if all(len(t) == 1 for t in tokens) else " "
    return [sep.join(tokens[i] for i in row) for row in choices]


def draw_even_subset(n: int, count: int, seed: int) -> SequenceDataset:
    """Draw distinct even-parity bitstrings uniformly, without replacement."""
    if not 2 <= n <= 63:
        raise ValueError(
            f"need 2 <= n <= 63, as the 2**(n-1) even strings are indexed in int64; got n={n}"
        )
    space = 2 ** (n - 1)
    if not 1 <= count <= space:
        raise ValueError(f"count must lie in [1, {space}]")
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(space, size=count, replace=False))
    head = (picks[:, None] >> np.arange(n - 2, -1, -1)) & 1  # n-1 free bits, most significant first
    codes = np.column_stack([head, head.sum(axis=1) % 2])
    return SequenceDataset.from_codes(Alphabet(("0", "1")), codes)


@dataclass(frozen=True)
class ExperimentRow:
    fraction: float
    replica: int
    seed: int
    n_samples: int
    bhattacharyya: float


def _experiment_cell(args: tuple[int, float, int, int, int, float]) -> ExperimentRow:
    n, fraction, replica, seed, chi, tolerance = args
    count = round(fraction * 2 ** (n - 1))
    if count < 1:
        raise ValueError(f"fraction {fraction} draws no samples at n={n}")
    ds = draw_even_subset(n, count, seed)
    model = train(ds, TrainConfig(chi=chi, tolerance=tolerance))
    distance = overlap_distance(inner_product(model, parity_target(n)))
    return ExperimentRow(fraction, replica, seed, count, distance)


def _max_workers() -> int:
    cores = os.cpu_count() or 1
    raw = os.environ.get(THREADS_ENV)
    if raw:
        try:
            return min(max(1, int(raw)), cores)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    return cores


def run_experiment(
    n: int,
    fractions: list[float],
    replicas: int,
    base_seed: int,
    cfg: TrainConfig,
) -> list[ExperimentRow]:
    """Train on seeded subset draws per (fraction, replica) and score each model.

    The score, ExperimentRow.bhattacharyya, is overlap_distance of the
    model's overlap with the parity target, -ln<psi|target>: the
    Bhattacharyya distance only when the model's amplitudes on the even
    strings are nonnegative. Replica r uses seed base_seed + r for every
    fraction. Cells may run in parallel (capped by the QDENSITY_THREADS
    variable and the core count); output order and values are identical to
    a serial run.
    """
    if n > 24:
        raise ValueError("experiment limited to n <= 24")
    if replicas < 1:
        raise ValueError("need at least one replica")
    for f in fractions:
        if not 0 < f <= 1:
            raise ValueError(f"fraction {f} outside (0, 1]")
    tasks = [
        (n, f, r, base_seed + r, cfg.chi, cfg.tolerance)
        for f in fractions
        for r in range(replicas)
    ]
    workers = min(_max_workers(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_experiment_cell, tasks))
    return [_experiment_cell(t) for t in tasks]


def save_model(m: MatrixProductState, path) -> None:
    payload = {
        "n": m.n,
        "physical_dim": m.physical_dim,
        "alphabet": list(m.alphabet),
        "bond_dims": list(m.bond_dims),
        "tensors": [t.tolist() for t in m.tensors],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(payload))
        fh.write("\n")


def load_model(path) -> MatrixProductState:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    tensors = tuple(np.asarray(t, dtype=float) for t in payload["tensors"])
    n, d = int(payload["n"]), int(payload["physical_dim"])
    model = MatrixProductState(n, d, tensors, payload.get("alphabet"))  # absent: the default
    if list(model.bond_dims) != list(payload["bond_dims"]):
        raise ValueError("bond_dims field does not match the stored tensors")
    return model
