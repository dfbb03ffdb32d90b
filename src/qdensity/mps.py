"""Matrix-product generative model trained by a left-to-right spectral sweep.

The sweep never materializes the full state. At each cut it maps every
sample's prefix through the isometries collected so far, accumulates the
reduced density on (bond x physical) from suffix-grouped outer products,
keeps the top eigenvectors as the next tensor, and finishes with the
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
from .empirical import SequenceDataset
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


@dataclass(frozen=True)
class MatrixProductState:
    """Chain of order-3 tensors with matching bond dimensions."""

    n: int
    physical_dim: int
    tensors: tuple[np.ndarray, ...]

    def __post_init__(self):
        tensors = tuple(np.asarray(t, dtype=float) for t in self.tensors)
        if self.n < 2 or len(tensors) != self.n:
            raise ValueError(f"expected {self.n} tensors, got {len(tensors)}")
        d = self.physical_dim
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


def _sample_arrays(ds: SequenceDataset) -> tuple[np.ndarray, np.ndarray]:
    """Distinct samples as an index matrix plus their amplitude weights."""
    distinct, counts = np.unique(ds.codes, axis=0, return_counts=True)
    weights = np.sqrt(counts / ds.n_samples)
    return distinct, weights


def _step_density_matrix(
    mapped: np.ndarray, bits: np.ndarray, suffixes: np.ndarray, weights: np.ndarray, d: int
) -> np.ndarray:
    """Unit-trace reduced density on (bond x physical) at the current cut.

    Samples sharing a suffix interfere, so their weighted (bond x physical)
    vectors are summed per suffix group before the outer products.
    """
    b = mapped.shape[1]
    _, inverse = np.unique(suffixes, axis=0, return_inverse=True)
    groups = int(inverse.max()) + 1
    acc = np.zeros((groups, b, d))
    np.add.at(acc, (inverse, slice(None), bits), weights[:, None] * mapped)
    rows = acc.reshape(groups, b * d)
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
    samples, weights = _sample_arrays(ds)
    mapped = np.eye(d)[samples[:, 0]]  # site 1 is the identity tensor
    for k in range(2, n):
        bits = samples[:, k - 1]
        rho = _step_density_matrix(mapped, bits, samples[:, k:], weights, d)
        eig = linalg.sym_eigen(rho)
        iso = eig.eigenvectors[:, : cfg.chi]
        yield k, rho, iso
        iso3 = iso.reshape(mapped.shape[1], d, cfg.chi)
        new_mapped = np.empty((mapped.shape[0], cfg.chi))
        for t in range(d):
            rows = bits == t
            new_mapped[rows] = mapped[rows] @ iso3[:, t, :]
        mapped = new_mapped
    final = np.zeros((mapped.shape[1], d))
    for t in range(d):
        rows = samples[:, n - 1] == t
        final[:, t] = (weights[rows, None] * mapped[rows]).sum(axis=0)
    yield n, None, final


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
    return MatrixProductState(ds.length, d, tuple(tensors))


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
    tokens = tuple(s)
    if len(tokens) != m.n:
        raise ValueError(f"sequence length {len(tokens)} does not match model n={m.n}")
    idx = []
    for t in tokens:
        i = int(t)
        if not 0 <= i < m.physical_dim:
            raise ValueError(f"token {t!r} outside the physical range")
        idx.append(i)
    return idx


def born_probability(m: MatrixProductState, s) -> float:
    """Squared amplitude of one sequence via left-to-right contraction."""
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
    overlap = float(np.sqrt(np.clip(pa, 0, None) * np.clip(qa, 0, None)).sum())
    if overlap <= 0.0:
        return math.inf
    return -math.log(min(overlap, 1.0))


def sample(m: MatrixProductState, count: int, seed: int) -> list[str]:
    """Ancestral draws from the exact Born distribution, seeded.

    Conditional probabilities come from right environments, so each symbol
    is drawn from its true conditional given the prefix so far. All chains
    advance together, one site per round.
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
    tokens = tuple(str(i) for i in range(d))
    vecs = np.ones((count, 1))
    choices = np.empty((count, m.n), dtype=np.int64)
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
    return ["".join(tokens[i] for i in row) for row in choices]


def draw_even_subset(n: int, count: int, seed: int) -> SequenceDataset:
    """Draw distinct even-parity bitstrings uniformly, without replacement."""
    if n < 2:
        raise ValueError("need n >= 2")
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
    overlap = inner_product(model, parity_target(n))
    dist = math.inf if overlap <= 0 else -math.log(min(overlap, 1.0))
    return ExperimentRow(fraction, replica, seed, count, dist)


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

    Replica r uses seed base_seed + r for every fraction. Cells may run in
    parallel (capped by the QDENSITY_THREADS variable and the core count);
    output order and values are identical to a serial run.
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
    model = MatrixProductState(int(payload["n"]), int(payload["physical_dim"]), tensors)
    if list(model.bond_dims) != list(payload["bond_dims"]):
        raise ValueError("bond_dims field does not match the stored tensors")
    return model
