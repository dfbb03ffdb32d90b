"""Matrix-product generative model trained by a left-to-right spectral sweep.

The sweep never materializes the full state. The ranking pass that
empirical.cut_counts also uses ranks every sample's suffix at every
position; the ranks of the whole samples pick out and count the distinct
samples, and the ranks at position k are the suffix groups of the cut at
k. At each cut the sweep maps every distinct sample's prefix through the
isometries collected so far, sums the weighted (bond x physical) vectors
of each suffix group with one bincount per bond column, forms the reduced
density from those sums, keeps its top eigenvectors as the next tensor,
and applies that tensor with one matrix product and one row take. Every
per-sample operation is on contiguous 1-D keys or whole rows. It finishes
with the untruncated residual map. The resulting chain of order-3 tensors
supports exact Born probabilities, inner products, ancestral sampling,
and the subset-fraction experiment. Every contraction is a few large
matrix products: the inner product and the sampler's right environments
take two per site; the sampler takes blocks of CHAIN_BLOCK chains
through every site, one product per site for every branch and two more
for the weights; and a Born probability multiplies its string's site
matrices pairwise, in ceil(log2 n) levels, reading the lower levels of
the blocks that hold real sites from a table cached on first use (see
_born_table). The per-chain work between the products is 1-D as well:
the sampler keeps one running-sum column per symbol and takes each
chain's branch by flat row, and each block's draws become lines
together, through one byte gather and one decode when every symbol is
one character of the same UTF-8 length, and are written out before the
next block is drawn when the caller gives a file.

Tensor layout: tensors[k] has axes (left bond, physical, right bond); the
first tensor is the identity on the physical space with a dummy left bond,
so the first interior bond has the physical dimension.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import linalg
from ._format import dumps
from .empirical import SequenceDataset, _code_dtype, _suffix_ranks, line_tokens
from .qprob import Alphabet, _bounded, _readonly, _readonly_setstate, _unit_total

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
    "even_subset_count",
    "draw_even_subset",
    "run_experiment",
    "save_model",
    "load_model",
]

THREADS_ENV = "QDENSITY_THREADS"
# chains the sampler takes through every site at a time, so that the few
# (chains * d, r) arrays alive at once fit a core's 2 MiB L2: for 50000
# chains of a bit model of chi 2 each was 1.6 MB.
CHAIN_BLOCK = 8192
# widest bond for which born_probability multiplies a cached stack of padded
# site matrices pairwise; its levels cost B**3 per pair where the
# left-to-right contraction costs B**2 per site. The cap is the measured
# crossover: on random bit models, one BLAS thread of a 2.1 GHz Xeon, the
# pairwise product was the faster at every B <= 16 for n = 8, 20, 64 and 200
# (15.8 against 20.2 us at n = 20, B = 16) and the slower from B = 20 at
# n = 8 and 20; at n = 4 the two tie, near 5 us. The stack, (P, d, B, B)
# with P < 2n and d <= B, then holds at most 32 KB per site, and that
# bound, BORN_STACK_WIDTH**3 floats per padded site, caps the block table
# merged from it too: 32 KB for the whole table of an n = 20, chi = 2 bit
# model, whose blocks are 8 sites.
BORN_STACK_WIDTH = 16
ZERO_NORM = 1e-10  # train refuses a residual map whose norm is below this
MAX_OUTCOMES = 2**22  # distribution_table enumerates at most this many sequences
MAX_INDEXED_BITS = 63  # the 2**(n-1) even n-bit strings are indexed in int64
MAX_EXPERIMENT_BITS = 24  # run_experiment's longest strings


@dataclass(frozen=True)
class TrainConfig:
    """Sweep parameters: the truncation rank."""

    chi: int = 2

    def __post_init__(self):
        if self.chi < 1:
            raise ValueError("chi must be at least 1")


@dataclass(frozen=True, eq=False)
class MatrixProductState:
    """Chain of order-3 tensors with finite entries and matching bond dimensions.

    alphabet names the physical basis states; it defaults to the index
    strings "0", ..., "d-1", which are the bits when d = 2.

    born_cache holds born_probability's (table, amplitude): the block
    table and the product of a string's blocks (see _born_table). It is
    built on first use, never changed, and takes no part in repr or
    pickling; == and hash are identity.
    """

    n: int
    physical_dim: int
    tensors: tuple[np.ndarray, ...]
    alphabet: Alphabet | None = None
    born_cache: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        tensors = tuple(np.asarray(t, dtype=float) for t in self.tensors)
        if self.n < 2 or len(tensors) != self.n:
            raise ValueError(f"expected {self.n} tensors, got {len(tensors)}")
        d = self.physical_dim
        symbols = tuple(str(i) for i in range(d)) if self.alphabet is None else tuple(self.alphabet)
        if len(symbols) != d or not all(isinstance(t, str) for t in symbols):
            raise ValueError(f"alphabet must be {d} strings, got {symbols!r}")
        object.__setattr__(self, "alphabet", Alphabet(symbols))
        # NaN fails the comparison, so it is refused here too
        if tensors[0].shape != (1, d, d) or not np.abs(tensors[0][0] - np.eye(d)).max() <= 1e-12:
            raise ValueError("first tensor must be the identity on the physical space")
        for k, t in enumerate(tensors):
            if t.ndim != 3 or t.shape[1] != d:
                raise ValueError(f"tensor {k} has shape {t.shape}, expected (left, {d}, right)")
            if k > 0 and t.shape[0] != tensors[k - 1].shape[2]:
                raise ValueError(f"bond mismatch between tensors {k - 1} and {k}")
        if tensors[-1].shape[2] != 1:
            raise ValueError("last tensor must close with a bond of size 1")
        # one check over all entries: a call per tensor cost half the constructor again
        if not np.isfinite(np.concatenate([t.ravel() for t in tensors])).all():
            raise ValueError("tensor entries must be finite")
        object.__setattr__(self, "tensors", tuple(map(_readonly, tensors)))

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "born_cache"}

    __setstate__ = _readonly_setstate

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return (1,) + tuple(t.shape[2] for t in self.tensors)


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
    samples of group g whose physical symbol is bit, in sample order: one
    bincount per bond column over the 1-D keys groups * d + bits, computed
    in intp: the int32 groups times d can pass 2**31.
    """
    count, b = int(groups.max()) + 1, mapped.shape[1]
    keys = np.multiply(groups, d, dtype=np.intp)
    keys += bits
    sums = np.empty((count, b, d))
    for j in range(b):
        sums[:, j] = np.bincount(keys, weights * mapped[:, j], minlength=count * d).reshape(count, d)
    return sums.reshape(count, b * d)


def _check_trainable(ds: SequenceDataset) -> None:
    """The sweep's checks of its data: ValueError unless ds holds samples of length at least 3."""
    if ds.length < 3:
        raise ValueError("training requires sequences of length at least 3")
    if not ds.n_samples:
        raise ValueError("training dataset is empty")


def _sweep(ds: SequenceDataset, cfg: TrainConfig):
    """Yield (site, density, isometry) per interior step, then the residual map."""
    n, d = ds.length, len(ds.alphabet)
    _check_trainable(ds)
    if cfg.chi > d * d:
        raise ValueError(f"chi={cfg.chi} exceeds the first step's rank bound {d * d}")
    rows, weights, ranks = _sample_arrays(ds)
    mapped = np.eye(d)[ds.codes[:, 0].take(rows)]  # site 1 is the identity tensor
    start = np.arange(len(rows)) * d
    for k in range(2, n):
        bits = ds.codes[:, k - 1].take(rows)
        # samples sharing a suffix interfere: their vectors are summed before the outer products
        sums = _group_sums(mapped, bits, ranks[k].take(rows), weights, d)
        rho = sums.T @ sums
        rho /= np.trace(rho)
        del sums  # the step's largest array, up to (N, b * d), is freed before the isometry step
        iso = linalg.sym_eigen(rho).eigenvectors[:, : cfg.chi]
        yield k, rho, iso
        # map every sample through every symbol's slice; row start + bits is its own symbol's
        branches = mapped @ iso.reshape(-1, d * cfg.chi)
        mapped = branches.reshape(-1, cfg.chi).take(start + bits, axis=0)
    final = _group_sums(mapped, ds.codes[:, n - 1].take(rows), np.zeros_like(rows), weights, d)
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
            if norm < ZERO_NORM:
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


def _tokens(m: MatrixProductState, s) -> tuple[str, ...]:
    """The tokens of s, checked against the model's length; non-string tokens are taken by str()."""
    tokens = line_tokens(s.strip()) if isinstance(s, str) else tuple(map(str, s))
    if len(tokens) != m.n:
        raise ValueError(f"sequence length {len(tokens)} does not match model n={m.n}")
    return tokens


def _indices(m: MatrixProductState, s) -> list[int]:
    """The alphabet index of each token of s (see _tokens)."""
    try:
        return list(map(m.alphabet.positions.__getitem__, _tokens(m, s)))
    except KeyError as exc:
        raise ValueError(f"token {exc.args[0]!r} is not in the model's alphabet") from None


def _born_stack(m: MatrixProductState) -> np.ndarray | None:
    """The model's (P, d, B, B) stack of padded site matrices; None when B > BORN_STACK_WIDTH.

    B is the widest bond and P is n rounded up to a power of two. stack[k, p]
    is tensors[k][:, p, :] zero-padded to B x B, so products of padded
    matrices carry the true ones in their top-left corners; the P - n pad
    sites hold the identity under every symbol.
    """
    bond = max(m.bond_dims)
    if bond > BORN_STACK_WIDTH:
        return None
    stack = np.zeros((1 << (m.n - 1).bit_length(), m.physical_dim, bond, bond))
    stack[m.n :] = np.eye(bond)
    for k, t in enumerate(m.tensors):
        stack[k, :, : t.shape[0], : t.shape[2]] = t.transpose(1, 0, 2)
    return stack


def _born_table(m: MatrixProductState) -> tuple | None:
    """The model's block table, (P / w, d**w, B, B), and its amplitude
    function; None when B > BORN_STACK_WIDTH.

    table[j, c] is the product of the padded matrices of sites j * w to
    j * w + w - 1 under the symbols whose base-d digits, most significant
    first, are c. It starts as _born_stack, w = 1, and doubles w by the
    pairwise products tab[0::2][:, :, None] @ tab[1::2][:, None, :], the
    products born_probability's tree would make, while the next level
    holds at most P * BORN_STACK_WIDTH**3 floats.

    amplitude(tokens) is the product of a string's blocks in the tree's
    order, its top-left entry the amplitude. Each leaf, a block j that
    holds real sites lo to hi - 1, maps the token tuple tokens[lo:hi] to its
    read-only (B, B) view table[j, c], pad sites taking symbol 0: a dict of
    d**(hi - lo) entries. A block of pad sites only is the identity, so it
    has no leaf, and a block whose partner is pad-only is carried up a
    level as it is. Cached as m.born_cache on first use, the table
    read-only.
    """
    if m.born_cache is None:
        table = _born_stack(m)
        if table is None:
            return None
        depth = len(table)
        limit = depth * BORN_STACK_WIDTH**3
        while len(table) > 1 and table.size * table.shape[1] <= 2 * limit:
            blocks, combos, bond, _ = table.shape
            pairs = table[0::2][:, :, None] @ table[1::2][:, None, :]
            table = pairs.reshape(blocks // 2, combos * combos, bond, bond)
        table.flags.writeable = False
        width = depth // len(table)

        def tree(first: int, size: int):
            """The product of leaves first to first + size - 1 of the tree, pad-only leaves left out."""
            if size == 1:
                lo, hi = first * width, min(first * width + width, m.n)
                # product runs most significant first: its i-th tuple has c = i * d**(w - (hi - lo))
                keys = itertools.product(m.alphabet.symbols, repeat=hi - lo)
                block = dict(zip(keys, table[first, :: m.physical_dim ** (width - (hi - lo))]))
                return lambda tokens: block[tokens[lo:hi]]
            half = size // 2
            if (first + half) * width >= m.n:
                return tree(first, half)
            left, right = tree(first, half), tree(first + half, half)
            return lambda tokens: left(tokens) @ right(tokens)

        object.__setattr__(m, "born_cache", (table, tree(0, len(table))))
    return m.born_cache


def born_probability(m: MatrixProductState, s) -> float:
    """Squared amplitude of one sequence: the product of its site matrices.

    s is a sequence of alphabet tokens (compared as strings, so the bits of
    a bit model may be ints), or a string read the way a dataset line is:
    tokens separated by spaces, or one token per character.

    A call reads the matrix of each block that holds real sites by the
    block's tokens and multiplies them by the levels of the pairwise tree
    above the blocks, one 2-D product per pair (see _born_table): 2
    products for an n = 20 bit model of chi 2, whose fourth block holds pad
    sites only. A pad-only block is the identity, and X @ I is X up to the
    sign of its zeros, so the amplitude's square is the float the full tree
    over the site matrices gives. Models wider than BORN_STACK_WIDTH
    contract left to right instead, one vector-matrix product per site.
    """
    tokens = _tokens(m, s)
    cache = _born_table(m)
    if cache is None:
        vec = np.ones(1)
        for tensor, i in zip(m.tensors, _indices(m, tokens)):
            vec = vec @ tensor[:, i, :]
        return float(vec[0] ** 2)
    try:
        return float(cache[1](tokens)[0, 0] ** 2)
    except KeyError:
        _indices(m, tokens)  # names the first token outside the alphabet
        raise


def distribution_table(m: MatrixProductState) -> np.ndarray:
    """Born probabilities of all physical_dim**n sequences, lexicographic.

    Materializes the full amplitude vector; guarded to MAX_OUTCOMES.
    """
    _bounded("distribution table", m.physical_dim**m.n, "outcomes", MAX_OUTCOMES)
    amps = m.tensors[0][0]
    for t in m.tensors[1:]:
        amps = np.tensordot(amps, t, axes=([-1], [0]))
    return (amps[..., 0].reshape(-1)) ** 2


def parity_target(n: int) -> MatrixProductState:
    """Exact bond-2 model of the uniform superposition of even bitstrings."""
    if n < 2:
        raise ValueError("parity target needs n >= 2")
    first = np.eye(2).reshape(1, 2, 2)
    xor = np.eye(2)[np.bitwise_xor.outer(range(2), range(2))]  # xor[left, p, left ^ p] = 1
    last = np.zeros((2, 2, 1))
    last[0, 0, 0] = last[1, 1, 0] = 1.0 / math.sqrt(2 ** (n - 1))
    tensors = [first] + [xor] * (n - 2) + [last]
    return MatrixProductState(n, 2, tuple(tensors))


def inner_product(a: MatrixProductState, b: MatrixProductState) -> float:
    """Exact overlap of two models via the transfer contraction.

    The environment env[l, m] over the two left bonds advances one site by
    two matrix products: env.T @ a's tensor sums out a's left bond, and the
    result, with rows (b's left bond, symbol), meets b's tensor in the
    second.
    """
    if a.n != b.n or a.physical_dim != b.physical_dim:
        raise ValueError("models must share length and physical dimension")
    if a.alphabet != b.alphabet:
        raise ValueError(
            f"models must share an alphabet, got {a.alphabet.symbols!r} and {b.alphabet.symbols!r}"
        )
    env = np.ones((1, 1))
    for ta, tb in zip(a.tensors, b.tensors):
        (la, p, ra), (lb, _, rb) = ta.shape, tb.shape
        half = (env.T @ ta.reshape(la, p * ra)).reshape(lb * p, ra)
        env = half.T @ tb.reshape(lb * p, rb)
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
        _unit_total(float(arr.sum()), f"{name} sums to", 1e-8)
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


def _draws(m: MatrixProductState, count: int, seed: int) -> Iterator[np.ndarray]:
    """The alphabet indices of count ancestral draws, one block of CHAIN_BLOCK rows at a time.

    Each block of chains goes through every site into one buffer, so a
    block holds its draws only until the next is requested. At site k,
    block [lo, hi) draws the uniforms PCG64(seed) gives after k * count + lo
    outputs, by advance: those an all-chains draw gives the block.
    """
    d = m.physical_dim
    envs: list[np.ndarray] = [np.ones((1, 1))]
    for t in reversed(m.tensors):
        l, _, r = t.shape
        half = (t.reshape(l * d, r) @ envs[-1]).reshape(l, d * r)
        envs.append(half @ t.reshape(l, d * r).T)
    envs.reverse()  # envs[k] covers sites k..n-1 (0-based)
    buffer = np.empty((min(CHAIN_BLOCK, count), m.n), dtype=_code_dtype(d))
    for lo in range(0, count, CHAIN_BLOCK):
        chains = min(CHAIN_BLOCK, count - lo)
        rng = np.random.Generator(np.random.PCG64(seed).advance(lo))
        vecs = np.ones((chains, 1))
        choices = buffer[:chains]
        offsets = np.arange(chains) * d
        for k, t in enumerate(m.tensors):
            l, _, r = t.shape
            branch = (vecs @ t.reshape(l, d * r)).reshape(chains * d, r)  # row c * d + p: chain c, symbol p
            # ((branch @ env) * branch) @ ones(r), in place: a fresh array per step
            # made sample(50000) on the parity_model benchmark's model 4% slower
            weights = branch @ envs[k + 1]
            weights *= branch
            weights = weights @ np.ones(r)
            weights = np.clip(weights, 0.0, None, out=weights).reshape(chains, d)
            # running sums one symbol column at a time, the sequential adds of a
            # cumsum along the row; they never decrease, so a draw beyond the
            # total is beyond the other d - 1 too, and counting those caps the pick
            running = [weights[:, 0]]
            for p in range(1, d):
                running.append(running[-1] + weights[:, p])
            scaled = rng.random(chains) * running.pop()
            rng.bit_generator.advance(count - chains)  # on to chain lo's uniform at the next site
            pick = sum(column < scaled for column in running)
            choices[:, k] = pick
            chosen = offsets + pick
            vecs = branch.take(chosen, axis=0)
            scale = weights.reshape(-1)[chosen]
            scale[scale == 0] = 1.0  # an all-zero chain picks symbol 0 and stays as it is
            vecs /= np.sqrt(scale)[:, None]
            del branch, weights, running, scaled, pick, chosen, scale  # only vecs outlives its site
        yield choices


def sample(m: MatrixProductState, count: int, seed: int, fh=None) -> list[str] | None:
    """Ancestral draws from the exact Born distribution, seeded.

    Conditional probabilities come from right environments, so each symbol
    is drawn from its true conditional given the prefix so far. Blocks of
    CHAIN_BLOCK chains advance together, one site per round: one matrix
    product maps every chain's vector through every symbol's slice, the
    conditional weights are the branches' quadratic forms in the
    environment, and a chain picks the number of running weight sums its
    uniform draw, scaled by the total, exceeds; one whose weights are all
    zero picks symbol 0. The running sums are built one symbol column at a
    time, 1-D adds in the order a cumsum along the row makes them. Its
    chosen branch, taken by flat row, is rescaled by the square root of
    its weight, when that is not zero. Each draw is a line of alphabet
    tokens, joined without separator when every token is one character
    and by single spaces otherwise, so parse_dataset reads the lines back.

    Every chain takes its own uniforms of the seeded stream (see _draws),
    so the draws do not depend on the block size. Each block is decoded
    whole as it is drawn: when every symbol is one character of the same
    UTF-8 length and none is a newline, by gathering its symbols' bytes
    into one newline-led row per draw and decoding the block once, and
    otherwise by a lookup in an object table and a join per row. Without
    fh the lines are returned; with fh they are written to it,
    newline-separated, one block at a time, so that only a block's lines
    are held at once, and None is returned.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    symbols = m.alphabet.symbols
    chars = all(len(t) == 1 for t in symbols)
    utf8 = [t.encode("utf-8", "surrogatepass") for t in symbols]
    if chars and len(set(map(len, utf8))) == 1 and "\n" not in symbols:
        table = np.frombuffer(b"".join(utf8), np.uint8).reshape(len(utf8), -1)
    else:
        table, sep = np.array(symbols, dtype=object), "" if chars else " "
    lines: list[str] = []
    for lo, block in zip(range(0, count, CHAIN_BLOCK), _draws(m, count, seed)):
        if table.dtype == object:
            drawn = map(sep.join, table[block].tolist())
            if fh is None:
                lines.extend(drawn)
                continue
            text = "\n" + "\n".join(drawn)
        else:
            # a row per draw, its newline and then its symbols' bytes, decoded once a block
            rows = np.empty((len(block), 1 + m.n * table.shape[1]), np.uint8)
            rows[:, 0] = ord("\n")
            rows[:, 1:] = table[block].reshape(len(block), -1)
            text = str(rows.reshape(-1), "utf-8", "surrogatepass")
            if fh is None:
                lines.extend(text[1:].split("\n"))
                continue
        fh.write(text if lo else text[1:])  # no newline before the first line
    return lines if fh is None else None


def _even_space(n: int) -> int:
    """2**(n-1), the number of even n-bit strings, once n is checked to index them in int64."""
    if n < 2:
        raise ValueError(f"even strings need n >= 2, got n={n}")
    _bounded("int64-indexed even-string length", n, "bits", MAX_INDEXED_BITS)
    return 2 ** (n - 1)


def even_subset_count(n: int, fraction: float) -> int:
    """round(fraction * 2**(n-1)) even strings, for a fraction in (0, 1]; n is checked first."""
    space = _even_space(n)
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    count = round(fraction * space)
    if count < 1:
        raise ValueError(f"fraction {fraction} draws no samples at n={n}")
    return count


def draw_even_subset(n: int, count: int, seed: int) -> SequenceDataset:
    """Draw distinct even-parity bitstrings uniformly, without replacement.

    count distinct indices in [0, 2**(n-1)) are drawn and sorted; index p
    is the string whose first n - 1 bits are p's binary digits, most
    significant first, and whose last bit is their parity. The bits are
    shifted straight into one uint8 (n, count) block, masked in place, and
    their parity folded by xor into its last row; row j is the dataset's
    column j, and the dataset takes over the block's transpose, its
    column-major code matrix, with no copy; only the picks are int64.
    """
    space = _even_space(n)
    if not 1 <= count <= space:
        raise ValueError(f"count must lie in [1, {space}]")
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(space, size=count, replace=False))
    block = np.empty((n, count), dtype=_code_dtype(2))
    bits = block[: n - 1]  # row j holds bit j of every string: pick >> (n - 2 - j), its low byte
    np.right_shift(picks, np.arange(n - 2, -1, -1)[:, None], out=bits, casting="unsafe")
    bits &= 1
    np.bitwise_xor.reduce(bits, axis=0, out=block[n - 1])
    return SequenceDataset.__new__(SequenceDataset)._store(Alphabet(("0", "1")), block.T)


@dataclass(frozen=True)
class ExperimentRow:
    fraction: float
    replica: int
    seed: int
    n_samples: int
    bhattacharyya: float


def _experiment_cell(
    args: tuple[int, float, int, int, int, MatrixProductState]
) -> ExperimentRow:
    n, fraction, replica, seed, chi, target = args
    ds = draw_even_subset(n, even_subset_count(n, fraction), seed)
    distance = overlap_distance(inner_product(train(ds, TrainConfig(chi=chi)), target))
    return ExperimentRow(fraction, replica, seed, ds.n_samples, distance)


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
    _bounded("experiment length", n, "bits", MAX_EXPERIMENT_BITS)
    if replicas < 1:
        raise ValueError("need at least one replica")
    for f in fractions:
        even_subset_count(n, f)  # a bad fraction fails before any cell runs
    target = parity_target(n)
    tasks = [
        (n, f, r, base_seed + r, cfg.chi, target)
        for f in fractions
        for r in range(replicas)
    ]
    workers = min(_max_workers(), len(tasks))
    if workers > 1:
        # imported here: the pool's modules add about 18 ms to every command's start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_experiment_cell, tasks))
    return [_experiment_cell(t) for t in tasks]


def save_model(m: MatrixProductState, path) -> None:
    payload = {
        "n": m.n,
        "physical_dim": m.physical_dim,
        "alphabet": list(m.alphabet),
        "bond_dims": list(m.bond_dims),
        "tensors": list(m.tensors),  # finite float64 arrays: dumps writes them row by row
    }
    with open(path, "w", encoding="utf-8") as fh:
        dumps(payload, fh)
        fh.write("\n")


def load_model(path) -> MatrixProductState:
    """The model save_model wrote; any fault in the file is a ValueError("bad model file ...")."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise TypeError("the payload is not a JSON object")
        tensors = tuple(np.asarray(t, dtype=float) for t in payload["tensors"])
        n, d = int(payload["n"]), int(payload["physical_dim"])
        model = MatrixProductState(n, d, tensors, payload.get("alphabet"))  # absent: the default
        if list(model.bond_dims) != list(payload["bond_dims"]):
            raise ValueError("bond_dims field does not match the stored tensors")
    except KeyError as exc:
        raise ValueError(f"bad model file {path}: no {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad model file {path}: {exc}") from None
    return model
