"""Command-line surface: reduce, concepts, entail, and the parity pipeline.

Results go to stdout or the --out file as JSON/CSV with pinned float
formatting; errors go to stderr with a nonzero exit code. Every subcommand
is deterministic given its flags and seeds.
"""

from __future__ import annotations

import click
import numpy as np

from . import entailment, fca, mps, qprob
from ._format import csv_row, dumps, format_float
from .empirical import empirical_distribution, load_dataset
from .qprob import Alphabet, JointDistribution

DIST_HEADER = "x,y,p"
RELATION_HEADER = "x,y"


def _fail(message: str) -> "click.ClickException":
    return click.ClickException(message)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        click.echo(text)


def _read_order_file(path) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Two lines: space-separated x symbols, then y symbols."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) != 2:
        raise _fail(f"ordering file {path} must have exactly two nonempty lines")
    return tuple(lines[0].split()), tuple(lines[1].split())


def _load_distribution_csv(path, order) -> JointDistribution:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != DIST_HEADER:
        raise _fail(f"{path}: line 1: expected header {DIST_HEADER!r}")
    entries: dict[tuple[str, str], float] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 3:
            raise _fail(f"{path}: line {lineno}: expected 3 fields, got {len(cells)}")
        x, y, p_str = (c.strip() for c in cells)
        try:
            p = float(p_str)
        except ValueError:
            raise _fail(f"{path}: line {lineno}: bad probability {p_str!r}")
        if p < 0:
            raise _fail(f"{path}: line {lineno}: negative probability {p_str}")
        if (x, y) in entries:
            raise _fail(f"{path}: line {lineno}: duplicate pair ({x}, {y})")
        entries[(x, y)] = p
    if not entries:
        raise _fail(f"{path}: no probability rows")
    x_order = dict.fromkeys(x for x, _ in entries)
    y_order = dict.fromkeys(y for _, y in entries)
    if order is not None:
        xs, ys = _read_order_file(order)
        missing = set(x_order) - set(xs) | set(y_order) - set(ys)
        if missing:
            raise _fail(f"ordering file omits symbols: {sorted(missing)}")
        x_syms, y_syms = xs, ys
    else:
        x_syms, y_syms = tuple(x_order), tuple(y_order)
    try:
        x_alpha, y_alpha = Alphabet(x_syms), Alphabet(y_syms)
    except ValueError as exc:
        raise _fail(str(exc))
    table = np.zeros((len(x_syms), len(y_syms)))
    for (x, y), p in entries.items():
        table[x_syms.index(x), y_syms.index(y)] = p
    total = float(table.sum())
    if abs(total - 1.0) > 1e-9:
        raise _fail(f"{path}: probabilities sum to {format_float(total)}, expected 1")
    table /= total  # absorb float dust so the strict table invariant holds
    return JointDistribution(x_alpha, y_alpha, table)


@click.group()
def main():
    """Model joint distributions as pure states and work with the fallout."""


@main.command("reduce")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--cut", type=int, default=None, help="Prefix length for dataset input.")
@click.option("--order", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Two-line file fixing the x and y symbol orders (CSV input).")
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None)
def cmd_reduce(input_path, cut, order, out):
    """Reduced densities, spectra, marginals, and entropies of a distribution.

    INPUT_PATH is either a distribution CSV with header x,y,p or, together
    with --cut, a dataset file with one sample per line.
    """
    with open(input_path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first == DIST_HEADER:
        if cut is not None:
            raise _fail("--cut applies to dataset input, not to a distribution CSV")
        pi = _load_distribution_csv(input_path, order)
    else:
        if cut is None:
            raise _fail("dataset input needs --cut")
        if order is not None:
            raise _fail("--order applies to a distribution CSV, not to dataset input")
        try:
            ds = load_dataset(input_path)
            pi = empirical_distribution(ds, cut)
        except ValueError as exc:
            raise _fail(str(exc))
    psi = qprob.build_state(pi)
    rho_x = qprob.reduced_via_gram(psi, "X")
    rho_y = qprob.reduced_via_gram(psi, "Y")
    sd = qprob.schmidt(psi)
    eigenvalues = [float(c) ** 2 for c in sd.coefficients]
    result = {
        "x_alphabet": list(pi.x_alphabet),
        "y_alphabet": list(pi.y_alphabet),
        "rho_x": rho_x.matrix,
        "rho_y": rho_y.matrix,
        "eigenvalues": eigenvalues,
        "eigenvectors_x": sd.x_vectors.T,
        "eigenvectors_y": sd.y_vectors.T,
        "eigenvector_distributions_x": [
            [float(v) ** 2 for v in sd.x_vectors[:, i]] for i in range(len(eigenvalues))
        ],
        "eigenvector_distributions_y": [
            [float(v) ** 2 for v in sd.y_vectors[:, i]] for i in range(len(eigenvalues))
        ],
        "marginal_x": qprob.marginalize(pi, "X"),
        "marginal_y": qprob.marginalize(pi, "Y"),
        "entropies": {
            "von_neumann_x": qprob.von_neumann_entropy(rho_x),
            "von_neumann_y": qprob.von_neumann_entropy(rho_y),
            "entanglement": qprob.entanglement_entropy(psi),
        },
    }
    _emit(dumps(result), out)


def _load_relation_csv(path) -> fca.Relation:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != RELATION_HEADER:
        raise _fail(f"{path}: line 1: expected header {RELATION_HEADER!r}")
    pairs = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2 or not all(cells):
            raise _fail(f"{path}: line {lineno}: expected two symbols")
        pairs.append((cells[0], cells[1]))
    if not pairs:
        raise _fail(f"{path}: no related pairs")
    return fca.Relation.from_pairs(pairs)


@main.command("concepts")
@click.argument("relation_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--compare-eigen", is_flag=True, help="Also compare with eigenpairs.")
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None)
def cmd_concepts(relation_path, compare_eigen, out):
    """Formal concepts of a relation CSV (header x,y; one pair per row)."""
    relation = _load_relation_csv(relation_path)
    try:
        concepts = fca.formal_concepts(relation)
    except ValueError as exc:
        raise _fail(str(exc))
    result = {
        "x_alphabet": list(relation.x_alphabet),
        "y_alphabet": list(relation.y_alphabet),
        "concepts": [
            {"extent": sorted(c.extent), "intent": sorted(c.intent)} for c in concepts
        ],
        "count": len(concepts),
    }
    if compare_eigen:
        result["eigen_comparison"] = fca.compare_eigen_concepts(relation).to_dict()
    _emit(dumps(result), out)


def _parse_pattern(text: str) -> dict[int, str]:
    """Comma-separated POS=TOKEN pairs with 1-based prefix positions."""
    pattern: dict[int, str] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        pos_str, _, token = chunk.partition("=")
        if not token:
            raise _fail(f"bad pattern entry {chunk!r}, expected POS=TOKEN")
        try:
            pos = int(pos_str.strip())
        except ValueError:
            raise _fail(f"bad pattern position {pos_str!r}")
        if pos in pattern:
            raise _fail(f"pattern repeats position {pos}")
        pattern[pos] = token.strip()
    if not pattern:
        raise _fail("pattern is empty")
    return pattern


def _refines(inner: dict[int, str], outer: dict[int, str]) -> bool:
    return all(inner.get(pos) == tok for pos, tok in outer.items())


@main.command("entail")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--pattern", required=True, help="POS=TOKEN pairs, comma separated.")
@click.option("--against", required=True, help="Candidate refinement, same syntax.")
@click.option("--unnormalized", is_flag=True, help="Compare unnormalized densities.")
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None)
def cmd_entail(corpus_path, pattern, against, unnormalized, out):
    """Loewner-order verdict between two position-anchored expressions.

    With normalized densities the comparison is scaled by the conditional
    probability of --against given --pattern whenever the former refines
    the latter.
    """
    try:
        cs = entailment.CorpusState.from_dataset(load_dataset(corpus_path))
    except ValueError as exc:
        raise _fail(str(exc))
    pat = _parse_pattern(pattern)
    ref = _parse_pattern(against)
    normalized = not unnormalized
    try:
        dens_pat = entailment.pattern_density(cs, pat, normalized=normalized)
        dens_ref = entailment.pattern_density(cs, ref, normalized=normalized)
    except ValueError as exc:
        raise _fail(str(exc))
    if normalized and _refines(ref, pat):
        scale = dens_ref.weight / dens_pat.weight
    else:
        scale = 1.0
    min_eig = entailment.difference_min_eigenvalue(dens_pat, dens_ref, scale)
    result = {
        "suffix_alphabet": list(cs.suffix_alphabet),
        "pattern": {str(k): v for k, v in sorted(pat.items())},
        "against": {str(k): v for k, v in sorted(ref.items())},
        "normalized": normalized,
        "pattern_matrix": dens_pat.matrix,
        "against_matrix": dens_ref.matrix,
        "pattern_weight": dens_pat.weight,
        "against_weight": dens_ref.weight,
        "scale": float(scale),
        "difference_min_eigenvalue": min_eig,
        "entails": min_eig >= -entailment.PSD_TOL,
    }
    _emit(dumps(result), out)


@main.group("parity")
def parity():
    """Train, evaluate, sample, and benchmark the even-parity model."""


def _parse_fractions(text: str) -> list[float]:
    try:
        fractions = [float(c) for c in text.split(",") if c.strip()]
    except ValueError:
        raise _fail(f"bad fractions list {text!r}")
    if not fractions:
        raise _fail("no fractions given")
    return fractions


@parity.command("train")
@click.option("--n", type=int, default=None, help="Bitstring length (with --fraction).")
@click.option("--fraction", type=float, default=None,
              help="Fraction of the even strings to draw as training data.")
@click.option("--data", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Train on an explicit dataset file instead of a draw.")
@click.option("--chi", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--model", "--out", "model_path", required=True,
              type=click.Path(dir_okay=False), help="Where to write the model JSON.")
def parity_train(n, fraction, data, chi, seed, model_path):
    """Train a model on even-parity data and save it as JSON."""
    if (data is None) == (fraction is None):
        raise _fail("give exactly one of --fraction or --data")
    try:
        if data is not None:
            ds = load_dataset(data)
        else:
            if n is None:
                raise _fail("--fraction needs --n")
            count = round(fraction * 2 ** (n - 1))
            if count < 1:
                raise _fail(f"fraction {fraction} draws no samples at n={n}")
            ds = mps.draw_even_subset(n, count, seed)
        model = mps.train(ds, mps.TrainConfig(chi=chi))
    except ValueError as exc:
        raise _fail(str(exc))
    mps.save_model(model, model_path)
    click.echo(f"model written to {model_path}", err=True)


@parity.command("eval")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None)
def parity_eval(model_path, out):
    """Overlap of a saved model with the uniform even-parity target.

    The bhattacharyya field is -ln<psi|target>, which is the Bhattacharyya
    distance of the two Born distributions only when the model's amplitudes
    on the even strings are nonnegative.
    """
    try:
        model = mps.load_model(model_path)
    except (ValueError, KeyError) as exc:
        raise _fail(f"bad model file: {exc}")
    try:
        overlap = mps.inner_product(model, mps.parity_target(model.n))
    except ValueError as exc:
        raise _fail(f"cannot score against the bit parity target: {exc}")
    result = {
        "n": model.n,
        "inner_product": float(overlap),
        "bhattacharyya": mps.overlap_distance(overlap),
    }
    _emit(dumps(result), out)


@parity.command("sample")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--count", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None)
def parity_sample(model_path, count, seed, out):
    """Draw sequences from a saved model, one per line."""
    try:
        model = mps.load_model(model_path)
        lines = mps.sample(model, count, seed)
    except (ValueError, KeyError) as exc:
        raise _fail(str(exc))
    _emit("\n".join(lines), out)


@parity.command("experiment")
@click.option("--n", type=int, required=True)
@click.option("--fractions", required=True, help="Comma-separated fractions in (0, 1].")
@click.option("--replicas", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--chi", type=int, default=2, show_default=True)
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None)
def parity_experiment(n, fractions, replicas, seed, chi, out):
    """Subset-fraction benchmark: one CSV row per (fraction, replica)."""
    fracs = _parse_fractions(fractions)
    try:
        rows = mps.run_experiment(n, fracs, replicas, seed, mps.TrainConfig(chi=chi))
    except ValueError as exc:
        raise _fail(str(exc))
    lines = ["fraction,replica,seed,n_samples,bhattacharyya"]
    for row in rows:
        lines.append(
            csv_row([row.fraction, row.replica, row.seed, row.n_samples, row.bhattacharyya])
        )
    _emit("\n".join(lines), out)


if __name__ == "__main__":
    main(prog_name="qdensity")
