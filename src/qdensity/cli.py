"""Command-line surface: reduce, concepts, entail, and the parity pipeline.

Results go to stdout or the --out file as JSON/CSV with pinned float
formatting, JSON written as it is formatted, once the result exists.
Every subcommand is deterministic given its flags and seeds. Errors go
to stderr as one "Error: ..." line with exit status 1: the readers name
the file and the line they refuse, or the offset of a byte that is not
UTF-8, and any ValueError the library raises on input it refuses, such
as a table above qprob.MAX_PRODUCT_DIM entries, is reported the same
way, by the command group's one handler, never as a traceback.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import click
import numpy as np

from . import entailment, fca, mps, qprob
from ._format import csv_row, dumps
from .empirical import _check_cut, _read_utf8, empirical_distribution, load_dataset
from .qprob import Alphabet, JointDistribution

DIST_HEADER = "x,y,p"
RELATION_HEADER = "x,y"


def _fail(message: str) -> "click.ClickException":
    return click.ClickException(message)


@contextmanager
def _refused_in(path):
    """A ValueError the library raises on what the file holds, as an error line naming the file."""
    try:
        yield
    except ValueError as exc:
        raise _fail(f"{path}: {exc}")


@contextmanager
def _output(out_path):
    """The --out file, opened only once the result exists, or stdout; closed by one newline."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
            fh.write("\n")
    else:
        fh = click.get_text_stream("stdout")
        yield fh
        fh.write("\n")
        fh.flush()


def _emit(text: str, out_path) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _emit_json(result: dict, out_path) -> None:
    """The result as JSON, written row by row as dumps formats it."""
    with _output(out_path) as fh:
        dumps(result, fh)


def _read_order_file(path) -> tuple[Alphabet, Alphabet]:
    """Two lines: space-separated x symbols, then y symbols, each line's distinct."""
    lines = [ln.strip() for ln in _read_utf8(path, list) if ln.strip()]
    if len(lines) != 2:
        raise _fail(f"ordering file {path} must have exactly two nonempty lines")
    try:
        return Alphabet(lines[0].split()), Alphabet(lines[1].split())
    except ValueError as exc:
        raise _fail(f"{path}: {exc}")


def _csv_rows(path, header: str):
    """(line number, stripped cells) of every nonblank line after the checked header."""
    lines = _read_utf8(path, lambda fh: fh.read().splitlines())
    if not lines or lines[0].strip() != header:
        raise _fail(f"{path}: line 1: expected header {header!r}")
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line:
            yield lineno, [c.strip() for c in line.split(",")]


def _load_distribution_csv(path, order) -> JointDistribution:
    entries: dict[tuple[str, str], float] = {}
    for lineno, cells in _csv_rows(path, DIST_HEADER):
        if len(cells) != 3:
            raise _fail(f"{path}: line {lineno}: expected 3 fields, got {len(cells)}")
        x, y, p_str = cells
        try:
            p = float(p_str)
        except ValueError:
            p = math.nan
        if not math.isfinite(p):
            raise _fail(f"{path}: line {lineno}: bad probability {p_str!r}")
        if p < 0:
            raise _fail(f"{path}: line {lineno}: negative probability {p_str}")
        if (x, y) in entries:
            raise _fail(f"{path}: line {lineno}: duplicate pair ({x}, {y})")
        entries[(x, y)] = p
    if not entries:
        raise _fail(f"{path}: no probability rows")
    x_alpha, x_codes = Alphabet.first_appearance(x for x, _ in entries)
    y_alpha, y_codes = Alphabet.first_appearance(y for _, y in entries)
    if order is not None:
        x_order, y_order = _read_order_file(order)
        missing = set(x_alpha) - set(x_order) | set(y_alpha) - set(y_order)
        if missing:
            raise _fail(f"{order}: ordering file omits symbols: {sorted(missing)}")
        x_codes = x_order.encode(x_alpha)[x_codes]
        y_codes = y_order.encode(y_alpha)[y_codes]
        x_alpha, y_alpha = x_order, y_order
    with _refused_in(path):
        qprob._product_size(len(x_alpha), len(y_alpha))  # before the table is allocated
        table = np.zeros((len(x_alpha), len(y_alpha)))
        table[x_codes, y_codes] = list(entries.values())
        total = float(table.sum())
        qprob._unit_total(total, "probabilities sum to", 1e-9)
        table /= total  # absorb float dust so the strict table invariant holds
        return JointDistribution(x_alpha, y_alpha, table)


class _Group(click.Group):
    """A command group that reports a ValueError from any of its commands as an error line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise _fail(str(exc))


@click.group(cls=_Group)
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
    first = _read_utf8(input_path, lambda fh: fh.readline().strip())
    # without --cut a comma marks a distribution CSV, so a misspelled header is reported
    if first == DIST_HEADER or cut is None and "," in first:
        if cut is not None:
            raise _fail("--cut applies to dataset input, not to a distribution CSV")
        pi = _load_distribution_csv(input_path, order)
    else:
        if cut is None:
            raise _fail("dataset input needs --cut")
        if order is not None:
            raise _fail("--order applies to a distribution CSV, not to dataset input")
        ds = load_dataset(input_path)
        _check_cut(ds.length, cut)  # a flag out of range, reported without the path
        with _refused_in(input_path):
            pi = empirical_distribution(ds, cut)
    psi = qprob.build_state(pi)
    rho_x = qprob.reduced_via_gram(psi, "X")
    rho_y = qprob.reduced_via_gram(psi, "Y")
    sd = qprob.schmidt(psi)
    result = {
        "x_alphabet": list(pi.x_alphabet),
        "y_alphabet": list(pi.y_alphabet),
        "rho_x": rho_x.matrix,
        "rho_y": rho_y.matrix,
        "eigenvalues": sd.coefficients**2,
        "eigenvectors_x": sd.x_vectors.T,
        "eigenvectors_y": sd.y_vectors.T,
        "eigenvector_distributions_x": sd.x_vectors.T**2,
        "eigenvector_distributions_y": sd.y_vectors.T**2,
        "marginal_x": qprob.marginalize(pi, "X"),
        "marginal_y": qprob.marginalize(pi, "Y"),
        "entropies": {
            "von_neumann_x": qprob.von_neumann_entropy(rho_x),
            "von_neumann_y": qprob.von_neumann_entropy(rho_y),
            "entanglement": qprob.shannon_entropy(sd.coefficients**2),
        },
    }
    _emit_json(result, out)


def _load_relation_csv(path) -> fca.Relation:
    pairs = []
    for lineno, cells in _csv_rows(path, RELATION_HEADER):
        if len(cells) != 2 or not all(cells):
            raise _fail(f"{path}: line {lineno}: expected two symbols")
        pairs.append((cells[0], cells[1]))
    if not pairs:
        raise _fail(f"{path}: no related pairs")
    with _refused_in(path):
        return fca.Relation.from_pairs(pairs)


@main.command("concepts")
@click.argument("relation_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--compare-eigen", is_flag=True, help="Also compare with eigenpairs.")
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None)
def cmd_concepts(relation_path, compare_eigen, out):
    """Formal concepts of a relation CSV (header x,y; one pair per row)."""
    relation = _load_relation_csv(relation_path)
    concepts = fca.formal_concepts(relation)
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
    _emit_json(result, out)


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
    ds = load_dataset(corpus_path)
    with _refused_in(corpus_path):
        cs = entailment.CorpusState.from_dataset(ds)
    pat = _parse_pattern(pattern)
    ref = _parse_pattern(against)
    normalized = not unnormalized
    dens_pat = entailment.pattern_density(cs, pat, normalized=normalized)
    dens_ref = entailment.pattern_density(cs, ref, normalized=normalized)
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
        "entails": min_eig >= -qprob.DENSITY_TOL,
    }
    _emit_json(result, out)


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
    if (data is None) == (fraction is None) or (data is None) == (n is None):
        raise _fail("give either --data, or --fraction with --n")
    try:
        if data is not None:
            ds = load_dataset(data)
            with _refused_in(data):
                mps._check_trainable(ds)
        else:
            ds = mps.draw_even_subset(n, mps.even_subset_count(n, fraction), seed)
        model = mps.train(ds, mps.TrainConfig(chi=chi))
    except MemoryError:
        what = data or f"a draw of {mps.even_subset_count(n, fraction)} samples"
        raise _fail(f"training on {what} does not fit in memory")
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
    model = mps.load_model(model_path)
    try:
        overlap = mps.inner_product(model, mps.parity_target(model.n))
    except ValueError as exc:
        raise _fail(f"cannot score against the bit parity target: {exc}")
    result = {
        "n": model.n,
        "inner_product": float(overlap),
        "bhattacharyya": mps.overlap_distance(overlap),
    }
    _emit_json(result, out)


@parity.command("sample")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--count", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "-o", type=click.Path(dir_okay=False), default=None)
def parity_sample(model_path, count, seed, out):
    """Draw sequences from a saved model, one per line, written as they are drawn."""
    model = mps.load_model(model_path)
    if count < 0:  # refused before --out is opened
        raise _fail("count must be nonnegative")
    with _output(out) as fh:
        mps.sample(model, count, seed, fh)


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
    except MemoryError:
        largest = mps.even_subset_count(n, max(fracs))
        raise _fail(f"draws of up to {largest} samples do not fit in memory")
    lines = ["fraction,replica,seed,n_samples,bhattacharyya"]
    for row in rows:
        lines.append(
            csv_row([row.fraction, row.replica, row.seed, row.n_samples, row.bhattacharyya])
        )
    _emit("\n".join(lines), out)


if __name__ == "__main__":
    main(prog_name="qdensity")
