"""Joint probability distributions as pure states, and what their reduced
densities know: spectra, formal concepts, entailment order, and a
matrix-product generative model trained by a spectral sweep."""

from .empirical import (
    EmpiricalGraph,
    SequenceDataset,
    empirical_distribution,
    graph_reduced_density,
    load_dataset,
    parity_graph,
    parse_dataset,
    summarizer_angles,
)
from .entailment import (
    CorpusState,
    EntailmentDensity,
    PatternUnobservedError,
    decompose,
    loewner_geq,
    pattern_density,
)
from .fca import FormalConcept, Relation, compare_eigen_concepts, formal_concepts, galois_f, galois_g
from .linalg import Svd, SymEigen, is_psd, svd, sym_eigen
from .mps import (
    MatrixProductState,
    TrainConfig,
    bhattacharyya,
    born_probability,
    draw_even_subset,
    inner_product,
    parity_target,
    run_experiment,
    sample,
    train,
)
from .qprob import (
    Alphabet,
    DensityMatrix,
    JointDistribution,
    ProductBasis,
    PureState,
    SchmidtData,
    born_distribution,
    build_state,
    density_diag,
    density_projection,
    entanglement_entropy,
    kraus_reduced,
    marginalize,
    partial_trace,
    reconstruct_state,
    reduced_via_gram,
    schmidt,
    von_neumann_entropy,
)

__version__ = "0.1.0"
