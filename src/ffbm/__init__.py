"""Feature-first block model: Bayesian inference on labelled networks.

Vertex features generate block memberships through a softmax; the blocks
generate an undirected multigraph through a microcanonical degree-corrected
stochastic block model.  Inference runs as a two-level MCMC scheme: a
Metropolis-Hastings chain over partitions, and a Metropolis-adjusted
Langevin chain over the softmax weights coupled through the posterior
block-membership estimates.
"""

from .analysis import (
    EvaluationReport,
    ReducedFeatureSet,
    WeightSummary,
    block_accuracy,
    cross_entropy_loss,
    feature_scores,
    loss_and_accuracy,
    mean_description_length,
    reduce_dimension,
    summarize_weights,
)
from .block_chain import (
    BlockChainConfig,
    BlockChainResult,
    align_labels,
    estimate_responsibilities,
    mdl_partition,
    run_block_chain,
)
from .config import RunConfig, build_config
from .datagen import (
    GeneratorSpec,
    generate,
    sample_memberships,
    sample_microcanonical_graph,
    sample_poisson_graph,
)
from .dataio import (
    DataFormatError,
    load_network,
    load_polbooks,
    parse_categorical_features,
    parse_edge_list,
    parse_features,
)
from .dcsbm import (
    BlockState,
    apply_move,
    delta_description_length,
    description_length,
    log_likelihood,
    log_prior_degrees,
    log_prior_edge_matrix,
    log_stub_pairings,
)
from .graph import LabelledNetwork, VertexSplit, network_from_edges, split_vertices
from .mala import (
    WeightChainConfig,
    WeightChainResult,
    accept_log_prob,
    proposal_log_density,
    run_weight_chain,
    run_weight_chains,
    step_size,
)
from .pipeline import load_config_network, run_experiment, run_repetition
from .sampling import retained_indices, stream_seed_int, stream_seed_sequence
from .softmax import (
    ObjectiveContext,
    class_probabilities,
    log_partition_given_features,
    objective,
    objective_and_gradient,
    objective_gradient,
)
from .tables import count_partitions, log_count_partitions

__version__ = "0.1.0"
