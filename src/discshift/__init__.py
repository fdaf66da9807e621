"""discshift: greedy Gershgorin disc-shift sampling for active matrix completion.

Pick the matrix entries worth observing by repeatedly right-shifting a
Gershgorin disc of the dual-graph product operator (GCS, and its block-wise
variant IGCS), then complete the matrix by solving the dual-graph regularized
linear system.
"""

from .linalg import (
    ConvergenceError,
    EigenPair,
    SolverOptions,
    SparseSym,
    cg_solve,
    gershgorin_bounds,
    lobpcg_smallest,
    load_edge_list,
    save_edge_list,
)
from .graphs import (
    GraphLaplacian,
    ProductOperator,
    RatingMatrix,
    community_graph,
    content_graph,
    knn_feature_graph,
    laplacian_from_weights,
    product_apply,
    synthetic_netflix,
    trivial_graph,
)
from .sampling import (
    SampleSet,
    SamplerState,
    gcs_sample,
    greedy_disc_shift,
    igcs_sample,
    lambda_max_bound,
    load_sample_set,
    random_sample,
    save_sample_set,
)
from .bandlimited import (
    BandlimitedBasis,
    aopt_local_search,
    aopt_objective,
    aopt_pick,
    bandlimited_basis,
    bandlimited_reconstruct,
)
from .completion import (
    CompletionProblem,
    CompletionReport,
    dglr_gradient,
    dglr_objective,
    dglr_solve,
    mse_upper_bound,
    rmse_eval,
)
from .experiments import (
    ExperimentConfig,
    MetricsRow,
    export_metrics,
    load_ratings,
    parse_config,
    run_experiment,
    save_ratings,
    split_dataset,
)

__version__ = "0.1.0"
