"""Multi-objective energy-based sampling toolkit.

Pareto-compositional Langevin chains (pcebm) with the mgd, cebm, and
ls_cebm baselines, analytic and trainable sequence energies, hypervolume
and edit-distance metrics, and a reproducible sweep harness.
"""

from .core import (
    AMINO_ALPHABET,
    ConfigError,
    DesignPoint,
    DiscreteSequence,
    InvalidSequenceError,
    InvalidSimplexError,
    ModelFormatError,
    ObjectiveVector,
    ParetoEbmError,
    SamplerConfig,
    ShapeError,
    SimplexWeights,
    Trajectory,
    WrongKindError,
    decode,
    decode_rows,
    relax,
    relax_rows,
)
from .energy import (
    CdTrainConfig,
    EnergyModel,
    FonsecaFlemingBranch,
    MlpEnergy,
    ObjectiveSet,
    PwmEnergy,
    ShiftedQuadratic,
    Zdt3Branch,
    cd_train,
    load_model,
    save_model,
)
from .metrics import (
    convergence_stats,
    edit_distance,
    edit_distance_matrix,
    hypervolume_exact,
    hypervolume_mc,
    nondominated_mask,
    normalize,
    summarize_edist,
)
from .moo import pareto_filter
from .problems import get_problem
from .samplers import (
    ChainFailure,
    ChainResults,
    ChainSpecs,
    RandomInit,
    chain_seed,
    chain_seeds,
    run_chain,
    run_population,
    write_trajectories,
)
from .harness import (
    ExperimentConfig,
    ImprovementReport,
    SweepResult,
    emit_front,
    improve_seeds,
    load_config,
    run_sweep,
)

__version__ = "0.1.0"
