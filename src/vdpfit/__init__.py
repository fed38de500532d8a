"""Coupled van der Pol oscillator fitting from partially observed time series.

Estimates per-component gains and a coupling matrix, together with the hidden
excitability tracks, by variable-projection optimization alternated with a
greedy stochastic search; includes SVD preprocessing of raw data matrices,
VDP/VAR forecasting benchmarks, and corpus export for downstream learners.
"""

from .model import (
    DimensionError,
    ObservationSet,
    SimulationDiverged,
    State,
    Trajectory,
    VdpParams,
    jacobians,
    simulate,
    step,
)
from .constraints import StackedState, residual
from .estimator import (
    FitError,
    FitResult,
    ParamBounds,
    PenaltyConfig,
    fit,
    inner_solve,
    value_gradient,
)
from .search import Candidate, SearchConfig, fitness, propose, search_and_refine
from .data import (
    SegmentSplit,
    SvdComponents,
    connectivity_projection,
    load_csv,
    normalize_components,
    split_segments,
    svd_components,
)
from .forecast import (
    ForecastReport,
    VarModel,
    evaluate,
    export_simulations,
    var_fit,
    var_predict,
    vdp_predict,
)

__version__ = "0.1.0"
