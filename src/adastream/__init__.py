"""Adaptive frame-rate and resolution selection for streamed rendered content.

The package covers the full pipeline: quality grids (ingested or synthetic),
quality-margin mode labeling, a velocity feature pipeline, a trainable mode
predictor, a Viterbi-smoothed mode controller, and a deterministic
streaming-session simulator with GOP and I-frame semantics.
"""

from .controller import (ControllerState, TransitionGraph, decide,
                         default_transition_graph, initial_state, step,
                         step_window)
from .errors import (AdastreamError, ArgumentError, ConfigError, ContractError,
                     DivergenceError, ModelCorruptError, SchemaError)
from .features import FeatureVector, extract_features, normalize_bandwidth
from .labeler import (DEFAULT_MARGIN_JOD, LabeledClip, label_grids,
                      savings_curve, select_efficient, select_max_quality,
                      selection_distribution)
from .ladder import (DEFAULT_LADDER, FRAME_RATES_HZ, RESOLUTION_LINES, Ladder,
                     VideoMode, objective_cost, pixels_per_second)
from .metrics import confusion_matrix, relative_error
from .motion import SPEM_LIMIT_DEGPS, VelocityEstimator
from .predictor import (PredictorModel, TrainConfig, TrainingExample, forward,
                        load_model, save_model, train)
from .quality import (QualityGrid, SyntheticQualityParams, load_grids,
                      make_synthetic_grid, synthetic_quality)
from .simulator import (GridQualitySource, Scenario, SessionTrace,
                        SyntheticQualitySource, allocate_bits,
                        compare_baselines, run_session, scenario_from_json,
                        scenario_to_json)

__version__ = "0.1.0"

__all__ = [
    "AdastreamError", "ArgumentError", "ConfigError", "ContractError",
    "ControllerState", "DEFAULT_LADDER", "DEFAULT_MARGIN_JOD",
    "DivergenceError", "FRAME_RATES_HZ", "FeatureVector", "GridQualitySource",
    "LabeledClip", "Ladder", "ModelCorruptError",
    "PredictorModel", "QualityGrid", "RESOLUTION_LINES", "SPEM_LIMIT_DEGPS",
    "Scenario", "SchemaError", "SessionTrace", "SyntheticQualityParams",
    "SyntheticQualitySource", "TrainConfig", "TrainingExample",
    "TransitionGraph", "VelocityEstimator", "VideoMode", "allocate_bits",
    "compare_baselines", "confusion_matrix", "decide",
    "default_transition_graph", "extract_features", "forward", "initial_state",
    "label_grids", "load_grids", "load_model", "make_synthetic_grid",
    "normalize_bandwidth",
    "objective_cost", "pixels_per_second", "relative_error",
    "run_session", "save_model", "savings_curve", "scenario_from_json",
    "scenario_to_json", "select_efficient", "select_max_quality",
    "selection_distribution", "step", "step_window",
    "synthetic_quality", "train",
]
