"""Roadside radio-link simulator with vehicle detection and classification."""

from .errors import (
    ConfigurationError,
    EstimationError,
    InputDataError,
    RadioBarrierError,
    TrainingError,
)
from .geometry import (
    LABELS,
    TYPE_LABELS,
    BodySegment,
    LayoutConfig,
    NodeSpec,
    ObstructionParams,
    Pose,
    RadioLink,
    SensorLayout,
    VehicleSpec,
    build_layout,
    occlusion_params,
)
from .propagation import (
    AntennaPattern,
    ChannelConfig,
    antenna_gain,
    fresnel_v,
    fspl,
    knife_edge_loss,
    link_rssi,
    wavelength,
)
from .simulator import (
    Dataset,
    PassageEvent,
    SimulationConfig,
    baseline_rssi,
    generate_dataset,
    load_dataset,
    save_dataset,
    simulate_passage,
)
from .pipeline import (
    DetectionConfig,
    EventSegment,
    FeatureConfig,
    FeatureVector,
    detect_events,
    drop_magnitude,
    estimate_length,
    estimate_speed,
    extract_features,
    feature_matrix,
    featurize_dataset,
    reflection_study,
)
from .learn import (
    CvSummary,
    EvaluationReport,
    KnnClassifier,
    LengthThresholdClassifier,
    SvmClassifier,
    cross_validate,
    evaluate_predictions,
    load_model,
    mean_std,
    save_model,
)
from .config import AppConfig, default_config, load_config, resolve_config

__version__ = "0.1.0"
