"""Sequential detection of genuine multipartite entanglement (GME).

Witness operators for GHZ and linear cluster states, the unsharp-measurement
channel acting on one recycled qubit, closed-form per-observer witness values,
and planners for sharpness schedules under which every observer in the
sequence certifies GME.
"""

from .analytic import (
    CorrelatorDecay,
    DetectionReport,
    cluster_witness_value,
    detection_condition_rhs,
    full_sequence_report,
    ghz_witness_value,
    mixed_ghz_witness_value,
    z_factor,
    z_loss,
)
from .densesim import (
    MeasurementEffect,
    all_bipartitions,
    apply_channel_k_times,
    channel_closed_form,
    eigen_spectrum,
    expectation,
    load_density_matrix,
    luders_update,
    observer_effects,
    sample_biseparable,
    save_density_matrix,
)
from .errors import (
    AlgebraError,
    CapacityError,
    DimensionError,
    PrecisionError,
    ValidationError,
)
from .pauli import (
    DENSE_QUBIT_LIMIT,
    OperatorExpr,
    PauliString,
    commutes,
    expand_projector_product,
    pauli_multiply,
)
from .planner import (
    PlanResult,
    SharpnessSchedule,
    generate_schedule,
    max_detections,
    min_sharpness_for,
    scaled_schedule,
)
from .states import (
    StateFamily,
    make_cluster,
    make_generalized_ghz,
    make_ghz,
    make_mixed_ghz,
    stabilizer_expectation,
    stabilizer_generators,
)
from .witness import (
    WitnessSpec,
    build_cluster_witness,
    build_ghz_witness,
    build_modified_cluster_witness,
    build_modified_ghz_witness,
    difference_operator,
    format_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "CapacityError",
    "CorrelatorDecay",
    "DENSE_QUBIT_LIMIT",
    "DetectionReport",
    "DimensionError",
    "MeasurementEffect",
    "OperatorExpr",
    "PauliString",
    "PlanResult",
    "PrecisionError",
    "SharpnessSchedule",
    "StateFamily",
    "ValidationError",
    "WitnessSpec",
    "all_bipartitions",
    "apply_channel_k_times",
    "build_cluster_witness",
    "build_ghz_witness",
    "build_modified_cluster_witness",
    "build_modified_ghz_witness",
    "channel_closed_form",
    "cluster_witness_value",
    "commutes",
    "detection_condition_rhs",
    "difference_operator",
    "eigen_spectrum",
    "expand_projector_product",
    "expectation",
    "format_witness",
    "full_sequence_report",
    "generate_schedule",
    "ghz_witness_value",
    "load_density_matrix",
    "luders_update",
    "make_cluster",
    "make_generalized_ghz",
    "make_ghz",
    "make_mixed_ghz",
    "max_detections",
    "min_sharpness_for",
    "mixed_ghz_witness_value",
    "observer_effects",
    "pauli_multiply",
    "sample_biseparable",
    "save_density_matrix",
    "scaled_schedule",
    "stabilizer_expectation",
    "stabilizer_generators",
    "z_factor",
    "z_loss",
]
