"""Sequential detection of genuine multipartite entanglement (GME).

Witness operators for GHZ and linear cluster states, the unsharp-measurement
channel acting on one recycled qubit, closed-form per-observer witness values,
and planners for sharpness schedules under which every observer in the
sequence certifies GME.
"""

from .analytic import (
    DetectionReport,
    full_sequence_report,
    witness_value,
    z_factor,
)
from .densesim import (
    channel_closed_form,
    expectation,
    load_density_matrix,
    luders_update,
    observer_states,
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
)
from .planner import (
    PlanResult,
    SharpnessSchedule,
    generate_schedule,
    largest_sharpness_for,
    max_detections,
)
from .states import (
    StateFamily,
    stabilizer_expectation,
    stabilizer_generators,
    syndrome_spectrum,
)
from .witness import (
    build_modified_cluster_witness,
    build_modified_ghz_witness,
    build_modified_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "CapacityError",
    "DENSE_QUBIT_LIMIT",
    "DetectionReport",
    "DimensionError",
    "OperatorExpr",
    "PauliString",
    "PlanResult",
    "PrecisionError",
    "SharpnessSchedule",
    "StateFamily",
    "ValidationError",
    "build_modified_cluster_witness",
    "build_modified_ghz_witness",
    "build_modified_witness",
    "channel_closed_form",
    "commutes",
    "expand_projector_product",
    "expectation",
    "full_sequence_report",
    "generate_schedule",
    "largest_sharpness_for",
    "load_density_matrix",
    "luders_update",
    "max_detections",
    "observer_states",
    "save_density_matrix",
    "stabilizer_expectation",
    "stabilizer_generators",
    "syndrome_spectrum",
    "witness_value",
    "z_factor",
]
