"""Exception types and the input checks shared across the package.

All exceptions subclass ValueError so callers who don't care about the
distinction can catch a single type.
"""


class DimensionError(ValueError):
    """Operands act on different numbers of qubits."""


class AlgebraError(ValueError):
    """Operator algebra precondition violated (e.g. non-commuting generators)."""


class CapacityError(ValueError):
    """Requested dense object exceeds the configured qubit limit."""


class ValidationError(ValueError):
    """Numerical object fails a structural check (density matrix, Hermiticity)."""


class PrecisionError(ValueError):
    """Result not representable honestly at double precision."""


def check_sharpness(sharpness: float) -> float:
    """The sharpness as a float; ValueError unless it lies in [0, 1] (NaN does not)."""
    lam = float(sharpness)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"sharpness {sharpness} outside [0, 1]")
    return lam
