"""Witness operators certifying genuine multipartite entanglement.

Builders return canonical Pauli sums. The "modified" variants absorb a
sequential observer's unsharp x measurement by scaling the lone x-type
stabilizer with the sharpness; the difference between modified and scaled
original witnesses is the operator whose positivity makes the modified
operator a witness again.
"""

from __future__ import annotations

from .errors import check_sharpness
from .pauli import OperatorExpr, PauliString, expand_projector_product
from .states import stabilizer_generators


def _scaled_projector(generator: PauliString, sharpness: float) -> OperatorExpr:
    """(I + sharpness * S) / 2 as an expression."""
    n = generator.n_qubits
    return OperatorExpr.from_terms(
        n,
        [PauliString("I" * n, 0.5), generator.with_coeff(0.5 * sharpness)],
    )


def build_ghz_witness(n: int) -> OperatorExpr:
    """3I - 2[(I+S_1)/2 + prod_{m>=2} (I+S_m)/2] for the GHZ stabilizers."""
    return build_modified_ghz_witness(n, 1.0)


def build_modified_ghz_witness(n: int, sharpness: float) -> OperatorExpr:
    lam = check_sharpness(sharpness)
    gens = stabilizer_generators("ghz", n)
    x_part = _scaled_projector(gens[0], lam)
    z_part = expand_projector_product(gens[1:], n_qubits=n)
    return OperatorExpr.identity(n, 3.0) - 2.0 * (x_part + z_part)


def build_cluster_witness(n: int) -> OperatorExpr:
    """3I - 2[prod_{even m} (I+S_m)/2 + prod_{odd m} (I+S_m)/2] for the chain."""
    return build_modified_cluster_witness(n, 1.0)


def build_modified_cluster_witness(n: int, sharpness: float) -> OperatorExpr:
    lam = check_sharpness(sharpness)
    gens = stabilizer_generators("cluster", n)
    # The last generator is the x-type one on the measured qubit; its projector
    # carries the sharpness inside whichever parity class index n falls in.
    host = expand_projector_product(
        gens, n_qubits=n, select=lambda m: m % 2 == n % 2 and m != n
    )
    other = expand_projector_product(gens, n_qubits=n, select=lambda m: m % 2 != n % 2)
    scaled = host * _scaled_projector(gens[-1], lam)
    return OperatorExpr.identity(n, 3.0) - 2.0 * (scaled + other)


def build_modified_witness(family: str, n: int, sharpness: float) -> OperatorExpr:
    """The sharpness-modified witness of a witness family, "ghz" or "cluster"."""
    if family == "ghz":
        return build_modified_ghz_witness(n, sharpness)
    if family == "cluster":
        return build_modified_cluster_witness(n, sharpness)
    raise ValueError(f"unknown witness family {family!r}")


def difference_operator(family: str, n: int, sharpness: float) -> OperatorExpr:
    """Modified witness minus sharpness times the original; PSD for any valid input."""
    lam = check_sharpness(sharpness)
    return build_modified_witness(family, n, lam) - lam * build_modified_witness(family, n, 1.0)
