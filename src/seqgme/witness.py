"""Witness operators certifying genuine multipartite entanglement.

Builders return canonical Pauli sums. The "modified" variants absorb a
sequential observer's unsharp x measurement by scaling the lone x-type
stabilizer with the sharpness; the difference between modified and scaled
original witnesses is the operator whose positivity makes the modified
operator a witness again.

The sharpness λ enters only through the projector (I + λS)/2 of that x-type
generator S, so every other term is the same for every observer. Each
(family, N) is expanded once into a layout of canonical terms; a build then
fills in the terms that carry λ.
"""

from __future__ import annotations

import functools

from .errors import check_sharpness
from .pauli import (
    _PHASES,
    OperatorExpr,
    PauliString,
    _letters_of,
    _mask_product,
    expand_projector_product,
)
from .states import stabilizer_generators


def build_ghz_witness(n: int) -> OperatorExpr:
    """3I - 2[(I+S_1)/2 + prod_{m>=2} (I+S_m)/2] for the GHZ stabilizers."""
    return build_modified_ghz_witness(n, 1.0)


def build_modified_ghz_witness(n: int, sharpness: float) -> OperatorExpr:
    return _fill("ghz", n, sharpness)


def build_cluster_witness(n: int) -> OperatorExpr:
    """3I - 2[prod_{even m} (I+S_m)/2 + prod_{odd m} (I+S_m)/2] for the chain."""
    return build_modified_cluster_witness(n, 1.0)


def build_modified_cluster_witness(n: int, sharpness: float) -> OperatorExpr:
    return _fill("cluster", n, sharpness)


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


# A term that carries λ: its letters and masks, and, for the cluster chain,
# the coefficient of the host term it is the product of and that product's phase.
_LambdaSlot = tuple[str, int, int, complex | None, complex | None]


def _fill(family: str, n: int, sharpness: float) -> OperatorExpr:
    """The witness at this sharpness: the family's layout with its λ terms filled in.

    Each λ coefficient goes through the same float operations, in the same
    order, as in the expansion of 3I - 2(x part + z part) by OperatorExpr
    algebra: every merge adds onto 0.0, and exact zeros are dropped. So the
    result is bit for bit that expansion's, subnormal sharpness included.
    """
    lam = check_sharpness(sharpness)
    # S's coefficient in (I + λS)/2.
    half_lam = 0.0 + complex(0.5 * lam)
    terms = []
    for entry in _layout(family, n):
        if isinstance(entry, PauliString):
            terms.append(entry)
            continue
        letters, x, z, host, phase = entry
        coeff = half_lam if host is None else 0.0 + host * half_lam * phase
        # Merged into the sum of the two products, doubled, negated, added to 3I.
        coeff = 0.0 + (0.0 + (0.0 + (0.0 + coeff) * 2.0) * -1.0)
        if coeff != 0:
            terms.append(PauliString._from_masks(letters, coeff, x, z))
    return OperatorExpr(n, tuple(terms))


# Only valid (family, n) pairs are cached, as in states._verified_generators.
@functools.lru_cache(maxsize=None, typed=True)
def _layout(family: str, n: int) -> tuple[PauliString | _LambdaSlot, ...]:
    """The witness's terms in canonical order: λ-free terms final, λ terms as slots."""
    gens = stabilizer_generators(family, n)
    # (I + λS)/2 at λ = 0.
    half = OperatorExpr.from_terms(n, [PauliString("I" * n, 0.5)])
    if family == "ghz":
        x_gen = gens[0]
        free = half + expand_projector_product(gens[1:], n_qubits=n)
        slots = [(x_gen.letters, x_gen.x_mask, x_gen.z_mask, None, None)]
    else:
        # The last generator is the x-type one on the measured qubit; its
        # projector multiplies the product over its own parity class.
        x_gen = gens[-1]
        host = expand_projector_product(
            gens, n_qubits=n, select=lambda m: m % 2 == n % 2 and m != n
        )
        other = expand_projector_product(gens, n_qubits=n, select=lambda m: m % 2 != n % 2)
        free = host * half + other
        slots = []
        for term in host.terms:
            x, z, power = _mask_product(term.x_mask, term.z_mask, x_gen.x_mask, x_gen.z_mask)
            slots.append((_letters_of(n, x, z), x, z, term.coeff, _PHASES[power]))
    fixed = OperatorExpr.identity(n, 3.0) - 2.0 * free
    entries: list[PauliString | _LambdaSlot] = [*fixed.terms, *slots]
    entries.sort(key=lambda e: e.letters if isinstance(e, PauliString) else e[0])
    return tuple(entries)
