"""Witness operators certifying genuine multipartite entanglement.

Builders return canonical Pauli sums. A witness is 3I - 2(P_A + P_B), with
P_A and P_B the projector products (I + S_m)/2 over two classes of the
family's stabilizer generators. The "modified" variants absorb a sequential
observer's unsharp x measurement by scaling the lone x-type generator S with
the sharpness λ. S's factor (I + λS)/2 multiplies the rest H of its class's
product (H = I for GHZ), so the witness is affine in λ:

    W(λ) = W(0) + λ·Ẇ,  W(0) = 3I - H - 2R,  Ẇ = -S·H,

with R the other class's product (Gühne and Tóth, Phys. Rep. 474, 1).
Each (family, N) is expanded once into the terms of W(0) and of Ẇ, which
never share a string; a build writes each slope times λ into Ẇ's terms.
"""

from __future__ import annotations

import functools

from .errors import check_sharpness
from .pauli import OperatorExpr, PauliString, expand_projector_product
from .states import stabilizer_generators


def build_modified_ghz_witness(n: int, sharpness: float) -> OperatorExpr:
    """3I - 2[(I+λS_1)/2 + prod_{m>=2} (I+S_m)/2]; λ = 1 is the plain GHZ witness."""
    return _fill("ghz", n, sharpness)


def build_modified_cluster_witness(n: int, sharpness: float) -> OperatorExpr:
    """3I - 2[prod_{even m} (I+S_m)/2 + prod_{odd m} (I+S_m)/2] with λS_N for S_N;
    λ = 1 is the plain cluster witness."""
    return _fill("cluster", n, sharpness)


def build_modified_witness(family: str, n: int, sharpness: float) -> OperatorExpr:
    """The sharpness-modified witness of a witness family, "ghz" or "cluster"."""
    if family == "ghz":
        return build_modified_ghz_witness(n, sharpness)
    if family == "cluster":
        return build_modified_cluster_witness(n, sharpness)
    raise ValueError(f"unknown witness family {family!r}")


def _fill(family: str, n: int, sharpness: float) -> OperatorExpr:
    """W(0) + λ·Ẇ: the family's layout with each slope times λ written in.

    A term whose slope times λ is zero (λ = 0, or an underflow) is dropped,
    as a canonical sum drops every zero.
    """
    lam = check_sharpness(sharpness)
    terms = []
    for term, sloped in _layout(family, n):
        if sloped:
            coeff = term.coeff * lam
            if coeff == 0:
                continue
            term = term.with_coeff(coeff)
        terms.append(term)
    return OperatorExpr(n, tuple(terms))


# Only valid (family, n) pairs are cached, as in states._verified_generators.
@functools.lru_cache(maxsize=None, typed=True)
def _layout(family: str, n: int) -> tuple[tuple[PauliString, bool], ...]:
    """W(0)'s terms and Ẇ's, in canonical order, each flagged True when it is
    Ẇ's (its coefficient is then the slope)."""
    gens = stabilizer_generators(family, n)
    # S's position and its class: the X..X generator alone for GHZ; for the
    # cluster chain the x-type one on the measured qubit, in its parity class.
    if family == "ghz":
        s, in_class = 1, lambda m: m == 1
    else:
        s, in_class = n, lambda m: m % 2 == n % 2
    host = expand_projector_product(gens, n_qubits=n, select=lambda m: in_class(m) and m != s)
    rest = expand_projector_product(gens, n_qubits=n, select=lambda m: not in_class(m))
    fixed = OperatorExpr.identity(n, 3.0) - host - 2.0 * rest
    slope = -1.0 * (host * OperatorExpr.from_terms(n, [gens[s - 1]]))
    entries = [(term, False) for term in fixed.terms] + [(term, True) for term in slope.terms]
    entries.sort(key=lambda entry: entry[0].letters)
    return tuple(entries)
