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
never share a string; a build copies them and writes each slope times λ
into Ẇ's terms. Every built witness also carries its factored form, the
constant 3 and the two classes of generators weighted -2 with λ on S alone
(Tóth and Gühne, PRL 94, 060501), which `states.stabilizer_expectation`
evaluates in one sign lookup per generator.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import check_sharpness
from .pauli import OperatorExpr, PauliString, _ProjectorForm, expand_projector_product
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
    """W(0) + λ·Ẇ: the family's layout with each slope times λ written in,
    carrying the factored form the terms expand.

    Every slope has the same magnitude, so either all of Ẇ's terms stay or,
    when that magnitude times λ is zero (λ = 0, or an underflow), all drop
    out, as a canonical sum drops every zero.
    """
    lam = check_sharpness(sharpness)
    layout = _layout(family, n)
    scaled = layout.unit * lam
    if scaled == 0:
        terms = layout.fixed
    else:
        filled = list(layout.terms)
        for i in layout.sloped:
            filled[i] = filled[i].with_coeff(filled[i].coeff * lam)
        terms = tuple(filled)
    # λ as Ẇ's terms carry it: λ itself unless the slopes times λ round in
    # the subnormals, so the form's value stays the terms' exact sum.
    return OperatorExpr(n, terms, layout.form._replace(sharpness=scaled / layout.unit))


class _Layout(NamedTuple):
    fixed: tuple[PauliString, ...]  # W(0)'s terms
    terms: tuple[PauliString, ...]  # W(0)'s and Ẇ's, in canonical order
    sloped: tuple[int, ...]  # the positions of Ẇ's terms, whose coefficients are the slopes
    unit: float  # the magnitude of every slope, 2^-|H|
    form: _ProjectorForm  # the factored form at λ = 1: S's class, S first, then R's


# Only valid (family, n) pairs are cached, as in states._verified_generators.
@functools.lru_cache(maxsize=None, typed=True)
def _layout(family: str, n: int) -> _Layout:
    """The family's witness expanded once, and the factored form it expands."""
    gens = stabilizer_generators(family, n)
    # S's position and its class: the X..X generator alone for GHZ; for the
    # cluster chain the x-type one on the measured qubit, in its parity class.
    if family == "ghz":
        s, in_class = 1, lambda m: m == 1
    else:
        s, in_class = n, lambda m: m % 2 == n % 2
    host_gens = tuple(g for m, g in enumerate(gens, 1) if in_class(m) and m != s)
    rest_gens = tuple(g for m, g in enumerate(gens, 1) if not in_class(m))
    host = expand_projector_product(host_gens, n_qubits=n)
    rest = expand_projector_product(rest_gens, n_qubits=n)
    fixed = OperatorExpr.identity(n, 3.0) - host - 2.0 * rest
    slope = -1.0 * (host * OperatorExpr.from_terms(n, [gens[s - 1]]))
    (unit,) = {abs(term.coeff) for term in slope.terms}
    entries = [(term, False) for term in fixed.terms] + [(term, True) for term in slope.terms]
    entries.sort(key=lambda entry: entry[0].letters)
    classes = ((-2.0, (gens[s - 1], *host_gens)), (-2.0, rest_gens))
    return _Layout(
        fixed=fixed.terms,
        terms=tuple(term for term, _ in entries),
        sloped=tuple(i for i, (_, sloped) in enumerate(entries) if sloped),
        unit=unit,
        form=_ProjectorForm(3.0, classes, 1.0),
    )
