"""Witness operators certifying genuine multipartite entanglement.

Builders return canonical Pauli sums. A witness is 3I - 2(P_A + P_B), with
P_A and P_B the projector products (I + S_m)/2 over two classes of the
family's stabilizer generators. The "modified" variants absorb a sequential
observer's unsharp x measurement by scaling the lone x-type generator S with
the sharpness λ. S's factor (I + λS)/2 multiplies the rest H of its class's
product (H = I for GHZ), so the witness is affine in λ:

    W(λ) = W(0) + λ·Ẇ,  W(0) = 3I - H - 2R,  Ẇ = -S·H,

with R the other class's product (Gühne and Tóth, Phys. Rep. 474, 1).
A build makes the factored form, the constant 3 and the two classes of
generators weighted -2 with λ on S alone (Tóth and Gühne, PRL 94, 060501),
which `states.stabilizer_expectation` evaluates at any N. Its columns
(`OperatorExpr.columns`), which the dense reads take, and its terms are made
when first read, up to DENSE_QUBIT_LIMIT qubits: each (family, N) is expanded
once into W(0)'s and Ẇ's terms and their columns, and a witness's columns
are those columns with the slopes times λ: the same mask tuples for every λ,
so a chain of witnesses makes no Pauli string. Its terms, when read, take
their coefficients from its columns, so both hold the same bits.
"""

from __future__ import annotations

import functools
from operator import attrgetter

import numpy as np

from .errors import CapacityError, check_sharpness
from .pauli import DENSE_QUBIT_LIMIT, OperatorExpr, _ProjectorForm, expand_projector_product
from .states import stabilizer_generators

_MASKS = attrgetter("x_mask", "z_mask")


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
    """The factored form with λ on S; its terms W(0) + λ·Ẇ are made when read."""
    lam = check_sharpness(sharpness)
    form, unit = _layout(family, n)
    # λ as Ẇ's terms carry it (λ unless 2^-|H|·λ is subnormal), so the form is
    # their exact sum; above DENSE_QUBIT_LIMIT no terms exist, and λ is kept.
    carried = unit * lam / unit if n <= DENSE_QUBIT_LIMIT else lam
    form = _ProjectorForm(form.constant, form.classes, carried)
    return OperatorExpr._deferred(n, form, _EXPAND, (family, n, lam))


def _columns(family: str, n: int, lam: float) -> tuple:
    """The columns of W(0) + λ·Ẇ's canonical terms: each slope times λ, on a
    copy. Every slope has the same magnitude, so either all of Ẇ's terms stay
    or, when that magnitude times λ is zero (λ = 0, or an underflow), all
    drop out, as a canonical sum drops zeros, and W(0)'s columns are returned."""
    fixed, (xs, zs, coeffs), sloped = _expansion_columns(family, n)
    coeffs = coeffs.copy()
    coeffs[sloped] *= lam
    if not coeffs[sloped[0]]:
        return fixed
    coeffs.flags.writeable = False
    return xs, zs, coeffs


def _terms(columns: tuple, family: str, n: int, lam: float) -> tuple:
    """W(0) + λ·Ẇ's canonical terms, with the coefficients of its columns,
    _columns(family, n, lam), so terms and columns hold the same bits."""
    fixed, terms, sloped = _expansion(family, n)
    fixed_columns, _, at = _expansion_columns(family, n)
    if columns is fixed_columns:
        return fixed
    filled = list(terms)
    for i, coeff in zip(sloped, columns[2][at].tolist()):
        filled[i] = filled[i].with_coeff(coeff)
    return tuple(filled)


# A built witness's terms, made from its columns, and its columns, each
# from (family, n, λ).
_EXPAND = (_terms, _columns)


# The last 64 valid (family, n) pairs are kept, as in states._verified_generators.
@functools.lru_cache(maxsize=64, typed=True)
def _layout(family: str, n: int) -> tuple[_ProjectorForm, float]:
    """The factored form at λ = 1, S's class (S first) then R's, and the
    magnitude 2^-|H| of every slope of Ẇ; nothing is expanded."""
    gens = stabilizer_generators(family, n)
    # S's position and its class: the X..X generator alone for GHZ; for the
    # cluster chain the x-type one on the measured qubit, in its parity class.
    if family == "ghz":
        s, in_class = 1, lambda m: m == 1
    else:
        s, in_class = n, lambda m: m % 2 == n % 2
    host_gens = tuple(g for m, g in enumerate(gens, 1) if in_class(m) and m != s)
    rest_gens = tuple(g for m, g in enumerate(gens, 1) if not in_class(m))
    classes = ((-2.0, (gens[s - 1], *host_gens)), (-2.0, rest_gens))
    return _ProjectorForm(3.0, classes, 1.0), 0.5 ** len(host_gens)


# Only sizes up to DENSE_QUBIT_LIMIT expand: two families times those sizes.
@functools.lru_cache(maxsize=None, typed=True)
def _expansion(family: str, n: int) -> tuple[tuple, tuple, tuple[int, ...]]:
    """W(0)'s terms, W(0)'s and Ẇ's (which never share a string) in canonical
    order, and the positions of Ẇ's, whose coefficients are the slopes."""
    if n > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"witness terms are expanded up to {DENSE_QUBIT_LIMIT} qubits, got {n}")
    (_, (s, *host_gens)), (_, rest_gens) = _layout(family, n)[0].classes
    host = expand_projector_product(host_gens, n_qubits=n)
    rest = expand_projector_product(rest_gens, n_qubits=n)
    fixed = OperatorExpr.identity(n, 3.0) - host - 2.0 * rest
    slope = -1.0 * (host * OperatorExpr.from_terms(n, [s]))
    terms = (fixed + slope).terms
    sloped = set(map(_MASKS, slope.terms))
    return fixed.terms, terms, tuple(i for i, t in enumerate(terms) if _MASKS(t) in sloped)


@functools.lru_cache(maxsize=None, typed=True)
def _expansion_columns(family: str, n: int) -> tuple[tuple, tuple, np.ndarray]:
    """The columns of _expansion's W(0) and of its W(0) + Ẇ, and the positions
    of Ẇ's terms."""
    fixed, terms, sloped = _expansion(family, n)
    return OperatorExpr(n, fixed).columns(), OperatorExpr(n, terms).columns(), np.array(sloped)
