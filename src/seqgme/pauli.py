"""Exact algebra for N-qubit Pauli strings and weighted sums of them.

A string is stored as the integer masks of its X part and Z part, in the
tableau style of Aaronson and Gottesman (arXiv:quant-ph/0406196), with qubit 1
the most significant bit and tensor factor; Y = i·X·Z sets both bits of its
qubit. Its letters, a word over {I, X, Y, Z} with qubit 1 leftmost, are parsed
by the constructor and otherwise computed from the masks, for str, repr and
the canonical term order.
Products are an xor of the masks plus a popcount phase tracked as an exact
power of i, so stabilizer expansions never accumulate phase noise; all products
use `_mask_product`, and all commutation checks `_anticommuting_pair`.

A sum built from stabilizer projectors (a witness) is made from the factored
form constant·I + Σ_j w_j·Π_{S in class j}(I + S)/2 and expands its terms
when first read; `states.stabilizer_expectation` evaluates that form in one
sign lookup per generator, so it never expands them. A sum's masks and
coefficients are also read as columns (`OperatorExpr.columns`), which a
built witness takes from its builder without expanding its terms.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import AlgebraError, DimensionError

PAULI_LETTERS = "IXYZ"

# Largest system for which dense 2^N x 2^N matrices are materialized.
DENSE_QUBIT_LIMIT = 10
# Largest |imaginary part| of a coefficient in a sum taken as Hermitian.
HERMITIAN_IMAG_TOL = 1e-12
# Largest |imaginary part| of an expectation value taken as real.
IMAG_TOL = 1e-10

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_FIELDS = attrgetter("x_mask", "z_mask", "coeff")

# Letter -> bit of the X mask (X, Y) and of the Z mask (Z, Y), read by the
# constructor; qubit 1 is the most significant bit.
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")
# Hex digit x + 2z of one qubit -> its letter (see _letters_of).
_DIGIT_LETTERS = str.maketrans("0123", "IXZY")

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _letters_of(n_qubits: int, x_mask: int, z_mask: int) -> str:
    """The letters with these masks.

    Reading a mask's binary digits as hexadecimal moves qubit k's bit to bit
    4k, so each hex digit of spread(x) | spread(z) << 1 is one qubit's x + 2z.
    """
    digits = int(format(x_mask, "b"), 16) | int(format(z_mask, "b"), 16) << 1
    return format(digits, f"0{n_qubits}x").translate(_DIGIT_LETTERS)


def _mask_product(ax: int, az: int, bx: int, bz: int) -> tuple[int, int, int]:
    """Masks and power of i of the letters-form product (a·b) / (coeff_a·coeff_b).

    A string with masks (x, z) is i^popcount(x & z)·X^x·Z^z. Moving Z^az past
    X^bx gives (-1)^popcount(az & bx); the Y counts of a, b and the product
    convert between the two forms.
    """
    x, z = ax ^ bx, az ^ bz
    power = (
        (ax & az).bit_count()
        + (bx & bz).bit_count()
        - (x & z).bit_count()
        + 2 * (az & bx).bit_count()
    )
    return x, z, power % 4


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PauliString:
    """A scalar multiple of a tensor product of single-qubit Paulis, kept as masks."""

    n_qubits: int
    x_mask: int
    z_mask: int
    coeff: complex

    def __init__(self, letters: str, coeff: complex = 1.0) -> None:
        if not isinstance(letters, str) or not letters or letters.strip(PAULI_LETTERS):
            raise ValueError(f"Pauli letters must be a nonempty word over IXYZ, got {letters!r}")
        _set_n_qubits(self, len(letters))
        _set_x_mask(self, int(letters.translate(_X_BITS), 2))
        _set_z_mask(self, int(letters.translate(_Z_BITS), 2))
        _set_coeff(self, complex(coeff))

    @classmethod
    def _from_masks(cls, n_qubits: int, x_mask: int, z_mask: int, coeff: complex) -> "PauliString":
        """Build from masks below 2^n_qubits and a complex coeff, unchecked."""
        out = object.__new__(cls)
        _set_n_qubits(out, n_qubits)
        _set_x_mask(out, x_mask)
        _set_z_mask(out, z_mask)
        _set_coeff(out, coeff)
        return out

    @property
    def letters(self) -> str:
        return _letters_of(self.n_qubits, self.x_mask, self.z_mask)

    def with_coeff(self, coeff: complex) -> "PauliString":
        return PauliString._from_masks(self.n_qubits, self.x_mask, self.z_mask, complex(coeff))

    def __str__(self) -> str:
        return f"{_format_coeff(self.coeff)}·{self.letters}"

    def __repr__(self) -> str:
        return f"PauliString(letters={self.letters!r}, coeff={self.coeff!r})"


# The slots' own setters, for writes the frozen dataclass's __setattr__
# refuses; cheaper than object.__setattr__.
_set_n_qubits, _set_x_mask, _set_z_mask, _set_coeff = (
    PauliString.__dict__[name].__set__ for name in PauliString.__slots__
)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True when the two strings commute as operators."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    clashes = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return clashes % 2 == 0


def _anticommuting_pair(strings: Sequence[PauliString]) -> tuple[PauliString, PauliString] | None:
    """The first anticommuting (strings[i], strings[j]), i < j, in (i, j)
    order, or None. Only pairs that share a qubit can anticommute, so only
    those, found by indexing each string under its support, are tested."""
    on_qubit: dict[int, list[int]] = {}
    for i, g in enumerate(strings):
        support = g.x_mask | g.z_mask
        while support:
            low = support & -support
            on_qubit.setdefault(low.bit_length(), []).append(i)
            support ^= low
    pairs = {pair for members in on_qubit.values() for pair in combinations(members, 2)}
    for i, j in sorted(pairs):
        if not commutes(strings[i], strings[j]):
            return strings[i], strings[j]
    return None


class _ProjectorForm(NamedTuple):
    """constant·I + Σ_j weight_j·Π_{S in class j}(I + λ_S·S)/2, with each
    class given as (weight, its generators).

    λ_S is `sharpness` for the first generator of the first class and 1 for
    every other. The generators commute pairwise.
    """

    constant: float
    classes: tuple[tuple[float, tuple[PauliString, ...]], ...]
    sharpness: float


@dataclass(frozen=True)
class OperatorExpr:
    """Canonical sum of Pauli strings over a fixed number of qubits.

    Terms are merged by masks, zero coefficients dropped, and the remainder
    sorted by letters, so equal operators compare equal. `factored`
    is the _ProjectorForm the terms expand, when the builder knows it; ==
    and hash ignore it, and every arithmetic result goes without it. A sum
    made by `_deferred` expands its terms when first read (as == and hash do),
    and takes its columns from its builder, so reading them expands nothing.
    """

    n_qubits: int
    terms: tuple[PauliString, ...]
    factored: _ProjectorForm | None = field(default=None, compare=False, repr=False)

    @classmethod
    def _deferred(
        cls, n_qubits: int, factored: _ProjectorForm, expand: tuple[Callable, Callable], args: tuple
    ) -> "OperatorExpr":
        """The sum whose columns() expand[1](*args) returns and whose
        canonical terms expand[0](columns(), *args) returns, each called
        when first read."""
        out = object.__new__(cls)
        out.__dict__.update(n_qubits=n_qubits, factored=factored, _expand=expand, _args=args)
        return out

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks, as a deferred sum's terms.
        if name != "terms" or "_expand" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        terms = self.__dict__["terms"] = self._expand[0](self.columns(), *self._args)
        return terms

    @classmethod
    def from_terms(cls, n_qubits: int, terms: Iterable[PauliString]) -> "OperatorExpr":
        merged: dict[tuple[int, int], complex] = {}
        for term in terms:
            if term.n_qubits != n_qubits:
                raise DimensionError(f"term on {term.n_qubits} qubits in a {n_qubits}-qubit sum")
            key = (term.x_mask, term.z_mask)
            merged[key] = merged.get(key, 0.0) + term.coeff
        return cls._from_merged(n_qubits, merged)

    @classmethod
    def _from_merged(cls, n_qubits: int, merged: dict[tuple[int, int], complex]) -> "OperatorExpr":
        """The canonical sum of coefficients keyed by (x mask, z mask)."""
        kept = [PauliString._from_masks(n_qubits, x, z, c) for (x, z), c in merged.items() if c != 0]
        kept.sort(key=attrgetter("letters"))
        return cls(n_qubits, tuple(kept))

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "OperatorExpr":
        return cls.from_terms(n_qubits, [PauliString("I" * n_qubits, coeff)])

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if self.n_qubits != other.n_qubits:
            raise DimensionError("adding sums over different qubit counts")
        return OperatorExpr.from_terms(self.n_qubits, self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            if self.n_qubits != other.n_qubits:
                raise DimensionError(
                    f"size mismatch: {self.n_qubits} vs {other.n_qubits} qubits"
                )
            merged: dict[tuple[int, int], complex] = {}
            for a in self.terms:
                for b in other.terms:
                    x, z, power = _mask_product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
                    merged[x, z] = merged.get((x, z), 0.0) + a.coeff * b.coeff * _PHASES[power]
            return OperatorExpr._from_merged(self.n_qubits, merged)
        # Scaling keeps the terms distinct and sorted; only zeros drop out.
        scaled = ((t, 0.0 + t.coeff * other) for t in self.terms)
        return OperatorExpr(self.n_qubits, tuple(t.with_coeff(c) for t, c in scaled if c != 0))

    def __rmul__(self, scalar) -> "OperatorExpr":
        return self * scalar

    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
        """The terms' x masks, z masks and complex coefficients, in term order.

        Made once per sum, from the terms or, for a deferred sum, by its
        builder; the coefficient array is read-only, as builders share it.
        """
        found = self.__dict__.get("_columns")
        if found is None:
            expand = self.__dict__.get("_expand")
            found = expand[1](*self._args) if expand else _columns_of(self.terms)
            self.__dict__["_columns"] = found
        return found

    def is_hermitian(self) -> bool:
        """Whether no coefficient has an imaginary part above
        HERMITIAN_IMAG_TOL in magnitude; a NaN coefficient makes it False."""
        return bool(_real_coefficients(self.columns()[2]))


def _real_coefficients(coeffs: np.ndarray):
    """Whether each coefficient column of a stack (..., terms) has no
    imaginary part above HERMITIAN_IMAG_TOL in magnitude, NaN failing."""
    return (abs(coeffs.imag) <= HERMITIAN_IMAG_TOL).all(axis=-1)


def _columns_of(terms: Sequence[PauliString]) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """OperatorExpr.columns of these terms, walked once."""
    xs, zs, coeffs = zip(*map(_FIELDS, terms)) if terms else ((), (), ())
    coeffs = np.array(coeffs, dtype=complex)
    coeffs.flags.writeable = False
    return xs, zs, coeffs


def expand_projector_product(generators: Sequence[PauliString], n_qubits: int) -> OperatorExpr:
    """Expand the product of (I + S)/2 over the generators, in order.

    Each factor is a two-term sum multiplied in by OperatorExpr's product, so
    the result has one term per generator subset, each weighted 1/2^q.
    Generators must commute pairwise for the product to be well defined.
    """
    for g in generators:
        if g.n_qubits != n_qubits:
            raise DimensionError("generators act on different qubit counts")
    pair = _anticommuting_pair(generators)
    if pair is not None:
        raise AlgebraError("generators do not commute: {} vs {}".format(*pair))
    half = PauliString("I" * n_qubits, 0.5)
    product = OperatorExpr.identity(n_qubits)
    for g in generators:
        product = product * OperatorExpr.from_terms(n_qubits, [half, g.with_coeff(g.coeff * 0.5)])
    return product


def _format_coeff(c: complex) -> str:
    if abs(c.imag) < 1e-15:
        return f"{c.real:+.6g}"
    if abs(c.real) < 1e-15:
        return f"{c.imag:+.6g}i"
    return f"({c.real:+.6g}{c.imag:+.6g}i)"
