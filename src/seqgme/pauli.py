"""Exact algebra for N-qubit Pauli strings and weighted sums of them.

Strings are words over {I, X, Y, Z}; qubit 1 is the leftmost letter and the
most significant tensor factor. Each string also carries the integer masks of
its X part and Z part, in the tableau style of Aaronson and Gottesman
(arXiv:quant-ph/0406196): the letter Y = i·X·Z sets both bits of its qubit.
Products are an xor of the masks plus a popcount phase tracked as an exact
power of i, so stabilizer expansions never accumulate phase noise.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import AlgebraError, CapacityError, DimensionError

PAULI_LETTERS = "IXYZ"

# Largest system for which dense 2^N x 2^N matrices are materialized.
DENSE_QUBIT_LIMIT = 10
# Largest |imaginary part| of a coefficient in a sum taken as Hermitian.
HERMITIAN_IMAG_TOL = 1e-12

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# Letter -> bit of the X mask (X, Y) and of the Z mask (Z, Y), read once at
# construction; qubit 1 is the most significant bit.
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


@dataclass(frozen=True, slots=True)
class PauliString:
    """A scalar multiple of a tensor product of single-qubit Paulis."""

    letters: str
    coeff: complex = 1.0 + 0.0j
    x_mask: int = field(init=False, repr=False, compare=False)
    z_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("PauliString needs at least one qubit")
        if self.letters.strip(PAULI_LETTERS):
            bad = set(self.letters) - set(PAULI_LETTERS)
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")
        _set_coeff(self, complex(self.coeff))
        _set_x_mask(self, int(self.letters.translate(_X_BITS), 2))
        _set_z_mask(self, int(self.letters.translate(_Z_BITS), 2))

    @classmethod
    def _from_masks(
        cls, letters: str, coeff: complex, x_mask: int, z_mask: int
    ) -> "PauliString":
        """Build from parts already known to agree, skipping the letter parse."""
        out = object.__new__(cls)
        _set_letters(out, letters)
        _set_coeff(out, coeff)
        _set_x_mask(out, x_mask)
        _set_z_mask(out, z_mask)
        return out

    @classmethod
    def from_ops(cls, n_qubits: int, ops: dict[int, str], coeff: complex = 1.0) -> "PauliString":
        """Build a string acting with `ops[qubit]` on the given 0-based qubits."""
        letters = ["I"] * n_qubits
        for qubit, letter in ops.items():
            if not 0 <= qubit < n_qubits:
                raise ValueError(f"qubit {qubit} outside 0..{n_qubits - 1}")
            letters[qubit] = letter
        return cls("".join(letters), coeff)

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    def with_coeff(self, coeff: complex) -> "PauliString":
        return PauliString._from_masks(self.letters, complex(coeff), self.x_mask, self.z_mask)

    def bit_masks(self) -> tuple[int, int, complex]:
        """(x mask, z mask, phase) with P|j> = phase·(-1)^popcount(j & z)|j ^ x>.

        X and Y set the x bit of their qubit, Z and Y the z bit; the phase is
        the coefficient times i per Y letter.
        """
        phase = self.coeff * _PHASES[(self.x_mask & self.z_mask).bit_count() % 4]
        return self.x_mask, self.z_mask, phase

    def statevector_action(self, psi: np.ndarray) -> np.ndarray:
        """Apply the operator to a statevector without building its matrix."""
        n = self.n_qubits
        if psi.shape != (1 << n,):
            raise DimensionError(f"statevector length {psi.shape} does not match {n} qubits")
        x_mask, z_mask, phase = self.bit_masks()
        src = np.arange(1 << n, dtype=np.int64) ^ x_mask
        signs = 1.0 - 2.0 * (np.bitwise_count(src & z_mask) & 1)
        return phase * signs * psi[src]

    def __str__(self) -> str:
        return f"{_format_coeff(self.coeff)}·{self.letters}"


# The slots' own setters, for writes the frozen dataclass's __setattr__
# refuses; cheaper than object.__setattr__.
_set_letters, _set_coeff, _set_x_mask, _set_z_mask = (
    PauliString.__dict__[name].__set__ for name in ("letters", "coeff", "x_mask", "z_mask")
)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True when the two strings commute as operators."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    clashes = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return clashes % 2 == 0


@dataclass(frozen=True)
class OperatorExpr:
    """Canonical sum of Pauli strings over a fixed number of qubits.

    Terms are merged by letters, zero coefficients dropped, and the remainder
    sorted lexicographically, so equal operators compare equal.
    """

    n_qubits: int
    terms: tuple[PauliString, ...]

    @classmethod
    def from_terms(cls, n_qubits: int, terms: Iterable[PauliString]) -> "OperatorExpr":
        merged: dict[tuple[int, int], complex] = {}
        letters: dict[tuple[int, int], str] = {}
        for term in terms:
            if len(term.letters) != n_qubits:
                raise DimensionError(
                    f"term on {term.n_qubits} qubits in a {n_qubits}-qubit sum"
                )
            key = (term.x_mask, term.z_mask)
            merged[key] = merged.get(key, 0.0) + term.coeff
            letters[key] = term.letters
        return cls._from_merged(n_qubits, merged, letters)

    @classmethod
    def _from_merged(
        cls,
        n_qubits: int,
        merged: dict[tuple[int, int], complex],
        letters: dict[tuple[int, int], str] | None = None,
    ) -> "OperatorExpr":
        """The canonical sum of coefficients keyed by (x mask, z mask)."""
        kept = [
            PauliString._from_masks(
                letters[x, z] if letters is not None else _letters_of(n_qubits, x, z),
                coeff,
                x,
                z,
            )
            for (x, z), coeff in merged.items()
            if coeff != 0
        ]
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

    def is_hermitian(self) -> bool:
        return all(abs(t.coeff.imag) <= HERMITIAN_IMAG_TOL for t in self.terms)

    def to_matrix(self) -> np.ndarray:
        """Dense complex 2^N x 2^N matrix, added into zeros in term order.

        Qubit 1 is the most significant factor. Term P has one nonzero per
        column j, phase·(-1)^popcount(j & z) in row j ^ x (see bit_masks), so
        each term is one scatter. Every entry is exact and is added in the
        order a sum of Kronecker products would add it, so the result is bit
        for bit that sum.
        """
        if self.n_qubits > DENSE_QUBIT_LIMIT:
            raise CapacityError(f"{self.n_qubits} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
        dim = 1 << self.n_qubits
        out = np.zeros((dim, dim), dtype=complex)
        columns = np.arange(dim, dtype=np.int64)
        for term in self.terms:
            x_mask, z_mask, phase = term.bit_masks()
            parity = np.bitwise_count(columns & z_mask) & 1
            out[columns ^ x_mask, columns] += np.where(parity, -phase, phase)
        return out


def expand_projector_product(
    generators: Sequence[PauliString],
    n_qubits: int | None = None,
    select: Callable[[int], bool] | None = None,
) -> OperatorExpr:
    """Expand the product of (I + S)/2 over the chosen generators.

    `select` filters generators by their 1-based position; the default keeps
    all of them. The result has one term per generator subset, each weighted
    1/2^q. Generators must commute pairwise for the product to be well defined.
    """
    chosen = [g for m, g in enumerate(generators, start=1) if select is None or select(m)]
    if n_qubits is None:
        if not chosen:
            raise ValueError("empty generator list needs an explicit n_qubits")
        n_qubits = chosen[0].n_qubits
    for g in chosen:
        if g.n_qubits != n_qubits:
            raise DimensionError("generators act on different qubit counts")
    for i, a in enumerate(chosen):
        for b in chosen[i + 1 :]:
            if not commutes(a, b):
                raise AlgebraError(f"generators do not commute: {a} vs {b}")
    # Each factor (I + g)/2 keeps every term and adds its product with g.
    merged: dict[tuple[int, int], complex] = {(0, 0): 1.0 + 0.0j}
    for g in chosen:
        step: dict[tuple[int, int], complex] = {}
        for (x, z), coeff in merged.items():
            step[x, z] = step.get((x, z), 0.0) + coeff * 0.5
            px, pz, power = _mask_product(x, z, g.x_mask, g.z_mask)
            step[px, pz] = step.get((px, pz), 0.0) + coeff * g.coeff * _PHASES[power] * 0.5
        merged = step
    return OperatorExpr._from_merged(n_qubits, merged)


def _format_coeff(c: complex) -> str:
    if abs(c.imag) < 1e-15:
        return f"{c.real:+.6g}"
    if abs(c.real) < 1e-15:
        return f"{c.imag:+.6g}i"
    return f"({c.real:+.6g}{c.imag:+.6g}i)"
