"""Exact algebra for N-qubit Pauli strings and weighted sums of them.

Strings are words over {I, X, Y, Z}; qubit 1 is the leftmost letter and the
most significant tensor factor. Products track their phase exactly as an
integer power of i, so stabilizer expansions never accumulate phase noise.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AlgebraError, CapacityError, DimensionError

PAULI_LETTERS = "IXYZ"

# Largest system for which dense 2^N x 2^N matrices are materialized.
DENSE_QUBIT_LIMIT = 10

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# (left, right) -> (product letter, power of i)
_SINGLE_PRODUCT: dict[tuple[str, str], tuple[str, int]] = {}
for _p in PAULI_LETTERS:
    _SINGLE_PRODUCT[("I", _p)] = (_p, 0)
    _SINGLE_PRODUCT[(_p, "I")] = (_p, 0)
    _SINGLE_PRODUCT[(_p, _p)] = ("I", 0)
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _SINGLE_PRODUCT[(_a, _b)] = (_c, 1)
    _SINGLE_PRODUCT[(_b, _a)] = (_c, 3)

# Letter -> bit of the flip (X, Y) and sign (Z, Y) masks; qubit 1 is the
# most significant bit.
_FLIP_BITS = str.maketrans("IXYZ", "0110")
_SIGN_BITS = str.maketrans("IXYZ", "0011")

_SINGLE_MATRIX = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """A scalar multiple of a tensor product of single-qubit Paulis."""

    letters: str
    coeff: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("PauliString needs at least one qubit")
        bad = set(self.letters) - set(PAULI_LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")
        object.__setattr__(self, "coeff", complex(self.coeff))

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

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    def with_coeff(self, coeff: complex) -> "PauliString":
        return PauliString(self.letters, coeff)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_multiply(self, other)

    def to_matrix(self, limit: int = DENSE_QUBIT_LIMIT) -> np.ndarray:
        """Dense 2^N x 2^N matrix; qubit 1 is the most significant factor."""
        if self.n_qubits > limit:
            raise CapacityError(f"{self.n_qubits} qubits exceeds dense limit {limit}")
        mats = [_SINGLE_MATRIX[c] for c in self.letters]
        return self.coeff * functools.reduce(np.kron, mats)

    def bit_masks(self) -> tuple[int, int, complex]:
        """(flip mask, sign mask, phase) with P|j> = phase·(-1)^popcount(j & sign)|j ^ flip>.

        X and Y set the flip bit of their qubit, Z and Y the sign bit; the
        phase is the coefficient times i per Y letter.
        """
        flip_mask = int(self.letters.translate(_FLIP_BITS), 2)
        sign_mask = int(self.letters.translate(_SIGN_BITS), 2)
        return flip_mask, sign_mask, self.coeff * _PHASES[self.letters.count("Y") % 4]

    def statevector_action(self, psi: np.ndarray) -> np.ndarray:
        """Apply the operator to a statevector without building its matrix."""
        n = self.n_qubits
        if psi.shape != (1 << n,):
            raise DimensionError(f"statevector length {psi.shape} does not match {n} qubits")
        flip_mask, sign_mask, phase = self.bit_masks()
        src = np.arange(1 << n, dtype=np.int64) ^ flip_mask
        signs = 1.0 - 2.0 * (np.bitwise_count(src & sign_mask) & 1)
        return phase * signs * psi[src]

    def __str__(self) -> str:
        return f"{_format_coeff(self.coeff)}·{self.letters}"


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product a·b with its exact phase."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    letters = []
    phase = 0
    for x, y in zip(a.letters, b.letters):
        letter, power = _SINGLE_PRODUCT[(x, y)]
        letters.append(letter)
        phase += power
    return PauliString("".join(letters), a.coeff * b.coeff * _PHASES[phase % 4])


def commutes(a: PauliString, b: PauliString) -> bool:
    """True when the two strings commute as operators."""
    if a.n_qubits != b.n_qubits:
        raise DimensionError(f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    clashes = sum(1 for x, y in zip(a.letters, b.letters) if "I" not in (x, y) and x != y)
    return clashes % 2 == 0


@dataclass(frozen=True)
class OperatorExpr:
    """Canonical sum of Pauli strings over a fixed number of qubits.

    Terms are merged by letters, zero coefficients dropped, and the remainder
    sorted lexicographically, so equal operators compare and serialize equal.
    """

    n_qubits: int
    terms: tuple[PauliString, ...]

    @classmethod
    def from_terms(cls, n_qubits: int, terms: Iterable[PauliString]) -> "OperatorExpr":
        merged: dict[str, complex] = {}
        for term in terms:
            if term.n_qubits != n_qubits:
                raise DimensionError(
                    f"term on {term.n_qubits} qubits in a {n_qubits}-qubit sum"
                )
            merged[term.letters] = merged.get(term.letters, 0.0) + term.coeff
        kept = tuple(
            PauliString(letters, coeff)
            for letters, coeff in sorted(merged.items())
            if coeff != 0
        )
        return cls(n_qubits, kept)

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "OperatorExpr":
        return cls.from_terms(n_qubits, [PauliString("I" * n_qubits, coeff)])

    @classmethod
    def zero(cls, n_qubits: int) -> "OperatorExpr":
        return cls(n_qubits, ())

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if self.n_qubits != other.n_qubits:
            raise DimensionError("adding sums over different qubit counts")
        return OperatorExpr.from_terms(self.n_qubits, self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            products = [a * b for a in self.terms for b in other.terms]
            return OperatorExpr.from_terms(self.n_qubits, products)
        if isinstance(other, PauliString):
            return OperatorExpr.from_terms(self.n_qubits, [t * other for t in self.terms])
        return OperatorExpr.from_terms(
            self.n_qubits, [t.with_coeff(t.coeff * other) for t in self.terms]
        )

    def __rmul__(self, scalar) -> "OperatorExpr":
        return self * scalar

    def __neg__(self) -> "OperatorExpr":
        return self * -1.0

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(t.coeff.imag) <= tol for t in self.terms)

    def to_matrix(self, limit: int = DENSE_QUBIT_LIMIT) -> np.ndarray:
        if self.n_qubits > limit:
            raise CapacityError(f"{self.n_qubits} qubits exceeds dense limit {limit}")
        out = np.zeros((1 << self.n_qubits, 1 << self.n_qubits), dtype=complex)
        for term in self.terms:
            out += term.to_matrix(limit)
        return out

    def to_json(self) -> list[dict]:
        return [
            {"pauli": t.letters, "coeff": [t.coeff.real, t.coeff.imag]}
            for t in self.terms
        ]

    @classmethod
    def from_json(cls, data: Sequence[dict], n_qubits: int | None = None) -> "OperatorExpr":
        if n_qubits is None:
            if not data:
                raise ValueError("empty term list needs an explicit n_qubits")
            n_qubits = len(data[0]["pauli"])
        terms = [
            PauliString(d["pauli"], complex(d["coeff"][0], d["coeff"][1])) for d in data
        ]
        return cls.from_terms(n_qubits, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)


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
    expr = OperatorExpr.identity(n_qubits)
    for g in chosen:
        expr = (expr + expr * g) * 0.5
    return expr


def to_dense(expr: OperatorExpr | PauliString, limit: int = DENSE_QUBIT_LIMIT) -> np.ndarray:
    """Dense matrix of a Pauli string or sum; capacity-checked."""
    return expr.to_matrix(limit)


def _format_coeff(c: complex) -> str:
    if abs(c.imag) < 1e-15:
        return f"{c.real:+.6g}"
    if abs(c.real) < 1e-15:
        return f"{c.imag:+.6g}i"
    return f"({c.real:+.6g}{c.imag:+.6g}i)"
