"""Initial states: GHZ-type and linear cluster families plus their stabilizers.

`StateFamily.density_matrix` builds every family as a real (float64) density
matrix, since each has real amplitudes: `StateFamily.entries` on the full
grid, which gives any other entries with the bits they have there.
`stabilizer_generators` checks each family's generators by GF(2) algebra at
every N and keeps the echelon basis that check builds.
`stabilizer_expectation` evaluates Pauli sums on
stabilizer states from that basis without any dense matrix, which is the
"symbolic" route the dense simulator is cross-checked against (a built
witness from its factored form at any N, any other sum term by term), and
`syndrome_spectrum` gives every eigenvalue of a sum of stabilizer-group
strings from the same GF(2) factoring.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .pauli import (
    DENSE_QUBIT_LIMIT,
    IMAG_TOL,
    OperatorExpr,
    PauliString,
    _anticommuting_pair,
    _mask_product,
    _ProjectorForm,
)

WEIGHT_SUM_TOL = 1e-9


def _ghz_amplitudes(n: int, alpha: float) -> np.ndarray:
    """Real amplitudes of sqrt(alpha)|0..0> + sqrt(1 - alpha)|1..1>."""
    psi = np.zeros(1 << n)
    psi[0] = math.sqrt(alpha)
    psi[-1] = math.sqrt(1.0 - alpha)
    return psi


def _cluster_amplitudes(n: int) -> np.ndarray:
    """Linear cluster state: nearest-neighbour phase gates on |+>^n.

    Each basis amplitude is 2^(-n/2) times (-1) raised to the number of
    adjacent 11 pairs, which is exactly what the Ising-chain phase gates
    produce on the uniform superposition.
    """
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
    pairs = np.sum(bits[:, :-1] & bits[:, 1:], axis=1)
    signs = 1.0 - 2.0 * (pairs & 1)
    return signs / math.sqrt(1 << n)


def stabilizer_generators(family: str, n: int) -> list[PauliString]:
    """Stabilizer generators of the family's n-qubit state, checked by GF(2).

    GHZ has X..X and Z(m) Z(m+1); the cluster chain has X(1) Z(2),
    Z(m-1) X(m) Z(m+1) and Z(n-1) X(n). Each is built straight from its masks,
    with no letters, so the n strings take O(n) integer operations. The set
    is checked, as in stabilizer_expectation, to be n independent,
    pairwise commuting strings with coefficients +-1, so that it fixes one
    state; the check's basis is kept for these strings. Each call returns a
    fresh list of the same strings.
    """
    return list(_verified_generators(family, n))


# Entries kept per cache: generator sets with their validated basis, and
# valid (family, n) pairs (invalid ones raise and are not stored).
_BASIS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE, typed=True)
def _verified_generators(family: str, n: int) -> tuple[PauliString, ...]:
    if n < 3:
        raise CapacityError(f"generators are defined on 3 or more qubits, got {n}")
    # (x mask, z mask) per generator, qubit 1 the most significant bit.
    full = (1 << n) - 1
    if family == "ghz":
        masks = [(full, 0)] + [(0, 3 << m) for m in range(n - 2, -1, -1)]
    elif family == "cluster":
        masks = [(x, (x << 1 | x >> 1) & full) for x in (1 << m for m in range(n - 1, -1, -1))]
    else:
        raise ValueError(f"unknown stabilizer family {family!r}")
    gens = tuple(PauliString._from_masks(n, x, z, 1.0 + 0.0j) for x, z in masks)
    _stabilizer_basis(gens, n)  # validates them, and keeps the basis
    return gens


def _keep(cache: dict, key, value):
    # Drop the oldest entry of a full cache.
    if len(cache) >= _BASIS_CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[key] = value


def _reduce(rows: dict[int, tuple[int, int]], vector: int, subset: int) -> tuple[int, int]:
    """Clear leading bits that the echelon rows, leading bit -> (row, subset),
    cover; the remainder and the subset xored with the subsets used."""
    while vector:
        row = rows.get(vector.bit_length() - 1)
        if row is None:
            break
        vector ^= row[0]
        subset ^= row[1]
    return vector, subset


class _StabilizerBasis:
    """The generators of a stabilizer state factored into a GF(2) echelon basis.

    Each generator is the 2n-bit vector x_mask << n | z_mask. Elimination keeps
    one row per leading bit, and with each row the subset of generators (a bit
    per generator) whose product it is, so a term reduces in at most 2n xors.
    `factors` maps the masks of each group string already factored to its
    (generator subset, sign), so it holds at most 2^n entries; strings outside
    the group are not stored. `forms` keeps _factored_expectation's λ-free
    pieces, and `generators` the strings that `factor` multiplies.
    """

    def __init__(self, generators: tuple[PauliString, ...], n: int) -> None:
        if len(generators) != n:
            raise ValidationError(f"{len(generators)} generators for {n} qubits; need {n}")
        for g in generators:
            if g.n_qubits != n:
                raise ValidationError("generators and expression act on different qubit counts")
            if g.coeff not in (1.0, -1.0):
                raise ValidationError(f"generator {g} has a coefficient other than +-1")
        pair = _anticommuting_pair(generators)
        if pair is not None:
            raise ValidationError("generators do not commute: {} vs {}".format(*pair))
        self.n = n
        self.generators = generators
        self.rows: dict[int, tuple[int, int]] = {}
        for i, g in enumerate(generators):
            vector, subset = _reduce(self.rows, g.x_mask << n | g.z_mask, 1 << i)
            if not vector:
                raise ValidationError(f"generator {g} is a product of the ones before it")
            self.rows[vector.bit_length() - 1] = (vector, subset)
        self.factors: dict[tuple[int, int], tuple[int, float]] = {}
        self.forms: dict[int, tuple] = {}

    def factor(self, x_mask: int, z_mask: int) -> tuple[int, float] | None:
        """(subset, sign) with the string of these masks equal to sign times
        the product of the subset's generators, or None when it is not +- a
        member of the group.

        The generators of the subset are multiplied in order by
        pauli._mask_product, whose powers of i add up to the phase of the
        product in letters form; the coefficients give the rest of the sign.
        A member's factors are kept in `factors`, so this runs once per member.
        """
        key = x_mask, z_mask
        found = self.factors.get(key)
        if found is not None:
            return found
        remainder, subset = _reduce(self.rows, x_mask << self.n | z_mask, 0)
        if remainder:
            return None
        factors = subset
        x = z = 0
        power = 0
        sign = 1.0
        while factors:
            low = factors & -factors
            factors ^= low
            g = self.generators[low.bit_length() - 1]
            x, z, step = _mask_product(x, z, g.x_mask, g.z_mask)
            power += step
            sign *= g.coeff.real
        if (x, z) != key or power % 2:
            raise ValidationError("GF(2) solution does not reproduce the term")
        found = self.factors[key] = subset, -sign if power % 4 else sign
        return found


# (n, the ids of the generator strings) -> (those strings, their basis). Each
# entry holds its strings, so no other object can take their ids meanwhile. A
# set that fails validation raises on every call, since it is not stored.
_BASES_BY_IDENTITY: dict[tuple[int, ...], tuple[tuple, _StabilizerBasis]] = {}


def _stabilizer_basis(generators: Sequence[PauliString], n: int) -> _StabilizerBasis:
    """The generators' validated basis, found by the identity of the strings
    (stabilizer_generators hands out the same ones), else built."""
    key = (n, *map(id, generators))
    found = _BASES_BY_IDENTITY.get(key)
    if found is None:
        held = tuple(generators)
        found = held, _StabilizerBasis(held, n)
        _keep(_BASES_BY_IDENTITY, key, found)
    return found[1]


def stabilizer_expectation(expr: OperatorExpr | PauliString, generators: list[PauliString]) -> float:
    """<expr> on the stabilizer state fixed by the given generators.

    The generators must be n independent, pairwise commuting strings with
    coefficients +-1, so that they fix exactly one state; otherwise this
    raises ValidationError. A Pauli term has expectation +-1 when (+-)term is
    in the generated group and 0 otherwise; membership is decided by the
    echelon basis, factored once per generator set, and the sign by the exact
    phase of the corresponding generator product. Each set keeps the factors
    of the members it has decided, at most 2^n, so a string shared by many
    witnesses is decided once.

    A sum that carries its factored form (a built witness) is evaluated from
    that form when each of its generators is +- a group member: one lookup
    per generator, bit for bit the term enumeration (see
    _factored_expectation). Any other sum, and a form with a generator
    outside the group, has its terms enumerated.
    """
    if isinstance(expr, PauliString):
        expr = OperatorExpr.from_terms(expr.n_qubits, [expr])
    basis = _stabilizer_basis(generators, expr.n_qubits)
    if expr.factored is not None:
        value = _factored_expectation(expr.factored, basis)
        if value is not None:
            return value
    real_parts: list[float] = []
    imag_parts: list[float] = []
    for term in expr.terms:
        found = basis.factor(term.x_mask, term.z_mask)
        if found is None:
            continue
        value = term.coeff * found[1]
        real_parts.append(value.real)
        imag_parts.append(value.imag)
    total_imag = math.fsum(imag_parts)
    if abs(total_imag) >= IMAG_TOL:
        raise ValidationError(f"expectation has imaginary residue {total_imag}")
    return math.fsum(real_parts)


def _factored_expectation(form: _ProjectorForm, basis: _StabilizerBasis) -> float | None:
    """<form> on the basis's state, or None unless every generator of the form
    is +- a member of the basis's group.

    The state is then an eigenstate of each such generator S, with eigenvalue
    sigma = +-1, so a projector (I + S)/2 has the value (1 + sigma)/2, 0 or 1.
    The first class's product, with h the value of its factors after the
    first, is split as w/2·h + λ·(w/2)·sigma·h. Every piece is exact, so their
    fsum is the correctly rounded value of the form, and so bit for bit the
    term enumeration of the sum it expands whenever every expanded
    coefficient is exact, as a built witness's are. The λ-free pieces are
    kept per basis and form classes.
    """
    found = basis.forms.get(id(form.classes))
    if found is None:
        (weight, _), *others = form.classes
        (sloped, *host), *rest = signs = [
            [
                member[1] * g.coeff.real if (member := basis.factor(g.x_mask, g.z_mask)) else 0.0
                for g in gens
            ]
            for _, gens in form.classes
        ]
        half = weight / 2.0 * all(sign > 0 for sign in host)
        pieces = half, sloped * half, [w * all(s > 0 for s in ss) for (w, _), ss in zip(others, rest)]
        found = (form.classes, pieces if all(map(all, signs)) else None)
        _keep(basis.forms, id(form.classes), found)
    if found[1] is None:
        return None
    half, signed_half, others = found[1]
    return math.fsum((form.constant, half, form.sharpness * signed_half, *others))


def syndrome_spectrum(expr: OperatorExpr, generators: list[PauliString]) -> np.ndarray:
    """expr's eigenvalue on every syndrome of the state the generators fix.

    Entry b is the eigenvalue on the joint eigenspace where generator m has
    eigenvalue (-1)^(bit m of b), so entry 0 belongs to the state itself.
    Every term must be +- a product of generators, which makes expr diagonal
    in that basis; a term outside the group raises ValidationError naming it.
    A term c·sign·prod_{m in subset} S_m contributes
    c·sign·prod_{m in subset} (-1)^(b_m) at b, so the spectrum is one
    Walsh-Hadamard transform of the coefficients placed at their subsets.
    The terms are read from expr.columns(), so a built witness's strings are
    never made; the string of a term outside the group is made for its
    message alone. The generators are checked as for stabilizer_expectation;
    n <= DENSE_QUBIT_LIMIT.
    """
    n = expr.n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
    if not expr.is_hermitian():
        raise ValidationError("operator has non-real Pauli coefficients")
    basis = _stabilizer_basis(generators, n)
    spectrum = np.zeros(1 << n)
    xs, zs, coeffs = expr.columns()
    for x, z, coeff in zip(xs, zs, coeffs.tolist()):
        found = basis.factor(x, z)
        if found is None:
            term = PauliString._from_masks(n, x, z, coeff)
            raise ValidationError(f"term {term} is outside the stabilizer group")
        subset, sign = found
        spectrum[subset] += coeff.real * sign
    # One butterfly per generator bit h, in place: (a, b) -> (a + b, a - b).
    for h in range(n):
        pairs = spectrum.reshape(-1, 2, 1 << h)
        low, high = pairs[:, 0], pairs[:, 1]
        total = low + high
        np.subtract(low, high, out=high)
        low[...] = total
    return spectrum


_FAMILY_KINDS = ("ghz", "gghz", "mixed", "cluster")


@dataclass(frozen=True)
class StateFamily:
    """A named initial-state family at a fixed party count."""

    kind: str
    n_qubits: int
    alpha: float = 0.5
    p1: float = 1.0
    p2: float = 0.0
    p3: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _FAMILY_KINDS:
            raise ValueError(f"unknown state family {self.kind!r}")
        if self.n_qubits < 3:
            raise ValueError(f"need at least 3 parties, got {self.n_qubits}")
        for name in ("alpha", "p1", "p2", "p3"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} is not finite")
        if self.kind != "mixed" and (self.p1, self.p2, self.p3) != (1.0, 0.0, 0.0):
            raise ValueError(f"{self.kind} takes no mixture weights")
        if self.kind in ("gghz", "mixed") and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha {self.alpha} outside (0, 1)")
        if self.kind == "mixed":
            if self.p1 <= 0.0 or self.p2 < 0.0 or self.p3 < 0.0:
                raise ValueError(f"invalid weights ({self.p1}, {self.p2}, {self.p3})")
            if abs(self.p1 + self.p2 + self.p3 - 1.0) > WEIGHT_SUM_TOL:
                raise ValueError("mixture weights must sum to 1")

    @classmethod
    def parse(cls, text: str, n_qubits: int) -> "StateFamily":
        """Parse CLI-style labels: ghz, cluster, gghz:alpha=0.3,
        mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4."""
        kind, _, arg_text = text.strip().partition(":")
        kind = kind.lower()
        args: dict[str, float] = {}
        if arg_text:
            for item in arg_text.split(","):
                key, _, value = item.partition("=")
                if not value:
                    raise ValueError(f"malformed state parameter {item!r}")
                key = key.strip()
                if key in args:
                    raise ValueError(f"state parameter {key!r} is given more than once")
                args[key] = float(value)
        if kind in ("ghz", "cluster"):
            if args:
                raise ValueError(f"{kind} takes no parameters")
            return cls(kind, n_qubits)
        if kind == "gghz":
            extra = set(args) - {"alpha"}
            if extra or "alpha" not in args:
                raise ValueError("gghz needs exactly alpha=<value>")
            return cls(kind, n_qubits, alpha=args["alpha"])
        if kind == "mixed":
            needed = {"p1", "p2", "p3", "alpha"}
            if set(args) != needed:
                raise ValueError(f"mixed needs exactly {sorted(needed)}")
            return cls(
                kind, n_qubits, alpha=args["alpha"], p1=args["p1"], p2=args["p2"], p3=args["p3"]
            )
        raise ValueError(f"unknown state family {kind!r}")

    @property
    def witness_family(self) -> str:
        """Which witness family certifies this state (cluster or GHZ-type)."""
        return "cluster" if self.kind == "cluster" else "ghz"

    @property
    def x_string_expectation(self) -> float:
        """Initial expectation of the all-x stabilizer on this family."""
        if self.kind in ("ghz", "cluster"):
            return 1.0
        return 2.0 * self.p1 * math.sqrt(self.alpha * (1.0 - self.alpha))

    def entries(self, rows, cols) -> np.ndarray:
        """rho[rows, cols] for integer index arrays that broadcast together:
        (p1·psi[r]·psi[c] + p2·[r = c = 0] + p3·[r = c = last]) times 1/total,
        on the family's real amplitudes psi, with GHZ's corners exactly 1/2.
        An entry's bits do not depend on which others are asked for, so
        density_matrix is this on the full grid. The parameters were checked
        at construction."""
        n, last = self.n_qubits, (1 << self.n_qubits) - 1
        if self.kind == "ghz":
            return 0.5 * (((rows == 0) | (rows == last)) & ((cols == 0) | (cols == last)))
        psi = _cluster_amplitudes(n) if self.kind == "cluster" else _ghz_amplitudes(n, self.alpha)
        out = psi[rows] * psi[cols]
        if self.kind != "mixed":  # weights (1, 0, 0) would change no bit
            return out
        # The generalized GHZ state mixed with the two classical extremes, times
        # the reciprocal, which is how numpy divides a complex array by a real
        # scalar: the entries equal those of the same state built complex.
        out *= self.p1
        np.add(out, self.p2, out=out, where=(rows == 0) & (cols == 0))
        np.add(out, self.p3, out=out, where=(rows == last) & (cols == last))
        out *= 1.0 / (self.p1 + self.p2 + self.p3)
        return out

    def density_matrix(self) -> np.ndarray:
        """The family's real density matrix, entries on the full grid; at most
        DENSE_QUBIT_LIMIT qubits."""
        n = self.n_qubits
        if n > DENSE_QUBIT_LIMIT:
            raise CapacityError(f"{n} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
        index = np.arange(1 << n)
        return self.entries(index[:, None], index)
