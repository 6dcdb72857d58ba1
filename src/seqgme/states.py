"""Initial states: GHZ-type and linear cluster families plus their stabilizers.

`StateFamily.density_matrix` builds every family as a real (float64) density
matrix, since each has real amplitudes; the same amplitudes back the
stabilizer checks up to DENSE_QUBIT_LIMIT qubits. `stabilizer_expectation`
evaluates Pauli sums on stabilizer states without any dense matrix, which is
the "symbolic" route the dense simulator is cross-checked against (a built
witness from its factored form at any N, any other sum term by term), and
`syndrome_spectrum` gives every eigenvalue of a sum of stabilizer-group
strings from the same GF(2) factoring.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .pauli import DENSE_QUBIT_LIMIT, OperatorExpr, PauliString, _ProjectorForm, commutes

WEIGHT_SUM_TOL = 1e-9
STABILIZER_TOL = 1e-12


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
    """Stabilizer generators of the family's n-qubit state, verified on it.

    Up to DENSE_QUBIT_LIMIT qubits each generator is checked to fix the dense
    state (S|psi> = |psi>), so a mismatch raises; for the cluster chain the
    interior generators are Z(m-1) X(m) Z(m+1), the form this check singles
    out. Above it GF(2) algebra checks that the set fixes one state, as in
    stabilizer_expectation. Each call returns a fresh list.
    """
    return list(_verified_generators(family, n))


# Entries kept per cache: generator sets with their validated basis and member
# table, and valid (family, n) pairs (invalid ones raise and are not stored).
_BASIS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE, typed=True)
def _verified_generators(family: str, n: int) -> tuple[PauliString, ...]:
    if n < 3:
        raise CapacityError(f"generators are defined on 3 or more qubits, got {n}")
    if family == "ghz":
        gens = [PauliString("X" * n)]
        gens += [PauliString.from_ops(n, {m - 2: "Z", m - 1: "Z"}) for m in range(2, n + 1)]
    elif family == "cluster":
        gens = [PauliString.from_ops(n, {0: "X", 1: "Z"})]
        gens += [
            PauliString.from_ops(n, {m - 2: "Z", m - 1: "X", m: "Z"})
            for m in range(2, n)
        ]
        gens.append(PauliString.from_ops(n, {n - 2: "Z", n - 1: "X"}))
    else:
        raise ValueError(f"unknown stabilizer family {family!r}")
    gens = tuple(gens)
    if n > DENSE_QUBIT_LIMIT:
        _basis_by_value(gens, n)  # validates them, and keeps the basis
        return gens
    psi = _ghz_amplitudes(n, 0.5) if family == "ghz" else _cluster_amplitudes(n)
    for g in gens:
        deviation = np.max(np.abs(g.statevector_action(psi) - psi))
        if deviation > STABILIZER_TOL:
            raise ValidationError(f"generator {g} fails to stabilize {family}_{n}")
    return gens


def _keep(cache: dict, key, value):
    # Drop the oldest entry of a full cache.
    if len(cache) >= _BASIS_CACHE_SIZE:
        del cache[next(iter(cache))]
    cache[key] = value


class _StabilizerBasis:
    """The generators of a stabilizer state factored into a GF(2) echelon basis.

    Each generator is the 2n-bit vector x_mask << n | z_mask. Elimination keeps
    one row per leading bit, and with each row the subset of generators (a bit
    per generator) whose product it is, so a term reduces in at most 2n xors.
    `members` maps the masks of each group string already decided to its sign,
    and `factors` those that syndrome_spectrum met to their (generator subset,
    sign), so each holds at most 2^n entries; strings outside the group are
    not stored. `forms` keeps _factored_expectation's λ-free pieces.
    """

    def __init__(self, generators: tuple[PauliString, ...], n: int) -> None:
        if len(generators) != n:
            raise ValidationError(f"{len(generators)} generators for {n} qubits; need {n}")
        for g in generators:
            if g.n_qubits != n:
                raise ValidationError("generators and expression act on different qubit counts")
            if g.coeff not in (1.0, -1.0):
                raise ValidationError(f"generator {g} has a coefficient other than +-1")
        for i, g in enumerate(generators):
            for h in generators[i + 1 :]:
                if not commutes(g, h):
                    raise ValidationError(f"generators do not commute: {g} vs {h}")
        self.n = n
        # (x mask, z mask, number of Y letters, coefficient) per generator.
        self.masks = [
            (g.x_mask, g.z_mask, (g.x_mask & g.z_mask).bit_count(), g.coeff.real)
            for g in generators
        ]
        self.rows: dict[int, tuple[int, int]] = {}
        for i, g in enumerate(generators):
            vector, subset = self._reduce(g.x_mask << n | g.z_mask, 1 << i)
            if not vector:
                raise ValidationError(f"generator {g} is a product of the ones before it")
            self.rows[vector.bit_length() - 1] = (vector, subset)
        self.members: dict[tuple[int, int], float] = {}
        self.factors: dict[tuple[int, int], tuple[int, float]] = {}
        self.forms: dict[int, tuple] = {}

    def _reduce(self, vector: int, subset: int) -> tuple[int, int]:
        """Clear leading bits that rows cover; the remainder and the subset used."""
        while vector:
            row = self.rows.get(vector.bit_length() - 1)
            if row is None:
                break
            vector ^= row[0]
            subset ^= row[1]
        return vector, subset

    def factor(self, term: PauliString) -> tuple[int, float] | None:
        """(subset, sign) with +-term's string equal to sign times the product
        of the subset's generators, or None when it is not in the group.

        The generators of the subset are multiplied in order as masks: each
        step moves the running product's Z part past the generator's X part,
        a factor (-1)^popcount(z & x), and the Y counts convert from
        X^x·Z^z form back to letters.
        """
        remainder, subset = self._reduce(term.x_mask << self.n | term.z_mask, 0)
        if remainder:
            return None
        factors = subset
        x = z = 0
        power = 0
        sign = 1.0
        while factors:
            low = factors & -factors
            factors ^= low
            gx, gz, y_count, coeff = self.masks[low.bit_length() - 1]
            power += y_count + 2 * (z & gx).bit_count()
            x ^= gx
            z ^= gz
            sign *= coeff
        power -= (x & z).bit_count()
        if (x, z) != (term.x_mask, term.z_mask) or power % 2:
            raise ValidationError("GF(2) solution does not reproduce the term")
        return subset, -sign if power % 4 else sign

    def sign(self, term: PauliString) -> float:
        """+-1 when +-term's string is in the group, 0.0 when it is not.
        A member's sign is stored in `members`."""
        found = self.factor(term)
        if found is None:
            return 0.0
        self.members[term.x_mask, term.z_mask] = found[1]
        return found[1]


# Keyed by value (each generator's letters and coefficient, and n): an equal
# set shares the basis, {S, ...} and {-S, ...} do not. A set that fails
# validation raises on every call, since exceptions are not cached.
@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _basis_by_value(generators: tuple[PauliString, ...], n: int) -> _StabilizerBasis:
    return _StabilizerBasis(generators, n)


# (n, the ids of the generator strings) -> (those strings, their basis). Each
# entry holds its strings, so no other object can take their ids meanwhile.
_BASES_BY_IDENTITY: dict[tuple[int, ...], tuple[tuple, _StabilizerBasis]] = {}


def _stabilizer_basis(generators: list[PauliString], n: int) -> _StabilizerBasis:
    """The generators' validated basis, found without hashing strings already
    seen (stabilizer_generators hands out the same ones), else by value."""
    key = (n, *map(id, generators))
    found = _BASES_BY_IDENTITY.get(key)
    if found is None:
        held = tuple(generators)
        found = held, _basis_by_value(held, n)
        _keep(_BASES_BY_IDENTITY, key, found)
    return found[1]


def stabilizer_expectation(expr: OperatorExpr | PauliString, generators: list[PauliString]) -> float:
    """<expr> on the stabilizer state fixed by the given generators.

    The generators must be n independent, pairwise commuting strings with
    coefficients +-1, so that they fix exactly one state; otherwise this
    raises ValidationError. A Pauli term has expectation +-1 when (+-)term is
    in the generated group and 0 otherwise; membership is decided by the
    echelon basis, factored once per generator set, and the sign by the exact
    phase of the corresponding generator product. Each set keeps the signs of
    the members it has decided, at most 2^n, so a string shared by many
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
    members = basis.members
    real_parts: list[float] = []
    imag_parts: list[float] = []
    for term in expr.terms:
        sign = members.get((term.x_mask, term.z_mask)) or basis.sign(term)
        if not sign:
            continue
        value = term.coeff * sign
        real_parts.append(value.real)
        imag_parts.append(value.imag)
    total_imag = math.fsum(imag_parts)
    if abs(total_imag) >= 1e-10:
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
        members = basis.members
        (weight, _), *others = form.classes
        (sloped, *host), *rest = signs = [
            [(members.get((g.x_mask, g.z_mask)) or basis.sign(g)) * g.coeff.real for g in gens]
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
    The generators are checked as for stabilizer_expectation; n <= DENSE_QUBIT_LIMIT.
    """
    n = expr.n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
    if not expr.is_hermitian():
        raise ValidationError("operator has non-real Pauli coefficients")
    basis = _stabilizer_basis(generators, n)
    factors = basis.factors
    spectrum = np.zeros(1 << n)
    for term in expr.terms:
        found = factors.get((term.x_mask, term.z_mask)) or basis.factor(term)
        if found is None:
            raise ValidationError(f"term {term} is outside the stabilizer group")
        subset, sign = factors[term.x_mask, term.z_mask] = found
        spectrum[subset] += term.coeff.real * sign
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
                args[key.strip()] = float(value)
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

    def density_matrix(self) -> np.ndarray:
        """The family's real density matrix; at most DENSE_QUBIT_LIMIT qubits."""
        n = self.n_qubits
        if n > DENSE_QUBIT_LIMIT:
            raise CapacityError(f"{n} qubits exceeds dense limit {DENSE_QUBIT_LIMIT}")
        if self.kind == "ghz":
            # The four corner entries exactly 1/2.
            rho = np.zeros((1 << n, 1 << n))
            rho[np.ix_([0, -1], [0, -1])] = 0.5
            return rho
        psi = _cluster_amplitudes(n) if self.kind == "cluster" else _ghz_amplitudes(n, self.alpha)
        if self.kind != "mixed":
            return np.outer(psi, psi)
        # The generalized GHZ state mixed with the two classical extremes.
        total = self.p1 + self.p2 + self.p3
        rho = self.p1 * np.outer(psi, psi)
        rho[0, 0] += self.p2
        rho[-1, -1] += self.p3
        # Times the reciprocal, which is how numpy divides a complex array by a
        # real scalar: the entries equal those of the same state built complex.
        rho *= 1.0 / total
        return rho
