"""The dense observer chain in target-major order: observer_expectations
against the per-state calls it replaces, and the caller's arrays."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from dense_spectra import to_matrix

from seqgme import cli, densesim
from seqgme.densesim import (
    expectation,
    luders_update,
    observer_expectations,
    observer_states,
)
from seqgme.errors import DimensionError
from seqgme.pauli import DENSE_QUBIT_LIMIT, PauliString
from seqgme.states import StateFamily
from seqgme.witness import build_modified_witness

FAMILIES = ("ghz", "cluster", "gghz:alpha=0.3", "mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4")
# Every sharpness named in the contract, the subnormal and the exact ends among them.
SHARPNESSES = (0.0, 5e-324, 1e-300, 0.3, 1.0)
SCHEDULE = (0.3, 5e-324, 1.0, 0.0, 1e-300, 0.3)


def bits(values):
    """Each value's bytes, so that 0.0 and -0.0 tell apart."""
    return [np.asarray(value).tobytes() for value in values]


def replay(rho, lambdas, observables, target=None):
    """The chain as the benchmark's replay runs it: an expectation, then a
    luders_update, per observer."""
    values = []
    for lam, obs in zip(lambdas, observables):
        values.append(expectation(rho, obs))
        rho = luders_update(rho, lam, target)
    return values


def state_loop(rho, lambdas, observables, target=None):
    return [expectation(s, o) for s, o in zip(observer_states(rho, lambdas, target), observables)]


def witnesses(family, lambdas):
    return [build_modified_witness(family.witness_family, family.n_qubits, lam) for lam in lambdas]


@pytest.mark.parametrize("label", FAMILIES)
@pytest.mark.parametrize("n", range(3, DENSE_QUBIT_LIMIT + 1))
def test_chain_values_equal_the_replay_and_the_state_loop_bit_for_bit(label, n):
    family = StateFamily.parse(label, n)
    rho = family.density_matrix()
    observables = witnesses(family, SCHEDULE)
    values = observer_expectations(rho, SCHEDULE, observables)
    assert len(values) == len(SCHEDULE)
    assert bits(values) == bits(replay(rho, SCHEDULE, observables))
    assert bits(values) == bits(state_loop(rho, SCHEDULE, observables))
    assert all(type(value) is float for value in values)


@pytest.mark.parametrize("label", FAMILIES)
@pytest.mark.parametrize("n", range(3, 7))
def test_chain_values_are_bit_identical_on_every_target(label, n):
    family = StateFamily.parse(label, n)
    rho = family.density_matrix()
    observables = witnesses(family, SCHEDULE)
    for target in range(n):
        values = observer_expectations(rho, SCHEDULE, observables, target)
        assert bits(values) == bits(replay(rho, SCHEDULE, observables, target))
        assert bits(values) == bits(state_loop(rho, SCHEDULE, observables, target))


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_a_stack_with_one_sharpness_per_element_equals_its_elements(n, real):
    labels = ("ghz", "gghz:alpha=0.3", "mixed:p1=0.8,p2=0.1,p3=0.1,alpha=0.4")
    rho = np.stack([StateFamily.parse(label, n).density_matrix() for label in labels])
    if not real:
        rho = rho.astype(complex)
    rng = np.random.default_rng(n)
    schedule = [rng.choice(SHARPNESSES, size=len(labels)) for _ in range(5)]
    # One Pauli sum per observer for the whole stack, and a dense one.
    observables = [build_modified_witness("ghz", n, lam) for lam in SHARPNESSES]
    observables[2] = to_matrix(observables[2])
    for target in (None, 0, n - 1):
        values = observer_expectations(rho, schedule, observables, target)
        assert bits(values) == bits(state_loop(rho, schedule, observables, target))
        assert bits(values) == bits(replay(rho, schedule, observables, target))
        for i in range(len(labels)):
            alone = observer_expectations(rho[i], [lams[i] for lams in schedule], observables, target)
            assert bits(alone) == bits([value[i] for value in values])


def test_chain_values_stop_at_the_shorter_of_the_two_lists():
    family = StateFamily("ghz", 4)
    rho = family.density_matrix()
    observables = witnesses(family, SCHEDULE)
    assert observer_expectations(rho, [], observables) == []
    assert bits(observer_expectations(rho, SCHEDULE, observables[:2])) == bits(
        state_loop(rho, SCHEDULE, observables[:2])
    )
    # A generator of observables is read as the chain advances.
    lazy = (obs for obs in observables)
    assert bits(observer_expectations(rho, SCHEDULE, lazy)) == bits(replay(rho, SCHEDULE, observables))


def test_a_bad_observable_fails_as_in_the_state_loop():
    rho = StateFamily("ghz", 3).density_matrix()
    good = build_modified_witness("ghz", 3, 0.5)
    wrong_size = build_modified_witness("ghz", 4, 0.5)
    for chain in (observer_expectations, state_loop):
        with pytest.raises(DimensionError, match="observable on 4 qubits, state on 3"):
            chain(rho, [0.5, 0.5], [good, wrong_size])


# The caller's arrays. At n = 1 the target-major order is the input's own, so
# a conversion that returned a view would hand the caller's array to the chain.
def _chain_functions():
    def expectations(rho, lambdas, target):
        observables = [PauliString("Z" * densesim.n_qubits_of(rho))] * len(lambdas)
        return observer_expectations(rho, lambdas, observables, target)

    return {
        "luders_update": lambda rho, lambdas, target: [luders_update(rho, lambdas[0], target)],
        "observer_states": lambda rho, lambdas, target: list(observer_states(rho, lambdas, target)),
        "observer_expectations": expectations,
    }


@pytest.mark.parametrize("name", sorted(_chain_functions()))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_a_chain_never_writes_the_callers_state(name, n, real):
    chain = _chain_functions()[name]
    rng = np.random.default_rng(n)
    dim = 1 << n
    g = rng.standard_normal((dim, dim))
    if not real:
        g = g + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    before = rho.copy()
    for target in range(n):
        out = chain(rho, [0.3, 0.9, 0.0, 1.0], target)
        assert rho.tobytes() == before.tobytes()
        arrays = [value for value in out if isinstance(value, np.ndarray) and value.ndim]
        for i, first in enumerate(arrays):
            for second in arrays[i + 1:]:
                assert not np.shares_memory(first, second)
            if first is not rho:
                assert not np.shares_memory(first, rho)


@pytest.mark.parametrize("name", sorted(_chain_functions()))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_out_of_range_target_is_refused_before_any_shift(name, n):
    chain = _chain_functions()[name]
    rho = np.eye(1 << n) / (1 << n)
    with (
        mock.patch.object(densesim, "_observer_step") as step,
        mock.patch.object(densesim, "_positions") as positions,
    ):
        for target in (-1, -n - 1, n, n + 5):
            with pytest.raises(ValueError, match=rf"target qubit {target} outside 0\.\.{n - 1}$"):
                chain(rho, [0.5, 0.5], target)
    step.assert_not_called()
    positions.assert_not_called()


def test_the_cli_chain_holds_two_states_and_one_gather_at_once():
    config = cli.ExperimentConfig("cluster", 10, lambdas=(0.05, 0.06, 0.07, 0.08), mode="dense")
    cli.cmd_run(config)  # fill the witness, plan and offset caches first
    state_bytes = StateFamily("cluster", 10).density_matrix().nbytes
    tracemalloc.start()
    try:
        rho = StateFamily("cluster", 10).density_matrix()
        witness = build_modified_witness("cluster", 10, 0.05)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        expectation(rho, witness)
        gather_block = tracemalloc.get_traced_memory()[1] - base
        del rho, witness
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cli.cmd_run(config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert state_bytes == 8 << 20
    # Room for the rows, the witnesses and the other small objects of a run.
    assert peak <= 2 * state_bytes + gather_block + (256 << 10)
