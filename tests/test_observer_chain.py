"""The dense observer chain on part rows: observer_expectations against the
per-state calls it replaces, and the caller's arrays."""

import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from dense_spectra import to_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgme import cli, densesim
from seqgme.densesim import (
    channel_closed_form,
    expectation,
    luders_update,
    observer_expectations,
    observer_states,
)
from seqgme.errors import DimensionError
from seqgme.pauli import DENSE_QUBIT_LIMIT, OperatorExpr, PauliString
from seqgme.states import StateFamily
from seqgme.verify import verify_oracle
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
    # One Pauli sum per observer for the whole stack; a chain of dense
    # observables is read on the states observer_states hands out.
    observables = [build_modified_witness("ghz", n, lam) for lam in SHARPNESSES]
    dense = [*observables[:2], to_matrix(observables[2]), *observables[3:]]
    for target in (None, 0, n - 1):
        values = observer_expectations(rho, schedule, observables, target)
        assert bits(values) == bits(state_loop(rho, schedule, observables, target))
        assert bits(values) == bits(replay(rho, schedule, observables, target))
        dense_values = state_loop(rho, schedule, dense, target)
        assert bits(dense_values) == bits(replay(rho, schedule, dense, target))
        for i in range(len(labels)):
            own = [lams[i] for lams in schedule]
            alone = observer_expectations(rho[i], own, observables, target)
            assert bits(alone) == bits([value[i] for value in values])
            alone = state_loop(rho[i], own, dense, target)
            assert bits(alone) == bits([value[i] for value in dense_values])


@pytest.mark.parametrize("at", [0, 2])
def test_a_chain_refuses_a_dense_observable_before_any_step(at):
    family = StateFamily("ghz", 4)
    rho = family.density_matrix()
    lambdas = SCHEDULE[:3]
    matrix = to_matrix(build_modified_witness("ghz", 4, lambdas[at]))
    stepped = AssertionError("a step ran")
    for dense in (matrix, np.stack([matrix, matrix]), matrix.tolist()):
        observables = witnesses(family, lambdas)
        observables[at] = dense
        with mock.patch.object(densesim, "_observer_step", side_effect=stepped):
            for start in (rho, np.stack([rho, rho]), family):
                with pytest.raises(TypeError, match=f"type {type(dense).__name__} is not a Pauli"):
                    observer_expectations(start, lambdas, observables)


@pytest.mark.parametrize("label", FAMILIES)
@pytest.mark.parametrize("n", range(3, DENSE_QUBIT_LIMIT + 1))
def test_a_family_gives_the_values_of_its_density_matrix_on_every_target(label, n):
    family = StateFamily.parse(label, n)
    rho = family.density_matrix()
    observables = witnesses(family, SCHEDULE)
    for target in (None, *range(n)):
        values = observer_expectations(family, SCHEDULE, observables, target)
        expected = observer_expectations(rho, SCHEDULE, observables, target)
        assert [value.hex() for value in values] == [value.hex() for value in expected]
        assert all(type(value) is float for value in values)


@pytest.mark.parametrize(
    "lambdas, target",
    [
        ([0.5, 1.5], None),
        ([0.5, float("nan")], 0),
        ([0.5, [0.1, 0.2]], None),
        ([0.5, 0.5], 3),
        ([0.5], -1),
        # Both at fault: the sharpness is named, as for a matrix.
        ([1.5], 7),
    ],
    ids=["sharpness", "nan", "per-element", "target", "negative-target", "both"],
)
def test_a_family_is_refused_as_its_density_matrix_is(lambdas, target):
    family = StateFamily("cluster", 3)
    observable = PauliString("ZZZ")
    refusals = []
    for rho1 in (family, family.density_matrix()):
        with (
            mock.patch.object(densesim, "_observer_step") as step,
            pytest.raises(ValueError) as caught,
        ):
            observer_expectations(rho1, lambdas, itertools.repeat(observable), target)
        step.assert_not_called()
        refusals.append((type(caught.value), str(caught.value)))
    assert refusals[0] == refusals[1]


def test_chain_values_stop_at_the_shorter_of_the_two_lists():
    family = StateFamily("ghz", 4)
    rho = family.density_matrix()
    observables = witnesses(family, SCHEDULE)
    assert observer_expectations(rho, [], observables) == []
    assert bits(observer_expectations(rho, SCHEDULE, observables[:2])) == bits(
        state_loop(rho, SCHEDULE, observables[:2])
    )
    # A generator of observables is read up front, as far as there are sharpnesses.
    lazy = (obs for obs in observables)
    assert bits(observer_expectations(rho, SCHEDULE, lazy)) == bits(replay(rho, SCHEDULE, observables))


def test_an_endless_generator_of_observables_is_read_once_per_sharpness():
    family = StateFamily("ghz", 4)
    rho = family.density_matrix()
    witness = build_modified_witness("ghz", 4, 0.3)
    values = observer_expectations(rho, SCHEDULE[:3], itertools.repeat(witness))
    assert bits(values) == bits(replay(rho, SCHEDULE[:3], [witness] * 3))


@st.composite
def pauli_chains(draw):
    """A random state on 1..5 qubits, or a stack of 2..3, real or complex; a
    target; 1..4 sharpnesses, each one number or one per element; and a
    Hermitian Pauli sum per observer, some of whose X parts come in pairs
    that differ only on the target bit."""
    n = draw(st.integers(1, 5))
    target = draw(st.integers(0, n - 1))
    count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 1 << n
    g = rng.standard_normal((count, dim, dim))
    if draw(st.booleans()):
        g = g + 1j * rng.standard_normal((count, dim, dim))
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    if count == 1:
        rho = rho[0]
    sharpness = st.sampled_from(SHARPNESSES) | st.floats(0.0, 1.0)
    lambdas = []
    for _ in range(draw(st.integers(1, 4))):
        if count > 1 and draw(st.booleans()):
            lambdas.append(np.array(draw(st.lists(sharpness, min_size=count, max_size=count))))
        else:
            lambdas.append(draw(sharpness))
    masks = st.integers(0, dim - 1)
    target_bit = 1 << (n - 1 - target)
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    observables = []
    for _ in lambdas:
        terms = []
        for x_part in draw(st.lists(masks, min_size=1, max_size=8)):
            pair = (x_part, x_part ^ target_bit) if draw(st.booleans()) else (x_part,)
            for x in pair:
                z = draw(masks)
                word = "".join(
                    letters[(x >> (n - 1 - q)) & 1, (z >> (n - 1 - q)) & 1] for q in range(n)
                )
                terms.append(PauliString(word, draw(st.floats(-2.0, 2.0, allow_nan=False))))
        observables.append(OperatorExpr.from_terms(n, terms))
    return rho, lambdas, observables, target


@settings(max_examples=60, deadline=None)
@given(chain=pauli_chains())
def test_chain_values_of_random_pauli_sums_equal_the_replay_bit_for_bit(chain):
    rho, lambdas, observables, target = chain
    values = observer_expectations(rho, lambdas, observables, target)
    assert bits(values) == bits(replay(rho, lambdas, observables, target))


def test_a_bad_observable_fails_as_in_the_state_loop():
    rho = StateFamily("ghz", 3).density_matrix()
    good = build_modified_witness("ghz", 3, 0.5)
    wrong_size = build_modified_witness("ghz", 4, 0.5)
    for chain in (observer_expectations, state_loop):
        with pytest.raises(DimensionError, match="observable on 4 qubits, state on 3"):
            chain(rho, [0.5, 0.5], [good, wrong_size])


# The caller's arrays. Every chain steps a gathered copy of rho in place, so a
# gather that returned a view of rho would let a step write the caller's array.
def _chain_functions():
    def expectations(rho, lambdas, target):
        # One qubit at least: a 0-qubit state is refused before the observables.
        observables = [PauliString("Z" * max(1, densesim.n_qubits_of(rho)))] * len(lambdas)
        return observer_expectations(rho, lambdas, observables, target)

    # channel_closed_form is no chain, but it takes a target as they do.
    return {
        "channel_closed_form": lambda rho, lambdas, target: [
            channel_closed_form(rho, lambdas[0], target)
        ],
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
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_an_out_of_range_target_is_refused_before_any_shift(name, n):
    chain = _chain_functions()[name]
    rho = np.eye(1 << n) / (1 << n)
    with (
        mock.patch.object(densesim, "_observer_step") as step,
        mock.patch.object(densesim, "_part_rows") as part_rows,
    ):
        if n == 0:  # no qubit to target, not even the default last one
            for lambdas, target in itertools.product(([0.5], [0.5, 0.5]), (None, -1, 0, 1, 0.5)):
                with pytest.raises(ValueError, match="^a 0-qubit state has no target qubit$"):
                    chain(rho, lambdas, target)
        else:
            for lambdas, target in itertools.product(([0.5], [0.5, 0.5]), (-1, -n - 1, n, n + 5)):
                with pytest.raises(ValueError, match=rf"target qubit {target} outside 0\.\.{n - 1}$"):
                    chain(rho, lambdas, target)
            # A float is no qubit index, even an integral one in range.
            floats = (0.5, 1.5, 0.0, np.float64(0.0))
            for lambdas, target in itertools.product(([0.5], [0.5, 0.5]), floats):
                message = rf"target qubit {re.escape(repr(target))} is not an integer$"
                with pytest.raises(ValueError, match=message):
                    chain(rho, lambdas, target)
    step.assert_not_called()
    part_rows.assert_not_called()


@pytest.mark.parametrize("target", [0.5, 1.0, np.float64(1.0)])
def test_a_family_chain_refuses_a_float_target(target):
    family = StateFamily("ghz", 3)
    observables = [PauliString("ZZZ")] * 2
    message = rf"target qubit {re.escape(repr(target))} is not an integer$"
    for lambdas in ([0.5], [0.5, 0.5]):
        with pytest.raises(ValueError, match=message):
            observer_expectations(family, lambdas, observables, target)
    with pytest.raises(ValueError, match=message):
        densesim._last_observer_values([(family, [0.5, 0.5])], observables[:1], target)


@pytest.mark.parametrize("name", sorted(_chain_functions()))
def test_a_numpy_integer_target_is_that_qubit(name):
    chain = _chain_functions()[name]
    rho = np.diag([0.5, 0.25, 0.125, 0.125]).astype(float)
    rho[0, 3] = rho[3, 0] = 0.1
    for target in range(2):
        expected = [np.asarray(value).tobytes() for value in chain(rho, [0.3, 0.9], target)]
        for integer in (np.int64, np.uint8):
            values = chain(rho, [0.3, 0.9], integer(target))
            assert [np.asarray(value).tobytes() for value in values] == expected


# The largest sizes of the benchmark's dense runs, with eight observers.
BUILT_CHAINS = (("ghz", 9), ("cluster", 10))
EIGHT = (0.02, 0.03, 5e-324, 0.05, 0.0, 0.3, 1e-300, 1.0)


def never_made(*args, **kwargs):
    raise AssertionError("a Pauli string or a witness's terms were made")


@pytest.mark.parametrize("label, n", BUILT_CHAINS)
def test_a_chain_of_built_witnesses_makes_no_pauli_string(label, n):
    family = StateFamily(label, n)
    expected = observer_expectations(family, EIGHT, witnesses(family, EIGHT))  # fill the caches
    with (
        mock.patch.object(PauliString, "_from_masks", side_effect=never_made),
        mock.patch.object(PauliString, "__init__", never_made),
    ):
        observables = witnesses(family, EIGHT)
        values = observer_expectations(family, EIGHT, observables)
    assert bits(values) == bits(expected)
    assert all("terms" not in vars(w) for w in observables)


@pytest.mark.parametrize("label, n", BUILT_CHAINS)
def test_a_chain_reads_copied_terms_as_it_reads_built_witnesses(label, n):
    # A from_terms copy has no factored form and takes its columns from its terms.
    family = StateFamily(label, n)
    built = witnesses(family, EIGHT)
    copies = [OperatorExpr.from_terms(n, w.terms) for w in built]
    assert all(copy.factored is None for copy in copies)
    assert bits(observer_expectations(family, EIGHT, copies)) == bits(
        observer_expectations(family, EIGHT, witnesses(family, EIGHT))
    )


def test_the_oracle_expands_no_witness():
    expected = repr(verify_oracle(seed=3))
    with mock.patch.object(PauliString, "_from_masks", side_effect=never_made):
        results = verify_oracle(seed=3)
    assert repr(results) == expected
    assert all(result.passed for result in results)


# Block reads: consecutive observers whose sums share one term layout are
# folded together, and the layout changes where a witness drops its slope.
@settings(max_examples=40, deadline=None)
@given(
    label=st.sampled_from(FAMILIES),
    n=st.integers(3, DENSE_QUBIT_LIMIT),
    where=st.sampled_from(["last", "first", "middle"]),
    schedule=st.lists(
        st.sampled_from([0.0, 5e-324, 1e-300, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=8
    ),
)
def test_a_chain_read_in_blocks_equals_the_per_observer_replay(label, n, where, schedule):
    family = StateFamily.parse(label, n)
    target = {"last": None, "first": 0, "middle": n // 2}[where]
    values = observer_expectations(family, schedule, witnesses(family, schedule), target)
    expected = replay(family.density_matrix(), schedule, witnesses(family, schedule), target)
    assert bits(values) == bits(expected)


STEADY = (0.02, 0.03, 0.04, 0.05, 0.06, 0.3, 0.7, 1.0)


@pytest.mark.parametrize(
    "label, n, schedule, reads",
    [
        # 8 x 2 part rows of 512 entries fit one block of _GATHER_ELEMENTS.
        ("ghz", 9, STEADY, 1),
        # W(0) at lambda = 0 has no X..X term: a block of one between two.
        ("ghz", 9, EIGHT, 3),
        # 63 part rows of 1024 entries exceed a block: each observer alone.
        ("cluster", 10, STEADY, 8),
    ],
)
def test_a_chain_folds_each_block_once_and_builds_its_superoperators_once(
    label, n, schedule, reads
):
    family = StateFamily(label, n)
    observables = witnesses(family, schedule)
    with (
        mock.patch.object(densesim, "_term_traces", wraps=densesim._term_traces) as traces,
        mock.patch.object(densesim, "_superoperator", wraps=densesim._superoperator) as build,
    ):
        values = observer_expectations(family, schedule, observables)
    assert traces.call_count == reads
    assert build.call_count == 1
    assert bits(values) == bits(replay(family.density_matrix(), schedule, observables))


def test_the_cli_chain_holds_two_states_and_one_gather_at_once():
    config = {
        "state": "cluster", "n_qubits": 10, "lambdas": (0.05, 0.06, 0.07, 0.08), "mode": "dense"
    }
    cli.cmd_run(**config)  # fill the witness and plan caches first
    state_bytes = StateFamily("cluster", 10).density_matrix().nbytes
    witness = build_modified_witness("cluster", 10, 0.05)
    # The chain holds the row rho[j, j ^ f] of 2^10 entries for each
    # distinct X part f that the witnesses read: a compact state.
    parts = len({term.x_mask for term in witness.terms})
    compact_bytes = parts * (1 << 10) * 8
    # A term block: at most _GATHER_ELEMENTS float64 entries.
    gather_block = densesim._GATHER_ELEMENTS * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cli.cmd_run(**config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert state_bytes == 8 << 20
    assert 8 * compact_bytes < state_bytes
    bound = 2 * compact_bytes + gather_block + (256 << 10)
    assert bound < state_bytes
    # No rho: two compact states' worth (the state and the family's entries
    # as they are made) and one gather block; room for the rows and the other
    # small objects.
    assert peak <= bound


@pytest.mark.parametrize("label", ["ghz", "cluster"])
def test_a_full_state_read_holds_its_part_rows_and_one_term_block(label):
    rho = StateFamily(label, 10).density_matrix()
    witness = build_modified_witness(label, 10, 0.05)
    expectation(rho, witness)  # fill the plan cache first
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        expectation(rho, witness)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # One row of 2^10 float64 entries per distinct X part, gathered a block
    # of parts at a time by at most _GATHER_ELEMENTS int64 offsets, then read
    # one term block of at most _GATHER_ELEMENTS float64 entries at a time.
    # Offsets for every row at once (cluster: 504 KiB) would exceed it.
    rows_bytes = len({term.x_mask for term in witness.terms}) * (1 << 10) * 8
    block = densesim._GATHER_ELEMENTS * 8
    # Slack for numpy's 64 KiB cast buffer and the per-term values.
    assert peak <= rows_bytes + block + (192 << 10)


def test_a_ghz_read_holds_a_small_plan_and_peaks_below_its_state():
    n = 10
    rho = StateFamily("ghz", n).density_matrix()
    witness = build_modified_witness("ghz", n, 0.05)
    xs, zs = zip(*((term.x_mask, term.z_mask) for term in witness.terms))
    expectation(rho, witness)  # numpy's first calls, then a cold plan
    densesim._gather_plan.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        densesim._gather_plan(n, xs, zs)
        plan_bytes = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        expectation(rho, witness)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # 513 terms on 2 X parts fold 9 levels: the plan holds a few entries per
    # term, not a sign per term and basis state (525 KiB), and the read holds
    # its two part rows, their offsets and two fold levels, not a term block.
    assert len(witness.terms) == 513
    assert plan_bytes <= 64 << 10
    assert peak <= 128 << 10


@pytest.mark.parametrize("label", FAMILIES)
def test_run_builds_and_validates_no_density_matrix(label):
    family = StateFamily.parse(label, DENSE_QUBIT_LIMIT)
    lambdas = (0.05, 0.3, 1.0)
    expected = observer_expectations(family.density_matrix(), lambdas, witnesses(family, lambdas))
    cli.cmd_run(label, DENSE_QUBIT_LIMIT, lambdas=lambdas, mode="dense")  # fill the caches
    tracemalloc.start()
    try:
        with (
            mock.patch.object(StateFamily, "density_matrix", side_effect=AssertionError),
            mock.patch.object(densesim, "validate_density_matrix", side_effect=AssertionError),
        ):
            rows = cli.cmd_run(label, DENSE_QUBIT_LIMIT, lambdas=lambdas, mode="both")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row["witness_value_dense"].hex() for row in rows] == [value.hex() for value in expected]
    # Less than one (2^N, 2^N) float64 array was ever allocated at once.
    assert peak < 8 << (2 * DENSE_QUBIT_LIMIT)


# _last_observer_values: ragged schedules, one in-place stack, longest first.
def last_value(start, schedule, obs, target=None):
    *_, last = observer_states(start.density_matrix(), schedule, target)
    return expectation(last, obs)


def ragged_rows(n, seed):
    """Twelve rows on n qubits: the four families, each start repeated, with
    schedules of 1..6 sharpnesses, several of length 1, in no length order."""
    starts = [StateFamily.parse(label, n) for label in FAMILIES]
    rng = np.random.default_rng(seed)
    lengths = (2, 1, 6, 1, 3, 5, 1, 4, 6, 2, 1, 3)
    rows = []
    for i, length in enumerate(lengths):
        schedule = rng.uniform(size=length)
        schedule[rng.random(length) < 0.3] = rng.choice(SHARPNESSES)
        rows.append((starts[i % len(starts)], schedule))
    return rows


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("target", [None, 0, 1])
def test_ragged_rows_give_each_last_observers_values_bit_for_bit(n, target):
    rows = ragged_rows(n, seed=n)
    observables = [*witnesses(StateFamily("ghz", n), (0.0, 1.0)), build_modified_witness("cluster", n, 0.3)]
    values = densesim._last_observer_values(rows, observables, target)
    assert values.shape == (len(observables), len(rows))
    for k, obs in enumerate(observables):
        expected = [last_value(start, schedule, obs, target) for start, schedule in rows]
        assert [value.hex() for value in values[k].tolist()] == [value.hex() for value in expected]


@pytest.mark.parametrize("label", FAMILIES)
@pytest.mark.parametrize("schedule", [(0.3,), SCHEDULE], ids=["one-observer", "six-observers"])
def test_a_one_row_stack_gives_its_last_observers_values(label, schedule):
    start = StateFamily.parse(label, 4)
    observables = witnesses(start, (0.0, 1.0))
    values = densesim._last_observer_values([(start, schedule)], observables)
    expected = [last_value(start, schedule, obs) for obs in observables]
    assert [value.hex() for value in values[:, 0].tolist()] == [value.hex() for value in expected]


@pytest.mark.parametrize(
    "rows, target, error, message",
    [
        # Row 1 runs first once sorted; the message names the caller's row.
        ([(0.5,), (0.1, 0.2, 1.5)], None, ValueError, "stack element 1: sharpness 1.5 outside [0, 1]"),
        ([(0.5,), (0.1,), (float("nan"), 0.2)], None, ValueError, "stack element 2: sharpness nan outside [0, 1]"),
        ([(0.5,), ()], None, ValueError, "stack element 1: empty schedule"),
        ([(0.5,), (0.5, 0.5)], 3, ValueError, "target qubit 3 outside 0..2"),
    ],
    ids=["sharpness", "nan", "empty", "target"],
)
def test_ragged_rows_are_refused_before_any_step(rows, target, error, message):
    start = StateFamily("ghz", 3)
    with (
        mock.patch.object(densesim, "_observer_step", side_effect=AssertionError),
        pytest.raises(error) as caught,
    ):
        densesim._last_observer_values([(start, row) for row in rows], witnesses(start, (0.5,)), target)
    assert type(caught.value) is error and str(caught.value) == message


def test_ragged_rows_on_two_qubit_counts_are_refused():
    rows = [(StateFamily("ghz", 3), (0.5,)), (StateFamily("ghz", 4), (0.5,))]
    with pytest.raises(DimensionError, match=r"^stack element 1: state on 4 qubits, not 3$"):
        densesim._last_observer_values(rows, [PauliString("XXX")])
