"""The verification suites' use of the dense engine."""

from unittest import mock

from seqgme import densesim
from seqgme.verify import verify_recursion


def test_recursion_suite_validates_each_schedule_once():
    with mock.patch.object(
        densesim, "validate_density_matrix", wraps=densesim.validate_density_matrix
    ) as check:
        results = verify_recursion(seed=5, schedules=4)
    assert all(result.passed for result in results)
    assert check.call_count == 4
