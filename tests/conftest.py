"""Test references shared by more than one test module, as fixtures."""

import pytest

from kdual.exact_abelian import IntegerMatrix, _kernel_two_torsion, _two_torsion_count

from helpers import quotient_and_kernel_by_separate_forms


def assert_kernel_counts_match(module):
    """For both operators 1 - t and 1 + t, the kernel that
    `rmodule_classify` counts without building it, with its quotient's free
    rank and the F2 count of `_kernel_two_torsion`, has the free rank and
    the 2-torsion of the kernel group by separate Smith forms.  The F2
    count is compared only where M's torsion is elementary 2-torsion, the
    only modules that `rmodule_classify` takes it for."""
    d = _two_torsion_count(module.underlying_group())
    for sign in (-1, 1):
        op = IntegerMatrix(module.rank, module.rank, tuple(
            int(i == j) + sign * module.action.entry(i, j)
            for i in range(module.rank) for j in range(module.rank)))
        quotient, kernel = quotient_and_kernel_by_separate_forms(module, op)
        assert quotient.free_rank == kernel.free_rank, (module, sign)
        if d is not None:
            assert _kernel_two_torsion(module, d) == _two_torsion_count(kernel), (module, sign)


@pytest.fixture(scope="session")
def shared_route_matches():
    """`assert_kernel_counts_match`; session-scoped, so `hypothesis`
    properties may take it."""
    return assert_kernel_counts_match
