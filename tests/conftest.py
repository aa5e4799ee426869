"""Test references shared by more than one test module, as fixtures."""

import pytest

from kdual.exact_abelian import IntegerMatrix, cokernel, preimage_lattice, subquotient_group


def quotient_and_kernel_by_separate_forms(module, op):
    """M / op(M) and the kernel of op on M by the route that preceded
    `RModule.quotient_and_kernel`: the quotient from a Smith form of
    [relations | op], the kernel from `preimage_lattice`, which takes its own
    Smith form of [op | -relations]."""
    relations = module.relations
    return (cokernel(relations.hstack(op)),
            subquotient_group(preimage_lattice(op, relations), relations))


def assert_shared_route_matches(module):
    """Both operators 1 - t and 1 + t give the same quotient and kernel by
    the shared Smith form as by the separate ones."""
    for sign in (-1, 1):
        op = IntegerMatrix(module.rank, module.rank, tuple(
            int(i == j) + sign * module.action.entry(i, j)
            for i in range(module.rank) for j in range(module.rank)))
        assert module.quotient_and_kernel(op) == \
            quotient_and_kernel_by_separate_forms(module, op), (module, sign)


@pytest.fixture(scope="session")
def shared_route_matches():
    """`assert_shared_route_matches`; session-scoped, so `hypothesis`
    properties may take it."""
    return assert_shared_route_matches
