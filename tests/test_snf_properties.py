"""Smith normal form as a ``hypothesis`` property on small integer
matrices: the diagonal against the determinantal-divisor oracle, exact
unimodular transforms, ``cokernel`` read off the same diagonal, and the
certified ``invariant_factors`` against the same oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cobkit import (AbelianGroup, IntMatrix, cokernel, invariant_factors,
                    smith_normal_form)
from conftest import det
from test_invariants import snf_diagonal_oracle


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entry = st.integers(-12, 12)
    return IntMatrix(tuple(
        tuple(draw(st.lists(entry, min_size=cols, max_size=cols)))
        for _ in range(rows)))


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_snf_property(m):
    u, d, v = smith_normal_form(m)
    diag = d.diagonal()
    assert diag == snf_diagonal_oracle(m)
    assert all(x == 0 for i, row in enumerate(d.entries)
               for j, x in enumerate(row) if i != j)
    assert u.mul(m).mul(v).entries == d.entries
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    nonzero = [x for x in diag if x]
    assert cokernel(m, m.cols) == AbelianGroup(
        rank=m.cols - len(nonzero), torsion=tuple(x for x in nonzero if x > 1))


@settings(max_examples=200, deadline=None)
@given(small_matrices())
def test_invariant_factors_property(m):
    assert invariant_factors(m) == [x for x in snf_diagonal_oracle(m) if x]
