"""Integer linear algebra: structural certificates plus a sympy cross-check.

Expected values marked [DERIVED] are produced by an independent oracle
(sympy's normal-form routines) inside the test; [TRIVIAL] values are small
enough to assert directly.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from twistbench.intlin import (
    freeze,
    identity,
    is_identity,
    is_unimodular,
    kernel_basis,
    mat_mul,
    mat_mul_many,
    mat_vec,
    outer,
    right_inverse,
    smith_normal_form,
    transpose,
)

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(freeze)


def _random_unimodular(n: int, ops: list[tuple[int, int, int]]):
    m = [list(row) for row in identity(n)]
    for i, j, k in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        for t in range(n):
            m[i][t] += k * m[j][t]
    return freeze(m)


unimodular_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=-3, max_value=3),
    ),
    max_size=12,
)


def test_basic_ops_trivial():
    # [TRIVIAL]
    a = freeze([[1, 2], [3, 4]])
    b = freeze([[0, 1], [1, 0]])
    assert mat_mul(a, b) == freeze([[2, 1], [4, 3]])
    assert transpose(a) == freeze([[1, 3], [2, 4]])
    assert mat_vec(a, (1, 1)) == (3, 7)
    assert outer((1, 2), (3, 4)) == freeze([[3, 4], [6, 8]])
    assert is_identity(identity(3))
    assert mat_mul_many(a, b, identity(2)) == mat_mul(a, b)


@given(matrices)
@settings(max_examples=150)
def test_smith_form_is_certified(m):
    snf = smith_normal_form(m)
    # transforms are genuine inverses and the factorization re-multiplies
    assert is_identity(mat_mul(snf.U, snf.U_inv))
    assert mat_mul_many(snf.U, m, snf.V) == snf.D
    # diagonal, non-negative, divisibility chain
    nrows, ncols = len(snf.D), len(snf.D[0])
    for i in range(nrows):
        for j in range(ncols):
            if i != j:
                assert snf.D[i][j] == 0
    fac = snf.invariant_factors
    assert all(f > 0 for f in fac)
    for a, b in zip(fac, fac[1:]):
        assert b % a == 0
    assert len(fac) == snf.rank


@given(matrices)
@settings(max_examples=100)
def test_smith_form_matches_sympy(m):
    # [DERIVED] invariant factors from sympy's Smith form of the same matrix
    ours = smith_normal_form(m).invariant_factors
    theirs = sympy_snf(Matrix(m))
    diag = [abs(theirs[i, i]) for i in range(min(theirs.shape))]
    assert list(ours) == [d for d in diag if d != 0]


@given(matrices)
@settings(max_examples=100)
def test_kernel_basis_spans_kernel_lattice(m):
    snf = smith_normal_form(m)
    basis = kernel_basis(snf)
    ncols = len(m[0])
    assert len(basis) == ncols - snf.rank
    for vec in basis:
        assert mat_vec(m, vec) == (0,) * len(m)
    if basis:
        # columns of a unimodular matrix: the basis is primitive (saturated)
        stacked = tuple(zip(*basis))
        assert all(f == 1 for f in smith_normal_form(stacked).invariant_factors)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    unimodular_ops,
    unimodular_ops,
)
@settings(max_examples=80)
def test_right_inverse_on_surjective_matrices(nrows, extra, left_ops, right_ops):
    ncols = nrows + extra
    base = tuple(tuple(int(i == j) for j in range(ncols)) for i in range(nrows))
    m = mat_mul_many(_random_unimodular(nrows, left_ops), base,
                     _random_unimodular(ncols, right_ops))
    x = right_inverse(m, smith_normal_form(m))
    assert mat_mul(m, x) == identity(nrows)


@given(st.integers(min_value=1, max_value=5), unimodular_ops)
@settings(max_examples=60)
def test_unimodular_detection(n, ops):
    m = _random_unimodular(n, ops)
    assert is_unimodular(m)
    doubled = tuple(
        tuple(2 * x if i == 0 else x for x in row) for i, row in enumerate(m)
    )
    assert not is_unimodular(doubled)


def test_right_inverse_rejects_non_surjective():
    # [TRIVIAL] image of diag(2) is 2Z, not all of Z
    try:
        right_inverse(freeze([[2]]), smith_normal_form(freeze([[2]])))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")
