"""Integer linear algebra: structural certificates plus a sympy cross-check.

Expected values marked [DERIVED] are produced by an independent oracle
(sympy's normal-form routines) inside the test; [TRIVIAL] values are small
enough to assert directly.
"""
from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from twistbench.intlin import (
    freeze,
    identity,
    is_unimodular,
    kernel_basis,
    mat_mul,
    mat_mul_many,
    mat_vec,
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
    assert mat_mul_many(a, b, identity(2)) == mat_mul(a, b)


def dense_mat_vec(matrix, vec):
    """The dense product ``mat_vec`` replaced, kept as its oracle."""
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in matrix)


@st.composite
def sparse_products(draw):
    """A matrix and a vector of its width, each entry zero with a drawn
    chance of 0 to 95%; the vector may be all zeros, and a side of the
    matrix may be 0 (a 0 x n matrix is ``()``)."""
    nrows = draw(st.integers(min_value=0, max_value=7))
    ncols = draw(st.integers(min_value=0, max_value=7))
    zero_percent = draw(st.integers(min_value=0, max_value=95))

    def entry():
        if draw(st.integers(min_value=0, max_value=99)) < zero_percent:
            return 0
        return draw(st.integers(min_value=-30, max_value=30))

    matrix = tuple(tuple(entry() for _ in range(ncols)) for _ in range(nrows))
    if draw(st.booleans()):
        vec = (0,) * ncols
    else:
        vec = tuple(entry() for _ in range(ncols))
    return matrix, vec, ncols


@given(sparse_products())
@settings(max_examples=200)
def test_mat_vec_matches_dense_and_sympy(product):
    # [DERIVED] the dense row-by-row formula and sympy's Matrix * vector
    matrix, vec, ncols = product
    ours = mat_vec(matrix, vec)
    assert ours == dense_mat_vec(matrix, vec)
    theirs = Matrix(len(matrix), ncols, [x for row in matrix for x in row]) * Matrix(
        ncols, 1, list(vec)
    )
    assert ours == tuple(int(x) for x in theirs)


@pytest.mark.parametrize("n", range(13))
def test_identity_matches_the_generator_form(n):
    # the per-entry generator that built the identity before its rows
    # were slices of one zero tuple
    assert identity(n) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_freeze_coerces_to_plain_int():
    class Big(int):
        pass

    assert freeze(((True, False),)) == ((1, 0),)
    frozen = freeze(((True, False), (Big(3), -2)))
    assert frozen == ((1, 0), (3, -2))
    assert all(type(x) is int for row in frozen for x in row)
    assert freeze([]) == () and freeze([[]]) == ((),)


def test_mat_vec_edge_shapes():
    # [TRIVIAL]
    assert mat_vec((), (1, 2, 3)) == ()
    assert mat_vec(((), ()), ()) == (0, 0)
    assert mat_vec(((1, 2), (3, 4)), (0, 0)) == (0, 0)


@pytest.mark.parametrize("vec", [(1,), (1, 1, 5), ()])
def test_mat_vec_rejects_a_vector_of_another_length(vec):
    # at the dense zip these read (1, 3), (3, 7) and (0, 0)
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 2\) @ \("):
        mat_vec(((1, 2), (3, 4)), vec)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=8),
)
def test_mat_vec_rejects_any_length_mismatch(nrows, ncols, length):
    assume(length != ncols)
    matrix = tuple(tuple(range(ncols)) for _ in range(nrows))
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_vec(matrix, (1,) * length)


@given(matrices)
@settings(max_examples=150)
def test_smith_form_is_certified(m):
    snf = smith_normal_form(m)
    # transforms are genuine inverses and the factorization re-multiplies
    assert mat_mul(snf.U, snf.U_inv) == identity(len(snf.U))
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
