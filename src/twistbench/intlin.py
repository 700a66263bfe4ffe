"""Exact integer linear algebra on immutable tuple-of-tuples matrices.

Everything in this package that touches homology is integer-exact: matrices
are ``tuple[tuple[int, ...], ...]``, vectors are ``tuple[int, ...]``, and all
decompositions keep unimodular transforms so results can be certified by
re-multiplication.  Python integers are arbitrary precision, so no overflow
handling is needed anywhere.
"""
from __future__ import annotations

from collections import namedtuple

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]

__all__ = [
    "IntMatrix",
    "IntVector",
    "SmithDecomposition",
    "freeze",
    "dims",
    "identity",
    "transpose",
    "mat_mul",
    "mat_mul_many",
    "mat_vec",
    "is_zero",
    "is_antisymmetric",
    "smith_normal_form",
    "kernel_basis",
    "right_inverse",
    "is_unimodular",
]


def freeze(rows) -> IntMatrix:
    """Copy any nested iterable of ints into the canonical immutable form."""
    return tuple(tuple(int(x) for x in row) for row in rows)


def dims(matrix: IntMatrix) -> tuple[int, int]:
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged matrix")
    return nrows, ncols


def identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(matrix: IntMatrix) -> IntMatrix:
    return tuple(zip(*matrix)) if matrix else ()


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a) and len(b) != len(a[0]):
        raise ValueError(f"shape mismatch: {dims(a)} @ {dims(b)}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_mul_many(first: IntMatrix, *rest: IntMatrix) -> IntMatrix:
    out = first
    for m in rest:
        out = mat_mul(out, m)
    return out


def mat_vec(matrix: IntMatrix, vec: IntVector) -> IntVector:
    """``matrix @ vec``, adding up the columns at the nonzero entries of
    ``vec`` only: the vectors here are curve classes, mostly zeros."""
    if matrix and len(vec) != len(matrix[0]):
        raise ValueError(f"shape mismatch: {dims(matrix)} @ ({len(vec)},)")
    out = (0,) * len(matrix)
    for j, x in enumerate(vec):
        if x:
            out = [y + row[j] * x for y, row in zip(out, matrix)]
    return tuple(out)


def is_zero(matrix: IntMatrix) -> bool:
    return all(all(x == 0 for x in row) for row in matrix)


def is_antisymmetric(matrix: IntMatrix) -> bool:
    n = len(matrix)
    return all(len(row) == n for row in matrix) and all(
        matrix[i][j] == -matrix[j][i] for i in range(n) for j in range(i, n)
    )


class SmithDecomposition(
    namedtuple("SmithDecomposition", ("U", "U_inv", "D", "V", "rank", "invariant_factors"))
):
    """Unimodular ``U @ M @ V == D`` with ``D`` in Smith normal form.

    ``U_inv`` is the exact inverse of ``U``; the diagonal of ``D`` holds
    the invariant factors (non-negative, each dividing the next).
    """

    __slots__ = ()


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    nrows, ncols = dims(matrix)
    d = [list(row) for row in matrix]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    ui = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    # Every elementary operation is applied simultaneously to the working
    # matrix and its transform; row operations also update ``U``'s inverse
    # (with the inverse operation on the opposite side), so the
    # decomposition never drifts.
    def row_swap(i: int, j: int) -> None:
        if i == j:
            return
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for row in ui:
            row[i], row[j] = row[j], row[i]

    def row_add(i: int, j: int, k: int) -> None:  # row i += k * row j
        if k == 0:
            return
        di, dj = d[i], d[j]
        for t in range(ncols):
            di[t] += k * dj[t]
        uii, uj = u[i], u[j]
        for t in range(nrows):
            uii[t] += k * uj[t]
        for row in ui:  # inverse: column j -= k * column i
            row[j] -= k * row[i]

    def row_neg(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for row in ui:
            row[i] = -row[i]

    def col_swap(i: int, j: int) -> None:
        if i == j:
            return
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def col_add(j: int, i: int, k: int) -> None:  # col j += k * col i
        if k == 0:
            return
        for row in d:
            row[j] += k * row[i]
        for row in v:
            row[j] += k * row[i]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        best = 0
        pi = pj = -1
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = d[i][j]
                if x and (best == 0 or abs(x) < best):
                    best = abs(x)
                    pi, pj = i, j
        if best == 0:
            break
        row_swap(t, pi)
        col_swap(t, pj)
        while True:
            restart = False
            for i in range(t + 1, nrows):
                if d[i][t]:
                    row_add(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        # remainder is strictly smaller: promote it to pivot
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, ncols):
                if d[t][j]:
                    col_add(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # The pivot must divide the rest of the submatrix for the
            # divisibility chain d1 | d2 | ... to hold.
            pivot = d[t][t]
            fix = -1
            for i in range(t + 1, nrows):
                if any(x % pivot for x in d[i][t + 1 :]):
                    fix = i
                    break
            if fix < 0:
                break
            row_add(t, fix, 1)
        if d[t][t] < 0:
            row_neg(t)
        t += 1

    factors = []
    for i in range(limit):
        if d[i][i] == 0:
            break
        factors.append(d[i][i])
    return SmithDecomposition(
        U=freeze(u),
        U_inv=freeze(ui),
        D=freeze(d),
        V=freeze(v),
        rank=len(factors),
        invariant_factors=tuple(factors),
    )


def kernel_basis(snf: SmithDecomposition) -> tuple[IntVector, ...]:
    """A lattice basis of ``{x : M @ x == 0}`` over the integers, read off
    the decomposition ``snf`` of ``M``."""
    return transpose(snf.V)[snf.rank :]


def right_inverse(matrix: IntMatrix, snf: SmithDecomposition) -> IntMatrix:
    """An integer ``X`` with ``matrix @ X == identity``, built from the
    decomposition ``snf`` of ``matrix`` and certified by re-multiplication.

    Exists iff the rows are independent and the invariant factors are all 1
    (the matrix maps onto the full integer lattice); raises otherwise.
    """
    nrows, _ = dims(matrix)
    if snf.rank != nrows or any(f != 1 for f in snf.invariant_factors):
        raise ValueError(
            "no integer right inverse: rank "
            f"{snf.rank}/{nrows}, invariant factors {snf.invariant_factors}"
        )
    v_left = tuple(row[:nrows] for row in snf.V)
    out = mat_mul(v_left, snf.U)
    if mat_mul(matrix, out) != identity(nrows):
        raise AssertionError("right inverse certification failed")
    return out


def is_unimodular(matrix: IntMatrix) -> bool:
    nrows, ncols = dims(matrix)
    if nrows != ncols:
        return False
    snf = smith_normal_form(matrix)
    return snf.rank == nrows and all(f == 1 for f in snf.invariant_factors)
