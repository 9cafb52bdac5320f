"""Exact rational matrix helpers: products, determinant, inverse, rank.

Determinant, rank and inverse come from fraction-free elimination
(Bareiss, Math. Comp. 1968) on integer rows: each row's denominators are
cleared once and every step divides exactly by the previous pivot, so no
gcd is taken until the result is built.  The determinant needs only the
forward pass, which shrinks the matrix by a row and a column per pivot;
rank and inverse take the Gauss-Jordan form.  `LinearMap` calls the
integer entry points `int_det` and `int_inverse`.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .poly import as_vector, clear_denominators


def as_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(as_vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int):
    return diag([1] * n)


def diag(entries):
    entries = as_vector(entries)
    n = len(entries)
    return tuple(
        tuple(entries[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def permutation(perm):
    """Row i of the result is the unit vector e_{perm[i]}: x -> x[perm]."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    return tuple(
        tuple(Fraction(1 if j == perm[i] else 0) for j in range(n)) for i in range(n)
    )


def matmul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt)
        for row in a
    )


def transpose(rows):
    return tuple(zip(*rows))


def _integer_rows(rows, square: str):
    """(nums, scales): row i of the matrix is nums[i] / scales[i].  A
    nonempty `square` names the operation that needs a square matrix."""
    cleared = [clear_denominators(r) for r in as_matrix(rows)]
    if square and any(len(c[0]) != len(cleared) for c in cleared):
        raise ValueError(f"{square} needs a square matrix")
    return [c[0] for c in cleared], [c[1] for c in cleared]


def _eliminate(rows, width: int):
    """Fraction-free Gauss-Jordan elimination of integer rows, pivoting in
    the first `width` columns; returns (rank, last pivot, reduced rows).

    A step with pivot p replaces every other row r by
    (p * r - r[col] * pivot row) / previous pivot, an exact division
    (Sylvester's identity).  A row swap negates the row moved down, so
    the determinant is preserved: at full rank on a square left block the
    last pivot is its determinant and the block ends as pivot * I.
    """
    rows = [list(r) for r in rows]
    prev, rk = 1, 0
    for col in range(width):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != rk:
            rows[rk], rows[piv] = rows[piv], [-v for v in rows[rk]]
        top = rows[rk]
        p = top[col]
        for i, row in enumerate(rows):
            if i != rk:
                f = row[col]
                rows[i] = [(p * v - f * w) // prev for v, w in zip(row, top)]
        prev = p
        rk += 1
        if rk == len(rows):
            break
    return rk, prev, rows


def int_det(nums) -> int:
    """Determinant of a square integer matrix by forward-only fraction-free
    elimination (Bareiss 1968).

    A step with pivot p replaces each entry below and right of it by
    (p * a_ij - a_ik * a_kj) / previous pivot, an exact division
    (Sylvester's identity), and drops the pivot's row and column; a row
    swap flips the sign.  The last pivot is then the determinant up to
    that sign, and a column with no pivot makes it 0.
    """
    rows, sign, prev = [list(r) for r in nums], 1, 1
    while rows:
        piv = next((i for i, r in enumerate(rows) if r[0]), None)
        if piv is None:
            return 0
        if piv:
            rows[0], rows[piv], sign = rows[piv], rows[0], -sign
        top = rows[0]
        p = top[0]
        rows = [[(p * v - r[0] * w) // prev for v, w in zip(r[1:], top[1:])] for r in rows[1:]]
        prev = p
    return sign * prev


def int_inverse(nums):
    """(adj, d) with adj / d the inverse of a square integer matrix."""
    n = len(nums)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(nums)]
    rk, d, rows = _eliminate(aug, n)
    if rk < n:
        raise ValueError("matrix is singular")
    return [r[n:] for r in rows], d


def det(rows) -> Fraction:
    nums, scales = _integer_rows(rows, "determinant")
    return Fraction(int_det(nums), prod(scales))


def rank(rows) -> int:
    nums, _ = _integer_rows(rows, "")
    return _eliminate(nums, len(nums[0]) if nums else 0)[0]


def inverse(rows):
    # row i of A is nums[i] / scales[i], so A^-1 = nums^-1 diag(scales)
    nums, scales = _integer_rows(rows, "inverse")
    adj, d = int_inverse(nums)
    return tuple(tuple(Fraction(v * s, d) for v, s in zip(row, scales)) for row in adj)
