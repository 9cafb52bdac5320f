"""Exact rational matrix helpers: determinant, inverse, rank.

Desk-scale only (dimensions in the tens); plain fraction-pivot Gaussian
elimination is entirely adequate and keeps every verdict exact.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import as_vector


def as_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(as_vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int):
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


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


def matvec(rows, v):
    v = as_vector(v)
    if rows and len(rows[0]) != len(v):
        raise ValueError("dimension mismatch")
    return tuple(sum((c * x for c, x in zip(row, v)), Fraction(0)) for row in rows)


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


def det(rows) -> Fraction:
    rows = [list(r) for r in as_matrix(rows)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                for c in range(col, n):
                    rows[r][c] -= f * rows[col][c]
    return result


def rank(rows) -> int:
    rows = [list(r) for r in as_matrix(rows)]
    if not rows:
        return 0
    m = len(rows[0])
    rk = 0
    for col in range(m):
        pivot = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = 1 / rows[rk][col]
        for r in range(len(rows)):
            if r != rk and rows[r][col]:
                f = rows[r][col] * inv
                for c in range(col, m):
                    rows[r][c] -= f * rows[rk][c]
        rk += 1
        if rk == len(rows):
            break
    return rk


def inverse(rows):
    rows = as_matrix(rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse needs a square matrix")
    aug = [list(rows[i]) + list(identity(n)[i]) for i in range(n)]
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if aug[i][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        r += 1
    return tuple(tuple(row[n:]) for row in aug)
