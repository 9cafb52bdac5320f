"""The fraction-free elimination of `exactlin` and the integer form of
`LinearMap`, against plain Fraction-pivot Gaussian elimination.

Needs hypothesis, a test-only dependency, for the property test; the
module is skipped without it.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from hypercones import exactlin
from hypercones.autgroup import LinearMap


# ---------------------------------------------------------------------------
# Oracle: Fraction-pivot Gaussian elimination
# ---------------------------------------------------------------------------


def det_oracle(rows) -> F:
    rows = [[F(v) for v in r] for r in rows]
    n = len(rows)
    result = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return F(0)
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


def rank_oracle(rows) -> int:
    rows = [[F(v) for v in r] for r in rows]
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


def inverse_oracle(rows):
    """The inverse, or None when the matrix is singular."""
    n = len(rows)
    aug = [[F(v) for v in rows[i]] + [F(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def matvec_oracle(rows, v):
    return tuple(sum((F(c) * F(x) for c, x in zip(row, v)), F(0)) for row in rows)


def check_against_oracle(rows):
    assert exactlin.rank(rows) == rank_oracle(rows)
    if len(rows) != len(rows[0]):
        return
    assert exactlin.det(rows) == det_oracle(rows)
    expected = inverse_oracle(rows)
    if expected is None:
        with pytest.raises(ValueError, match="singular"):
            exactlin.inverse(rows)
    else:
        assert exactlin.inverse(rows) == expected


# ---------------------------------------------------------------------------
# Fixed cases
# ---------------------------------------------------------------------------


class TestElimination:
    def test_small_cases(self):
        check_against_oracle([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]])
        check_against_oracle([[0, 1, 2], [3, 0, 1], [1, 1, 0]])
        check_against_oracle([[1, 2], [2, 4]])
        check_against_oracle([[0, 0], [0, 0]])
        check_against_oracle([[0, 2, 4], [0, 1, 2]])
        check_against_oracle([[F(7, 3)]])

    def test_row_swaps_keep_the_determinant_sign(self):
        # one swap, then a 3-cycle of rows: det = -1 and +1 times the diagonal
        assert exactlin.det([[0, 1], [1, 0]]) == -1
        assert exactlin.det([[0, 0, 5], [3, 0, 0], [0, 2, 0]]) == 30
        assert exactlin.det([[0, F(1, 2), 0], [F(1, 3), 0, 0], [0, 0, 7]]) == -F(7, 6)

    def test_empty_matrix(self):
        assert exactlin.det([]) == 1
        assert exactlin.rank([]) == 0
        assert exactlin.inverse([]) == ()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            exactlin.det([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="square"):
            exactlin.inverse([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="ragged"):
            exactlin.rank([[1, 2], [3]])

    def test_numpy_object_blocks(self):
        # leading principal blocks of an object array, as the gallery's
        # positive-definiteness check passes them
        mat = np.array([[F(2), F(1, 2), 0], [F(1, 2), F(3), 1], [0, 1, F(5, 4)]], dtype=object)
        for k in range(1, 4):
            block = mat[:k, :k]
            assert exactlin.det(block) == det_oracle(block.tolist())
            assert exactlin.rank(block) == k
            assert exactlin.inverse(block) == inverse_oracle(block.tolist())

    def test_float_entries_are_exact_binary_values(self):
        rows = [[0.1, 0.2], [0.3, 0.7]]
        check_against_oracle([[F(v) for v in r] for r in rows])
        assert exactlin.det(rows) == F(0.1) * F(0.7) - F(0.2) * F(0.3)


class TestLinearMapIntegerForm:
    def test_apply_det_inverse_match_fraction_oracle(self):
        rows = [[F(1, 2), 0, F(3, 7)], [F(-2, 3), 1, 0], [0, F(5, 4), F(1, 6)]]
        lm = LinearMap(rows)
        v = (F(1, 3), F(-2), F(5, 8))
        assert lm.apply(v) == matvec_oracle(rows, v)
        assert lm.det == det_oracle(rows)
        assert lm.inverse().rows == inverse_oracle(rows)
        assert lm.inverse().apply(lm.apply(v)) == v
        assert all(isinstance(x, F) for row in lm.rows for x in row)

    def test_float_rows_from_json(self):
        lm = LinearMap.from_json_rows([[0.1, 0.0], [0.25, 3.0]])
        assert lm.det == F(0.1) * 3
        assert lm.apply((1, 1)) == (F(0.1), F(13, 4))

    def test_singular_map(self):
        lm = LinearMap([[1, 2], [2, 4]])
        assert lm.det == 0 and not lm.invertible
        with pytest.raises(ValueError, match="singular"):
            lm.inverse()

    def test_apply_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            LinearMap([[1, 0], [0, 1]]).apply((1, 2, 3))


# ---------------------------------------------------------------------------
# Property test
# ---------------------------------------------------------------------------

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

def block(draw, n: int, m: int):
    """An n x m matrix of rationals p/q with |p| <= 5 and 1 <= q <= 6."""
    nums = draw(st.lists(st.integers(-5, 5), min_size=n * m, max_size=n * m))
    dens = draw(st.lists(st.integers(1, 6), min_size=n * m, max_size=n * m))
    flat = [F(p, q) for p, q in zip(nums, dens)]
    return [flat[i * m:(i + 1) * m] for i in range(n)]


@st.composite
def rational_matrix(draw):
    """Up to 10 x 10, square half the time; a product L R with a small
    inner dimension half the time, so singular and rank-deficient
    matrices are common."""
    n = draw(st.integers(1, 10))
    m = n if draw(st.booleans()) else draw(st.integers(1, 10))
    if draw(st.booleans()):
        return block(draw, n, m)
    r = draw(st.integers(0, min(n, m)))
    left, right = block(draw, n, r), block(draw, r, m)
    return [[sum((left[i][k] * right[k][j] for k in range(r)), F(0)) for j in range(m)]
            for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(rational_matrix(), st.booleans())
def test_elimination_matches_fraction_oracle(rows, as_array):
    given_rows = np.array(rows, dtype=object) if as_array else rows
    assert exactlin.rank(given_rows) == rank_oracle(rows)
    if len(rows) != len(rows[0]):
        return
    assert exactlin.det(given_rows) == det_oracle(rows)
    lm = LinearMap(rows)
    assert lm.det == det_oracle(rows)
    assert lm.apply(rows[0]) == matvec_oracle(rows, rows[0])
    expected = inverse_oracle(rows)
    if expected is None:
        with pytest.raises(ValueError, match="singular"):
            exactlin.inverse(given_rows)
        with pytest.raises(ValueError, match="singular"):
            lm.inverse()
    else:
        assert exactlin.inverse(given_rows) == expected
        assert lm.inverse().rows == expected


@st.composite
def integer_matrix(draw):
    """A square integer matrix up to 8 x 8, mostly zeros so that zero
    pivots and row swaps are common; half the time one row is replaced by
    a multiple of another (possibly 0 times), which makes it singular."""
    n = draw(st.integers(0, 8))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, 10**15])
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        k = draw(st.integers(-3, 3))
        rows[i] = [k * v for v in rows[j + (j >= i)]]
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_matrix())
def test_bareiss_determinant_matches_gauss_jordan(rows):
    # forward-only elimination against the Gauss-Jordan pass that rank and
    # inverse still take
    rk, pivot, _ = exactlin._eliminate(rows, len(rows))
    assert exactlin.int_det(rows) == (pivot if rk == len(rows) else 0)
