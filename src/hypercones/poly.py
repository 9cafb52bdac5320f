"""Exact sparse arithmetic for homogeneous multivariate polynomials.

Terms are stored as a dict from exponent tuples to `fractions.Fraction`
coefficients, so every identity asserted downstream (derivative formulas,
composition laws, scaling certificates) is an exact statement about
coefficient maps.  Floating point shows up only in one cached sparse
float term table per form, a list of (coefficient, ((j, a), ...)) pairs
with the nonzero exponents of each term.  Float evaluation takes stacks:
`eval_float` evaluates the rows of an (npts, nvars) array and
`polar_form_float` the tuples of a (T, d, n) array, while a rational point
takes `eval`.  The one exception is the one-point evaluator of the
derivative-sign membership route, which runs in Python floats.  It reads
the same table and forms x_j^a by the same power rule (x_j times itself,
a - 1 multiplications), so its value has the bits of the stack row.

Exact evaluation runs in integers: denominators are cleared once and
divided out at the end.  Identities between forms are decided by
evaluation, not expansion: `scaling_mismatch` compares both sides on the
simplex lattice, which is unisolvent for forms of the given degree.

The univariate side is one representation: an ascending tuple of Python
ints.  `restrict_line` returns the line restriction p(te - x) as such a
tuple, primitive and a positive multiple of the true restriction, after
clearing the denominators of x once; pseudo-remainders, gcd, Yun's
square-free decomposition and Sturm chains then certify statements about
its real roots without building a Fraction.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, zip_longest
from math import factorial, gcd, inf, isinf, lcm
from numbers import Integral

import numpy as np

# A dense polarization sum needs 2^degree evaluations.
POLAR_DEGREE_CAP = 24

_RATIONAL_TYPES = (int, Fraction)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, floats and strings like '3/2' or '0.25'."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (Integral, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)  # exact binary value of the float
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_vector(values) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


def is_exact_vector(values) -> bool:
    """True when every entry is an int or Fraction (floats count as inexact).

    A numpy array of any dtype but object holds no such entries.
    """
    if isinstance(values, np.ndarray) and values.dtype != object:
        return False
    return all(isinstance(v, _RATIONAL_TYPES) for v in values)


def _mul_term_dicts(a, b, nvars):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key)
            out[key] = ca * cb if c is None else c + ca * cb
    return out


class HomoPoly:
    """Homogeneous polynomial with exact rational coefficients.

    Canonical form: no zero coefficients are stored and every exponent
    tuple sums to `degree`.  Instances are treated as immutable; all
    operations return new polynomials.
    """

    __slots__ = ("nvars", "degree", "terms", "_float_terms", "_int_terms", "_lattice", "_key")

    def __init__(self, nvars: int, degree: int, terms):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        for exp, c in terms.items():
            c = as_fraction(c)
            if c == 0:
                continue
            exp = tuple(int(a) for a in exp)
            if len(exp) != nvars or any(a < 0 for a in exp):
                raise ValueError(f"bad exponent {exp} for {nvars} variables")
            if sum(exp) != degree:
                raise ValueError(
                    f"term {exp} has total degree {sum(exp)}, expected {degree}"
                )
            clean[exp] = c
        self.nvars = nvars
        self.degree = degree
        self.terms = clean
        self._float_terms = None
        self._int_terms = None
        self._lattice = None
        self._key = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def variable(i: int, nvars: int) -> "HomoPoly":
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return HomoPoly(nvars, 1, {exp: Fraction(1)})

    @staticmethod
    def linear_form(coeffs) -> "HomoPoly":
        coeffs = as_vector(coeffs)
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                terms[tuple(1 if j == i else 0 for j in range(n))] = c
        return HomoPoly(n, 1, terms)

    # -- basic queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _sort_key(self):
        if self._key is None:
            self._key = tuple(sorted(self.terms.items(), reverse=True))
        return self._key

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical serialization order)."""
        return self._sort_key()

    def __eq__(self, other):
        if not isinstance(other, HomoPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, self._sort_key()))

    def max_abs_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return max(abs(c) for c in self.terms.values())

    # -- ring operations -------------------------------------------------------

    def _check_same_space(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        self._check_same_space(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add homogeneous parts of different degree")
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return HomoPoly(self.nvars, self.degree, out)

    def __neg__(self):
        return HomoPoly(self.nvars, self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HomoPoly):
            self._check_same_space(other)
            out = _mul_term_dicts(self.terms, other.terms, self.nvars)
            return HomoPoly(self.nvars, self.degree + other.degree, out)
        c = as_fraction(other)
        return HomoPoly(self.nvars, self.degree, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    # -- calculus ---------------------------------------------------------------

    def _dir_step(self, e) -> "HomoPoly":
        out = {}
        for exp, c in self.terms.items():
            for i, ei in enumerate(e):
                a = exp[i]
                if a and ei:
                    e2 = exp[:i] + (a - 1,) + exp[i + 1 :]
                    out[e2] = out.get(e2, Fraction(0)) + c * a * ei
        return HomoPoly(self.nvars, max(self.degree - 1, 0), out)

    # -- composition -------------------------------------------------------------

    def compose(self, rows) -> "HomoPoly":
        """Exact expansion of x -> p(Bx) where row i gives the image of x_i.

        `rows` has one row per variable of `self`; the row length sets the
        variable count of the result.  The library decides identities by
        lattice evaluation instead (`scaling_mismatch`); this expansion
        stays for the frozen benchmark's tracer, which names it, and as the
        tests' oracle for the lattice certificates.
        """
        rows = tuple(as_vector(r) for r in rows)
        if len(rows) != self.nvars:
            raise ValueError("matrix has wrong number of rows")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged substitution matrix")
        unit = {(0,) * m: Fraction(1)}
        forms = []
        for row in rows:
            f = {}
            for j, c in enumerate(row):
                if c:
                    f[tuple(1 if t == j else 0 for t in range(m))] = c
            forms.append(f)
        pow_cache = {}

        def form_power(i, a):
            key = (i, a)
            got = pow_cache.get(key)
            if got is None:
                got = unit if a == 0 else _mul_term_dicts(form_power(i, a - 1), forms[i], m)
                pow_cache[key] = got
            return got

        acc = {}
        for exp, c in self.terms.items():
            prod = unit
            for i, a in enumerate(exp):
                if a:
                    prod = form_power(i, a) if prod is unit else _mul_term_dicts(prod, form_power(i, a), m)
                    if not prod:
                        break
            for e2, c2 in prod.items():
                acc[e2] = acc.get(e2, Fraction(0)) + c * c2
        return HomoPoly(m, self.degree, acc)

    # -- evaluation ----------------------------------------------------------------

    def eval(self, point) -> Fraction:
        """Exact evaluation at a rational point, in integers: one division."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong dimension")
        cols, scale = clear_denominators(point)
        den, terms = self._int_term_list()
        return Fraction(_eval_columns(terms, cols), den * scale**self.degree)

    def _float_term_list(self):
        """[(c, ((j, a), ...)), ...]: each float coefficient with the
        nonzero exponents of its term, read by both float evaluators."""
        if self._float_terms is None:
            self._float_terms = [
                (float(c), tuple((j, a) for j, a in enumerate(exp) if a))
                for exp, c in self.sorted_terms()
            ]
        return self._float_terms

    def _int_term_list(self):
        """(den, [(num, ((i, a), ...)), ...]): each coefficient is num / den,
        with one common denominator and the nonzero exponents of the term."""
        if self._int_terms is None:
            den = lcm(*(c.denominator for c in self.terms.values()))
            self._int_terms = (den, [
                (c.numerator * (den // c.denominator),
                 tuple((i, a) for i, a in enumerate(exp) if a))
                for exp, c in self.sorted_terms()
            ])
        return self._int_terms

    def _lattice_values(self):
        """The integer form of `_int_term_list` at every point of
        `simplex_lattice(nvars, degree)`: the right-hand side of
        `scaling_mismatch`, computed once per form."""
        if self._lattice is None:
            eye = [[int(i == j) for j in range(self.nvars)] for i in range(self.nvars)]
            self._lattice = _eval_on_lattice(self, eye)
        return self._lattice

    def eval_float(self, points) -> np.ndarray:
        """Float evaluation at each row of a (npts, nvars) stack."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError(f"need a (npts, {self.nvars}) stack of points, got shape {pts.shape}")
        cols = list(pts.T)
        out = np.zeros(len(pts))
        for c, factors in self._float_term_list():
            t = np.full(len(pts), c)
            for j, a in factors:
                xa = xj = cols[j]
                for _ in range(1, a):
                    xa = xa * xj
                t = t * xa
            out += t
        return out

    def _eval_float_point(self, x: list[float]) -> float:
        """`eval_float` at one point given as a list of Python floats: the
        same terms in the same order by the same power rule, so the value
        has the bits of the matching row of `eval_float`."""
        out = 0.0
        for c, factors in self._float_term_list():
            t = c
            for j, a in factors:
                xa = xj = x[j]
                for _ in range(1, a):
                    xa = xa * xj
                t = t * xa
            out += t
        return out

    # -- serialization ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "terms": [
                {"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)}
                for exp, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "HomoPoly":
        terms = {
            tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
            for t in data["terms"]
        }
        return cls(int(data["nvars"]), int(data["degree"]), terms)

    def __repr__(self):
        if self.is_zero():
            return "HomoPoly(0)"
        parts = []
        for exp, c in self.sorted_terms()[:8]:
            mono = "*".join(
                f"x{i}" if a == 1 else f"x{i}^{a}" for i, a in enumerate(exp) if a
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        tail = " + ..." if len(self.terms) > 8 else ""
        return "HomoPoly(" + " + ".join(parts) + tail + ")"


@cache
def simplex_lattice(nvars: int, degree: int) -> np.ndarray:
    """The principal simplex lattice {a in Z>=0^nvars : |a| = degree}.

    Its C(nvars + degree - 1, degree) points are unisolvent for forms of
    that degree (Nicolaides 1972; Chung & Yao 1977): a form vanishing at
    every point is zero.  Rows are the points in descending lexicographic
    order (the order in which their index multisets are generated), as a
    read-only int64 array.
    """
    pts = np.array([
        [c.count(i) for i in range(nvars)]
        for c in combinations_with_replacement(range(nvars), degree)
    ], dtype=np.int64)
    pts.flags.writeable = False
    return pts


def _eval_columns(terms, cols):
    """Integer terms evaluated coordinate-wise: each column is a Python
    int (one point) or an int64 or object array of them (many points)."""
    total = 0
    for c, mono in terms:
        t = c
        for i, a in mono:
            t = t * (cols[i] if a == 1 else cols[i] ** a)
        total += t
    return total


def clear_denominators(values):
    """(ints, scale) with values == ints / scale coordinate-wise."""
    values = as_vector(values)
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


_INT64_MAX = int(np.iinfo(np.int64).max)


def _lattice_dtype(terms, col_bounds):
    """np.int64 when int64 evaluation of `terms` cannot overflow, else object.

    With |column i| <= M_i, every partial product and partial sum of
    `_eval_columns` is at most sum_t |c_t| * prod_i max(M_i, 1)^a_i.
    """
    bounds = [max(m, 1) for m in col_bounds]
    total = 0
    for c, mono in terms:
        t = abs(c)
        for i, a in mono:
            t *= bounds[i] ** a
        total += t
    if total <= _INT64_MAX and max(bounds, default=0) <= _INT64_MAX:
        return np.int64
    return object


def scaling_mismatch(p: HomoPoly, rows, kappa):
    """First lattice point x with kappa * p(Bx) != p(x), or None.

    Row i of `rows` gives the image of x_i, as in `compose`.  Both sides
    are forms of degree d, so agreement on `simplex_lattice(n, d)` proves
    kappa * (p o B) = p without expanding p o B.  The denominators of B
    are cleared once, B' = scale * B, and the comparison
    num(kappa) * P(B'x) == den(kappa) * scale^d * P(x) runs in integers,
    a whole lattice column at a time.

    Dtype rule: on the lattice (x >= 0, |x| = d) each column obeys
    |(B'x)_i| <= M_i = d * max_j |B'_ij|, and |x_i| <= d.  When every M_i
    and the bound sum_t |c_t| * prod_i max(M_i, 1)^a_i on every partial
    product and partial sum of P (`_lattice_dtype`) fit in int64, the
    lattice, B' and both evaluations are int64 and B'x is one matmul;
    otherwise they are object arrays of Python ints.  Either way the products with
    num(kappa) and den(kappa) * scale^d are taken in Python ints.  P(x)
    depends on p alone and is computed once per form
    (`HomoPoly._lattice_values`).  A
    mismatch returns the point x (a tuple of ints), kappa * p(Bx) and
    p(x), the last two as Fractions.
    """
    rows = tuple(as_vector(r) for r in rows)
    if len(rows) != p.nvars or any(len(r) != p.nvars for r in rows):
        raise ValueError("scaling identity needs a square map on the variables of p")
    kappa = as_fraction(kappa)
    scale = lcm(*(v.denominator for r in rows for v in r))
    bmat = [[v.numerator * (scale // v.denominator) for v in r] for r in rows]
    den = p._int_term_list()[0]
    d = p.degree
    lattice = simplex_lattice(p.nvars, d)
    # kappa * p(Bx) = kappa * P(B'x) / (den * scale^d) and p(x) = P(x) / den
    common = kappa.denominator * scale**d
    lhs = kappa.numerator * _eval_on_lattice(p, bmat)
    rhs = common * p._lattice_values()
    differ = np.flatnonzero(lhs != rhs)
    if not len(differ):
        return None
    i = differ[0]
    return tuple(lattice[i].tolist()), Fraction(lhs[i], common * den), Fraction(rhs[i], common * den)


def _eval_on_lattice(p: HomoPoly, mat):
    """P(Mx) at every point x of `simplex_lattice(p.nvars, p.degree)`, as
    an object array of Python ints: P is the integer form of
    `p._int_term_list()` and M the square integer matrix `mat`, in the
    dtype `_lattice_dtype` proves safe."""
    _, terms = p._int_term_list()
    d = p.degree
    lattice = simplex_lattice(p.nvars, d)
    dtype = _lattice_dtype(terms, [d * max(abs(v) for v in r) for r in mat])
    cols = (lattice.astype(dtype) @ np.array(mat, dtype=dtype).T).T
    # a form with no variable in any term evaluates to one scalar
    return np.broadcast_to(np.asarray(_eval_columns(terms, cols), dtype=object), len(lattice))


def derivatives_along(p: HomoPoly, e) -> tuple[HomoPoly, ...]:
    """The full tower [p, D_e p, ..., D_e^d p] by repeated single passes."""
    e = as_vector(e)
    if len(e) != p.nvars:
        raise ValueError("direction has wrong dimension")
    out = [p]
    for _ in range(p.degree):
        out.append(out[-1]._dir_step(e))
    return tuple(out)


def restrict_line(p: HomoPoly, e, x, derivs=None) -> tuple[int, ...]:
    """The primitive integer polynomial of q(t) = p(t*e - x), ascending.

    Uses the closed form c_j = (-1)^(d-j) (D_e^j p)(x) / j!, which follows
    from homogeneity; the leading coefficient is always p(e).  Pass a
    precomputed derivative tower to amortize repeated restrictions.  The
    denominators of x are cleared once (x = X / scale) and each tower entry
    D^j p = N_j / den_j is evaluated in integers; with L the lcm of the
    den_j, L * d! * scale^d * c_j is the integer
    (-1)^(d-j) N_j(X) * (L / den_j) * (d! / j!) * scale^j.  The result is
    that tuple divided by its content, so it is a positive multiple of q,
    with trailing zeros trimmed (the zero polynomial is ()).
    """
    if len(x) != p.nvars:
        raise ValueError("point has wrong dimension")
    d = p.degree
    if derivs is None:
        derivs = derivatives_along(p, e)
    cols, scale = clear_denominators(x)
    tower = [q._int_term_list() for q in derivs]
    common = lcm(*(den for den, _ in tower))
    coeffs = []
    for j, (den, terms) in enumerate(tower):
        num = (-1) ** (d - j) * _eval_columns(terms, cols)
        coeffs.append(num * (common // den) * (factorial(d) // factorial(j)) * scale**j)
    if not coeffs[-1]:
        warnings.warn("restriction has zero leading coefficient: p(e) = 0")
    return _primitive(_trim(coeffs))


def polar_form_float(p: HomoPoly, xs) -> np.ndarray:
    """Fully symmetric multilinear form P with P(x, ..., x) = p(x), in
    floats, at each tuple of a (T, d, n) stack of d-tuples of points; one
    batched evaluation per call, a length-T array back.

    Computed by the polarization identity
    P = (1/d!) * sum over nonempty S of (-1)^(d-|S|) p(sum of xs in S),
    a dense 2^d - 1 term sum, hence the degree cap.
    """
    d = p.degree
    pts = np.asarray(xs, dtype=float)
    if pts.ndim != 3 or pts.shape[1] != d:
        raise ValueError(f"need a (T, {d}, n) stack of {d}-tuples, got shape {np.shape(xs)}")
    if d > POLAR_DEGREE_CAP:
        raise ValueError(f"polarization sum needs 2^{d} evaluations; cap is {POLAR_DEGREE_CAP}")
    masks = np.arange(1, 1 << d)
    sel = (masks[:, None] >> np.arange(d)[None, :]) & 1
    points = sel @ pts
    sizes = sel.sum(axis=1)
    signs = np.where((d - sizes) % 2 == 0, 1.0, -1.0)
    values = p.eval_float(points.reshape(-1, pts.shape[2])).reshape(len(pts), -1)
    # one dot product per tuple, the same bits as `signs @ values` row by row
    return (values[:, None, :] @ signs[:, None]).ravel() / factorial(d)


# ---------------------------------------------------------------------------
# Univariate integer polynomials and exact root counting
#
# A univariate polynomial is an ascending tuple of Python ints whose last
# entry is nonzero; () is the zero polynomial.
# ---------------------------------------------------------------------------


def _primitive(coeffs) -> tuple[int, ...]:
    g = gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _int_derivative(f) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(f) if i)


def _negated_remainder(a, b) -> tuple[int, ...]:
    """-(a mod b) times a positive integer, primitive and trimmed: pseudo-
    division by |lead(b)| stays in integers without flipping signs."""
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        c = sign * r[-1]
        r = [scale * v for v in r]
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
        r.pop()
    r = _trim(r)
    return _primitive([-v for v in r]) if r else ()


def _int_gcd(a, b) -> tuple[int, ...]:
    """Primitive gcd with a positive leading coefficient."""
    while b:
        a, b = b, _negated_remainder(a, b)
    return _primitive(a if a[-1] > 0 else [-c for c in a])


def _exact_quotient(a, b) -> tuple[int, ...]:
    """a / b when the primitive b divides a; the quotient is then integral
    (Gauss's lemma), so every step is an exact integer division."""
    q, r = [], list(a)
    for k in range(len(a) - len(b), -1, -1):
        q.append(r[k + len(b) - 1] // b[-1])
        for j, bj in enumerate(b):
            r[k + j] -= q[-1] * bj
    return tuple(reversed(q))


def squarefree_factors(f) -> list[tuple[tuple[int, ...], int]]:
    """Yun's decomposition of f: (square-free factor, multiplicity) pairs,
    each factor primitive with a positive leading coefficient.

    b and d are always divided by the same gcd, so Yun's identity d = c - b'
    holds up to one common scale; the first pass, from (f, f'), only strips
    gcd(f, f').
    """
    b = f
    d = _int_derivative(b)
    out, i = [], 0
    while len(b) > 1:
        a = _int_gcd(b, d)
        if i and len(a) > 1:
            out.append((a, i))
        b = _exact_quotient(b, a)
        c = _exact_quotient(d, a)
        d = _trim(x - y for x, y in zip_longest(c, _int_derivative(b), fillvalue=0))
        i += 1
    return out


def _sturm_chain(f) -> list[tuple[int, ...]]:
    """Canonical Sturm chain of f as ascending integer tuples.

    Each entry after f is a positive multiple of the rational chain f',
    -rem(f, f'), ..., made primitive, so sign variations are unchanged.
    The last entry is gcd(f, f'); the chain counts distinct real roots for
    any f.
    """
    if not f:
        raise ValueError("zero polynomial")
    chain = [f, _primitive(_int_derivative(f))] if len(f) > 1 else [f]
    while len(chain[-1]) > 1 and (r := _negated_remainder(chain[-2], chain[-1])):
        chain.append(r)
    return chain


def sign_at(f, t) -> int:
    """Sign of an ascending integer polynomial at t: a Fraction, an int, a
    float (at its exact dyadic value) or +-inf."""
    if isinstance(t, float) and isinf(t):
        s = 1 if f[-1] > 0 else -1
        return s if t > 0 or len(f) % 2 else -s
    num, den = t.as_integer_ratio()
    acc, power = f[-1], 1  # den^deg * f(num / den), by Horner
    for c in reversed(f[:-1]):
        power *= den
        acc = acc * num + c * power
    return (acc > 0) - (acc < 0)


def sign_variations(chain, t) -> int:
    signs = [s for s in (sign_at(f, t) for f in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def factor_chains(f) -> list[tuple[list, int]]:
    """(Sturm chain, multiplicity) for each square-free factor of f.  When
    gcd(f, f'), the last entry of f's own chain, is constant, f is
    square-free and Yun's split is skipped."""
    if len(f) <= 1:
        return []
    chain = _sturm_chain(f)
    if len(chain[-1]) == 1:
        return [(chain, 1)]
    return [(_sturm_chain(g), mult) for g, mult in squarefree_factors(f)]


def real_root_count_with_mult(f) -> int:
    """Real roots of f counted with multiplicity (exact)."""
    return sum(
        mult * (sign_variations(chain, -inf) - sign_variations(chain, inf))
        for chain, mult in factor_chains(f)
    )


def is_real_rooted(f) -> bool:
    """True when all roots of f are real (counted with multiplicity)."""
    if not f:
        raise ValueError("zero polynomial")
    return real_root_count_with_mult(f) == len(f) - 1
