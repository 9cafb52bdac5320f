"""Constructors for the concrete cones used throughout the suite.

Everything here is desk scale on purpose: symbolic determinants stop at
4x4 matrices (24 Leibniz terms).  Only the gallery sets the flags
`minimality_assumed` and `rog_flag` (through `_cited`): each is a fact
from the literature about that instance, stated in its constructor's
docstring, not a computed certificate, and no caller or descriptor can
set them.  A lattice mismatch refutes an automorphism only on a form
flagged minimal.

svec convention: a symmetric matrix maps to its diagonal entries followed
by the off-diagonal entries (i < j, row-major), stored raw with no sqrt(2)
scaling, which keeps determinant coefficients rational.  `_svec_pairs`
holds that order once.  `svec_product(A, B)` is the svec matrix of
X -> A X B^T, with entry ((i, j), (k, l)) = A_ik B_jl + A_il B_jk, or
A_ik B_jk on a diagonal column k = l: the symmetric Kronecker product
without its sqrt(2) scaling.  `svec_product(M, M)` is the congruence
X -> M X M^T, behind the conjugation maps of the classifications and the
rational flow points exp(tW) X exp(tW)^T of lyapunov-flows.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from . import exactlin
from .cones import HyperCone, contains_by_inequalities
from .poly import HomoPoly, as_fraction, as_vector, is_real_rooted, simplex_lattice
from .report import InconclusiveError, Membership
from .spectrum import NOT_REAL_ROOTED


@dataclass(frozen=True)
class GalleryDescriptor:
    kind: str  # Orthant | PSD | SOC | L1 | Spectrahedral
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Polynomial builders
# ---------------------------------------------------------------------------


def elementary_symmetric(nvars: int, degree: int) -> HomoPoly:
    """Sum of all squarefree monomials of the given degree."""
    if not 0 <= degree <= nvars:
        raise ValueError("elementary symmetric degree out of range")
    terms = {}
    for picks in itertools.combinations(range(nvars), degree):
        exp = tuple(1 if i in picks else 0 for i in range(nvars))
        terms[exp] = Fraction(1)
    return HomoPoly(nvars, degree, terms)


def product_of_linear_forms(rows) -> HomoPoly:
    forms = [HomoPoly.linear_form(r) for r in rows]
    out = forms[0]
    for f in forms[1:]:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# svec coordinates
# ---------------------------------------------------------------------------


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


@functools.cache
def _svec_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each svec coordinate of an n x n matrix."""
    upper = np.triu_indices(n, 1)
    pairs = np.r_[np.arange(n), upper[0]], np.r_[np.arange(n), upper[1]]
    for index in pairs:
        index.setflags(write=False)
    return pairs


def svec(matrix) -> tuple[Fraction, ...]:
    mat = np.array(exactlin.as_matrix(matrix), dtype=object)
    if mat.shape[0] != mat.shape[1] or (mat != mat.T).any():
        raise ValueError("matrix is not symmetric")
    return tuple(mat[_svec_pairs(len(mat))])


def svec_float(mat: np.ndarray) -> np.ndarray:
    """svec of one (n, n) matrix, or of each matrix of an (m, n, n) stack."""
    mat = np.asarray(mat, dtype=float)
    rows, cols = _svec_pairs(mat.shape[-1])
    return mat[..., rows, cols]


def svec_product(A, B) -> np.ndarray:
    """The svec matrix of X -> A X B^T, read off the upper triangle, with
    the entries the module docstring gives.  Fraction object arrays stay
    exact, float arrays stay float."""
    A, B = np.asarray(A), np.asarray(B)
    n = len(A)
    rows, cols = _svec_pairs(n)
    out = A[rows[:, None], rows] * B[cols[:, None], cols]
    out[:, n:] += A[rows[:, None], cols[n:]] * B[cols[:, None], rows[n:]]
    return out


SYMBOLIC_DET_CAP = 4


def _det_poly_from_entries(entry_vars, n: int) -> HomoPoly:
    """Leibniz expansion where entry (i, j) is a degree-1 polynomial."""
    total = None
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = entry_vars[0][perm[0]]
        for i in range(1, n):
            prod = prod * entry_vars[i][perm[i]]
        prod = prod * sign
        total = prod if total is None else total + prod
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def symmetric_det_poly(n: int) -> HomoPoly:
    """det of a symmetric n x n matrix as a polynomial in svec coordinates."""
    if not 1 <= n <= SYMBOLIC_DET_CAP:
        raise ValueError(f"symbolic determinant capped at n = {SYMBOLIC_DET_CAP}")
    N = svec_dim(n)
    rows, cols = _svec_pairs(n)
    coord = np.empty((n, n), dtype=int)
    coord[rows, cols] = coord[cols, rows] = np.arange(N)
    entries = [[HomoPoly.variable(int(c), N) for c in row] for row in coord]
    return _det_poly_from_entries(entries, n)


# ---------------------------------------------------------------------------
# Gallery constructors
# ---------------------------------------------------------------------------


def _cited(cone: HyperCone, rog: bool) -> HyperCone:
    """Flag a gallery cone's polynomial minimal, and the cone rank-one
    generated when `rog`: facts its constructor's docstring cites."""
    cone.minimality_assumed, cone.rog_flag = True, rog
    return cone


@functools.cache
def orthant(n: int) -> HyperCone:
    """Product of the coordinates along the all-ones direction.

    Minimal: n distinct linear forms, each defining a facet.  Rank-one
    generated by the unit vectors.  Built once per n: every call returns
    the same cone, with its derivative tower and relaxations, so callers
    must not mutate it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    p = HomoPoly(n, n, {(1,) * n: Fraction(1)})
    return _cited(HyperCone(p, (1,) * n, label=f"orthant:{n}",
                            gallery=GalleryDescriptor("Orthant", {"n": n})), rog=True)


@functools.cache
def psd(n: int) -> HyperCone:
    """Symmetric PSD matrices in svec coordinates, determinant polynomial.

    Minimal: the determinant of a generic symmetric matrix is irreducible.
    Rank-one generated by the matrices u u^T.  Built once per n, like
    `orthant`; callers must not mutate the cone.
    """
    if not 1 <= n <= SYMBOLIC_DET_CAP:
        raise ValueError(f"symbolic determinant capped at n = {SYMBOLIC_DET_CAP}")
    p = symmetric_det_poly(n)
    e = svec(exactlin.identity(n))
    return _cited(HyperCone(p, e, label=f"psd:{n}", gallery=GalleryDescriptor("PSD", {"n": n})),
                  rog=True)


def psd_deriv_member(n: int, k: int, X) -> list[Membership]:
    """Relaxation membership for each matrix of an (m, n, n) stack of
    symmetric matrices via its eigenvalues.

    Works for any n: the matrix goes through a symmetric eigensolver and
    the eigenvalue vector through the derivative-sign description of the
    k-th orthant relaxation, with its default band `cones.MEMBERSHIP_TOL`.
    Values that sit in the band but on the nonnegative side count as In
    (closed membership); only sign-ambiguous values report
    Boundary-ambiguous.  One asymmetric matrix rejects the stack.
    """
    mats = np.asarray(X, dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != (n, n):
        raise ValueError("matrix has wrong shape")
    mt = mats.transpose(0, 2, 1)
    atol = 1e-12 * np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    if not np.isclose(mats, mt, atol=atol[:, None, None]).all():
        raise ValueError("matrix is not symmetric")
    lam = np.linalg.eigvalsh(mats)
    base = orthant(n)
    verdicts = contains_by_inequalities(base, k, lam)
    band = [i for i, v in enumerate(verdicts) if v is Membership.BOUNDARY]
    if band:
        closed = np.ones(len(band), dtype=bool)
        for q in base.derivs[k:n]:
            closed &= q.eval_float(lam[band]) >= 0.0
        for i in np.asarray(band)[closed]:
            verdicts[i] = Membership.IN
    return verdicts


def soc(n: int) -> HyperCone:
    """Second-order cone in R^n: x0 >= sqrt(x1^2 + ... + x_{n-1}^2).

    Minimal: for n >= 3 an irreducible quadratic, for n = 2 the two
    distinct facet forms x0 - x1 and x0 + x1.  Rank-one generated: every
    boundary ray is extreme.
    """
    if n < 2:
        raise ValueError("need ambient dimension >= 2")
    terms = {tuple(2 if i == 0 else 0 for i in range(n)): Fraction(1)}
    for j in range(1, n):
        terms[tuple(2 if i == j else 0 for i in range(n))] = Fraction(-1)
    e = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
    return _cited(HyperCone(HomoPoly(n, 2, terms), e, label=f"soc:{n}",
                            gallery=GalleryDescriptor("SOC", {"n": n})), rog=True)


def l1_cone() -> HyperCone:
    """x3 >= |x1| + |x2| as the product of four linear forms.

    Minimal: four distinct linear forms, each defining a facet.  Not
    rank-one generated: every extreme ray has rank two.  The first
    relaxation equals soc(3) as a set under (x1, x2, x3) -> (x3, x1, x2);
    the derivative polynomial keeps a redundant x3 factor, so it is not of
    minimal degree.
    """
    rows = [
        (1, 1, 1),
        (1, -1, 1),
        (-1, 1, 1),
        (-1, -1, 1),
    ]
    return _cited(HyperCone(product_of_linear_forms(rows), (0, 0, 1), label="l1",
                            gallery=GalleryDescriptor("L1", {})), rog=False)


def spectrahedral(matrices, xbar, label: str = "spectrahedral") -> HyperCone:
    """Cone of points x with sum_i x_i A_i positive semidefinite.

    The matrices must be symmetric, at most 4x4, linearly independent, and
    the slice at xbar must be positive definite (checked exactly through
    leading principal minors).  The hyperbolic rank of a point equals the
    matrix rank of its slice, which the suite exercises as a pairing.
    """
    mats = [exactlin.as_matrix(m) for m in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    n = len(mats[0])
    if n > SYMBOLIC_DET_CAP:
        raise ValueError(f"matrix size capped at {SYMBOLIC_DET_CAP}")
    for m in mats:
        if len(m) != n or any(len(r) != n for r in m):
            raise ValueError("matrices must share one square shape")
    rows = [svec(m) for m in mats]
    if exactlin.rank(rows) != len(mats):
        raise ValueError("matrices are linearly dependent")
    xbar = as_vector(xbar)
    if len(xbar) != len(mats):
        raise ValueError("xbar has wrong dimension")
    if not _is_positive_definite(pencil_matrix(mats, [xbar])[0]):
        raise ValueError("pencil at xbar is not positive definite")
    m_vars = len(mats)
    entries = [
        [
            HomoPoly.linear_form([mats[t][i][j] for t in range(m_vars)])
            for j in range(n)
        ]
        for i in range(n)
    ]
    p = _det_poly_from_entries(entries, n)
    return HyperCone(
        p,
        xbar,
        label=label,
        gallery=GalleryDescriptor(
            "Spectrahedral",
            {"n": n, "matrices": [[list(map(str, r)) for r in m] for m in mats]},
        ),
    )


def pencil_matrix(matrices, points) -> np.ndarray:
    """The pencil sum_i x_i M_i at each row x of `points`: (npts, m, m).

    Rational points keep Fraction entries; float points give floats.
    """
    pts = np.asarray(points)
    mats = np.array(matrices, dtype=object if pts.dtype == object else float)
    return sum(pts[:, i, None, None] * m for i, m in enumerate(mats))


def _is_positive_definite(mat: np.ndarray) -> bool:
    return all(exactlin.det(mat[:k, :k]) > 0 for k in range(1, len(mat) + 1))


def soc3_slice_2x2() -> HyperCone:
    """soc(3) as a 2x2 pencil [[x0+x1, x2], [x2, x0-x1]]: rank-one generated.

    Minimal: its determinant x0^2 - x1^2 - x2^2 is an irreducible quadratic.
    """
    a0 = ((1, 0), (0, 1))
    a1 = ((1, 0), (0, -1))
    a2 = ((0, 1), (1, 0))
    return _cited(spectrahedral([a0, a1, a2], (1, 0, 0), label="soc3-slice-2x2"), rog=True)


def soc3_slice_3x3() -> HyperCone:
    """soc(3) as a 3x3 pencil: same set, but boundary slices have rank two."""
    a0 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    a1 = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    a2 = ((0, 0, 1), (0, 0, 0), (1, 0, 0))
    return spectrahedral([a0, a1, a2], (1, 0, 0), label="soc3-slice-3x3")


# ---------------------------------------------------------------------------
# Generator sets
# ---------------------------------------------------------------------------


def outer(u):
    """The rank-one symmetric matrix u u^T as a tuple of rows."""
    return tuple(tuple(a * b for b in u) for a in u)


def coordinate_rays(n: int):
    """The n unit vectors: the extreme rays of the coordinate cone."""
    return [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)]


def extreme_rays(cone: HyperCone):
    """Built-in extreme-ray generators of a gallery cone or its relaxation:
    unit vectors; svec(u u^T) for u = e_i and e_i + e_j, i < j, in svec
    order; e_0 +- e_j plus (5, 3, 4, 0, ...); the four rank-two rays of the
    l1 cone."""
    kind = cone.gallery.kind if cone.gallery else None
    if kind == "L1":
        return [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    if kind not in ("Orthant", "PSD", "SOC"):
        raise ValueError("no built-in generators for this cone; supply a gallery cone id")
    n = cone.gallery.params["n"]
    units = coordinate_rays(n)
    if kind == "Orthant":
        return units
    if kind == "PSD":
        return [
            svec(outer([Fraction(int(t in (i, j))) for t in range(n)]))
            for i, j in zip(*_svec_pairs(n))
        ]
    rays = [tuple(a + s * b for a, b in zip(units[0], u)) for u in units[1:] for s in (1, -1)]
    if n >= 3:
        rays.append(as_vector((5, 3, 4) + (0,) * (n - 3)))
    return rays


def psd_rank1_generators(n: int, rng, extras: int = 3):
    """n + extras seeded generators svec(u u^T), entries of u in {-16..16}/8,
    the first n linearly independent; gives up after 200 draws."""
    gens = []
    attempts = 0
    while len(gens) < n + extras and attempts < 200:
        attempts += 1
        u = [Fraction(int(v), 8) for v in rng.integers(-16, 17, size=n)]
        if all(v == 0 for v in u):
            continue
        g = svec(outer(u))
        if len(gens) < n:
            vecs = np.array([[float(v) for v in b] for b in gens + [g]])
            if abs(np.linalg.det(vecs @ vecs.T)) < 1e-6:
                continue
        gens.append(g)
    return gens


# ---------------------------------------------------------------------------
# String ids
# ---------------------------------------------------------------------------


# Most simplex-lattice points a descriptor's screen visits: the full
# degree-d lattice has C(n + d - 1, d) points (92,378 for orthant:10).
SCREEN_POINTS = 1000


def cone_from_descriptor(data) -> HyperCone:
    """Cone from its descriptor JSON: {"label", "polynomial", "e", "k"?}.

    A descriptor carries no flags: its cone is neither flagged minimal nor
    rank-one generated, whatever other keys it has, so a lattice mismatch
    refutes a map on it only at relaxation order d - 1, a halfspace.  The
    restrictions at the points of `simplex_lattice(nvars, k)` are
    screened, k the largest order up to the degree whose lattice has at
    most `SCREEN_POINTS` points (or 1): the first that is not real-rooted
    shows that p is not hyperbolic along e and raises InconclusiveError,
    as any point outside the hyperbolic regime does.  Passing the screen
    proves nothing.
    """
    p = HomoPoly.from_json_dict(data["polynomial"])
    cone = HyperCone(p, [as_fraction(v) for v in data["e"]], label=data.get("label", "cone"))
    k = p.degree
    while k > 1 and comb(p.nvars + k - 1, k) > SCREEN_POINTS:
        k -= 1
    for x in simplex_lattice(p.nvars, k).tolist():
        if not is_real_rooted(cone.restrict(x)):
            raise InconclusiveError(
                f"polynomial is not hyperbolic along e: at lattice point {tuple(x)} the "
                + NOT_REAL_ROOTED)
    if data.get("k"):
        return cone.derivative_cone(int(data["k"]))
    return cone


def parse_cone_id(cone_id: str):
    """Resolve ids like orthant:4, orthant:4:k=1, psd:3, soc:3, l1,
    spectrahedral:<file>, file:<descriptor.json>; a trailing :k=K selects
    the cone's k-th relaxation."""
    parts = cone_id.split(":")
    k = None
    if parts and parts[-1].startswith("k="):
        k = int(parts[-1][2:])
        parts = parts[:-1]
    if not parts:
        raise ValueError(f"empty cone id {cone_id!r}")
    kind = parts[0]
    if kind == "orthant":
        cone = orthant(_one_int(parts, cone_id))
    elif kind == "psd":
        cone = psd(_one_int(parts, cone_id))
    elif kind == "soc":
        cone = soc(_one_int(parts, cone_id))
    elif kind == "l1":
        if len(parts) != 1:
            raise ValueError(f"bad cone id {cone_id!r}")
        cone = l1_cone()
    elif kind == "spectrahedral":
        if len(parts) != 2:
            raise ValueError(f"bad cone id {cone_id!r}")
        cone = _spectrahedral_from_file(parts[1])
    elif kind == "file":
        if len(parts) != 2:
            raise ValueError(f"bad cone id {cone_id!r}")
        with open(parts[1]) as fh:
            cone = cone_from_descriptor(json.load(fh))
        if cone.k and k is not None:
            raise ValueError("descriptor already sets k; drop the :k= suffix")
    else:
        raise ValueError(f"unknown cone kind {kind!r}")
    if k is not None:
        return cone.derivative_cone(k)
    return cone


def _one_int(parts, cone_id) -> int:
    if len(parts) != 2:
        raise ValueError(f"bad cone id {cone_id!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise ValueError(f"bad dimension in cone id {cone_id!r}") from None


def _spectrahedral_from_file(path: str) -> HyperCone:
    with open(path) as fh:
        data = json.load(fh)
    mats = [
        [[as_fraction(v) for v in row] for row in m] for m in data["matrices"]
    ]
    xbar = [as_fraction(v) for v in data["xbar"]]
    return spectrahedral(mats, xbar, label=data.get("label", "spectrahedral"))
