"""Gallery constructors, svec conventions, string ids."""

import json
from fractions import Fraction as F
from math import factorial

import numpy as np
import pytest

from hypercones import cones, exactlin, gallery, spectrum
from hypercones.autgroup import LinearMap
from hypercones.cones import HyperCone
from hypercones.poly import HomoPoly, is_real_rooted, simplex_lattice
from hypercones.report import InconclusiveError, Membership


def descriptor(cone) -> dict:
    """The descriptor JSON of a cone, in the format that
    `gallery.cone_from_descriptor` reads: a relaxation is its root cone's
    descriptor plus its order `k`."""
    base = cone.base
    data = {"label": base.label, "polynomial": base.p.to_json_dict(),
            "e": [str(v) for v in base.e]}
    return {**data, "k": cone.k} if cone.k else data


def not_hyperbolic_polynomial() -> HomoPoly:
    """x0^4 - x0^2 x1^2 + x1^4 - x2^4, with p(e) = 1 at e = (1, 0, 0) but
    not hyperbolic along e: at (0, 1, 0) the restriction t^4 - t^2 + 1 has
    no real root."""
    return HomoPoly(3, 4, {(4, 0, 0): 1, (2, 2, 0): -1, (0, 4, 0): 1, (0, 0, 4): -1})


def not_hyperbolic_descriptor() -> dict:
    return {"label": "not-hyperbolic", "polynomial": not_hyperbolic_polynomial().to_json_dict(),
            "e": ["1", "0", "0"]}


class TestOrthant:
    def test_direction_interior(self):
        cone = gallery.orthant(4)
        assert cones.membership_exact(cone, cone.e) is Membership.IN

    def test_coordinate_point_rank_one(self):
        assert spectrum.rank_exact(gallery.orthant(4), (1, 0, 0, 0)) == 1

    def test_flags(self):
        cone = gallery.orthant(3)
        assert cone.rog_flag and cone.minimality_assumed
        assert cone.gallery.kind == "Orthant"

    def test_derivative_identity_all_orders(self):
        for n in range(3, 9):
            cone = gallery.orthant(n)
            for k in range(1, n):
                dc = cone.derivative_cone(k)
                assert dc.p == factorial(k) * gallery.elementary_symmetric(n, n - k)

    def test_built_once_per_dimension(self):
        assert gallery.orthant(4) is gallery.orthant(4)
        assert gallery.psd(3) is gallery.psd(3)
        assert gallery.orthant(4) is not gallery.orthant(5)

    def test_deriv_range(self):
        with pytest.raises(ValueError):
            gallery.orthant(4).derivative_cone(-1)
        with pytest.raises(ValueError):
            gallery.orthant(4).derivative_cone(4)


class TestExtremeRays:
    def test_rank_one_except_l1(self):
        for cone in (gallery.orthant(3), gallery.psd(3), gallery.soc(4)):
            rays = gallery.extreme_rays(cone)
            assert [spectrum.rank_exact(cone, r) for r in rays] == [1] * len(rays)
        l1 = gallery.l1_cone()
        assert [spectrum.rank_exact(l1, r) for r in gallery.extreme_rays(l1)] == [2] * 4

    def test_non_gallery_cone_rejected(self):
        cone = HyperCone(HomoPoly(3, 4, {(2, 1, 1): 1}), (1, 1, 1))
        with pytest.raises(ValueError):
            gallery.extreme_rays(cone)


def smat(vec, n):
    """The symmetric matrix of an svec vector, walked out by hand: the
    oracle for the library's index table."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = vec[i]
    pos = n
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = vec[pos]
            pos += 1
    return exactlin.as_matrix(rows)


def random_rational(rng, shape):
    return np.array(
        [F(int(a), int(b)) for a, b in zip(rng.integers(-9, 10, size=shape).flat,
                                           rng.integers(1, 6, size=shape).flat)],
        dtype=object,
    ).reshape(shape)


class TestSvec:
    def test_roundtrip(self):
        mat = ((1, 2, 3), (2, 4, 5), (3, 5, 6))
        assert smat(gallery.svec(mat), 3) == exactlin.as_matrix(mat)
        rng = np.random.default_rng(40)
        for n in (1, 2, 3, 4, 5):
            vec = tuple(random_rational(rng, gallery.svec_dim(n)))
            assert gallery.svec(smat(vec, n)) == vec

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            gallery.svec(((1, 2), (3, 4)))

    def test_index_layout(self):
        # diagonal first, then off-diagonal row-major
        mat = ((0, 3, 4), (3, 1, 5), (4, 5, 2))
        assert gallery.svec(mat) == tuple(range(6))
        assert gallery.svec_float(np.array(mat)).tolist() == list(range(6))

    def test_float_roundtrip(self):
        rng = np.random.default_rng(41)
        raw = rng.standard_normal((4, 4))
        sym = raw + raw.T
        assert np.array_equal(np.array(smat(gallery.svec_float(sym).tolist(), 4)), sym)

    def test_float_svec_of_a_stack(self):
        rng = np.random.default_rng(46)
        raw = rng.standard_normal((5, 3, 3))
        stack = raw + raw.transpose(0, 2, 1)
        assert gallery.svec_float(stack).tolist() == [
            gallery.svec_float(m).tolist() for m in stack
        ]


class TestSvecProduct:
    def test_congruence_is_exact(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                m = random_rational(rng, (n, n))
                raw = random_rational(rng, (n, n))
                x = raw + raw.T
                got = LinearMap(gallery.svec_product(m, m).tolist()).apply(gallery.svec(x))
                assert got == gallery.svec(m @ x @ m.T)
                assert all(type(v) is F for v in got)

    def test_flow_generator(self):
        rng = np.random.default_rng(48)
        for n in (2, 3, 4):
            eye = np.eye(n, dtype=object)
            for _ in range(10):
                w = random_rational(rng, (n, n))
                raw = random_rational(rng, (n, n))
                x = raw + raw.T
                gen = gallery.svec_product(w, eye) + gallery.svec_product(eye, w)
                assert tuple(gen @ np.array(gallery.svec(x), dtype=object)) == gallery.svec(
                    w @ x + x @ w.T
                )

    def test_float_rows_agree_with_exact(self):
        rng = np.random.default_rng(49)
        for n in (2, 3, 4):
            a, b = random_rational(rng, (n, n)), random_rational(rng, (n, n))
            exact = gallery.svec_product(a, b)
            approx = gallery.svec_product(a.astype(float), b.astype(float))
            assert approx.dtype == float
            assert np.allclose(approx, exact.astype(float), rtol=0, atol=1e-12)


class TestPSD:
    def test_det_polynomial_matches_numpy(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4):
            cone = gallery.psd(n)
            for _ in range(20):
                raw = rng.integers(-4, 5, size=(n, n))
                sym = tuple(
                    tuple(F(int(raw[i][j] + raw[j][i]), 2) for j in range(n))
                    for i in range(n)
                )
                det_exact = cone.p.eval(gallery.svec(sym))
                det_float = np.linalg.det(np.array([[float(v) for v in r] for r in sym]))
                assert float(det_exact) == pytest.approx(det_float, rel=1e-9, abs=1e-9)

    def test_identity_direction(self):
        cone = gallery.psd(3)
        spec = spectrum.eigenvalues(cone, cone.e)
        assert spec.eigenvalues == (1.0, 1.0, 1.0)

    def test_rank_one_outer_product(self):
        u = (F(2), F(-1), F(3))
        vec = gallery.svec(tuple(tuple(a * b for b in u) for a in u))
        assert spectrum.rank_exact(gallery.psd(3), vec) == 1

    def test_indefinite_matrix_outside(self):
        vec = gallery.svec(((1, 0, 0), (0, -1, 0), (0, 0, 1)))
        assert cones.membership_exact(gallery.psd(3), vec) is Membership.OUT

    def test_symbolic_cap(self):
        with pytest.raises(ValueError):
            gallery.psd(5)


class TestPSDDerivMember:
    def test_identity_in(self):
        assert gallery.psd_deriv_member(4, 1, [np.eye(4)]) == [Membership.IN]

    def test_boundary_diag_in(self):
        assert gallery.psd_deriv_member(4, 1, [np.diag([-1.0, 3, 3, 3])]) == [Membership.IN]

    def test_far_outside(self):
        assert gallery.psd_deriv_member(4, 1, [np.diag([-5.0, 1, 1, 1])]) == [Membership.OUT]

    def test_large_n_supported(self):
        assert gallery.psd_deriv_member(6, 2, [np.eye(6)]) == [Membership.IN]

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            gallery.psd_deriv_member(3, 1, [np.triu(np.ones((3, 3)))])
        # a stack is the only shape it takes
        with pytest.raises(ValueError, match="shape"):
            gallery.psd_deriv_member(3, 1, np.eye(3))

    def test_band_recheck_counts_as_in(self):
        # e_3 = 0 sits in the band, e_2 and e_1 are positive: In
        lam = np.array([0.0, 0.0, 1.0, 1.0])
        assert cones.contains_by_inequalities(gallery.orthant(4), 1, lam) is Membership.BOUNDARY
        assert gallery.psd_deriv_member(4, 1, [np.diag(lam)]) == [Membership.IN]

    def test_stack_matches_one_matrix_calls(self):
        rng = np.random.default_rng(26)
        for n, k in ((3, 1), (4, 1), (4, 2)):
            raws = rng.standard_normal((200, n, n))
            mats = [(raw + raw.T) / 2 for raw in raws]
            # a band value on the nonnegative side (In after the re-check),
            # one on the negative side (stays Boundary-ambiguous), In and Out
            mats += [np.diag([0.0] * (k + 1) + [1.0] * (n - k - 1)),
                     np.diag([-1e-12] + [0.0] * k + [1.0] * (n - k - 1)),
                     np.eye(n), np.diag([-5.0] + [1.0] * (n - 1))]
            stacked = gallery.psd_deriv_member(n, k, np.array(mats))
            assert len(stacked) == len(mats)
            for mat, got in zip(mats, stacked):
                assert [got] == gallery.psd_deriv_member(n, k, mat[None])
            assert set(stacked) == set(Membership)

    def test_stack_with_one_asymmetric_matrix_rejected(self):
        mats = np.array([np.eye(3), np.triu(np.ones((3, 3)))])
        with pytest.raises(ValueError):
            gallery.psd_deriv_member(3, 1, mats)


class TestSOC:
    def test_boundary_ray_rank_one(self):
        cone = gallery.soc(4)
        assert spectrum.rank_exact(cone, (1, 1, 0, 0), sturm_verify=True) == 1

    def test_interior(self):
        assert cones.membership_exact(gallery.soc(3), (2, 1, 0)) is Membership.IN

    def test_outside(self):
        assert cones.membership_exact(gallery.soc(3), (0, 1, 0)) is Membership.OUT

    def test_flags(self):
        assert gallery.soc(3).rog_flag


class TestL1:
    def test_boundary_point(self):
        assert cones.membership_exact(gallery.l1_cone(), (1, 0, 1)) is Membership.BOUNDARY

    def test_direction_spectrum(self):
        spec = spectrum.eigenvalues(gallery.l1_cone(), (0, 0, 1))
        assert spec.eigenvalues == (1.0, 1.0, 1.0, 1.0)

    def test_extreme_rays_have_rank_two(self):
        cone = gallery.l1_cone()
        for ray in ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)):
            assert spectrum.rank_exact(cone, ray, sturm_verify=True) == 2

    def test_not_flagged_rank_one_generated(self):
        cone = gallery.l1_cone()
        assert not cone.rog_flag and cone.minimality_assumed

    def test_first_relaxation_is_the_quadratic_cone(self):
        l1 = gallery.l1_cone()
        s3 = gallery.soc(3)
        rng = np.random.default_rng(43)
        dc = l1.derivative_cone(1)
        pts = rng.standard_normal((2000, 3))
        eigs1, res1 = spectrum.batch_eigenvalues(dc, pts)
        eigs2, res2 = spectrum.batch_eigenvalues(s3, pts[:, [2, 0, 1]])
        lam1, lam2 = eigs1[:, -1], eigs2[:, -1]
        decisive = (np.abs(lam1) > 1e-8 + res1) & (np.abs(lam2) > 1e-8 + res2)
        assert np.all((lam1[decisive] > 0) == (lam2[decisive] > 0))


class TestSpectrahedral:
    def test_representation_split(self):
        ray = (F(5), F(3), F(4))
        assert spectrum.rank_exact(gallery.soc3_slice_2x2(), ray) == 1
        assert spectrum.rank_exact(gallery.soc3_slice_3x3(), ray) == 2

    def test_identity_slice_matches_psd(self):
        n = 3

        def basis_mat(i, j):
            mat = [[F(0)] * n for _ in range(n)]
            mat[i][j] = mat[j][i] = F(1)
            return tuple(tuple(r) for r in mat)

        # svec coordinate order: diagonal entries first, then i < j row-major
        basis = [basis_mat(i, i) for i in range(n)]
        basis += [basis_mat(i, j) for i in range(n) for j in range(i + 1, n)]
        xbar = gallery.svec(exactlin.identity(n))
        cone = gallery.spectrahedral(basis, xbar, label="full-slice")
        assert cone.p == gallery.psd(n).p

    def test_rank_pairing(self):
        cone = gallery.soc3_slice_3x3()
        mats = [
            [[F(v) for v in row] for row in m]
            for m in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                      [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                      [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        ]
        rng = np.random.default_rng(44)
        for _ in range(100):
            x = tuple(F(int(v), 4) for v in rng.integers(-8, 9, size=3))
            pencil = [[sum(x[t] * mats[t][i][j] for t in range(3)) for j in range(3)]
                      for i in range(3)]
            matrix_rank = exactlin.rank(pencil)
            q = cone.restrict(x)
            zero_mult = next(i for i, c in enumerate(q) if c)
            hyperbolic_rank = cone.d - zero_mult
            assert hyperbolic_rank == matrix_rank

    def test_float_pencil_of_a_stack(self):
        # quarter-integer points and integer matrices: every float product
        # and sum is exact, so each slice must equal the rational pencil
        mats = [((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                ((0, 1, 0), (1, 0, 0), (0, 0, 0)),
                ((0, 0, 1), (0, 0, 0), (1, 0, -2))]
        rng = np.random.default_rng(45)
        pts = rng.integers(-8, 9, size=(20, 3)) / 4
        stack = gallery.pencil_matrix(mats, pts)
        assert stack.shape == (20, 3, 3) and stack.dtype == float
        for x, got in zip(pts, stack):
            want = [[float(sum(F(x[t]) * mats[t][i][j] for t in range(3))) for j in range(3)]
                    for i in range(3)]
            assert got.tolist() == want

    def test_rational_pencil(self):
        mats = [((1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (1, 0))]
        pts = [(F(1, 3), F(1, 2), F(-2, 7)), (F(1), F(0), F(5, 4))]
        stack = gallery.pencil_matrix(mats, pts)
        assert stack.shape == (2, 2, 2)
        assert stack.tolist() == [
            [[F(5, 6), F(-2, 7)], [F(-2, 7), F(-1, 6)]],
            [[F(1), F(5, 4)], [F(5, 4), F(1)]],
        ]
        assert all(type(v) is F for v in stack.flat)

    def test_degenerate_direction_rejected(self):
        a0 = ((1, 0), (0, 0))
        a1 = ((0, 0), (0, 1))
        with pytest.raises(ValueError):
            gallery.spectrahedral([a0, a1], (1, 0))  # pencil at xbar is singular

    def test_dependent_matrices_rejected(self):
        a0 = ((1, 0), (0, 1))
        with pytest.raises(ValueError):
            gallery.spectrahedral([a0, a0], (1, 1))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            gallery.spectrahedral([((1, 2), (0, 1))], (1,))


class TestConeIds:
    def test_plain_ids(self):
        assert gallery.parse_cone_id("orthant:4").label == "orthant:4"
        assert gallery.parse_cone_id("psd:3").label == "psd:3"
        assert gallery.parse_cone_id("soc:3").label == "soc:3"
        assert gallery.parse_cone_id("l1").label == "l1"

    def test_relaxation_suffix(self):
        dc = gallery.parse_cone_id("orthant:4:k=1")
        assert dc.base is not dc and dc.k == 1
        l1_relaxed = gallery.parse_cone_id("l1:k=1")
        assert l1_relaxed.base is not l1_relaxed and l1_relaxed.k == 1

    def test_bad_ids(self):
        for bad in ("orthant", "orthant:x", "nope:3", "l1:3", "orthant:4:k=9"):
            with pytest.raises(ValueError):
                gallery.parse_cone_id(bad)

    def test_descriptor_file_roundtrip(self, tmp_path):
        cone = gallery.l1_cone()
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(
            {**descriptor(cone), "minimality_assumed": True}
        ))
        again = gallery.parse_cone_id(f"file:{path}")
        assert again.p == cone.p and again.e == cone.e
        assert again.minimality_assumed and not again.rog_flag
        dc = gallery.parse_cone_id(f"file:{path}:k=1")
        assert dc.base is not dc and dc.k == 1

    def test_descriptor_not_hyperbolic_along_e_is_rejected(self):
        # 12 of the 15 degree-4 lattice points have a restriction that is
        # not real-rooted; the first in lattice order is named
        cone = HyperCone(not_hyperbolic_polynomial(), (1, 0, 0))
        failing = [x for x in simplex_lattice(3, 4).tolist() if not is_real_rooted(cone.restrict(x))]
        assert len(failing) == 12 and failing[0] == [3, 1, 0]
        for data in (not_hyperbolic_descriptor(), {**not_hyperbolic_descriptor(), "k": 1}):
            with pytest.raises(InconclusiveError, match=r"lattice point \(3, 1, 0\).*not real-rooted"):
                gallery.cone_from_descriptor(data)

    def test_descriptor_screen_visits_a_bounded_lattice(self, monkeypatch):
        visited = []
        monkeypatch.setattr(gallery, "is_real_rooted", lambda f: visited.append(f) or is_real_rooted(f))
        # orthant:10's degree-10 lattice has 92,378 points; the screen
        # visits the 715 of its degree-4 lattice
        cone = gallery.cone_from_descriptor(descriptor(gallery.orthant(10)))
        assert cone.p == gallery.orthant(10).p and len(visited) == 715 <= gallery.SCREEN_POINTS
        # the coarse lattice still meets the factor that is not hyperbolic
        # along e: x0^4 - x0^2 x1^2 + x1^4 - x2^4 times x3 ... x7 has 11,440
        # degree-9 lattice points, and the screen visits at most the 792
        # of degree 5
        visited.clear()
        terms = {(*a, 1, 1, 1, 1, 1): c for a, c in not_hyperbolic_polynomial().terms.items()}
        data = {"polynomial": HomoPoly(8, 9, terms).to_json_dict(), "e": ["1", "0", "0"] + ["1"] * 5}
        with pytest.raises(InconclusiveError, match="not real-rooted"):
            gallery.cone_from_descriptor(data)
        assert 0 < len(visited) <= 792

    def test_descriptor_file_with_embedded_relaxation(self, tmp_path):
        dc = gallery.orthant(4).derivative_cone(2)
        path = tmp_path / "relaxed.json"
        path.write_text(json.dumps(descriptor(dc)))
        again = gallery.parse_cone_id(f"file:{path}")
        assert again.base is not again
        assert again.k == 2 and again.p == dc.p
        with pytest.raises(ValueError):
            gallery.parse_cone_id(f"file:{path}:k=1")

    def test_spectrahedral_file(self, tmp_path):
        path = tmp_path / "slice.json"
        payload = {
            "matrices": [
                [["1", "0"], ["0", "1"]],
                [["1", "0"], ["0", "-1"]],
                [["0", "1"], ["1", "0"]],
            ],
            "xbar": ["1", "0", "0"],
            "label": "from-file",
        }
        path.write_text(json.dumps(payload))
        cone = gallery.parse_cone_id(f"spectrahedral:{path}")
        assert isinstance(cone, HyperCone)
        assert cone.label == "from-file"
        assert cone.p == gallery.soc3_slice_2x2().p
