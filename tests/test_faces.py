"""Facial machinery: ranks of sums, greedy chains, fixed minimal faces."""

from fractions import Fraction as F

import numpy as np
import pytest

from hypercones import exactlin, faces, gallery, spectrum
from hypercones.cones import HyperCone
from hypercones.poly import HomoPoly


def unit(i, n):
    return tuple(F(1 if j == i else 0) for j in range(n))


def outer(u):
    return tuple(tuple(a * b for b in u) for a in u)


def orthant_model(n):
    return faces.GeneratedFaceModel(gallery.orthant(n), [unit(i, n) for i in range(n)])


def psd_model(n, rng, extras=2):
    gens = []
    while len(gens) < n + extras:
        u = [F(int(v), 4) for v in rng.integers(-8, 9, size=n)]
        if all(v == 0 for v in u):
            continue
        gens.append(gallery.svec(outer(u)))
        if len(gens) <= n:
            vecs = np.array([[float(x) for x in g] for g in gens])
            if abs(np.linalg.det(vecs @ vecs.T)) < 1e-8:
                gens.pop()
    return faces.GeneratedFaceModel(gallery.psd(n), gens)


def rank_of_sum(cone, gens):
    """Rank of the minimal face containing the generators: the rank of
    their sum, which is how `build_chain` climbs."""
    total = tuple(sum(col, F(0)) for col in zip(*gens))
    return spectrum.rank_exact(cone, total, sturm_verify=True)


class TestFaceRank:
    def test_orthant_pair(self):
        assert rank_of_sum(gallery.orthant(4), [unit(0, 4), unit(1, 4)]) == 2

    def test_single_generator(self):
        assert rank_of_sum(gallery.orthant(4), [unit(2, 4)]) == 1

    def test_psd_independent_pair(self):
        u, v = (F(1), F(0), F(2)), (F(0), F(1), F(-1))
        gens = [gallery.svec(outer(u)), gallery.svec(outer(v))]
        assert rank_of_sum(gallery.psd(3), gens) == 2

    def test_invariant_under_reorder_and_rescale(self):
        cone = gallery.orthant(5)
        rng = np.random.default_rng(31)
        base = [unit(i, 5) for i in range(5)]
        for _ in range(50):
            picks = sorted(rng.choice(5, size=3, replace=False))
            scale = [F(int(s), 2) for s in rng.integers(1, 9, size=3)]
            gens_a = [base[i] for i in picks]
            gens_b = [
                tuple(c * v for v in base[i])
                for c, i in zip(scale, reversed(picks))
            ]
            assert rank_of_sum(cone, gens_a) == rank_of_sum(cone, gens_b)

    def test_independent_rank_one_pairs_sum_to_rank_two(self):
        cone = gallery.psd(3)
        rng = np.random.default_rng(32)
        done = 0
        while done < 1000:
            u = [F(int(v), 2) for v in rng.integers(-6, 7, size=3)]
            v = [F(int(x), 2) for x in rng.integers(-6, 7, size=3)]
            mu = np.array([float(a) for a in u])
            mv = np.array([float(a) for a in v])
            if np.linalg.norm(mu) < 1e-9 or np.linalg.norm(mv) < 1e-9:
                continue
            if abs(abs(mu @ mv) - np.linalg.norm(mu) * np.linalg.norm(mv)) < 1e-9:
                continue  # parallel: outer products are dependent
            s = tuple(
                a + b
                for a, b in zip(gallery.svec(outer(u)), gallery.svec(outer(v)))
            )
            assert spectrum.rank_exact(cone, s, sturm_verify=True) == 2
            done += 1


class TestBuildChain:
    def test_orthant_coordinates(self):
        chain = faces.build_chain(orthant_model(6), 0, seed=None)
        assert chain.ranks == [0, 1, 2, 3, 4, 5, 6]
        assert chain.picks[0] == 0
        assert len(set(chain.picks)) == 6

    def test_psd_random_basis(self):
        rng = np.random.default_rng(33)
        chain = faces.build_chain(psd_model(4, rng), 0, seed=None)
        assert chain.ranks == [0, 1, 2, 3, 4]

    def test_single_generator_fails_with_diagnostic(self):
        model = faces.GeneratedFaceModel(gallery.orthant(3), [unit(0, 3)])
        with pytest.raises(faces.ChainError):
            faces.build_chain(model, 0, seed=None)

    def test_non_rank_one_generator_rejected(self):
        cone = gallery.orthant(3)
        model = faces.GeneratedFaceModel(cone, [unit(0, 3), (1, 1, 0), unit(2, 3)])
        with pytest.raises(faces.ChainError):
            faces.build_chain(model, 0, seed=None)

    def test_seeded_shuffle_is_deterministic(self):
        rng = np.random.default_rng(34)
        model = psd_model(4, rng, extras=3)
        a = faces.build_chain(model, 0, seed=9)
        b = faces.build_chain(model, 0, seed=9)
        assert a.picks == b.picks and a.ranks == b.ranks

    def test_json_payload(self):
        chain = faces.build_chain(orthant_model(3), 0, seed=None)
        data = chain.to_json_dict()
        assert data["ranks"] == [0, 1, 2, 3]
        assert len(data["spectra"]) == 3


class TestRogCheck:
    def test_orthant_holds(self):
        assert faces.rog_check(orthant_model(3)).holds

    def test_weighted_realization_fails_at_first_coordinate(self):
        cone = HyperCone(HomoPoly(3, 4, {(2, 1, 1): 1}), (1, 1, 1))
        model = faces.GeneratedFaceModel(cone, [unit(i, 3) for i in range(3)])
        rep = faces.rog_check(model)
        assert rep.fails
        assert rep.witness == unit(0, 3)
        assert rep.details["rank"] == 2

    def test_psd_rank_one_generators(self):
        rng = np.random.default_rng(35)
        assert faces.rog_check(psd_model(3, rng)).holds

    def test_generator_outside_cone_rejected(self):
        with pytest.raises(ValueError):
            faces.GeneratedFaceModel(gallery.orthant(3), [(-1, 0, 0)])


class TestCompositionalConverse:
    """Automorphisms restrict to relaxations of the face at an eigenvector."""

    def test_interior_eigenvector_gives_relaxations_of_the_cone(self):
        from hypercones import autgroup
        from hypercones.autgroup import LinearMap

        cone = gallery.orthant(4)
        cand = LinearMap.scaled_permutation([2, 2, 2, 2], [1, 2, 3, 0])
        assert autgroup.check_automorphism(cone, cand).holds
        pf = autgroup.perron_face(cone, cand)
        assert pf.holds
        # one 4-cycle: the Perron vector is the all-ones direction, its
        # minimal face is the whole cone and the map passes every
        # relaxation check
        assert pf.details["face"] == [0, 1, 2, 3]
        for k in (1, 2):
            rep = autgroup.check_deriv_automorphism(cone, k, cand)
            assert rep.holds

    def test_boundary_eigenvector_restricts_to_a_face(self):
        from hypercones import autgroup
        from hypercones.autgroup import LinearMap

        cone = gallery.orthant(4)
        cand = LinearMap(exactlin.permutation([1, 0, 2, 3]))  # swaps the first two axes
        assert autgroup.check_automorphism(cone, cand).holds
        mf = autgroup.perron_face(cone, cand)
        assert mf.holds
        # the Perron vector (1, 1, 0, 0) lies on the boundary: its face is
        # the span of the swapped axes
        assert mf.details["support"] == [0, 1]
