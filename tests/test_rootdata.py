import itertools

import pytest

from liechar import (
    DataValidationError,
    LiecharError,
    NotFiniteTypeError,
    RankMismatchError,
)
from liechar.rootdata import BUILTIN_CARTAN_MATRICES, CartanMatrix, RootSystem


class TestCartanMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(NotFiniteTypeError):
            CartanMatrix([[2, -1]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(NotFiniteTypeError, match=r"\(1,1\)"):
            CartanMatrix([[2, -1], [-1, 3]])

    def test_rejects_positive_off_diagonal(self):
        with pytest.raises(NotFiniteTypeError, match=r"\(0,1\)"):
            CartanMatrix([[2, 1], [1, 2]])

    def test_rejects_asymmetric_vanishing(self):
        with pytest.raises(NotFiniteTypeError, match="vanishing"):
            CartanMatrix([[2, 0], [-1, 2]])

    def test_rejects_affine_matrix(self):
        # Affine A1: symmetrizable but only positive semidefinite.
        with pytest.raises(NotFiniteTypeError, match="positive definite"):
            CartanMatrix([[2, -2], [-2, 2]])

    def test_rejects_twisted_affine_matrix(self):
        # Twisted affine A2: its second leading principal minor is 0.
        with pytest.raises(NotFiniteTypeError, match="positive definite"):
            CartanMatrix([[2, -1], [-4, 2]])

    def test_rejects_non_symmetrizable(self):
        with pytest.raises(NotFiniteTypeError):
            CartanMatrix([[2, -1, -2], [-1, 2, -1], [-1, -2, 2]])

    def test_unknown_builtin(self):
        with pytest.raises(NotFiniteTypeError, match="unknown built-in"):
            CartanMatrix.builtin("E8")

    def test_from_json_by_type(self):
        cm = CartanMatrix.from_json_dict({"type": "A2"})
        assert cm.entries == BUILTIN_CARTAN_MATRICES["A2"]

    def test_from_json_by_matrix(self):
        cm = CartanMatrix.from_json_dict({"rank": 1, "matrix": [[2]]})
        assert cm.rank == 1

    @pytest.mark.parametrize("entry", [-1.5, True, "-1"])
    def test_from_json_rejects_non_integers(self, entry):
        with pytest.raises(DataValidationError, match="must be an integer"):
            CartanMatrix.from_json_dict({"rank": 2, "matrix": [[2, entry], [-1, 2]]})

    @pytest.mark.parametrize("doc", [[[2]], {"type": ["A1"]}])
    def test_from_json_rejects_malformed_documents(self, doc):
        with pytest.raises(NotFiniteTypeError):
            CartanMatrix.from_json_dict(doc)

    def test_from_json_rank_mismatch(self):
        with pytest.raises(NotFiniteTypeError, match="rank"):
            CartanMatrix.from_json_dict({"rank": 2, "matrix": [[2]]})


class TestBuildRootSystem:
    def test_a1(self, rs_a1):
        assert rs_a1.rank == 1
        assert rs_a1.positive_roots == ((2,),)
        assert rs_a1.rho == (1,)

    def test_a2(self, rs_a2):
        assert len(rs_a2.positive_roots) == 3

    def test_b2(self, rs_b2):
        assert len(rs_b2.positive_roots) == 4

    def test_g2(self, rs_g2):
        assert len(rs_g2.positive_roots) == 6

    @pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN_MATRICES))
    def test_w0_is_involution(self, name):
        rs = RootSystem(CartanMatrix.builtin(name))
        for w in itertools.product(range(-2, 3), repeat=rs.rank):
            assert rs.w0_action(rs.w0_action(w)) == w


class TestDominance:
    def test_a1_examples(self, rs_a1):
        assert rs_a1.dominance_leq((0,), (2,))
        assert not rs_a1.dominance_leq((1,), (2,))

    def test_a2_example(self, rs_a2):
        assert rs_a2.dominance_leq((0, 0), (1, 1))

    def test_rank_mismatch(self, rs_a2):
        with pytest.raises(RankMismatchError):
            rs_a2.dominance_leq((0,), (1, 1))

    def test_partial_order_on_grid(self, rs_a2):
        grid = list(itertools.product(range(4), repeat=2))
        for lam in grid:
            assert rs_a2.dominance_leq(lam, lam)
        for mu, lam in itertools.product(grid, repeat=2):
            if mu != lam:
                assert not (
                    rs_a2.dominance_leq(mu, lam) and rs_a2.dominance_leq(lam, mu)
                )
        for a, b, c in itertools.product(grid, repeat=3):
            if rs_a2.dominance_leq(a, b) and rs_a2.dominance_leq(b, c):
                assert rs_a2.dominance_leq(a, c)


class TestWeylOrbit:
    def test_a1_examples(self, rs_a1):
        assert rs_a1.weyl_orbit((2,)) == {(2,), (-2,)}
        assert rs_a1.weyl_orbit((0,)) == {(0,)}

    def test_a2_regular_orbit(self, rs_a2):
        assert len(rs_a2.weyl_orbit((1, 1))) == 6

    def test_b2_regular_orbit(self, rs_b2):
        assert len(rs_b2.weyl_orbit((1, 1))) == 8

    @pytest.mark.parametrize("name", ["A2", "B2", "G2"])
    def test_exactly_one_dominant_element(self, name):
        rs = RootSystem(CartanMatrix.builtin(name))
        for lam in itertools.product(range(3), repeat=rs.rank):
            orbit = rs.weyl_orbit(lam)
            dominant = [w for w in orbit if rs.is_dominant(w)]
            assert dominant == [lam]

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
    def test_simple_reflection(self, name):
        # Row i of the Cartan matrix is alpha_i in fundamental-weight
        # coordinates: s_i alpha_i = -alpha_i, s_i omega_j = omega_j for
        # j != i, and s_i is an involution that preserves the form.
        rs = RootSystem(CartanMatrix.builtin(name))
        rows = rs.cartan.entries
        for i in range(rs.rank):
            assert rs.simple_reflection(i, tuple(rows[i])) == tuple(-a for a in rows[i])
            for j in range(rs.rank):
                omega = tuple(int(k == j) for k in range(rs.rank))
                image = rs.simple_reflection(i, omega)
                if j != i:
                    assert image == omega
                else:
                    assert image == tuple(a - b for a, b in zip(omega, rows[i]))
            for w in itertools.product(range(-2, 3), repeat=rs.rank):
                image = rs.simple_reflection(i, w)
                assert rs.simple_reflection(i, image) == w
                assert rs.bilinear(image, image) == rs.bilinear(w, w)


class TestDualWeight:
    def test_examples(self, rs_a1, rs_a2, rs_b2):
        assert rs_a1.dual_weight((3,)) == (3,)
        assert rs_a2.dual_weight((1, 0)) == (0, 1)
        assert rs_b2.dual_weight((2, 1)) == (2, 1)

    @pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN_MATRICES))
    def test_involution_preserving_dominance(self, name):
        rs = RootSystem(CartanMatrix.builtin(name))
        for lam in itertools.product(range(4), repeat=rs.rank):
            dual = rs.dual_weight(lam)
            assert rs.is_dominant(dual)
            assert rs.dual_weight(dual) == lam


class TestRestrictedWeights:
    def test_a1_examples(self, rs_a1):
        assert rs_a1.restricted_weights(2, 1) == [(0,), (1,)]
        assert rs_a1.restricted_weights(3, 2) == [(k,) for k in range(9)]

    def test_a2_count_and_order(self, rs_a2):
        weights = rs_a2.restricted_weights(2, 1)
        assert weights == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert weights == sorted(weights)

    def test_count_formula(self, rs_b2):
        assert len(rs_b2.restricted_weights(3, 2)) == 3 ** (2 * 2)

    def test_rejects_bad_arguments(self, rs_a1):
        with pytest.raises(ValueError):
            rs_a1.restricted_weights(0, 1)
        with pytest.raises(ValueError):
            rs_a1.restricted_weights(3, 0)

    @pytest.mark.parametrize("name, p, r", [("A1", 2, 20), ("A2", 1009, 1)])
    def test_refuses_more_than_the_weight_limit(self, name, p, r):
        # 2^20 and 1009^2 are just past 10^6.
        rs = RootSystem(CartanMatrix.builtin(name))
        with pytest.raises(LiecharError, match="number more than 1000000"):
            rs.restricted_weights(p, r)

    def test_refuses_a_long_r_before_computing_p_to_the_r(self, rs_a1):
        # 3**(10**9) would not finish; this p fails the test instead.
        class NoPower(int):
            def __pow__(self, exponent):
                raise AssertionError(f"computed {int(self)}**{exponent}")

        with pytest.raises(LiecharError, match="3\\^1000000000-restricted"):
            rs_a1.restricted_weights(NoPower(3), 10**9)

    def test_steinberg_weight(self, rs_g2):
        assert rs_g2.steinberg_weight(3, 2) == (8, 8)


class TestWeylDimension:
    def test_a2_fundamentals(self, rs_a2):
        assert rs_a2.weyl_dimension((1, 0)) == 3
        assert rs_a2.weyl_dimension((0, 1)) == 3
        assert rs_a2.weyl_dimension((1, 1)) == 8

    @pytest.mark.parametrize("name", sorted(BUILTIN_CARTAN_MATRICES))
    def test_rho_dimension(self, name):
        # dim of the rho-weight module is 2^{number of positive roots}.
        rs = RootSystem(CartanMatrix.builtin(name))
        assert rs.weyl_dimension(rs.rho) == 2 ** len(rs.positive_roots)

    def test_rejects_non_integral_dimension(self, monkeypatch):
        # Over alpha_1 + alpha_2 alone, the product for (1, 0) is 9/6.
        rs = RootSystem(CartanMatrix.builtin("A2"))
        monkeypatch.setattr(rs, "positive_roots", ((1, 1),))
        with pytest.raises(LiecharError, match=r"\(1, 0\)"):
            rs.weyl_dimension((1, 0))


def test_dominant_weights_below(rs_a2):
    below = rs_a2.dominant_weights_below((1, 1))
    assert below == [(0, 0), (1, 1)]
    assert rs_a2.dominant_weights_below((2, 2)) == [
        (0, 0),
        (0, 3),
        (1, 1),
        (2, 2),
        (3, 0),
    ]
