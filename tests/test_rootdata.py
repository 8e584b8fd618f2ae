import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    DataValidationError,
    LiecharError,
    NonDominantError,
    NotFiniteTypeError,
    RankMismatchError,
)
from liechar.rootdata import (
    BUILTIN_CARTAN_MATRICES,
    CartanMatrix,
    RootSystem,
    _form_matrix,
    _symmetrizer,
)

from test_kernel import (
    LARGER_CARTAN,
    PROPERTY,
    ROOT_SYSTEMS,
    fraction_inverse,
    reference_symmetrized_det,
    sign_valid_matrices,
)

# Sign-valid and zero-symmetric, but d_1 a_01 = d_0 a_10 and d_2 a_12 = d_1 a_21
# force d = (1, 1, 2), which fails at (0,2); its third leading minor is -7.
NON_SYMMETRIZABLE = ((2, -1, -2), (-1, 2, -1), (-1, -2, 2))


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
        # The elimination runs first: a negative leading minor rules out every
        # positive definite symmetrization, whether or not there is one.
        with pytest.raises(
            NotFiniteTypeError,
            match="leading principal minor 3 is -7, so no symmetrization of the "
            r"matrix is positive definite \(not finite type\)",
        ):
            CartanMatrix(NON_SYMMETRIZABLE)

    @pytest.mark.parametrize(
        "matrix, entry",
        [
            (NON_SYMMETRIZABLE, "(0,1)"),
            # adj_01 and adj_10 differ in sign: no positive ratio d_1 / d_0.
            (((2, -3, -1, 0), (-2, 2, -3, 0), (-3, -2, 2, -3), (0, 0, -2, 2)), "(1,0)"),
            # adj_02 is 0 and adj_20 is not: no ratio d_2 / d_0 at all.
            (((2, -3, -3, 0), (-2, 2, -1, -3), (-3, -2, 2, 0), (0, -2, 0, 2)), "(2,0)"),
        ],
    )
    def test_symmetrizer_refuses_non_symmetrizable(self, matrix, entry):
        # CartanMatrix refuses these matrices before their symmetrizer is
        # read, so the adjugate is passed in: the inverse times the lcm of its
        # denominators, a nonzero multiple with the same ratios.
        inverse = fraction_inverse(matrix)
        scale = math.lcm(*(x.denominator for row in inverse for x in row))
        adj = [[int(x * scale) for x in row] for row in inverse]
        with pytest.raises(NotFiniteTypeError, match="not symmetrizable") as e:
            _symmetrizer(matrix, adj)
        assert str(e.value).endswith(f"at entry {entry}")

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

    @pytest.mark.parametrize(
        "doc", [[[2]], {"type": ["A1"]}, {"matrix": 5}, {"rank": 2, "matrix": 7}]
    )
    def test_from_json_rejects_malformed_documents(self, doc):
        with pytest.raises(NotFiniteTypeError):
            CartanMatrix.from_json_dict(doc)

    @pytest.mark.parametrize("rank", [True, "2", 2.0])
    def test_from_json_rejects_a_rank_that_is_not_an_integer(self, rank):
        with pytest.raises(DataValidationError, match="rank must be an integer"):
            CartanMatrix.from_json_dict({"rank": rank, "matrix": [[2, -1], [-1, 2]]})
        with pytest.raises(DataValidationError, match="rank must be an integer"):
            CartanMatrix.from_json_dict({"rank": rank, "matrix": [[2]]})

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
            assert rs.dual_weight(rs.dual_weight(w)) == w


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
        assert set(rs_a1.signed_orbit((2,))) == {(2,), (-2,)}
        assert set(rs_a1.signed_orbit((0,))) == {(0,)}

    def test_a2_regular_orbit(self, rs_a2):
        assert len(set(rs_a2.signed_orbit((1, 1)))) == 6

    def test_b2_regular_orbit(self, rs_b2):
        assert len(set(rs_b2.signed_orbit((1, 1)))) == 8

    @pytest.mark.parametrize("name", ["A2", "B2", "G2"])
    def test_exactly_one_dominant_element(self, name):
        rs = RootSystem(CartanMatrix.builtin(name))
        for lam in itertools.product(range(3), repeat=rs.rank):
            orbit = set(rs.signed_orbit(lam))
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

    @pytest.mark.parametrize("lam", [(-1, 0), (2, -1)])
    def test_rejects_non_dominant(self, rs_a2, lam):
        with pytest.raises(NonDominantError, match=re.escape(f"{lam} is not dominant")):
            rs_a2.weyl_dimension(lam)

    def test_rejects_non_integral_dimension(self, monkeypatch):
        # Over alpha_1 + alpha_2 alone, the product for (1, 0) is 9/6.
        rs = RootSystem(CartanMatrix.builtin("A2"))
        monkeypatch.setattr(rs, "positive_roots", ((1, 1),))
        with pytest.raises(LiecharError, match=r"\(1, 0\)"):
            rs.weyl_dimension((1, 0))


@pytest.mark.parametrize("lam", [(-1, 0), (2, -1)])
def test_count_dominant_below_rejects_non_dominant(rs_a2, lam):
    with pytest.raises(NonDominantError, match=re.escape(f"{lam} is not dominant")):
        rs_a2.count_dominant_below(lam)


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


# -- integer set-up against the Fraction references ------------------------


def block_sum(*matrices):
    """The Cartan matrix of the reducible system with these components."""
    n = sum(map(len, matrices))
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for matrix in matrices:
        for i, row in enumerate(matrix):
            rows[offset + i][offset : offset + len(row)] = row
        offset += len(matrix)
    return tuple(map(tuple, rows))


B2_LONG_LAST = ((2, -1), (-2, 2))
SETUP_CARTAN = {
    **BUILTIN_CARTAN_MATRICES,
    **{name: matrix for name, (matrix, _) in LARGER_CARTAN.items()},
    "B2+A2": block_sum(BUILTIN_CARTAN_MATRICES["B2"], BUILTIN_CARTAN_MATRICES["A2"]),
    "A1+C3": block_sum(BUILTIN_CARTAN_MATRICES["A1"], LARGER_CARTAN["C3"][0]),
    "G2+B2'+A1": block_sum(
        BUILTIN_CARTAN_MATRICES["G2"], B2_LONG_LAST, BUILTIN_CARTAN_MATRICES["A1"]
    ),
}


def reference_symmetrizer(entries):
    """Positive Fractions d, 1 at the first node of each component, with
    d_j * a_ij = d_i * a_ji."""
    n = len(entries)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and entries[i][j] and d[j] is None:
                    d[j] = d[i] * entries[j][i] / entries[i][j]
                    queue.append(j)
    return tuple(d)


def reference_form_matrix(adj, det, symmetrizer):
    """(omega_i, omega_j) times the least integer clearing every denominator."""
    gram = [[Fraction(a, det) * d for a, d in zip(row, symmetrizer)] for row in adj]
    scale = math.lcm(*(x.denominator for row in gram for x in row))
    return tuple(tuple(int(x * scale) for x in row) for row in gram)


@pytest.mark.parametrize("name", sorted(SETUP_CARTAN))
def test_integer_symmetrizer_and_form_match_fractions(name):
    cartan = CartanMatrix(SETUP_CARTAN[name])
    a, d = cartan.entries, cartan.symmetrizer
    assert all(type(x) is int and x > 0 for x in d)
    for i, j in itertools.product(range(cartan.rank), repeat=2):
        assert d[j] * a[i][j] == d[i] * a[j][i]
    reference = reference_symmetrizer(a)
    scale = math.lcm(*(x.denominator for x in reference))
    assert d == tuple(x * scale for x in reference)
    form = reference_form_matrix(cartan.adjugate, cartan.det, reference)
    assert _form_matrix(cartan.adjugate, d) == form
    if name != "E8":  # RootSystem refuses E8's Weyl group order
        assert RootSystem(cartan)._form == form


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sign_valid_matrices())
def test_cartan_matrix_accepts_exactly_the_reference_finite_types(matrix):
    reference = reference_symmetrizer(matrix)
    symmetrizes = all(
        reference[j] * matrix[i][j] == reference[i] * matrix[j][i]
        for i, j in itertools.product(range(len(matrix)), repeat=2)
    )
    if not symmetrizes or reference_symmetrized_det(matrix, reference) is None:
        with pytest.raises(NotFiniteTypeError):
            CartanMatrix(matrix)
        return
    scale = math.lcm(*(x.denominator for x in reference))
    assert CartanMatrix(matrix).symmetrizer == tuple(x * scale for x in reference)


def test_b2_symmetrizer_is_integral():
    assert CartanMatrix.builtin("B2").symmetrizer == (2, 1)


@pytest.mark.parametrize("name", sorted(set(SETUP_CARTAN) - {"E8"}))
def test_positive_roots_match_the_fraction_filter(name):
    rs = RootSystem(SETUP_CARTAN[name])
    roots = set().union(*map(rs.signed_orbit, rs.cartan.entries))
    positive = [r for r in roots if all(c >= 0 for c in rs.root_coords(r))]
    assert rs.positive_roots == tuple(sorted(positive))


# -- -w0 as a coordinate permutation ----------------------------------------

DUAL_SYSTEMS = {
    **ROOT_SYSTEMS,
    **{name: RootSystem(SETUP_CARTAN[name]) for name in ("A3", "D4", "B2+A2")},
}


def reference_dual_weight(rs, nu):
    """-w0(nu) by w0's reflection word, the one taking -rho to rho."""
    word = []
    v = tuple(-c for c in rs.rho)
    while not rs.is_dominant(v):
        i = next(j for j in range(rs.rank) if v[j] < 0)
        v = rs.simple_reflection(i, v)
        word.append(i)
    for i in word:
        nu = rs.simple_reflection(i, nu)
    return tuple(-c for c in nu)


@st.composite
def dual_cases(draw):
    rs = DUAL_SYSTEMS[draw(st.sampled_from(sorted(DUAL_SYSTEMS)))]
    return rs, draw(st.tuples(*[st.integers(-6, 6)] * rs.rank))


@PROPERTY
@given(dual_cases())
def test_dual_weight_is_the_reflection_word_action(case):
    rs, nu = case
    assert rs.dual_weight(nu) == reference_dual_weight(rs, nu)


@pytest.mark.parametrize("name", sorted(DUAL_SYSTEMS))
def test_dual_weight_checks_rank(name):
    rs = DUAL_SYSTEMS[name]
    with pytest.raises(RankMismatchError):
        rs.dual_weight((0,) * (rs.rank + 1))
