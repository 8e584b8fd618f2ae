import copy
import itertools
import random
import re
import sys

import pytest

from liechar import (
    Character,
    DataValidationError,
    DivisionFailure,
    LiecharError,
    NonDominantError,
    NonInvariantError,
    RankMismatchError,
    characters,
    errors,
    formal_dual,
    frobenius_twist,
    steinberg_character,
    to_weyl_basis,
    weyl_character,
)
from liechar.characters import from_weyl_basis
from liechar.rootdata import CartanMatrix, RootSystem


def sl2_string(m):
    """Independent oracle: the weight string of the (m+1)-dimensional module."""
    return Character(1, {(m - 2 * k,): 1 for k in range(m + 1)})


def sl2_clebsch_gordan(a, b):
    """Independent oracle: chi(a) * chi(b) = sum of chi(a+b-2k)."""
    total = Character(1)
    for k in range(min(a, b) + 1):
        total = total + sl2_string(a + b - 2 * k)
    return total


class TestMultiply:
    def test_clebsch_gordan_small(self, rs_a1):
        chi1 = weyl_character((1,), rs_a1)
        assert (chi1 * chi1).support == {(2,): 1, (0,): 2, (-2,): 1}

    def test_zero_annihilates(self, rs_a1):
        chi = weyl_character((3,), rs_a1)
        assert not (chi * Character(1))

    def test_chi2_squared(self, rs_a1):
        chi2 = weyl_character((2,), rs_a1)
        product = chi2 * chi2
        assert product.dimension() == 9
        assert product == sl2_clebsch_gordan(2, 2)

    def test_against_oracle_grid(self, rs_a1):
        for a in range(6):
            for b in range(6):
                product = weyl_character((a,), rs_a1) * weyl_character((b,), rs_a1)
                assert product == sl2_clebsch_gordan(a, b)

    def test_rank_mismatch(self, rs_a1, rs_a2):
        with pytest.raises(RankMismatchError):
            weyl_character((1,), rs_a1) * weyl_character((1, 0), rs_a2)

    def test_commutative_associative_sampled(self, rs_a2):
        rng = random.Random(7)
        weights = list(itertools.product(range(3), repeat=2))
        for _ in range(5):
            a, b, c = (weyl_character(rng.choice(weights), rs_a2) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_dimension_multiplicative(self, rs_b2):
        for lam, mu in itertools.product(itertools.product(range(2), repeat=2), repeat=2):
            a = weyl_character(lam, rs_b2)
            b = weyl_character(mu, rs_b2)
            assert (a * b).dimension() == a.dimension() * b.dimension()

    def test_refuses_a_product_past_the_size_bound(self, rs_a1, monkeypatch):
        # 20,001 by 20,001 terms in a box of 87,520,001 slots: refused before
        # either product path builds a buffer.
        def unreachable(*args):
            pytest.fail("a product buffer was built")

        monkeypatch.setattr(characters, "_kronecker_operand", unreachable)
        monkeypatch.setattr(characters, "_loop_product", unreachable)
        chi = weyl_character((20000,), rs_a1)
        twisted = frobenius_twist(chi, 3, 7)
        message = "product of 20001 by 20001 weights is too large"
        with pytest.raises(LiecharError, match=message):
            twisted * chi

    def test_size_bound_needs_both_terms_and_slots(self, rs_a1, monkeypatch):
        # Under a bound of 100: 441 terms in 81 slots and 16 terms in 169
        # slots are formed; 441 terms in 161 slots are not.
        monkeypatch.setattr(characters, "MAX_WEYL_WEIGHTS", 100)
        chi20 = weyl_character((20,), rs_a1)
        chi3 = weyl_character((3,), rs_a1)
        assert chi20 * chi20 == sl2_clebsch_gordan(20, 20)
        assert (frobenius_twist(chi3, 3, 3) * chi3).dimension() == 16
        with pytest.raises(LiecharError, match="441 terms in a box of 161 slots"):
            frobenius_twist(chi20, 3, 1) * chi20


class TestWeylCharacter:
    def test_a1_strings(self, rs_a1):
        assert weyl_character((2,), rs_a1).support == {(2,): 1, (0,): 1, (-2,): 1}
        assert weyl_character((0,), rs_a1).support == {(0,): 1}

    def test_a2_adjoint(self, rs_a2):
        chi = weyl_character((1, 1), rs_a2)
        assert chi.dimension() == 8
        assert chi.get((0, 0)) == 2
        assert chi.get((1, 1)) == 1

    def test_rejects_non_dominant(self, rs_a2):
        with pytest.raises(NonDominantError):
            weyl_character((-1, 0), rs_a2)

    @pytest.mark.parametrize("name_fixture", ["rs_a2", "rs_b2", "rs_g2"])
    def test_dimension_matches_closed_formula(self, name_fixture, request):
        rs = request.getfixturevalue(name_fixture)
        for lam in itertools.product(range(3), repeat=2):
            assert weyl_character(lam, rs).dimension() == rs.weyl_dimension(lam)

    def test_support_reflection_stable(self, rs_b2):
        chi = weyl_character((1, 2), rs_b2)
        for i in range(2):
            reflected = {
                rs_b2.simple_reflection(i, w): m for w, m in chi.support.items()
            }
            assert reflected == chi.support

    def test_highest_weight_multiplicity_one(self, rs_g2):
        for lam in itertools.product(range(2), repeat=2):
            assert weyl_character(lam, rs_g2).get(lam) == 1

    def test_rejects_non_divisible_numerator(self, monkeypatch):
        # Without one of its six terms, the signed orbit of (2, 1) = (1, 0) + rho
        # is no multiple of the Weyl denominator.  Shifted by -rho, its term
        # -e^(2, -2) is alone on its string of the first positive root (-1, 2).
        rs = RootSystem(CartanMatrix.builtin("A2"))
        orbit = rs.signed_orbit

        def short_orbit(lam):
            signed = orbit(lam)
            del signed[lam]
            return signed

        monkeypatch.setattr(rs, "signed_orbit", short_orbit)
        with pytest.raises(DivisionFailure) as info:
            weyl_character((1, 0), rs)
        assert (info.value.weight, info.value.mult) == ((2, -2), -1)
        assert (1, 0) not in rs._weyl_char_cache

    @pytest.mark.parametrize(
        "name, lam", [("A1", (10**9,)), ("G2", (10**3, 10**3))]
    )
    def test_rejects_a_support_past_the_bound(self, name, lam):
        rs = RootSystem(CartanMatrix.builtin(name))
        with pytest.raises(LiecharError, match=re.escape(f"chi{lam} is too large")):
            weyl_character(lam, rs)
        assert lam not in rs._weyl_char_cache

    def test_size_bound_edge(self, monkeypatch):
        # On A1 the bound |W| * (m // 2 + 1) is m + 1 or m + 2: chi(9) has 10
        # weights and passes a limit of 10; chi(10), with 11, does not.
        monkeypatch.setattr(characters, "MAX_WEYL_WEIGHTS", 10)
        rs = RootSystem(CartanMatrix.builtin("A1"))
        assert len(weyl_character((9,), rs).support) == 10
        with pytest.raises(LiecharError, match=r"up to 12 weights, more than 10"):
            weyl_character((10,), rs)

    def test_cached_characters_are_read_only(self):
        rs = RootSystem(CartanMatrix.builtin("A1"))
        chi = weyl_character((1,), rs)
        with pytest.raises(TypeError):
            chi.support[(9,)] = 1
        with pytest.raises(TypeError):
            rs.weyl_denominator[(9,)] = 1
        for name, value in (("support", {}), ("rank", 2)):
            with pytest.raises(AttributeError):
                setattr(chi, name, value)
            with pytest.raises(AttributeError):
                delattr(chi, name)
        assert weyl_character((1,), rs).support == {(1,): 1, (-1,): 1}
        assert weyl_character((1,), rs).rank == 1
        assert (chi * weyl_character((0,), rs)) == chi
        assert copy.copy(chi) == chi


class TestFrobeniusTwist:
    def test_scales_weights(self, rs_a1):
        chi = weyl_character((1,), rs_a1)
        assert frobenius_twist(chi, 3, 1).support == {(3,): 1, (-3,): 1}

    def test_s_zero_is_identity(self, rs_a2):
        chi = weyl_character((2, 1), rs_a2)
        assert frobenius_twist(chi, 5, 0) == chi

    def test_zero_weight_fixed(self):
        chi = Character(1, {(0,): 5})
        assert frobenius_twist(chi, 2, 2) == chi

    def test_rejects_negative_exponent(self, rs_a1):
        with pytest.raises(ValueError):
            frobenius_twist(weyl_character((1,), rs_a1), 3, -1)

    @pytest.mark.parametrize("s", [9013, 10**9])
    def test_rejects_exponent_too_long_to_print(self, rs_a1, s):
        # 3**9013 has 4301 digits.  Computing 3**(10**9) would take minutes,
        # so the exponent is rejected before the power is formed.
        with pytest.raises(LiecharError, match=f"twist exponent {s} is too large"):
            frobenius_twist(weyl_character((1,), rs_a1), 3, s)

    def test_exponent_bound_without_a_digit_limit(self, rs_a1):
        # With the limit switched off (0), Python's default limit applies.
        chi = weyl_character((1,), rs_a1)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert frobenius_twist(chi, 3, 9012).get((3**9012,)) == 1
            with pytest.raises(LiecharError, match="more than 4300 digits"):
                frobenius_twist(chi, 3, 10**9)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_twist_is_ring_homomorphism(self, rs_a2):
        a = weyl_character((1, 0), rs_a2)
        b = weyl_character((1, 1), rs_a2)
        assert frobenius_twist(a * b, 2, 1) == frobenius_twist(a, 2, 1) * frobenius_twist(b, 2, 1)


class TestFormalDual:
    def test_a1_self_dual(self, rs_a1):
        chi = weyl_character((3,), rs_a1)
        assert formal_dual(chi) == chi

    def test_non_invariant_support(self):
        chi = Character(1, {(5,): 2})
        assert formal_dual(chi).support == {(-5,): 2}

    def test_a2_swaps_fundamentals(self, rs_a2):
        assert formal_dual(weyl_character((1, 0), rs_a2)) == weyl_character((0, 1), rs_a2)

    def test_involution(self, rs_b2):
        chi = weyl_character((2, 1), rs_b2)
        assert formal_dual(formal_dual(chi)) == chi


class TestToWeylBasis:
    def test_clebsch_gordan_inverse(self, rs_a1):
        chi = Character(1, {(2,): 1, (0,): 2, (-2,): 1})
        assert to_weyl_basis(chi, rs_a1) == {(2,): 1, (0,): 1}

    def test_virtual_singleton(self, rs_a1):
        assert to_weyl_basis(Character(1, {(0,): -1}), rs_a1) == {(0,): -1}

    def test_virtual_combination(self, rs_a1):
        chi = (
            weyl_character((4,), rs_a1)
            + weyl_character((0,), rs_a1)
            - weyl_character((2,), rs_a1)
        )
        assert to_weyl_basis(chi, rs_a1) == {(4,): 1, (2,): -1, (0,): 1}

    def test_detects_non_invariant(self, rs_a1):
        with pytest.raises(NonInvariantError):
            to_weyl_basis(Character(1, {(5,): 2}), rs_a1)

    @pytest.mark.parametrize("name_fixture", ["rs_a1", "rs_a2", "rs_b2"])
    def test_roundtrip_random_combinations(self, name_fixture, request):
        rs = request.getfixturevalue(name_fixture)
        rng = random.Random(11)
        weights = list(itertools.product(range(6), repeat=rs.rank))
        for _ in range(25):
            coeffs = {}
            for lam in rng.sample(weights, 5):
                coeffs[lam] = rng.randint(-3, 3)
            coeffs = {w: c for w, c in coeffs.items() if c}
            chi = from_weyl_basis(coeffs, rs)
            assert to_weyl_basis(chi, rs) == coeffs


class TestSteinbergCharacter:
    def test_a1_examples(self, rs_a1):
        assert steinberg_character(rs_a1, 3, 1) == weyl_character((2,), rs_a1)
        st = steinberg_character(rs_a1, 2, 2)
        assert st == weyl_character((3,), rs_a1)
        assert st.dimension() == 4

    def test_a2_dimension(self, rs_a2):
        st = steinberg_character(rs_a2, 2, 1)
        assert st == weyl_character((1, 1), rs_a2)
        assert st.dimension() == 2 ** len(rs_a2.positive_roots)


class TestSerialization:
    def test_roundtrip_sorted(self, rs_a2):
        chi = weyl_character((1, 1), rs_a2) - 2 * weyl_character((0, 0), rs_a2)
        doc = chi.to_json_dict()
        assert doc["rank"] == 2
        weights = [tuple(e["weight"]) for e in doc["entries"]]
        assert weights == sorted(weights)
        assert Character.from_json_dict(doc) == chi

    @pytest.mark.parametrize(
        "entry",
        [
            {"weight": [2], "mult": 1.7},
            {"weight": [2], "mult": True},
            {"weight": [2], "mult": "3"},
            {"weight": [1.9], "mult": 1},
        ],
    )
    def test_from_json_rejects_non_integers(self, entry):
        doc = {"rank": 1, "entries": [{"weight": [0], "mult": 1}, entry]}
        with pytest.raises(DataValidationError, match="must be an integer"):
            Character.from_json_dict(doc)

    def test_from_json_rejects_duplicate_weights(self):
        entries = [{"weight": [0], "mult": 1}, {"weight": [0], "mult": 2}]
        with pytest.raises(DataValidationError, match=r"duplicate weight \(0,\)"):
            Character.from_json_dict({"rank": 1, "entries": entries})

    def test_from_json_reads_each_weight_once(self, monkeypatch):
        entries = [{"weight": [w], "mult": 1} for w in (-2, 0, 2)]
        entries.append({"weight": [4], "mult": 0})
        expected = Character(1, {(-2,): 1, (0,): 1, (2,): 1})
        calls = []

        def counting(value, what):
            calls.append(value)
            return original(value, what)

        original = errors.strict_int_tuple
        monkeypatch.setattr(errors, "strict_int_tuple", counting)
        monkeypatch.setattr(characters, "strict_int_tuple", counting)
        assert Character.from_json_dict({"rank": 1, "entries": entries}) == expected
        assert calls == [e["weight"] for e in entries]

    @pytest.mark.parametrize("mult", [1, 0])
    def test_from_json_rejects_weight_of_wrong_length(self, mult):
        doc = {"rank": 2, "entries": [{"weight": [1], "mult": mult}]}
        message = r"^weight \(1,\) has length 1, expected 2$"
        with pytest.raises(RankMismatchError, match=message):
            Character.from_json_dict(doc)

    @pytest.mark.parametrize(
        "support", [{(2,): 1.7}, {(2,): True}, {(2,): "3"}, {(1.9,): 1}]
    )
    def test_constructor_rejects_non_integers(self, support):
        with pytest.raises(DataValidationError, match="must be an integer"):
            Character(1, support)

    def test_constructor_rejects_weight_of_wrong_length(self):
        with pytest.raises(RankMismatchError, match=r"\(1,\) has length 1, expected 2"):
            Character(2, {(1,): 1})

    def test_dimension(self, rs_a1):
        assert weyl_character((2,), rs_a1).dimension() == 3
        assert Character(1).dimension() == 0
