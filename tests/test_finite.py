import functools
import itertools
import operator
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    CartanMatrix,
    Character,
    DecompositionProvider,
    LiecharError,
    NonInvariantError,
    RankMismatchError,
    RootSystem,
    character_divide,
    decomp,
    finite,
    finite_composition_multiplicities,
    finite_simple_multiplicities,
    frobenius_twist,
    load_decomposition_data,
    nu_bound,
    pims,
    steinberg_character,
    steinberg_multiplicity,
    weyl_character,
)
from liechar.characters import leading_dominant_weights, to_weyl_basis
from liechar.decomp import weight_digits
from liechar.finite import STEINBERG_METHODS, contributing_nus

from test_decomp import a2_p2_document
from test_kernel import PROPERTY, invariant_characters


def wide_box_nus(max_weights, base, p, r, rs):
    """Reference for contributing_nus, independent of its coordinate box.

    base + p^r nu <= m + nu means that m - base - (p^r - 1) nu is a sum of
    positive roots, so (p^r - 1) * height(nu) <= height(m - base).  Every
    dominant nu meeting that height bound for some m is returned, with no
    dominance filter: a superset of the nu that can contribute.
    """
    top = max(
        (rs.scaled_height(tuple(a - b for a, b in zip(m, base))) for m in max_weights),
        default=-1,
    )
    if top < 0:
        return []
    units = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    ranges = [range(top // rs.scaled_height(unit) + 1) for unit in units]
    return [
        nu
        for nu in itertools.product(*ranges)
        if (p**r - 1) * rs.scaled_height(nu) <= top
    ]


def exact_contributing_nus(max_weights, base, p, r, rs):
    """The nu of wide_box_nus that meet base + p^r nu <= m + nu for some m."""
    return [
        nu
        for nu in wide_box_nus(max_weights, base, p, r, rs)
        if any(
            rs.dominance_leq(
                tuple(b + p**r * n for b, n in zip(base, nu)),
                tuple(a + n for a, n in zip(m, nu)),
            )
            for m in max_weights
        )
    ]


def use_wide_box(monkeypatch):
    """Run every sum over nu on wide_box_nus, at both bindings of
    contributing_nus.  Returns the list of (kept, candidates) per call, where
    kept is what contributing_nus itself returns for the same arguments."""
    calls = []
    narrow = finite.contributing_nus

    def oracle(max_weights, base, p, r, rs):
        candidates = wide_box_nus(max_weights, base, p, r, rs)
        calls.append((narrow(max_weights, base, p, r, rs), candidates))
        return candidates

    monkeypatch.setattr(finite, "contributing_nus", oracle)
    monkeypatch.setattr(pims, "contributing_nus", oracle)
    return calls


def oracle_covers(calls):
    return all(set(kept) <= set(candidates) for kept, candidates in calls)


class TestFiniteCompositionMultiplicities:
    def test_weyl_three(self, prov3):
        chi = weyl_character((3,), prov3.rs)
        assert finite_composition_multiplicities(chi, 1, prov3) == {(1,): 2}

    def test_weyl_four(self, prov3):
        chi = weyl_character((4,), prov3.rs)
        assert finite_composition_multiplicities(chi, 1, prov3) == {(2,): 1, (0,): 2}

    def test_restricted_simple(self, prov3):
        chi = weyl_character((2,), prov3.rs)
        assert finite_composition_multiplicities(chi, 1, prov3) == {(2,): 1}

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_dimension_bookkeeping(self, p, r):
        # Restriction preserves dimension for genuine module characters.
        provider = DecompositionProvider.builtin_sl2(p)
        for m in range(3 * p**r):
            chi = weyl_character((m,), provider.rs)
            mults = finite_composition_multiplicities(chi, r, provider)
            assert all(v >= 0 for v in mults.values())
            total = sum(
                v * provider.simple_character(lam).dimension()
                for lam, v in mults.items()
            )
            assert total == chi.dimension()

    @pytest.mark.parametrize("r", [1, 2])
    def test_dimension_bookkeeping_rank_two(self, r):
        # The same on A2 at p = 2, where untwisting multiplies characters
        # whose weights have multiplicities, for every simple L(mu) with
        # mu <= (7, 7) coordinatewise.
        provider = load_decomposition_data(a2_p2_document())
        for mu in itertools.product(range(8), repeat=2):
            mults = finite_simple_multiplicities(mu, r, provider)
            assert all(v >= 0 for v in mults.values()), mu
            total = sum(
                v * provider.simple_character(lam).dimension()
                for lam, v in mults.items()
            )
            assert total == provider.simple_character(mu).dimension(), mu

    def test_keys_are_restricted(self, prov3):
        chi = weyl_character((17,), prov3.rs)
        for (m,) in finite_composition_multiplicities(chi, 1, prov3):
            assert 0 <= m < 3


def untwisting_reference(mu, r, provider):
    """[L(mu) : L(lam)]_{G(F_q)} by the base-p untwisting: the restriction of
    the product of ch L(mu_i)^[p^(i mod r)] over the base-p digits mu_i of mu,
    in place of the product of the q-restricted ch L(mu_k)."""
    p = provider.p
    product = Character(provider.rs.rank, {(0,) * provider.rs.rank: 1})
    for i, digit in enumerate(weight_digits(mu, p)):
        product = product * frobenius_twist(provider.simple_character(digit), p, i % r)
    return finite_composition_multiplicities(product, r, provider)


def digit_weights(rank, q, digits):
    """Every weight whose coordinates have base-q digits (low first) from
    the rows of digits, one row per digit position."""
    coords = {
        sum(d * q**k for k, d in enumerate(ds)) for ds in itertools.product(*digits)
    }
    return list(itertools.product(sorted(coords), repeat=rank))


def untwisting_cases():
    """(provider, r, weights) on A1 at p = 2, 3, 5 with r = 1, 2, 3, and on
    A2 at p = 2 with r = 1, 2.  Each list includes weights with three base-q
    digits, and in rank 1 every weight below 2q as well."""
    for p, r in itertools.product((2, 3, 5), (1, 2, 3)):
        q = p**r
        provider = DecompositionProvider.builtin_sl2(p)
        small = sorted({0, 1, p - 1, p, q - 1})
        sparse = digit_weights(1, q, [small, small, [1, 2]])
        yield provider, r, sorted(set(sparse) | {(m,) for m in range(2 * q)})
    provider = load_decomposition_data(a2_p2_document())
    yield provider, 1, digit_weights(2, 2, [(0, 1)] * 3)
    yield provider, 2, digit_weights(2, 4, [(0, 1, 3), (0, 2), (0, 1)])


class TestUntwisting:
    def test_single_twist_drops(self, prov3):
        # L(3) = L(1)^{(1)} restricts to L(1) over F_3.
        assert finite_simple_multiplicities((3,), 1, prov3) == {(1,): 1}

    def test_twist_reduced_mod_r(self):
        provider = DecompositionProvider.builtin_sl2(2)
        # L(4) = L(1)^{(2)}; over F_4 the square of Frobenius is trivial.
        assert finite_simple_multiplicities((4,), 2, provider) == {(1,): 1}

    def test_p3_r2(self):
        provider = DecompositionProvider.builtin_sl2(3)
        assert finite_simple_multiplicities((9,), 2, provider) == {(1,): 1}

    def test_restricted_is_delta(self, prov3):
        assert finite_simple_multiplicities((2,), 1, prov3) == {(2,): 1}

    def test_cache_shared_across_r(self):
        # L(5) = L(2) x L(1)^{(1)} = L(3) + 2 L(1) over F_3, and L(3) gives
        # one more L(1); over F_9, 5 is restricted.  The memo is keyed by
        # (r, mu) alone, since p is the provider's.
        provider = DecompositionProvider.builtin_sl2(3)
        assert finite_simple_multiplicities((5,), 2, provider) == {(5,): 1}
        assert finite_simple_multiplicities((5,), 1, provider) == {(1,): 3}
        assert finite_simple_multiplicities((5,), 2, provider) == {(5,): 1}
        assert set(provider._finite_cache) >= {(1, (5,)), (2, (5,))}

    def test_size_bound_on_a_base_q_digit(self):
        # Over F_9, 13 has the base-9 digits 4 and 1, and L(4) = L(1) L(1)^(1)
        # has 2 * 2 weights: one past the limit is refused before any product.
        provider = DecompositionProvider.builtin_sl2(3)
        with mock.patch.object(decomp, "MAX_WEYL_WEIGHTS", 3):
            with pytest.raises(LiecharError, match=r"L\(4,\) is too large"):
                finite_simple_multiplicities((13,), 2, provider)

    def test_equals_base_p_untwisting(self):
        checked = 0
        for provider, r, weights in untwisting_cases():
            for mu in weights:
                expected = untwisting_reference(mu, r, provider)
                assert finite_simple_multiplicities(mu, r, provider) == expected, (
                    provider.rs.rank, provider.p, r, mu,
                )
                checked += len(weight_digits(mu, provider.p**r)) >= 3
        assert checked > 100


class TestNuBound:
    def test_chi_four(self, prov3):
        chi = weyl_character((4,), prov3.rs)
        assert nu_bound(chi, 3, 1, prov3.rs) == [(0,), (1,)]

    def test_chi_two(self, prov3):
        chi = weyl_character((2,), prov3.rs)
        assert nu_bound(chi, 3, 1, prov3.rs) == [(0,)]

    def test_empty_character(self, prov3):
        assert nu_bound(Character(1), 3, 1, prov3.rs) == []

    def test_rejects_non_invariant_input(self, prov3):
        # No nu lies in the box of e^(1) at p = 3: only the Weyl-basis
        # expansion can reject it.
        with pytest.raises(NonInvariantError):
            nu_bound(Character(1, {(1,): 1}), 3, 1, prov3.rs)

    def test_widening_is_superset(self, prov3, monkeypatch):
        chi = weyl_character((10,), prov3.rs)
        narrow = set(nu_bound(chi, 3, 1, prov3.rs))
        calls = use_wide_box(monkeypatch)
        wide = set(nu_bound(chi, 3, 1, prov3.rs))
        assert narrow <= wide
        assert len(calls) == 1 and oracle_covers(calls)


CACHE_SYSTEMS = {
    name: RootSystem(CartanMatrix.builtin(name)) for name in ("A1", "A2", "B2", "G2")
}


class TestContributingNus:
    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
    @pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
    def test_box_keeps_every_contributing_nu(self, name, p, r):
        # Filtering the wide box by the defining inequality finds every
        # contributing nu: the coordinate box must miss none of them.
        rs = RootSystem(CartanMatrix.builtin(name))
        grid = list(itertools.product(range(2 * p**r + 2), repeat=rs.rank))
        st_weight = tuple((p**r - 1) * c for c in rs.rho)
        for base in [st_weight] + rs.restricted_weights(p, r)[:3]:
            for m in grid[::5]:
                expected = exact_contributing_nus([m], base, p, r, rs)
                assert contributing_nus([m], base, p, r, rs) == expected

    @pytest.mark.parametrize("name", ["A2", "B2", "G2"])
    @pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
    def test_several_max_weights(self, name, p, r):
        # Some of the m lie below base in a root coordinate: they pass for no
        # nu, and dropping them must not change the result.
        rs = RootSystem(CartanMatrix.builtin(name))
        rng = random.Random(f"{name} {p} {r}")
        st_weight = tuple((p**r - 1) * c for c in rs.rho)
        for base in [st_weight] + rs.restricted_weights(p, r)[:3]:
            for _ in range(20):
                weights = [
                    tuple(rng.randrange(2 * p**r + 2) for _ in range(rs.rank))
                    for _ in range(rng.randrange(2, 5))
                ]
                expected = exact_contributing_nus(weights, base, p, r, rs)
                assert contributing_nus(weights, base, p, r, rs) == expected

    def test_no_max_weight_that_can_pass(self):
        rs = RootSystem(CartanMatrix.builtin("A2"))
        below = [(0, 0), (-2, 1), (3, -3)]
        with mock.patch.object(rs, "dominance_leq") as dominance_leq:
            assert contributing_nus(below, (1, 1), 2, 1, rs) == []
        dominance_leq.assert_not_called()

    @PROPERTY
    @given(st.data())
    def test_cached_answer_is_exact_and_shift_invariant(self, data):
        # The answer depends only on p^r and the differences m - base, so a
        # repeated call and a call with every weight shifted by the same w
        # are cache hits, and each must still equal the reference.  The same
        # weights at another p^r are a miss.
        rs = CACHE_SYSTEMS[data.draw(st.sampled_from(sorted(CACHE_SYSTEMS)))]
        weight = st.tuples(*[st.integers(-2, 10)] * rs.rank)
        weights = data.draw(st.lists(weight, min_size=1, max_size=3))
        base, shift = data.draw(weight), data.draw(weight)
        moved = [tuple(map(operator.add, m, shift)) for m in weights]
        moved_base = tuple(map(operator.add, base, shift))
        rs._nu_cache.clear()
        for p, r in [(2, 1), (3, 1), (2, 2)]:
            expected = exact_contributing_nus(weights, base, p, r, rs)
            assert contributing_nus(weights, base, p, r, rs) == expected
            assert contributing_nus(weights, base, p, r, rs) == expected
            assert contributing_nus(moved, moved_base, p, r, rs) == expected
        assert len(rs._nu_cache) == 3

    def test_returns_a_fresh_list(self):
        rs = RootSystem(CartanMatrix.builtin("A1"))
        first = contributing_nus([(6,)], (0,), 3, 1, rs)
        assert first == [(0,), (1,), (2,), (3,)]
        first.append((9,))
        first[0] = (7,)
        assert contributing_nus([(6,)], (0,), 3, 1, rs) == [(0,), (1,), (2,), (3,)]

    def test_r_zero_raises_with_a_warm_cache(self):
        rs = RootSystem(CartanMatrix.builtin("A1"))
        contributing_nus([(2,)], (0,), 3, 1, rs)
        with pytest.raises(ValueError, match="need p"):
            contributing_nus([(2,)], (0,), 3, 0, rs)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rs: contributing_nus([(4,)], (0, 0), 3, 1, rs),
            lambda rs: contributing_nus([(4, 7, 9)], (0,), 3, 1, rs),
        ],
        ids=["base", "max weight"],
    )
    def test_wrong_rank_raises(self, call):
        # zip would truncate the difference to the rank of the shorter
        # weight, and the truncated key would alias a right-rank entry.
        rs = RootSystem(CartanMatrix.builtin("A1"))
        contributing_nus([(4,)], (0,), 3, 1, rs)
        with pytest.raises(RankMismatchError):
            call(rs)

    def test_cj_rhs_wrong_rank_lambda_raises(self):
        provider = DecompositionProvider.builtin_sl2(3)
        assert pims.cj_rhs((0,), (2,), 1, provider) == 1
        with pytest.raises(RankMismatchError):
            pims.cj_rhs((0, 2), (2,), 1, provider)

    def test_cj_table_shares_the_cache(self):
        # 4,802 calls over the 2,401 cells at p = 7, r = 2 (one per route)
        # have 97 distinct keys.
        provider = DecompositionProvider.builtin_sl2(7)
        qrdata = pims.QrData.builtin_sl2(provider, 2)
        records = pims.cj_table(qrdata, "simple_basis")
        assert all(lhs == rhs for _, _, lhs, rhs in records)
        assert len(provider.rs._nu_cache) == 97


class TestFactorLeadBound:
    """cj_lhs bounds nu by the weights mu + m, m a lead of q_r(lambda*), before
    it forms the product L(mu) * q_r(lambda*); that bound must keep every nu
    the product's own leading weights give."""

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a1_every_cell(self, p, r):
        provider = DecompositionProvider.builtin_sl2(p)
        qrdata = pims.QrData.builtin_sl2(provider, r)
        rs = provider.rs
        st_weight = tuple((p**r - 1) * c for c in rs.rho)
        labels = rs.restricted_weights(p, r)
        for lam in labels:
            dual = rs.dual_weight(lam)
            for mu in labels:
                factor_leads = [
                    tuple(a + b for a, b in zip(mu, m)) for m in qrdata.leads(dual)
                ]
                box = set(contributing_nus(factor_leads, st_weight, p, r, rs))
                chi = provider.simple_character(mu) * qrdata.q(dual)
                product_leads = leading_dominant_weights(chi.support, rs)
                exact = exact_contributing_nus(product_leads, st_weight, p, r, rs)
                assert set(nu_bound(chi, p, r, rs)) <= box, (lam, mu)
                assert set(exact) <= box, (lam, mu)


class TestSteinbergNuSum:
    """steinberg_nu_sum takes the factors of chi; both nu-sum routes must
    give what they give on the product itself, and what the direct route
    gives."""

    @pytest.mark.parametrize("p, r", [(3, 1), (2, 2), (5, 1)])
    def test_a1_cells(self, p, r):
        provider = DecompositionProvider.builtin_sl2(p)
        qrdata = pims.QrData.builtin_sl2(provider, r)
        rs = provider.rs
        for lam in rs.restricted_weights(p, r):
            q = qrdata.q(rs.dual_weight(lam))
            for mu in rs.restricted_weights(p, r):
                factors = (provider.simple_character(mu), q)
                chi = factors[0] * q
                nus = nu_bound(chi, p, r, rs)
                direct = steinberg_multiplicity(chi, r, provider, "direct")
                for method in ("good_filtration", "simple_basis"):
                    by_factors = finite.steinberg_nu_sum(factors, nus, r, provider, method)
                    whole = finite.steinberg_nu_sum((chi,), nus, r, provider, method)
                    assert by_factors == whole == direct, (lam, mu, method)

    @pytest.mark.parametrize("r", [1, 2])
    @settings(PROPERTY, max_examples=30)
    @given(invariant_characters(names=("A1", "A2")), st.data())
    def test_random_factors(self, r, case, data):
        # St_r as a factor makes the Steinberg constituent often nonzero.
        rs, chi = case
        provider = (
            DecompositionProvider.builtin_sl2(2, rs=rs)
            if rs.rank == 1
            else load_decomposition_data(a2_p2_document(), rs=rs)
        )
        factors = [chi, steinberg_character(rs, 2, r)]
        if data.draw(st.booleans()):
            factors.append(weyl_character((1,) * rs.rank, rs))
        product = functools.reduce(operator.mul, factors)
        nus = nu_bound(product, 2, r, rs)
        direct = steinberg_multiplicity(product, r, provider, "direct")
        for method in ("good_filtration", "simple_basis"):
            value = finite.steinberg_nu_sum(factors, nus, r, provider, method)
            assert value == direct, method


class TestSteinbergMultiplicity:
    def test_steinberg_itself(self, prov3):
        chi = weyl_character((2,), prov3.rs)
        for method in STEINBERG_METHODS:
            assert steinberg_multiplicity(chi, 1, provider=prov3, method=method) == 1

    def test_chi_four(self, prov3):
        chi = weyl_character((4,), prov3.rs)
        for method in STEINBERG_METHODS:
            assert steinberg_multiplicity(chi, 1, provider=prov3, method=method) == 1

    def test_chi_three(self, prov3):
        chi = weyl_character((3,), prov3.rs)
        for method in STEINBERG_METHODS:
            assert steinberg_multiplicity(chi, 1, provider=prov3, method=method) == 0

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (2, 2)])
    def test_route_agreement_grid(self, p, r):
        provider = DecompositionProvider.builtin_sl2(p)
        for m in range(2 * p**r + 1):
            chi = weyl_character((m,), provider.rs)
            values = {
                method: steinberg_multiplicity(
                    chi, r, provider=provider, method=method
                )
                for method in STEINBERG_METHODS
            }
            assert len(set(values.values())) == 1, (m, values)

    def test_linearity_on_random_sums(self, prov3):
        rng = random.Random(5)
        for method in STEINBERG_METHODS:
            for _ in range(5):
                a = weyl_character((rng.randrange(9),), prov3.rs)
                b = weyl_character((rng.randrange(9),), prov3.rs)
                sep = steinberg_multiplicity(
                    a, 1, provider=prov3, method=method
                ) + steinberg_multiplicity(b, 1, provider=prov3, method=method)
                joint = steinberg_multiplicity(
                    a + b, 1, provider=prov3, method=method
                )
                assert joint == sep

    def test_virtual_input_accepted(self, prov3):
        chi = weyl_character((4,), prov3.rs) - weyl_character((2,), prov3.rs)
        for method in STEINBERG_METHODS:
            assert steinberg_multiplicity(chi, 1, provider=prov3, method=method) == 0

    def test_twisted_steinberg_tensor(self, prov3):
        # St_1 x nabla(nu)^{(1)}: the three routes must agree on these too.
        st = weyl_character((2,), prov3.rs)
        for nu in range(4):
            chi = st * frobenius_twist(weyl_character((nu,), prov3.rs), 3, 1)
            values = {
                method: steinberg_multiplicity(chi, 1, provider=prov3, method=method)
                for method in STEINBERG_METHODS
            }
            assert len(set(values.values())) == 1

    def test_a2_file_provider_routes(self):
        provider = load_decomposition_data(a2_p2_document())
        cases = {(0, 0): 0, (1, 0): 0, (1, 1): 1, (2, 0): 0}
        for lam, expected in cases.items():
            chi = weyl_character(lam, provider.rs)
            for method in STEINBERG_METHODS:
                assert (
                    steinberg_multiplicity(chi, 1, provider=provider, method=method)
                    == expected
                ), (lam, method)

    def test_unknown_method(self, prov3):
        with pytest.raises(ValueError):
            steinberg_multiplicity(
                weyl_character((2,), prov3.rs), 1, provider=prov3, method="magic"
            )

    def test_every_route_rejects_non_invariant_input(self, prov3):
        # No nu lies in the box of e^(1) at p = 3, so only an up-front
        # invariance check can reject it, as the direct route does.
        chi = Character(1, {(1,): 1})
        for method in STEINBERG_METHODS:
            with pytest.raises(NonInvariantError):
                steinberg_multiplicity(chi, 1, provider=prov3, method=method)


@pytest.fixture(scope="module")
def a2_p2_provider():
    return load_decomposition_data(a2_p2_document())


def route_values(chi, r, provider):
    return {
        method: steinberg_multiplicity(chi, r, provider=provider, method=method)
        for method in STEINBERG_METHODS
    }


class TestRouteAgreementProperty:
    """The three Steinberg routes agree on random W-invariant virtual
    characters (sums of +-chi(lam), products, twists), some times St_r so
    that the Steinberg constituent is often nonzero."""

    @pytest.mark.parametrize("r", [1, 2])
    @settings(PROPERTY, max_examples=50)
    @given(invariant_characters(names=("A1",)), st.booleans())
    def test_a1_sl2_provider(self, prov3, r, case, times_steinberg):
        rs, chi = case
        if times_steinberg:
            chi = chi * steinberg_character(rs, 3, r)
        values = route_values(chi, r, prov3)
        assert len(set(values.values())) == 1, values

    @settings(PROPERTY, max_examples=25)
    @given(invariant_characters(names=("A2",)), st.booleans())
    def test_a2_packaged_rows(self, a2_p2_provider, case, times_steinberg):
        rs, chi = case
        if times_steinberg:
            chi = chi * steinberg_character(rs, 2, 1)
        values = route_values(chi, 1, a2_p2_provider)
        assert len(set(values.values())) == 1, values


RANK_GATED_CALLS = {
    "to_weyl_basis": lambda chi, provider: to_weyl_basis(chi, provider.rs),
    "nu_bound": lambda chi, provider: nu_bound(chi, 2, 1, provider.rs),
    "good_filtration": lambda chi, provider: steinberg_multiplicity(
        chi, 1, provider, "good_filtration"
    ),
    "simple_basis": lambda chi, provider: steinberg_multiplicity(
        chi, 1, provider, "simple_basis"
    ),
    "character_divide": lambda chi, provider: character_divide(chi, provider.rs, 2, 1),
}


@pytest.mark.parametrize("call", RANK_GATED_CALLS.values(), ids=RANK_GATED_CALLS)
@pytest.mark.parametrize(
    "chi",
    [
        Character(1, {(1,): 1, (-1,): 1}),
        Character(3, {(0, 0, 0): 1}),
        Character(3, {(1, 0, 0): 1, (-1, 1, 0): 1}),
    ],
    ids=["rank-1", "rank-3-unit", "rank-3"],
)
def test_invariance_gate_refuses_another_rank(monkeypatch, rs_a2, chi, call):
    # The rank is checked before any reflection is taken (simple_reflection
    # is unset), so no weight of another length is indexed as a rank-2 one.
    provider = DecompositionProvider(rs_a2, 2, {})
    monkeypatch.setattr(rs_a2, "simple_reflection", None)
    with pytest.raises(RankMismatchError, match=f"rank mismatch: {chi.rank} versus 2"):
        call(chi, provider)


# Each helper called at r = 0 (base p^0 = 1), by a child process: a helper
# that loops in base 1 then fails the test by the timeout instead of hanging
# the suite.
R_ZERO_PREAMBLE = """
from liechar import *
from liechar.decomp import weight_digits
from liechar.finite import contributing_nus
provider = DecompositionProvider.builtin_sl2(3)
rs = provider.rs
chi = weyl_character((1,), rs)
"""
R_ZERO_CALLS = [
    "weight_digits((1,), 1)",
    "finite_simple_multiplicities((1,), 0, provider)",
    "steinberg_multiplicity(chi, 0, provider, 'direct')",
    "steinberg_multiplicity(chi, 0, provider, 'simple_basis')",
    "pims.induced_socle_multiplicity((0,), (1,), 0, provider)",
    "pims.cj_rhs((0,), (0,), 0, provider)",
    "nu_bound(chi, 3, 0, rs)",
    "contributing_nus([(2,)], (0,), 3, 0, rs)",
]


@pytest.mark.parametrize("call", R_ZERO_CALLS)
def test_base_below_two_raises_value_error(call):
    script = R_ZERO_PREAMBLE + f"""
try:
    {call}
except ValueError as exc:
    print("ValueError:", exc)
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError: need "), proc.stdout
