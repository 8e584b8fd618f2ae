import copy
import functools
import itertools
import json
import operator
import os
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    BUILTIN_CARTAN_MATRICES,
    Character,
    CoverageError,
    DataValidationError,
    DecompositionProvider,
    LiecharError,
    NonDominantError,
    NonInvariantError,
    RankMismatchError,
    decomp,
    load_decomposition_data,
    steinberg_multiplicity,
    to_simple_basis,
    weyl_character,
)
from liechar.characters import expand, from_weyl_basis
from liechar.decomp import (
    _product_above,
    expand_above,
    simple_coefficient,
    weight_digits,
)

from test_kernel import (
    PROPERTY,
    ROOT_SYSTEMS,
    invariant_characters,
    weyl_coefficients,
)


def test_weight_digits():
    assert weight_digits((0,), 3) == [(0,)]
    assert weight_digits((4,), 3) == [(1,), (1,)]
    assert weight_digits((3, 7), 2) == [(1, 1), (1, 1), (0, 1)]


@pytest.mark.parametrize("lam", [(-1,), (2, -3)])
def test_weight_digits_rejects_negative_coordinates(lam):
    with pytest.raises(NonDominantError):
        weight_digits(lam, 3)


@pytest.mark.parametrize("p", [1, 0, -2])
def test_weight_digits_rejects_a_base_below_two(p):
    # In base 1 the digits never end.
    with pytest.raises(ValueError, match=f"need a base of at least 2, got {p}"):
        weight_digits((1,), p)


class TestSl2Rows:
    def test_steinberg_weight(self):
        assert DecompositionProvider.builtin_sl2(3).row((2,)) == {(2,): 1}

    def test_first_reducible(self):
        assert DecompositionProvider.builtin_sl2(3).row((3,)) == {(3,): 1, (1,): 1}

    def test_m_four(self):
        assert DecompositionProvider.builtin_sl2(3).row((4,)) == {(4,): 1, (0,): 1}

    def test_rejects_negative(self):
        with pytest.raises(NonDominantError):
            DecompositionProvider.builtin_sl2(3).row((-1,))

    def test_rejects_rank_two(self, rs_a2):
        with pytest.raises(DataValidationError, match="only rank 1"):
            DecompositionProvider.builtin_sl2(3, rs=rs_a2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_row_reconstruction(self, p):
        # sum of [nabla(m):L(n)] * ch L(n) must recover ch nabla(m) exactly,
        # and below p the expansion is the table's row.
        provider = DecompositionProvider.builtin_sl2(p)
        for m in range(3 * p):
            row = provider.row((m,))
            if m < p:
                assert row == provider._rows[m,]
            total = sum(
                (c * provider.simple_character(n) for n, c in row.items()), Character(1)
            )
            assert total == weyl_character((m,), provider.rs)
            assert set(row.values()) <= {1}

    def test_rejects_negative_entry(self, monkeypatch):
        # A simple character too large by 2 L(0) leaves -1 at (0,) in row (4,).
        provider = DecompositionProvider.builtin_sl2(3)
        simple = provider.simple_character

        def inflated(lam):
            return simple(lam) + 2 * simple((0,)) if tuple(lam) == (4,) else simple(lam)

        monkeypatch.setattr(provider, "simple_character", inflated)
        with pytest.raises(LiecharError, match=r"\(4,\)"):
            provider.row((4,))


class TestSimpleCharacter:
    def test_twisted_fundamental(self, prov3):
        assert prov3.simple_character((3,)).support == {(3,): 1, (-3,): 1}

    def test_two_digit_product(self, prov3):
        assert prov3.simple_character((4,)).support == {
            (4,): 1,
            (2,): 1,
            (-2,): 1,
            (-4,): 1,
        }

    @pytest.mark.parametrize("lam", [(-1,), (-4,)])
    def test_rejects_non_dominant(self, prov3, lam):
        with pytest.raises(NonDominantError, match="is not dominant"):
            prov3.simple_character(lam)

    def test_restricted_is_weyl(self, prov3):
        assert prov3.simple_character((2,)) == weyl_character((2,), prov3.rs)

    def test_unitriangular_with_leading_one(self, prov3):
        from liechar import to_weyl_basis

        for m in range(12):
            coeffs = to_weyl_basis(prov3.simple_character((m,)), prov3.rs)
            assert coeffs[(m,)] == 1
            assert all(n <= m for (n,) in coeffs)

    @pytest.mark.parametrize("lam", [(4,), (26,), (80,)])
    def test_size_bound_counts_every_weight(self, lam):
        # In rank 1 the digit characters' support sizes multiply to exactly
        # the support size of L(lam): the limit one below refuses it.
        size = len(DecompositionProvider.builtin_sl2(3).simple_character(lam).support)
        with mock.patch.object(decomp, "MAX_WEYL_WEIGHTS", size - 1):
            with pytest.raises(LiecharError, match="is too large"):
                DecompositionProvider.builtin_sl2(3).simple_character(lam)
        with mock.patch.object(decomp, "MAX_WEYL_WEIGHTS", size):
            DecompositionProvider.builtin_sl2(3).simple_character(lam)

    def test_triangular_inversion_subtracts_a_factor(self):
        # A2 at p = 3: the scalars are a submodule of the adjoint module of
        # SL3, so nabla(1, 1) = L(1, 1) + L(0, 0), and L(1, 1) has dimension
        # 8 - 1.  The only restricted row here with a factor below its top.
        rows = [
            {"lambda": [0, 0], "factors": [{"mu": [0, 0], "mult": 1}]},
            {
                "lambda": [1, 1],
                "factors": [{"mu": [1, 1], "mult": 1}, {"mu": [0, 0], "mult": 1}],
            },
        ]
        provider = load_decomposition_data({"type": "A2", "p": 3, "rows": rows})
        assert provider.simple_character((1, 1)).dimension() == 7
        expected = {(1, 1): 1, (0, 0): 1}
        assert provider.row((1, 1)) == expected
        assert to_simple_basis(weyl_character((1, 1), provider.rs), provider) == expected

    @pytest.mark.parametrize("lam", [(1, 1), (3, 3)])
    def test_coverage_gap_reports_weight(self, lam):
        # Without row (1, 1) neither L(1, 1) nor L(3, 3) = L(1, 1) L(1, 1)^(1)
        # can be built; the gap is the restricted weight (1, 1).
        provider = load_decomposition_data(a2_p2_document(without=(1, 1)))
        with pytest.raises(CoverageError) as info:
            provider.simple_character(lam)
        assert info.value.weight == (1, 1)


class TestToSimpleBasis:
    def test_weyl_four(self, prov3):
        chi = weyl_character((4,), prov3.rs)
        assert to_simple_basis(chi, prov3) == {(4,): 1, (0,): 1}

    def test_basis_element(self, prov3):
        assert to_simple_basis(prov3.simple_character((4,)), prov3) == {(4,): 1}

    def test_product_with_unit(self, prov3):
        chi = weyl_character((3,), prov3.rs) * weyl_character((0,), prov3.rs)
        assert to_simple_basis(chi, prov3) == {(3,): 1, (1,): 1}

    def test_roundtrip_random_virtual(self, prov3):
        rng = random.Random(23)
        for _ in range(20):
            coeffs = {
                (m,): rng.randint(-2, 2) for m in rng.sample(range(15), 4)
            }
            coeffs = {w: c for w, c in coeffs.items() if c}
            chi = sum(
                (c * prov3.simple_character(m) for m, c in coeffs.items()), Character(1)
            )
            assert to_simple_basis(chi, prov3) == coeffs


A2_P2_ROWS = [
    {"lambda": [0, 0], "factors": [{"mu": [0, 0], "mult": 1}]},
    {"lambda": [1, 0], "factors": [{"mu": [1, 0], "mult": 1}]},
    {"lambda": [0, 1], "factors": [{"mu": [0, 1], "mult": 1}]},
    {"lambda": [1, 1], "factors": [{"mu": [1, 1], "mult": 1}]},
    {
        "lambda": [2, 0],
        "factors": [{"mu": [2, 0], "mult": 1}, {"mu": [0, 1], "mult": 1}],
    },
    {
        "lambda": [0, 2],
        "factors": [{"mu": [0, 2], "mult": 1}, {"mu": [1, 0], "mult": 1}],
    },
]


def a2_p2_document(without=None):
    rows = [row for row in A2_P2_ROWS if tuple(row["lambda"]) != without]
    return {"type": "A2", "p": 2, "rows": copy.deepcopy(rows)}


def a1_p3_nabla6_document(nabla6):
    """The A1 rows at p = 3: the restricted ones and nabla(6) as given."""
    rows = [{"lambda": [m], "factors": [{"mu": [m], "mult": 1}]} for m in range(3)]
    factors = [{"mu": [mu], "mult": 1} for mu in nabla6]
    return {"type": "A1", "p": 3, "rows": rows + [{"lambda": [6], "factors": factors}]}


class TestLoadDecompositionData:
    def test_valid_a2_file(self):
        provider = load_decomposition_data(a2_p2_document())
        assert provider.row((2, 0)) == {(2, 0): 1, (0, 1): 1}
        # The p=2 Steinberg module is the full costandard module.
        assert provider.simple_character((1, 1)).dimension() == 8

    def test_rejects_diagonal_not_one(self):
        doc = a2_p2_document()
        doc["rows"][0]["factors"] = [{"mu": [0, 0], "mult": 2}]
        with pytest.raises(DataValidationError, match="must be 1"):
            load_decomposition_data(doc)

    def test_rejects_unitriangularity_violation(self):
        doc = a2_p2_document()
        doc["rows"][1]["factors"].append({"mu": [2, 0], "mult": 1})
        with pytest.raises(DataValidationError, match="unitriangularity"):
            load_decomposition_data(doc)

    def test_rejects_row_that_differs_from_the_derived_row(self):
        doc = a2_p2_document()
        doc["rows"][4]["factors"] = [{"mu": [2, 0], "mult": 1}]
        with pytest.raises(DataValidationError, match=r"row \(2, 0\).*derived"):
            load_decomposition_data(doc)

    def test_rejects_wrong_row_with_the_right_dimension(self):
        # nabla(6) = L(6) + L(4) at p = 3.  L(6) + L(2) + L(0) has the same
        # dimension, 3 + 3 + 1 = 7, and is unitriangular, but is not the row.
        provider = load_decomposition_data(a1_p3_nabla6_document([6, 4]))
        assert provider.row((6,)) == {(6,): 1, (4,): 1}
        with pytest.raises(DataValidationError, match=r"row \(6,\).*derived"):
            load_decomposition_data(a1_p3_nabla6_document([6, 2, 0]))

    def test_non_restricted_row_needs_the_restricted_rows(self):
        doc = a1_p3_nabla6_document([6, 4])
        del doc["rows"][1]
        with pytest.raises(DataValidationError, match=r"row \(6,\): incomplete data"):
            load_decomposition_data(doc)

    def test_rejects_missing_keys(self):
        with pytest.raises(DataValidationError):
            load_decomposition_data({"p": 2, "rows": []})
        with pytest.raises(DataValidationError):
            load_decomposition_data({"type": "A2", "p": 1, "rows": []})
        with pytest.raises(DataValidationError):
            load_decomposition_data({"type": "A2", "p": 2, "rows": [{"bad": 1}]})
        # A factor of another rank, even at multiplicity 0.
        factors = [{"mu": [0], "mult": 1}, {"mu": [5, 7, 9], "mult": 0}]
        with pytest.raises(RankMismatchError, match=r"\(5, 7, 9\) has length 3"):
            load_decomposition_data(
                {"type": "A1", "p": 3, "rows": [{"lambda": [0], "factors": factors}]}
            )

    @pytest.mark.parametrize(
        "row",
        [
            {"lambda": [0], "factors": [{"mu": [0], "mult": 1.7}]},
            {"lambda": [0], "factors": [{"mu": [0], "mult": True}]},
            {"lambda": [0], "factors": [{"mu": [0], "mult": "3"}]},
            {"lambda": [1.9], "factors": [{"mu": [0], "mult": 1}]},
            {"lambda": [0], "factors": [{"mu": [1.9], "mult": 1}]},
        ],
    )
    def test_rejects_non_integers(self, row):
        doc = {"type": "A1", "p": 3, "rows": [row]}
        with pytest.raises(DataValidationError, match="must be an integer"):
            load_decomposition_data(doc)

    def test_rejects_negative_multiplicity(self):
        doc = a2_p2_document()
        doc["rows"][1]["factors"].append({"mu": [0, 0], "mult": -1})
        lam = tuple(doc["rows"][1]["lambda"])
        message = f"row {lam}: negative multiplicity at (0, 0)"
        with pytest.raises(DataValidationError, match=re.escape(message)):
            load_decomposition_data(doc)

    def test_rejects_duplicate_factor(self):
        doc = a2_p2_document()
        doc["rows"][1]["factors"].append({"mu": [1, 0], "mult": 1})
        with pytest.raises(DataValidationError, match=r"duplicate factor \(1, 0\)"):
            load_decomposition_data(doc)

    def test_rejects_duplicate_row(self):
        doc = a2_p2_document()
        doc["rows"].append(copy.deepcopy(doc["rows"][1]))
        with pytest.raises(DataValidationError, match=r"duplicate row .*\(1, 0\)"):
            load_decomposition_data(doc)

    def test_given_root_system_must_match_the_document(self, rs_a1, rs_a2):
        with pytest.raises(DataValidationError, match="document is for"):
            load_decomposition_data(a2_p2_document(), rs=rs_a1)
        assert load_decomposition_data(a2_p2_document(), rs=rs_a2).rs is rs_a2

    def test_unlabelled_document_takes_the_given_root_system(self, rs_a2):
        doc = a2_p2_document()
        del doc["type"]
        assert load_decomposition_data(doc, rs=rs_a2).rs is rs_a2

    def test_restricted_rows_are_the_benchmark_document_rows(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "perfbench", "data", "a2_p2.json")) as handle:
            doc = json.load(handle)
        provider = load_decomposition_data(doc)
        restricted = [row for row in doc["rows"] if max(row["lambda"]) < doc["p"]]
        assert len(restricted) == 4
        for row in restricted:
            expected = {tuple(f["mu"]): f["mult"] for f in row["factors"]}
            assert provider.row(row["lambda"]) == expected

    def test_restricted_row_with_lower_factors_is_the_table_row(self, rs_a2):
        # Any unitriangular table inverts to a basis, so a made-up row with
        # two lower factors must come back from the expansion of chi(1, 1).
        rows = {lam: {lam: 1} for lam in rs_a2.restricted_weights(2, 1)}
        rows[1, 1] = {(1, 1): 1, (0, 0): 2, (1, 0): 0}
        provider = DecompositionProvider(rs_a2, 2, rows)
        row = provider.row((1, 1))
        assert row == {(1, 1): 1, (0, 0): 2}
        row[0, 0] = 5
        assert provider.row((1, 1)) == {(1, 1): 1, (0, 0): 2}

    def test_missing_row_is_coverage_error(self):
        provider = load_decomposition_data(a2_p2_document(without=(1, 1)))
        with pytest.raises(CoverageError) as info:
            provider.row((1, 1))
        assert info.value.weight == (1, 1)


@functools.cache
def provider_for(rs):
    """A provider on rs: A1 at p = 3 and A2 at p = 2 from their true rows,
    B2 and G2 at p = 2 from the table whose restricted rows are all
    nabla(lam) = L(lam).  Any unitriangular table gives a basis led by each
    lam, which is all that the elimination uses."""
    if rs.rank == 1:
        return DecompositionProvider.builtin_sl2(3, rs=rs)
    if rs.cartan.entries == BUILTIN_CARTAN_MATRICES["A2"]:
        return load_decomposition_data(a2_p2_document(), rs=rs)
    return DecompositionProvider(rs, 2, {lam: {lam: 1} for lam in rs.restricted_weights(2, 1)})


SIMPLE_TYPES = ("A1", "A2", "B2", "G2")


@st.composite
def invariant_factors(draw, names=SIMPLE_TYPES):
    """A root system and 1-3 W-invariant factors on it, as steinberg_nu_sum
    hands them to simple_coefficient: a random invariant character, maybe a
    second one, then L(nu) (the unit e^0 for nu = 0); maybe an extra e^0 at
    a random place."""
    rs, chi = draw(invariant_characters(names=names))
    factors = [chi]
    if draw(st.booleans()):
        factors.append(from_weyl_basis(draw(weyl_coefficients(rs, 2, 2)), rs))
    nu = draw(st.tuples(*[st.integers(0, 2)] * rs.rank), label="nu")
    factors.append(provider_for(rs).simple_character(nu))
    if draw(st.booleans()):
        unit = Character(rs.rank, {(0,) * rs.rank: 1})
        factors.insert(draw(st.integers(0, len(factors))), unit)
    return rs, nu, factors


def coefficient_above(factors, t, provider):
    """[prod of factors : L(t)]_G as expand_above gives it, off the
    expansion cut at t's scaled height: the first read of t in
    steinberg_nu_sum."""
    return expand_above(factors, provider.rs.scaled_height(t), provider).get(t, 0)


def coefficient_from_memo(factors, t, provider):
    """[prod of factors : L(t)]_G as simple_coefficient gives it once t has
    been read: off the orbit coefficients, as every later read of t in
    steinberg_nu_sum."""
    simple_coefficient((), t, provider)
    return simple_coefficient(factors, t, provider)


READERS = (coefficient_above, coefficient_from_memo)


class TestSimpleMultiplicity:
    """[prod of factors : L(t)]_G read off expand_above cut at t's height,
    which forms only the part of the product at or above t, and off the
    orbit-coefficient memo; both must be the coefficient that the full
    expansion of the product has there."""

    @settings(PROPERTY, max_examples=30)
    @given(invariant_factors(), st.data())
    def test_matches_the_full_expansion(self, case, data):
        rs, nu, factors = case
        provider = provider_for(rs)
        chi = functools.reduce(operator.mul, factors)
        coeffs = to_simple_basis(chi, provider)
        targets = {w for w in chi.support if min(w) >= 0} | set(coeffs)
        # the Steinberg-sum target, r = 1
        targets.add(tuple((provider.p - 1) + provider.p * n for n in nu))
        if coeffs:
            top = max(coeffs, key=lambda w: (rs.scaled_height(w), w))
            targets.add((top[0] + 1,) + top[1:])  # above every lead
        targets.add((-100,) * rs.rank)  # below every weight
        absent = [
            w
            for w in itertools.product(range(6), repeat=rs.rank)
            if w not in chi.support
        ]
        if absent:
            targets.update(data.draw(st.lists(st.sampled_from(absent), max_size=3)))
        for t in targets:
            for read in READERS:
                assert read(factors, t, provider) == coeffs.get(t, 0), (read, t)

    @settings(PROPERTY, max_examples=20)
    @given(invariant_characters(names=SIMPLE_TYPES), st.data())
    def test_off_orbit_input_raises_as_the_full_expansion(self, case, data):
        # A target below every weight cuts nothing, so every lead is
        # processed and the residual's error is the full expansion's.  The
        # memo refuses only a cut with no dominant weight
        # (TestSimpleCoefficient).
        rs, chi = case
        provider = provider_for(rs)
        weight = data.draw(
            st.tuples(*[st.integers(-4, 4)] * rs.rank).filter(any), label="weight"
        )
        chi = chi + Character(rs.rank, {weight: 1})
        with pytest.raises(NonInvariantError) as full:
            to_simple_basis(chi, provider)
        with pytest.raises(NonInvariantError) as cut:
            coefficient_above((chi,), (-100,) * rs.rank, provider)
        assert str(cut.value) == str(full.value)

    def test_unit_factors_only(self):
        provider = provider_for(ROOT_SYSTEMS["A2"])
        unit = Character(2, {(0, 0): 1})
        for read in READERS:
            assert read((unit, unit), (0, 0), provider) == 1
            assert read((), (0, 0), provider) == 1
            assert read((unit,), (1, 0), provider) == 0

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_unit_factors_above_zero_give_nothing(self, count):
        # Unit factors are skipped, so only the test of the factors' summed
        # top heights against the floor cuts e^0.
        provider = provider_for(ROOT_SYSTEMS["A2"])
        units = (Character(2, {(0, 0): 1}),) * count
        assert _product_above(units, 1, provider.rs) == {}
        assert expand_above(units, 1, provider) == {}

    def test_rank_mismatch(self):
        provider = provider_for(ROOT_SYSTEMS["A2"])
        for read in READERS:
            with pytest.raises(RankMismatchError):
                read((Character(1, {(1,): 1}),), (0, 0), provider)


class TestSimpleCoefficient:
    """simple_coefficient eliminates on the first read of a target and sums
    over the W-orbit coefficients from the second (TestSimpleMultiplicity
    checks both against the full expansion)."""

    @pytest.mark.parametrize(
        "name, support, t",
        [("A1", {(-1,): 1}, (-3,)), ("A2", {(1, -2): 1, (-1, 0): 2}, (-2, -2))],
    )
    def test_cut_with_no_dominant_weight_raises_as_the_full_expansion(
        self, name, support, t
    ):
        provider = provider_for(ROOT_SYSTEMS[name])
        chi = Character(provider.rs.rank, support)
        with pytest.raises(NonInvariantError) as full:
            to_simple_basis(chi, provider)
        with pytest.raises(NonInvariantError) as cut:
            coefficient_from_memo((chi,), t, provider)
        assert str(cut.value) == str(full.value)

    def test_a_chain_longer_than_the_recursion_limit(self):
        # L(0) in the orbit sum of 3^7 - 1 at p = 3 reads the orbit
        # coefficients of all 1,094 even weights from 2186 down to 0.
        provider = DecompositionProvider.builtin_sl2(3, rs=ROOT_SYSTEMS["A1"])
        orbit = Character(1, {(2186,): 1, (-2186,): 1})
        expected = coefficient_above((orbit,), (0,), provider)
        assert coefficient_from_memo((orbit,), (0,), provider) == expected
        assert len(provider._orbit_cache[0,]) == 1094

    def test_a_steinberg_sum_read_twice_fills_every_target(self):
        # The first simple_basis run of chi(80) at p = 3 reads 40 targets
        # once each and fills no orbit coefficients; the second run fills
        # all 40 chains for one saved elimination each, and a third reads
        # them.  A read-twice cost that drops shows here.
        provider = DecompositionProvider.builtin_sl2(3, rs=ROOT_SYSTEMS["A1"])
        chi = weyl_character((80,), provider.rs)

        def run():
            return steinberg_multiplicity(chi, 1, provider, "simple_basis")

        expected = steinberg_multiplicity(chi, 1, provider, "direct")
        assert run() == expected
        cache = provider._orbit_cache
        assert len(cache) == 40 and not any(cache.values())
        assert run() == expected
        assert len(cache) == 40 and all(cache.values())
        filled = sum(map(len, cache.values()))
        assert filled == 820
        assert run() == expected
        assert sum(map(len, cache.values())) == filled

    def test_only_a_target_read_again_fills_the_memo(self):
        provider = DecompositionProvider.builtin_sl2(5, rs=ROOT_SYSTEMS["A1"])
        factors = [provider.simple_character(lam) for lam in ((7,), (3,), (9,))]
        first = simple_coefficient(factors, (4,), provider)
        assert provider._orbit_cache == {(4,): {}}
        assert simple_coefficient(factors, (4,), provider) == first
        size = len(provider._orbit_cache[4,])
        assert size
        assert simple_coefficient(factors, (4,), provider) == first
        assert len(provider._orbit_cache[4,]) == size


A1XA1 = {"rank": 2, "matrix": [[2, 0], [0, 2]]}


def a1xa1_rows_document(p):
    """The rows of the block-diagonal A1 x A1 at p: [nabla(a, b) : L(c, d)]
    is the product of the A1 built-in entries [nabla(a) : L(c)] and
    [nabla(b) : L(d)]."""
    sl2 = DecompositionProvider.builtin_sl2(p)
    rows = []
    for (a,), (b,) in itertools.product(sl2.rs.restricted_weights(p, 1), repeat=2):
        factors = [
            {"mu": [c, d], "mult": mc * md}
            for (c,), mc in sl2.row((a,)).items()
            for (d,), md in sl2.row((b,)).items()
        ]
        rows.append({"lambda": [a, b], "factors": factors})
    return {"cartan": A1XA1, "p": p, "rows": rows}


CUT_CASES = (("A1", 3), ("A1", 5), ("A2", 2), ("A1xA1", 3))


@functools.cache
def cut_provider(name, p):
    """A1 at p = 3 and 5 from the built-in rows, A2 at p = 2 from A2_P2_ROWS,
    A1 x A1 at p = 3 from a1xa1_rows_document."""
    if name == "A1xA1":
        return load_decomposition_data(a1xa1_rows_document(p))
    if name == "A2":
        return load_decomposition_data(a2_p2_document(), rs=ROOT_SYSTEMS["A2"])
    return DecompositionProvider.builtin_sl2(p, rs=ROOT_SYSTEMS["A1"])


@st.composite
def cut_factors(draw, provider):
    """1-3 W-invariant factors on provider's root system, each a Weyl or a
    simple character, and a floor among the heights of their product."""
    rs = provider.rs
    highest = st.tuples(*[st.integers(0, 8 if rs.rank == 1 else 2)] * rs.rank)
    factors = []
    for _ in range(draw(st.integers(1, 3), label="factors")):
        lam = draw(highest, label="lambda")
        if draw(st.booleans(), label="simple"):
            factors.append(provider.simple_character(lam))
        else:
            factors.append(weyl_character(lam, rs))
    product = functools.reduce(operator.mul, factors)
    heights = sorted({rs.scaled_height(w) for w in product.support})
    return factors, product, draw(st.sampled_from(heights), label="floor")


class TestExpandAbove:
    """expand_above forms the simple-basis expansion of a W-invariant
    product only at or above its floor; there it must return the full
    expansion's (lead, c) pairs, in the same order."""

    @pytest.mark.parametrize("case", CUT_CASES, ids=lambda c: f"{c[0]}-p{c[1]}")
    @settings(PROPERTY, max_examples=25)
    @given(data=st.data())
    def test_matches_the_full_expansion_above_the_floor(self, case, data):
        provider = cut_provider(*case)
        rs = provider.rs
        factors, product, floor = data.draw(cut_factors(provider))
        full = expand(product, rs, provider.simple_character).items()
        expected = [(lam, c) for lam, c in full if rs.scaled_height(lam) >= floor]
        assert list(expand_above(factors, floor, provider).items()) == expected

    @pytest.mark.parametrize("case", CUT_CASES, ids=lambda c: f"{c[0]}-p{c[1]}")
    @settings(PROPERTY, max_examples=25)
    @given(data=st.data())
    def test_product_above_is_the_full_product_cut(self, case, data):
        # Floors run from below the product's bottom height to above its
        # top, and a unit factor may sit anywhere.
        provider = cut_provider(*case)
        rs = provider.rs
        factors, product, _ = data.draw(cut_factors(provider))
        if data.draw(st.booleans(), label="unit"):
            unit = Character(rs.rank, {(0,) * rs.rank: 1})
            factors.insert(data.draw(st.integers(0, len(factors))), unit)
        heights = [rs.scaled_height(w) for w in product.support]
        floors = st.integers(min(heights) - 2, max(heights) + 2)
        floor = data.draw(floors, label="floor")
        support = product.support.items()
        expected = {w: m for w, m in support if rs.scaled_height(w) >= floor}
        assert _product_above(factors, floor, rs) == expected

