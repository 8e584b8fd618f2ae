"""Property tests of the integer kernels against exact references.

Every reference below is computed here: the lattice kernel's from the
Cartan matrix alone, by Fraction Gauss-Jordan elimination and the O(n^2)
maximal-element scan; the finite-type test's by the Fraction LDL^T sweep of
C * D; the dominant weights below lam by a filtered box scan; the
product's, on both of its paths (dict loop and Kronecker substitution), by
the tuple double loop; Weyl characters by
Freudenthal's recursion, Weyl-basis coefficients by leading-term
elimination against those characters (an elimination that rescans the
whole residual for each lead, the reference for expand's heap-ordered one),
and the good-filtration Steinberg route by the product and Weyl-basis
expansion of each of its terms, over the nu bounded by the reference
maximal-element scan.
"""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    Character,
    DecompositionProvider,
    LiecharError,
    NonInvariantError,
    NotFiniteTypeError,
    RankMismatchError,
    character_divide,
    characters,
    frobenius_twist,
    steinberg_character,
    steinberg_multiplicity,
    to_weyl_basis,
    weyl_character,
)
from liechar.characters import (
    _bounds,
    expand,
    from_weyl_basis,
    leading_dominant_weights,
)
from liechar.finite import contributing_nus
from liechar.rootdata import CartanMatrix, RootSystem

# A user-supplied rank-3 matrix (type B3/C3), next to the built-in types.
RANK3_CARTAN = ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
ROOT_SYSTEMS = {
    name: RootSystem(CartanMatrix.builtin(name)) for name in ("A1", "A2", "B2", "G2")
}
ROOT_SYSTEMS["rank3"] = RootSystem(RANK3_CARTAN)
NAMES = sorted(ROOT_SYSTEMS)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def fraction_inverse(matrix):
    n = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def reference_symmetrized_det(matrix, d):
    """det(C * D) when C * D is positive definite, else None: the Fraction
    LDL^T sweep, whose pivots are ratios of consecutive leading principal
    minors."""
    n = len(matrix)
    work = [[Fraction(matrix[i][j] * d[j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        if work[k][k] <= 0:
            return None
        det *= work[k][k]
        for i in range(k + 1, n):
            factor = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= factor * work[k][j]
    return det


# Finite-type Cartan matrices with their determinants.
LARGER_CARTAN = {
    "A3": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 4),
    "B3": (RANK3_CARTAN, 2),
    "C3": (((2, -1, 0), (-1, 2, -1), (0, -2, 2)), 2),
    "D4": (((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)), 4),
    "F4": (((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)), 1),
    "E8": (
        (
            (2, 0, -1, 0, 0, 0, 0, 0),
            (0, 2, 0, -1, 0, 0, 0, 0),
            (-1, 0, 2, -1, 0, 0, 0, 0),
            (0, -1, -1, 2, -1, 0, 0, 0),
            (0, 0, 0, -1, 2, -1, 0, 0),
            (0, 0, 0, 0, -1, 2, -1, 0),
            (0, 0, 0, 0, 0, -1, 2, -1),
            (0, 0, 0, 0, 0, 0, -1, 2),
        ),
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(LARGER_CARTAN))
def test_adjugate_is_det_times_inverse(name):
    matrix, det = LARGER_CARTAN[name]
    cartan = CartanMatrix(matrix)
    assert cartan.det == det
    assert [list(row) for row in cartan.adjugate] == [
        [det * x for x in row] for row in fraction_inverse(matrix)
    ]


# Off-diagonal pairs (a_ij, a_ji) of the random Cartan-like matrices.
OFF_DIAGONAL_PAIRS = (
    (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4), (-4, -1),
)


@st.composite
def symmetrizable_matrices(draw):
    """A sign-valid matrix C of rank <= 4 and a positive d with C * diag(d)
    symmetric: each linked pair is one that d_j a_ij = d_i a_ji allows, and
    a pair that has one is linked two times in three."""
    n = draw(st.integers(1, 4))
    d = [draw(st.sampled_from((1, 2, 3, 4))) for _ in range(n)]
    matrix = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        fits = [(a, b) for a, b in OFF_DIAGONAL_PAIRS if d[j] * a == d[i] * b]
        if fits and draw(st.integers(0, 2)):
            matrix[i][j], matrix[j][i] = draw(st.sampled_from(fits))
    return matrix, d


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetrizable_matrices())
def test_cartan_matrix_accepts_exactly_the_positive_definite(case):
    matrix, d = case
    sym_det = reference_symmetrized_det(matrix, d)
    if sym_det is None:
        with pytest.raises(NotFiniteTypeError, match="positive definite"):
            CartanMatrix(matrix)
        return
    cartan = CartanMatrix(matrix)
    assert cartan.det == sym_det / math.prod(d)
    assert [list(row) for row in cartan.adjugate] == [
        [cartan.det * x for x in row] for row in fraction_inverse(matrix)
    ]


def reference_root_coords(rs, weight):
    inverse = fraction_inverse(rs.cartan.entries)
    return tuple(
        sum(weight[i] * inverse[i][j] for i in range(rs.rank)) for j in range(rs.rank)
    )


def reference_bilinear(rs, x, y):
    """(x, y) = sum_j n_j(y) x_j d_j, times the least integer clearing the
    denominators of the fundamental-weight Gram matrix."""
    d = rs.cartan.symmetrizer
    inverse = fraction_inverse(rs.cartan.entries)
    gram = [[inverse[i][j] * d[j] for j in range(rs.rank)] for i in range(rs.rank)]
    scale = math.lcm(*(x.denominator for row in gram for x in row))
    n = reference_root_coords(rs, y)
    return scale * sum(n[j] * x[j] * d[j] for j in range(rs.rank))


def reference_dominance_leq(rs, mu, lam):
    diff = tuple(a - b for a, b in zip(lam, mu))
    return all(n.denominator == 1 and n >= 0 for n in reference_root_coords(rs, diff))


def reference_maximal(support, rs):
    dominants = [w for w in support if all(c >= 0 for c in w)]
    return {
        w
        for w in dominants
        if not any(v != w and reference_dominance_leq(rs, w, v) for v in dominants)
    }


@st.composite
def system_and_weights(draw, count, low=-6, high=6):
    name = draw(st.sampled_from(NAMES))
    rs = ROOT_SYSTEMS[name]
    weight = st.tuples(*[st.integers(low, high)] * rs.rank)
    return rs, [draw(weight) for _ in range(count)]


def weyl_coefficients(rs, max_weight, max_terms):
    """Weyl-basis coefficients of a W-invariant virtual character on rs."""
    bound = 1 if rs.rank == 3 else max_weight
    dominant = st.tuples(*[st.integers(0, bound)] * rs.rank)
    return st.dictionaries(
        dominant, st.integers(-3, 3).filter(bool), max_size=max_terms
    )


@st.composite
def invariant_coefficients(draw, max_weight=3, max_terms=4, names=NAMES):
    """A root system and Weyl-basis coefficients of a W-invariant virtual character."""
    rs = ROOT_SYSTEMS[draw(st.sampled_from(names))]
    return rs, draw(weyl_coefficients(rs, max_weight, max_terms))


@PROPERTY
@given(system_and_weights(count=2))
def test_root_coords_and_bilinear_match_reference(case):
    rs, (x, y) = case
    assert rs.root_coords(x) == reference_root_coords(rs, x)
    assert rs.bilinear(x, y) == reference_bilinear(rs, x, y)
    assert isinstance(rs.bilinear(x, y), int)


@PROPERTY
@given(system_and_weights(count=2, low=-4, high=4))
def test_dominance_leq_matches_reference(case):
    rs, (mu, lam) = case
    assert rs.dominance_leq(mu, lam) == reference_dominance_leq(rs, mu, lam)


@PROPERTY
@given(system_and_weights(count=12, low=-2, high=8))
def test_leading_dominant_weights_is_the_maximal_set(case):
    rs, weights = case
    support = dict.fromkeys(weights, 1)
    found = leading_dominant_weights(support, rs)
    assert len(found) == len(set(found))
    assert set(found) == reference_maximal(support, rs)


@PROPERTY
@given(invariant_coefficients())
def test_weyl_basis_roundtrip(case):
    rs, coeffs = case
    assert to_weyl_basis(from_weyl_basis(coeffs, rs), rs) == coeffs


def dominant_representative(rs, weight):
    while min(weight) < 0:
        i = next(j for j, c in enumerate(weight) if c < 0)
        weight = rs.simple_reflection(i, weight)
    return weight


def reference_weyl_character(lam, rs):
    """chi(lam) by Freudenthal's recursion over the dominant weights below lam."""
    table = {lam: 1}
    lam_rho = tuple(c + 1 for c in lam)
    top_norm = rs.bilinear(lam_rho, lam_rho)
    below = rs.dominant_weights_below(lam)
    for mu in sorted(below, key=lambda m: (-rs.scaled_height(m), m)):
        if mu == lam:
            continue
        acc = 0
        for alpha in rs.positive_roots:
            k = 1
            while True:
                nu = tuple(c + k * a for c, a in zip(mu, alpha))
                rep = dominant_representative(rs, nu)
                if rep not in table:
                    break
                acc += table[rep] * rs.bilinear(nu, alpha)
                k += 1
        mu_rho = tuple(c + 1 for c in mu)
        mult, rest = divmod(2 * acc, top_norm - rs.bilinear(mu_rho, mu_rho))
        assert not rest and mult > 0
        table[mu] = mult
    return Character(
        rs.rank,
        {w: mult for mu, mult in table.items() for w in rs.weyl_orbit(mu)},
    )


@st.composite
def system_and_dominant_weight(draw):
    name = draw(st.sampled_from(NAMES))
    rs = ROOT_SYSTEMS[name]
    bound = {1: 12, 2: 5, 3: 2}[rs.rank]
    return rs, draw(st.tuples(*[st.integers(0, bound)] * rs.rank))


@PROPERTY
@given(system_and_dominant_weight())
def test_weyl_character_matches_freudenthal(case):
    rs, lam = case
    chi = weyl_character(lam, rs)
    assert chi == reference_weyl_character(lam, rs)
    assert chi.dimension() == rs.weyl_dimension(lam)


@PROPERTY
@given(system_and_dominant_weight())
def test_size_bound_counts_every_weight(case):
    # With the limit one below chi(lam)'s support size, the bound refuses it.
    rs, lam = case
    size = len(weyl_character(lam, rs).support)
    with mock.patch.object(characters, "MAX_WEYL_WEIGHTS", size - 1):
        with pytest.raises(LiecharError, match="is too large"):
            weyl_character(lam, RootSystem(rs.cartan))


def test_size_bound_counts_dominant_weights():
    # On B3, |W| times the root-coordinate box of (8,8,8), 48 * 25,641, is
    # over the limit; |W| times the dominant weights below it is 58,896.
    rs = RootSystem(RANK3_CARTAN)
    chi = weyl_character((8, 8, 8), rs)
    assert len(chi.support) == 47113
    assert chi.dimension() == rs.weyl_dimension((8, 8, 8))


@PROPERTY
@given(system_and_dominant_weight())
def test_dominant_weights_below_match_reference(case):
    # A dominant mu <= lam has root coordinates 0 <= c_i <= those of lam,
    # and mu_i <= 2 c_i, so the box below holds every such mu.
    rs, lam = case
    bounds = [2 * n // rs.det for n in rs.scaled_root_coords(lam)]
    expected = [
        mu
        for mu in itertools.product(*(range(b + 1) for b in bounds))
        if rs.dominance_leq(mu, lam)
    ]
    assert rs.dominant_weights_below(lam) == expected
    assert rs.count_dominant_below(lam) == len(expected)


@st.composite
def invariant_characters(draw, names=NAMES):
    """A root system among names and a W-invariant virtual character on it: a
    sum of +-chi(lam), possibly times another such sum or Frobenius-twisted."""
    rs, coeffs = draw(invariant_coefficients(max_weight=2, max_terms=3, names=names))
    chi = from_weyl_basis(coeffs, rs)
    shape = draw(st.sampled_from(("sum", "product", "twist")))
    if shape == "product":
        chi = chi * from_weyl_basis(draw(weyl_coefficients(rs, 2, 2)), rs)
    elif shape == "twist":
        chi = frobenius_twist(chi, draw(st.sampled_from((2, 3))), 1)
    return rs, chi


def leading_weight(support, rs):
    """The dominant support weight of greatest height, ties to the larger
    tuple, found by a scan of the whole support; None when none is dominant."""
    dominants = (w for w in support if min(w) >= 0)
    return max(dominants, key=lambda w: (rs.scaled_height(w), w), default=None)


def reference_expand(chi, rs, basis):
    """(lead, coefficient) pairs of chi in basis, in the order they are
    found, by leading-term elimination that rescans the residual for each
    lead (leading_weight).  NonInvariantError as expand words it."""

    def not_invariant(weight):
        return NonInvariantError(
            f"character is not W-invariant: residual leading weight {weight}"
        )

    work = dict(chi.support)
    found = []
    while work:
        lead = leading_weight(work, rs)
        if lead is None:
            raise not_invariant(max(work))
        element = basis(lead)
        unit = element.get(lead)
        if not unit or work[lead] % unit:
            raise not_invariant(lead)
        c = work[lead] // unit
        found.append((lead, c))
        for w, m in element.support.items():
            new = work.get(w, 0) - c * m
            if new:
                work[w] = new
            else:
                work.pop(w, None)
    return found


@settings(PROPERTY, max_examples=30)
@given(invariant_characters())
def test_to_weyl_basis_matches_elimination(case):
    rs, chi = case
    reference = reference_expand(chi, rs, lambda lam: reference_weyl_character(lam, rs))
    assert to_weyl_basis(chi, rs) == dict(reference)


TYPES = ("A1", "A2", "B2", "G2")


@PROPERTY
@given(invariant_characters(names=TYPES))
def test_heap_expand_matches_rescanning_reference(case):
    # Coefficient for coefficient and in yield order: strictly decreasing
    # (scaled height, tuple).
    rs, chi = case
    basis = lambda lam: weyl_character(lam, rs)  # noqa: E731
    found = list(expand(chi, rs, basis))
    assert found == reference_expand(chi, rs, basis)
    keys = [(rs.scaled_height(lam), lam) for lam, _ in found]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)


@PROPERTY
@given(invariant_characters(names=TYPES), st.data())
def test_heap_expand_rejects_off_orbit_input_as_reference(case, data):
    rs, chi = case
    weight = data.draw(
        st.tuples(*[st.integers(-4, 4)] * rs.rank).filter(any), label="weight"
    )
    mult = data.draw(st.integers(-3, 3).filter(bool), label="mult")
    chi = chi + Character(rs.rank, {weight: mult})
    basis = lambda lam: weyl_character(lam, rs)  # noqa: E731
    with pytest.raises(NonInvariantError) as heap:
        list(expand(chi, rs, basis))
    with pytest.raises(NonInvariantError) as reference:
        reference_expand(chi, rs, basis)
    assert str(heap.value) == str(reference.value)


@PROPERTY
@given(invariant_characters(names=TYPES))
def test_product_with_unit_is_the_other_factor(case):
    rs, chi = case
    unit = Character(rs.rank, {(0,) * rs.rank: 1})
    assert chi * unit == chi == unit * chi
    assert (chi * unit) is chi and (unit * chi) is chi
    other_rank = Character(rs.rank + 1, {(0,) * (rs.rank + 1): 1})
    with pytest.raises(RankMismatchError):
        chi * other_rank
    with pytest.raises(RankMismatchError):
        other_rank * chi


def first_non_invariant_weight(chi, rs):
    """The first support weight w, in support order, with chi(s_i w) != chi(w)."""
    return next(
        w
        for w, m in chi.support.items()
        if any(chi.get(rs.simple_reflection(i, w)) != m for i in range(rs.rank))
    )


@PROPERTY
@given(invariant_characters(), st.data())
def test_off_orbit_term_is_not_invariant(case, data):
    rs, chi = case
    weight = data.draw(
        st.tuples(*[st.integers(-4, 4)] * rs.rank).filter(any), label="weight"
    )
    mult = data.draw(st.integers(-3, 3).filter(bool), label="mult")
    chi = chi + Character(rs.rank, {weight: mult})
    with pytest.raises(NonInvariantError) as info:
        to_weyl_basis(chi, rs)
    weight = first_non_invariant_weight(chi, rs)
    assert str(info.value) == f"character is not W-invariant at {weight}"


@settings(PROPERTY, max_examples=15)
@given(invariant_coefficients(max_weight=2, max_terms=3), st.sampled_from((2, 3)))
def test_divide_steinberg_multiple(case, p):
    rs, coeffs = case
    q = from_weyl_basis(coeffs, rs)
    assert character_divide(steinberg_character(rs, p, 1) * q, rs, p, 1) == q


def reference_good_filtration(chi, p, r, rs):
    """[chi : St_r] by the good-filtration sum, term by term: each
    [chi . chi(nu) : chi((p^r - 1) rho + p^r nu)] read off the Weyl-basis
    expansion of the product.  nu is bounded by the reference maximal
    weights of chi's support, not by the route's own nu_bound."""
    st_weight = tuple((p**r - 1) * c for c in rs.rho)
    leads = sorted(reference_maximal(chi.support, rs))
    total = 0
    for nu in contributing_nus(leads, st_weight, p, r, rs):
        target = tuple(s + p**r * n for s, n in zip(st_weight, nu))
        total += to_weyl_basis(chi * weyl_character(nu, rs), rs).get(target, 0)
    return total


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (2, 2)])
@PROPERTY
@given(invariant_characters(names=("A1", "A2", "B2", "G2")), st.booleans())
def test_good_filtration_route_matches_reference(p, r, case, times_steinberg):
    # Characters this small mostly have no Steinberg constituent; a factor
    # St_r often gives them one, with chi's weights around (p^r - 1) rho.
    rs, chi = case
    if times_steinberg:
        chi = chi * steinberg_character(rs, p, r)
    provider = DecompositionProvider(rs, p, {})
    value = steinberg_multiplicity(chi, r, provider, method="good_filtration")
    assert value == reference_good_filtration(chi, p, r, rs)


@PROPERTY
@given(invariant_characters())
def test_weyl_basis_leads_are_the_support_leads(case):
    # The good-filtration route bounds nu by the maximal weights of chi's
    # Weyl-basis expansion; they must be the support's maximal dominant weights.
    rs, chi = case
    leads = leading_dominant_weights(to_weyl_basis(chi, rs), rs)
    assert set(leads) == reference_maximal(chi.support, rs)


def reference_product(a, b):
    """The convolution as a tuple-keyed double loop."""
    out = {}
    for wa, ma in a.support.items():
        for wb, mb in b.support.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            new = out.get(w, 0) + ma * mb
            if new:
                out[w] = new
            else:
                del out[w]
    return out


# p^s = 49, 64 and 125: twisted operands have wide, sparse coordinates.
TWISTS = (None, (7, 2), (2, 6), (5, 3))


@st.composite
def virtual_characters(draw, count):
    """count virtual characters of one rank in 1..3, possibly empty or twisted."""
    rank = draw(st.integers(1, 3))
    weight = st.tuples(*[st.integers(-5, 5)] * rank)
    chars = []
    for _ in range(count):
        support = draw(
            st.dictionaries(weight, st.integers(-4, 4).filter(bool), max_size=6)
        )
        chi = Character(rank, support)
        twist = draw(st.sampled_from(TWISTS))
        chars.append(chi if twist is None else frobenius_twist(chi, *twist))
    return chars


@PROPERTY
@given(virtual_characters(count=2))
def test_product_matches_reference(chars):
    a, b = chars
    product = a * b
    assert product.support == reference_product(a, b)
    assert 0 not in product.support.values()


@PROPERTY
@given(virtual_characters(count=2))
def test_product_cancellation(chars):
    x, y = chars
    product = (x + y) * (x - y)
    assert product == x * x - y * y
    assert 0 not in product.support.values()
    assert not x * (-x) + x * x


@PROPERTY
@given(virtual_characters(count=3), st.integers(-3, 3))
def test_ring_axioms(chars, k):
    a, b, c = chars
    unit = Character(a.rank, {(0,) * a.rank: 1})
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * unit == a == unit * a
    assert (a * k) * b == k * (a * b)


def kronecker_applies(a, b):
    """Whether _convolve multiplies a and b by Kronecker substitution."""
    span_a = _bounds(a.support)[1]
    span_b = _bounds(b.support)[1]
    slots = math.prod(sa + sb + 1 for sa, sb in zip(span_a, span_b))
    return slots <= len(a.support) * len(b.support)


@st.composite
def box_filling_pairs(draw, mult=st.integers(-(2**70), 2**70).filter(bool)):
    """Two characters of one rank in 1..3 whose packed box fits in their term count.

    Each fills a box of side at most 4 per coordinate with nonzero
    multiplicities; drawn points are then removed only while the box stays
    no larger than the term count, so the Kronecker product always runs.
    """
    rank = draw(st.integers(1, 3))
    chars = []
    for _ in range(2):
        low = draw(st.tuples(*[st.integers(-3, 3)] * rank))
        side = draw(st.tuples(*[st.integers(1, 4)] * rank))
        box = itertools.product(*(range(lo, lo + n) for lo, n in zip(low, side)))
        chars.append(Character(rank, {w: draw(mult) for w in box}))
    a, b = chars
    for w in draw(st.lists(st.sampled_from(sorted(a.support)), max_size=8)):
        smaller = Character(rank, {v: m for v, m in a.support.items() if v != w})
        if smaller and kronecker_applies(smaller, b):
            a = smaller
    return a, b


@PROPERTY
@given(box_filling_pairs())
def test_kronecker_product_matches_reference(pair):
    a, b = pair
    assert kronecker_applies(a, b)
    product = a * b
    assert product.support == reference_product(a, b)
    assert 0 not in product.support.values()
    assert not a * (-a) + a * a
    assert (a * (-a)).support == reference_product(a, -a)


def spy(monkeypatch, name):
    """Wrap characters.<name>; returns the list of each call's arguments."""
    calls = []
    original = getattr(characters, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(characters, name, wrapper)
    return calls


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "bits, widths", [(7, (1, 2)), (15, (2, 4)), (31, (4, 8)), (63, (8, 9))]
)
def test_kronecker_slot_width_edges(monkeypatch, bits, widths, sign):
    """||a|| * ||b|| = sqrt(t^2 + 2) for t = 2^bits - 1 (just below 2^bits) and
    t = 2^bits (just above): the first fits a signed slot of widths[0] bytes,
    the second needs widths[1]."""
    operands = spy(monkeypatch, "_kronecker_operand")
    for t, width in zip((2**bits - 1, 2**bits), widths):
        a = Character(1, {(0,): 1, (1,): t, (2,): -1})
        # b = sign * e^1: a product with e^0 would return a unconvolved.
        b = Character(1, {(1,): sign})
        product = a * b
        assert product.support == reference_product(a, b)
        assert product.support[(2,)] == sign * t
        assert [args[2] for args in operands] == [width, width]
        operands.clear()


@pytest.mark.parametrize(
    "a, b, kronecker",
    [
        # b = e^1, not e^0, whose products are not convolved.
        ({(0,): 1, (1,): 1}, {(1,): 1}, True),  # 2 slots, 2 terms
        ({(0,): 1, (2,): 1}, {(1,): 1}, False),  # 3 slots, 2 terms
        (
            {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): -3},
            {(0, 0): 1, (1, 0): 1},
            True,
        ),  # 6 slots, 8 terms
        ({(0, 0): 2, (1, 1): -3}, {(0, 0): 1, (1, 0): 1}, False),  # 6 slots, 4 terms
    ],
)
def test_convolve_takes_each_path(monkeypatch, a, b, kronecker):
    big = spy(monkeypatch, "_kronecker_product")
    loop = spy(monkeypatch, "_loop_product")
    rank = len(next(iter(a)))
    a, b = Character(rank, a), Character(rank, b)
    assert (a * b).support == reference_product(a, b)
    assert (len(big), len(loop)) == ((1, 0) if kronecker else (0, 1))


def test_rank_zero_product():
    # The decode reads no coordinate at rank 0, where the one weight is ().
    a, b = Character(0, {(): 2}), Character(0, {(): -3})
    assert (a * b).support == {(): -6} == reference_product(a, b)
