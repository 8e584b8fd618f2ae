"""Decomposition numbers, simple characters, and the simple basis.

A DecompositionProvider holds the rows [nabla(lam) : L(mu)] of the
p-restricted lam for a fixed root system and prime.  Restricted simple
characters are recovered from those rows by triangular inversion; every
other simple character comes from the twisted tensor product over base-p
digits.  Every row, a restricted one included, is the simple-basis
expansion of chi(lam).

A simple-basis expansion is a leading-term elimination (to_simple_basis),
and expand_above cuts it at a floor.  One coefficient [X : L(t)]_G of a
W-invariant X can also be read with none: X is a sum of W-orbit sums
m(kappa), so it is the sum of X(kappa) [m(kappa) : L(t)]_G, and those orbit
coefficients, unitriangular in the simple characters, can be memoized on
the provider and shared by every product read at the same t.
simple_coefficient eliminates on the first read of a t and sums over the
memo from the second, since filling the memo of a t can cost far more
than one elimination.
"""

from __future__ import annotations

import math
from operator import add, itemgetter

from .characters import (
    Character,
    expand,
    not_invariant_error,
    twisted_product,
    weyl_character,
)
from .errors import (
    CoverageError,
    DataValidationError,
    LiecharError,
    NonDominantError,
    strict_int,
    weight_keyed,
)
from .rootdata import MAX_WEYL_WEIGHTS, CartanMatrix, RootSystem, root_system_of


def weight_digits(lam, p):
    """Per-coordinate base-p digits: lam = sum_i p^i lam_i, lam_i restricted.

    ValueError for a base p < 2, in which the digits never end.
    """
    if p < 2:
        raise ValueError(f"need a base of at least 2, got {p}")
    if any(c < 0 for c in lam):
        raise NonDominantError(f"weight {tuple(lam)} has a negative coordinate")
    digits = []
    current = list(lam)
    while any(current):
        digits.append(tuple(c % p for c in current))
        current = [c // p for c in current]
    return digits or [tuple(lam)]


class DecompositionProvider:
    """Decomposition numbers [nabla(lam) : L(mu)] for fixed (rs, p).

    Holds a table of rows for p-restricted lam only: by Steinberg's tensor
    product theorem (Jantzen, RAGS II.3.17) those are the only rows that
    are data.  Every simple character is derived from them
    (simple_character, the one reader of the table), and every row is read
    back off the simple characters (row).
    """

    def __init__(self, rs: RootSystem, p: int, rows):
        self.rs = rs
        self.p = p
        self._rows = {tuple(lam): dict(factors) for lam, factors in rows.items()}
        self._simple_cache = {}
        self._finite_cache = {}
        # (mu, nu) -> simple-basis coefficients of L(mu) * L(nu), for cj_rhs.
        self._tensor_cache = {}
        # t -> {kappa: [m(kappa) : L(t)]_G}, m(kappa) the W-orbit sum of
        # kappa, for simple_coefficient; a t read once maps to {}.
        self._orbit_cache = {}

    @classmethod
    def builtin_sl2(cls, p, rs=None):
        """Rank-1 rows: every restricted nabla(m), m < p, is simple.

        LiecharError, from restricted_weights, for p > MAX_WEYL_WEIGHTS.
        """
        rs = rs or RootSystem(CartanMatrix.builtin("A1"))
        if rs.rank != 1:
            raise DataValidationError("built-in provider supports only rank 1")
        return cls(rs, p, {m: {m: 1} for m in rs.restricted_weights(p, 1)})

    def row(self, lam):
        """Map mu -> [nabla(lam) : L(mu)] over its nonzero entries: the
        simple-basis expansion of chi(lam), for every dominant lam.

        For a restricted lam that is the table's row, since simple_character
        inverts exactly those rows; CoverageError when the table lacks a row
        it needs, and LiecharError if the expansion has a negative entry.
        """
        row = to_simple_basis(weyl_character(lam, self.rs), self)
        if any(m < 0 for m in row.values()):
            raise LiecharError(f"row {tuple(lam)} has a negative entry: {row}")
        return row

    def simple_character(self, lam):
        """ch L(lam), memoized.

        For restricted lam, triangular inversion of the table's row:
        chi(lam) minus [nabla(lam) : L(mu)] ch L(mu) over mu < lam
        (CoverageError when the table lacks the row).  Otherwise
        characters.twisted_product of the ch L(lam_i) over the base-p digits
        lam_i of lam, refused with LiecharError before any product when the
        digit characters' support sizes multiply to more than
        MAX_WEYL_WEIGHTS (that product bounds the support, exactly in rank 1).
        """
        lam = tuple(lam)
        cached = self._simple_cache.get(lam)
        if cached is not None:
            return cached
        if not self.rs.is_dominant(lam):
            raise NonDominantError(f"highest weight {lam} is not dominant")
        digits = weight_digits(lam, self.p)
        if len(digits) == 1:
            if lam not in self._rows:
                raise CoverageError(lam, f"no decomposition row for weight {lam}")
            chi = weyl_character(lam, self.rs)
            for mu, mult in self._rows[lam].items():
                if mu != lam:
                    chi = chi - mult * self.simple_character(mu)
        else:
            factors = [self.simple_character(digit) for digit in digits]
            if math.prod(len(f.support) for f in factors) > MAX_WEYL_WEIGHTS:
                raise LiecharError(
                    f"L{lam} is too large: its digit characters' supports "
                    f"multiply to more than {MAX_WEYL_WEIGHTS} weights"
                )
            chi = twisted_product(factors, self.p)
        self._simple_cache[lam] = chi
        return chi


def to_simple_basis(chi, provider):
    """Coefficients [chi : chi_p(lam)]_G by leading-term elimination, in
    decreasing (scaled height, tuple) order."""
    return expand(chi, provider.rs, provider.simple_character)


def expand_above(factors, floor, provider):
    """The {lam: c} of the simple-basis expansion of the product of factors
    with lam at or above scaled height floor, in decreasing (scaled height,
    tuple) order.

    Only the product's weights at or above the floor are formed
    (_product_above), and expand subtracts each ch L(lam) only down to the
    floor.  Subtracting L(lam) changes only weights below lam, so the cut
    residual is the full residual's part at or above the floor at every
    step, and the leads are the full expansion's down to the floor.  One
    coefficient [prod : L(t)]_G is expand_above(factors, scaled_height(t),
    provider).get(t, 0), as simple_coefficient reads it the first time.

    The cut is sound only for a W-invariant product, and the caller
    certifies it (pims.jantzen_identity_check).
    Then the full residual stays W-invariant, and the dominant conjugate of
    each of its weights lies above that weight, so once no dominant weight
    at or above the floor is left, nothing at or above the floor is.  Every
    lead processed is checked as in to_simple_basis (NonInvariantError).
    With a floor below every weight nothing is cut, so a character that is
    not W-invariant raises the full expansion's error.
    """
    rs = provider.rs
    chi = Character._wrap(rs.rank, _product_above(factors, floor, rs))
    return expand(chi, rs, provider.simple_character, floor)


def simple_coefficient(factors, t, provider):
    """[prod : L(t)]_G for the product of factors.

    A W-invariant X is the sum of X(kappa) m(kappa) over dominant kappa,
    m(kappa) being the W-orbit sum of kappa, so [X : L(t)]_G is the sum of
    X(kappa) a(kappa, t) with a(kappa, t) = [m(kappa) : L(t)]_G
    (_orbit_coefficients).  a(kappa, t) is 0 unless kappa lies at or above
    t's scaled height, so only that part of the product is formed
    (_product_above), and only its dominant weights are read.

    Finding the a(kappa, t) of one t can cost far more than one elimination
    (expand_above), and pays only when the same t is read again.  So the
    first read of a target t is expand_above's, and marks t in
    provider._orbit_cache; every later read of t sums over the memo.

    The identity holds only for a W-invariant product, and the caller
    certifies it, as for expand_above (finite.steinberg_nu_sum).  A cut
    product that is not empty but holds no dominant weight raises
    NonInvariantError, as expand does.
    """
    rs = provider.rs
    floor = rs.scaled_height(t)
    memo = provider._orbit_cache.get(t)
    if memo is None:
        value = expand_above(factors, floor, provider).get(t, 0)
        provider._orbit_cache[t] = {}
        return value
    product = _product_above(factors, floor, rs)
    dominant = [kappa for kappa in product if min(kappa) >= 0]
    if product and not dominant:
        raise not_invariant_error(max(product))
    _orbit_coefficients(dominant, t, memo, provider)
    return sum(product[kappa] * memo[kappa] for kappa in dominant)


def _orbit_coefficients(kappas, t, memo, provider):
    """Store a(kappa, t) = [m(kappa) : L(t)]_G in memo[kappa] for each
    kappa in kappas.

    ch L(kappa) is m(kappa) plus dim L(kappa)_lam m(lam) over the dominant
    lam < kappa, so a(kappa, t) is delta(kappa, t) less the sum of
    dim L(kappa)_lam a(lam, t).  A lam below t's scaled height has no
    L(t) in m(lam), so each ch L(kappa) is walked in decreasing height
    (Character.by_height) down to that height.  Each lam lies below kappa,
    so the chain ends; it can be longer than the recursion limit, so it
    runs on a stack of the weights still to be found.
    """
    rs = provider.rs
    floor = rs.scaled_height(t)
    stack = list(kappas)
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        value = int(top == t)
        missing = []
        for h, lam, m in provider.simple_character(top).by_height(rs):
            if h < floor:
                break
            if lam != top and min(lam) >= 0:
                a = memo.get(lam)
                if a is None:
                    missing.append(lam)
                else:
                    value -= m * a
        if missing:
            stack += missing
        else:
            memo[top] = value
            stack.pop()


def _product_above(factors, floor, rs):
    """The support of the product of factors, cut to the weights of scaled
    height at least floor.

    Height is additive, so a weight of a partial product can reach the
    floor only if its height plus the top heights of the factors still to
    come does: each partial product is cut at floor minus those.  Each
    factor is walked in decreasing height, and the walk breaks at the first
    weight that takes the partial entry below the cut.  Every partial entry
    lies at or above its own cut, which is the next cut less the next
    factor's top height, so no entry needs a test of its own.  A unit factor
    e^0 is skipped.  The product is empty when the top heights sum to less
    than the floor; when every factor is a unit, that is the only cut.
    """
    for f in factors:
        f._check_compatible(rs)
    layers = [f.by_height(rs) for f in factors if not f._is_unit()]
    if not all(layers):
        return {}
    rest = sum(layer[0][0] for layer in layers)
    if rest < floor:
        return {}
    partial = [(0, (0,) * rs.rank, 1)]
    for layer in layers:
        top = layer[0][0]
        rest -= top
        cut = floor - rest
        out = {}
        for ha, wa, ma in partial:
            for hb, wb, mb in layer:
                if ha + hb < cut:
                    break
                key = (ha + hb, tuple(map(add, wa, wb)))
                out[key] = out.get(key, 0) + ma * mb
        partial = [(h, w, m) for (h, w), m in out.items() if m]
    return {w: m for _, w, m in partial}


def load_decomposition_data(doc, rs=None):
    """Build a validated DecompositionProvider from a JSON document.

    Schema: {"type"/"cartan": ..., "p": prime, "rows":
    [{"lambda": [...], "factors": [{"mu": [...], "mult": n}, ...]}, ...]}.
    The rows, and the factors of each, are read by errors.weight_keyed, so a
    malformed entry or a repeated lambda or mu raises DataValidationError,
    and a lambda or mu not of rs's rank, even at multiplicity 0, raises
    RankMismatchError.  Each row must be unitriangular with a unit diagonal.
    The restricted rows become the provider's table, and each must determine
    its simple character (DataValidationError naming the row when a row it
    needs is missing).  A non-restricted row is not stored: it must equal the
    row the provider derives from the restricted ones.
    Without rs the document must name its root system; with rs, a document
    that names one must name rs's Cartan matrix (see root_system_of).
    """
    if not isinstance(doc, dict):
        raise DataValidationError("decomposition document must be an object")
    rs = root_system_of(doc, rs)
    p = strict_int(doc.get("p"), "p")
    if p < 2:
        raise DataValidationError(f"invalid prime p: {p!r}")
    rows = weight_keyed(
        doc.get("rows"),
        "lambda",
        lambda row: weight_keyed(row["factors"], "mu", itemgetter("mult"), "factor"),
        "row for lambda",
    )
    for lam, factors in rows.items():
        rs.check_rank(lam)
        for mu, mult in factors.items():
            rs.check_rank(mu)
            if strict_int(mult, f"row {lam}: multiplicity") < 0:
                raise DataValidationError(f"row {lam}: negative multiplicity at {mu}")
            if mult and not rs.dominance_leq(mu, lam):
                raise DataValidationError(
                    f"row {lam}: factor {mu} violates unitriangularity"
                )
        if factors.get(lam) != 1:
            raise DataValidationError(
                f"row {lam}: [nabla(lam):L(lam)] must be 1, got {factors.get(lam)}"
            )
        rows[lam] = {mu: m for mu, m in factors.items() if m}

    restricted = {
        lam: f for lam, f in rows.items() if all(0 <= c < p for c in lam)
    }
    provider = DecompositionProvider(rs, p, restricted)
    for lam, factors in rows.items():
        try:
            if lam in restricted:
                provider.simple_character(lam)
                continue
            derived = provider.row(lam)
        except CoverageError as exc:
            raise DataValidationError(f"row {lam}: incomplete data, {exc}") from exc
        if derived != factors:
            raise DataValidationError(
                f"row {lam}: {factors} differs from the row derived from the "
                f"restricted rows, {derived}"
            )
    return provider
