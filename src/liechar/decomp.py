"""Decomposition numbers, simple characters, and the simple basis.

A DecompositionProvider holds the rows [nabla(lam) : L(mu)] of the
p-restricted lam for a fixed root system and prime.  Restricted simple
characters are recovered from those rows by triangular inversion; every
other simple character comes from the twisted tensor product over base-p
digits.  Every row, a restricted one included, is the simple-basis
expansion of chi(lam), memoized: e_lam eliminated in the Weyl basis against
the Weyl coefficients of the simple characters, so no chi(lam) is formed.

A simple-basis expansion is a leading-term elimination (to_simple_basis).
One coefficient [X : L(t)]_G of a W-invariant X is read with none, by
Weyl's formula (Jantzen, RAGS II.5): X is the sum of c_mu(X) chi(mu) over
dominant mu, with c_mu(X) = sum_w sgn(w) X(mu + rho - w rho), so
[X : L(t)]_G is the sum of c_mu(X) [nabla(mu) : L(t)]_G.  The rows depend
on neither X nor t, so one memo per mu serves every read, and
simple_coefficient reads each c_mu(X) pointwise off the factors of X.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add, itemgetter, mul, sub

from .characters import (
    Character,
    _times_denominator,
    _weyl_coefficients,
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
    back off the simple characters (row).  With rows None, every
    restricted nabla(lam) is simple, and no row is held.
    """

    def __init__(self, rs: RootSystem, p: int, rows):
        self.rs = rs
        self.p = p
        if rows is not None:
            rows = {tuple(lam): dict(factors) for lam, factors in rows.items()}
        self._rows = rows
        self._simple_cache = {}
        self._finite_cache = {}
        # (mu, nu) -> simple-basis coefficients of L(mu) * L(nu), and
        # (r, mu) -> {lam: cj_rhs(lam, mu, r)}, for pims.cj_rhs.
        self._tensor_cache = {}
        self._rhs_columns = {}
        # lam -> _expansion(lam), kappa -> _weyl_simple(kappa), and
        # (t, frozenset of lead sums) -> the (mu + rho, [nabla(mu) : L(t)])
        # that simple_coefficient sums over.
        self._row_cache = {}
        self._weyl_cache = {}
        self._read_cache = {}

    @classmethod
    def builtin_sl2(cls, p, rs=None):
        """Rank-1 rows: every restricted nabla(m), m < p, is simple, so
        the provider holds no rows.

        LiecharError, as restricted_weights refuses the p restricted
        weights, for p > MAX_WEYL_WEIGHTS.
        """
        rs = rs or RootSystem(CartanMatrix.builtin("A1"))
        if rs.rank != 1:
            raise DataValidationError("built-in provider supports only rank 1")
        if p > MAX_WEYL_WEIGHTS:
            raise LiecharError(
                f"the {p}^1-restricted weights of rank 1 number more than "
                f"{MAX_WEYL_WEIGHTS}"
            )
        return cls(rs, p, None)

    def row(self, lam):
        """Map mu -> [nabla(lam) : L(mu)] over its nonzero entries: the
        simple-basis expansion of chi(lam), for every dominant lam.

        For a restricted lam that is the table's row, since simple_character
        inverts exactly those rows; CoverageError when the table lacks a row
        it needs, and LiecharError if the expansion has a negative entry.
        """
        lam = tuple(lam)
        self.rs.check_rank(lam)
        if not self.rs.is_dominant(lam):
            raise NonDominantError(f"highest weight {lam} is not dominant")
        row = self._expansion(lam)
        if any(m < 0 for m in row.values()):
            raise LiecharError(f"row {lam} has a negative entry: {row}")
        return dict(row)

    def _expansion(self, lam):
        """The simple-basis expansion of chi(lam), for a dominant lam,
        memoized.  chi(lam) is e_lam in the Weyl basis, so it is e_lam
        eliminated against the Weyl coefficients of each ch L(kappa), also
        memoized, and no chi(lam) is formed."""
        row = self._row_cache.get(lam)
        if row is None:
            unit = Character._wrap(self.rs.rank, {lam: 1})
            row = self._row_cache[lam] = expand(unit, self.rs, self._weyl_simple)
        return row

    def _weyl_simple(self, kappa):
        """ch L(kappa) in the Weyl basis, as a character on the dominant
        weights; memoized.  A simple character is W-invariant, so this is
        to_weyl_basis without its check."""
        chi = self._weyl_cache.get(kappa)
        if chi is None:
            product = _times_denominator(self.simple_character(kappa), self.rs)
            coeffs = _weyl_coefficients(product)
            chi = self._weyl_cache[kappa] = Character._wrap(self.rs.rank, coeffs)
        return chi

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
            row = {lam: 1} if self._rows is None else self._rows.get(lam)
            if row is None:
                raise CoverageError(lam, f"no decomposition row for weight {lam}")
            chi = weyl_character(lam, self.rs)
            for mu, mult in row.items():
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


def simple_coefficient(factors, t, provider):
    """[prod : L(t)]_G for the product of factors.

    By Weyl's formula it is the sum of c_mu(prod) n_mu(t) over dominant mu
    (see the module docstring), where n_mu(t) = [nabla(mu) : L(t)]_G is
    read off the simple-basis expansion of chi(mu) (DecompositionProvider.
    _expansion, memoized per mu) and is 0 unless mu lies at or above t's
    scaled height.  Every dominant weight of the product lies below a sum
    of leading dominant weights of the factors, one each
    (Character._dominant_leads, memoized on each factor), and so does every
    mu with c_mu(prod) not 0.  So mu runs over the dominant weights at or
    above t's height below those sums (_dominant_below).  The mu with
    n_mu(t) not 0 depend only on t and the sums, and are memoized on the
    provider under them.  c_mu(prod) is the value of prod * d at mu + rho,
    read pointwise as the sum of S(y) N(mu + rho - y): N is F * d, F the
    factor of largest support (Character._numerator, memoized on F; for
    F = chi(lam) it is the signed orbit of lam + rho), and S, the product
    of the others, is the one product a read forms.  The sum runs over the
    smaller of N and S.

    The identity holds only for a W-invariant product, and the caller
    certifies it (finite.steinberg_nu_sum, pims.jantzen_identity_check).
    The top weight of a W-invariant product, the sum of its factors' tops
    in (scaled height, tuple) order, is dominant.  A product whose top
    reaches t's height but is not dominant raises NonInvariantError, naming
    that top.
    """
    rs = provider.rs
    floor = rs.scaled_height(t)
    for f in factors:
        f._check_compatible(rs)
    factors = sorted(
        (f for f in factors if not f._is_unit()), key=lambda f: len(f.support)
    )
    if not factors:
        return int(not any(t))
    if not all(factors):
        return 0
    tops = [f.by_height(rs)[0] for f in factors]
    if sum(h for h, _, _ in tops) < floor:
        return 0
    top = tuple(map(sum, zip(*(w for _, w, _ in tops))))
    if min(top) < 0:
        raise not_invariant_error(top)
    leads = itertools.product(*(f._dominant_leads(rs) for f in factors))
    key = (t, frozenset(tuple(map(sum, zip(*ws))) for ws in leads))
    entries = provider._read_cache.get(key)
    if entries is None:
        entries = provider._read_cache[key] = [
            (tuple(map(add, mu, rs.rho)), n)
            for mu in _dominant_below(key[1], floor, rs)
            if (n := provider._expansion(mu).get(t))
        ]
    numerator = factors.pop()._numerator(rs)
    rest = functools.reduce(mul, factors).support if factors else {(0,) * rs.rank: 1}
    small, large = sorted((numerator, rest), key=len)
    total = 0
    for mu_rho, n in entries:
        for y, m in small.items():
            total += n * m * large.get(tuple(map(sub, mu_rho, y)), 0)
    return total


def _dominant_below(weights, floor, rs):
    """The dominant weights at or above scaled height floor below one of
    weights, a set of dominant weights, those included.

    Dominant kappa < lam are joined by a chain of dominant weights, each a
    positive root below the one before (Stembridge, Adv. Math. 136 (1998),
    Cor. 2.7), whose heights fall from lam's to kappa's.  So a walk down
    from weights by positive roots, through dominant weights at or above
    the floor, reaches every such kappa.
    """
    height = rs.scaled_height
    roots = [(root, height(root)) for root in rs.positive_roots]
    stack = [(height(w), w) for w in weights if height(w) >= floor]
    found = {w for _, w in stack}
    while stack:
        h, kappa = stack.pop()
        for root, step in roots:
            if h - step >= floor:
                low = tuple(map(sub, kappa, root))
                if min(low) >= 0 and low not in found:
                    found.add(low)
                    stack.append((h - step, low))
    return found


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
