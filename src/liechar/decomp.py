"""Decomposition numbers, simple characters, and the simple basis.

A DecompositionProvider answers [nabla(lam) : L(mu)] for a fixed root
system and prime.  Restricted simple characters are recovered from the
rows by triangular inversion; arbitrary simple characters then come from
the twisted tensor product over base-p digits.
"""

from __future__ import annotations

from .characters import Character, expand, frobenius_twist, weyl_character
from .errors import (
    CoverageError,
    DataValidationError,
    LiecharError,
    NonDominantError,
    strict_int,
    strict_int_tuple,
)
from .rootdata import CartanMatrix, RootSystem, root_system_of


def weight_digits(lam, p):
    """Per-coordinate base-p digits: lam = sum_i p^i lam_i, lam_i restricted."""
    if any(c < 0 for c in lam):
        raise NonDominantError(f"weight {tuple(lam)} has a negative coordinate")
    digits = []
    current = list(lam)
    while any(current):
        digits.append(tuple(c % p for c in current))
        current = [c // p for c in current]
    return digits or [tuple(lam)]


class DecompositionProvider:
    """Source of decomposition numbers [nabla(lam) : L(mu)] for fixed (rs, p)."""

    def __init__(self, rs: RootSystem, p: int):
        self.rs = rs
        self.p = p
        self._restricted_cache = {}
        self._simple_cache = {}
        self._finite_cache = {}
        # (mu, nu) -> simple-basis coefficients of L(mu) * L(nu), for cj_rhs.
        self._tensor_cache = {}

    def row(self, lam):
        """Map mu -> [nabla(lam) : L(mu)] over its nonzero entries."""
        raise NotImplementedError

    def restricted_simple_character(self, lam):
        """ch L(lam) for restricted lam, by triangular inversion of rows."""
        lam = tuple(lam)
        cached = self._restricted_cache.get(lam)
        if cached is not None:
            return cached
        chi = weyl_character(lam, self.rs)
        for mu, mult in self.row(lam).items():
            if mu == lam:
                continue
            chi = chi - mult * self.simple_character(mu)
        self._restricted_cache[lam] = chi
        return chi

    def simple_character(self, lam):
        """ch L(lam) via the twisted tensor product over base-p digits."""
        lam = tuple(lam)
        cached = self._simple_cache.get(lam)
        if cached is not None:
            return cached
        if not self.rs.is_dominant(lam):
            raise NonDominantError(f"highest weight {lam} is not dominant")
        digits = weight_digits(lam, self.p)
        if len(digits) == 1:
            chi = self.restricted_simple_character(lam)
        else:
            chi = Character(self.rs.rank, {(0,) * self.rs.rank: 1})
            for i, digit in enumerate(digits):
                chi = chi * frobenius_twist(
                    self.restricted_simple_character(digit), self.p, i
                )
        self._simple_cache[lam] = chi
        return chi


class Sl2DecompositionProvider(DecompositionProvider):
    """Built-in algorithmic provider for rank 1.

    For rank 1 the restricted costandard modules are simple, so restricted
    simple characters are plain weight strings; rows then fall out of the
    simple-basis expansion of the costandard character.
    """

    def __init__(self, p, rs=None):
        rs = rs or RootSystem(CartanMatrix.builtin("A1"))
        if rs.rank != 1:
            raise DataValidationError("built-in provider supports only rank 1")
        super().__init__(rs, p)
        self._row_cache = {}

    def restricted_simple_character(self, lam):
        lam = tuple(lam)
        if not 0 <= lam[0] < self.p:
            raise CoverageError(lam, f"weight {lam} is not p-restricted")
        return weyl_character(lam, self.rs)

    def row(self, lam):
        lam = tuple(lam)
        if lam[0] < 0:
            raise NonDominantError(f"weight {lam} is not dominant")
        cached = self._row_cache.get(lam)
        if cached is None:
            cached = to_simple_basis(weyl_character(lam, self.rs), self)
            if any(m < 0 for m in cached.values()):
                raise LiecharError(f"row {lam} has a negative entry: {cached}")
            self._row_cache[lam] = cached
        return dict(cached)


class FileDecompositionProvider(DecompositionProvider):
    """Provider backed by an explicit, validated table of rows."""

    def __init__(self, rs, p, rows):
        super().__init__(rs, p)
        self._rows = {tuple(lam): dict(factors) for lam, factors in rows.items()}

    def row(self, lam):
        lam = tuple(lam)
        try:
            return dict(self._rows[lam])
        except KeyError:
            raise CoverageError(lam, f"no decomposition row for weight {lam}")


def sl2_decomposition_row(m, p):
    """[nabla(m) : L(n)] for rank 1, as a map over the integer n."""
    if m < 0:
        raise NonDominantError(f"need m >= 0, got {m}")
    provider = Sl2DecompositionProvider(p)
    return {mu[0]: mult for mu, mult in provider.row((m,)).items()}


def to_simple_basis(chi, provider):
    """Coefficients [chi : chi_p(lam)]_G by leading-term elimination."""
    return expand(chi, provider.rs, provider.simple_character)


def load_decomposition_data(doc, rs=None):
    """Build a validated FileDecompositionProvider from a JSON document.

    Schema: {"type"/"cartan": ..., "p": prime, "rows":
    [{"lambda": [...], "factors": [{"mu": [...], "mult": n}, ...]}, ...]}.
    Unitriangularity and dimension consistency are checked per row.  The
    dimension check binds only non-restricted rows: a restricted L(lam) is
    built from its own row, so the row's dimensions always add up.
    Without rs the document must name its root system; with rs, a document
    that names one must name rs's Cartan matrix (see root_system_of).
    """
    if not isinstance(doc, dict):
        raise DataValidationError("decomposition document must be an object")
    rs = root_system_of(doc, rs)
    p = strict_int(doc.get("p"), "p")
    if p < 2:
        raise DataValidationError(f"invalid prime p: {p!r}")
    raw_rows = doc.get("rows")
    if not isinstance(raw_rows, list):
        raise DataValidationError("document needs a 'rows' list")

    rows = {}
    for entry in raw_rows:
        try:
            lam = strict_int_tuple(entry["lambda"], "lambda")
            factors = {}
            for f in entry["factors"]:
                mu = strict_int_tuple(f["mu"], f"row {lam}: mu")
                if mu in factors:
                    raise DataValidationError(f"row {lam}: duplicate factor {mu}")
                factors[mu] = strict_int(f["mult"], f"row {lam}: multiplicity")
        except (KeyError, TypeError, ValueError) as exc:
            raise DataValidationError(f"malformed row entry {entry!r}") from exc
        if lam in rows:
            raise DataValidationError(f"duplicate row for lambda {lam}")
        rs.check_rank(lam)
        if factors.get(lam) != 1:
            raise DataValidationError(
                f"row {lam}: [nabla(lam):L(lam)] must be 1, got {factors.get(lam)}"
            )
        for mu, mult in factors.items():
            if mult < 0:
                raise DataValidationError(f"row {lam}: negative multiplicity at {mu}")
            if mult and not rs.dominance_leq(mu, lam):
                raise DataValidationError(
                    f"row {lam}: factor {mu} violates unitriangularity"
                )
        rows[lam] = {mu: m for mu, m in factors.items() if m}

    provider = FileDecompositionProvider(rs, p, rows)
    for lam in rows:
        try:
            total = sum(
                mult * provider.simple_character(mu).dimension()
                for mu, mult in rows[lam].items()
            )
        except CoverageError as exc:
            raise DataValidationError(
                f"row {lam}: incomplete data, {exc}"
            ) from exc
        expected = rs.weyl_dimension(lam)
        if total != expected:
            raise DataValidationError(
                f"row {lam}: dimension mismatch, {total} != {expected}"
            )
    return provider
