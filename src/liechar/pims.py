"""Injective-hull multiplicity calculus and the identity checks.

Houses the q_r(lambda) characters, both sides of the Chastkofsky-Jantzen
formula, Jantzen's basis identity, the bar-Q multiset, and the
socle-multiplicity comparisons.  The prime p is the decomposition
provider's and, where Q-hat data is read, r is the QrData's: q = provider.p^r.
A QrData is built over its provider and reads the root system and p from
it, so the two sides of an identity are always for one group and one
prime; the functions that read Q-hat data take the provider from it.

The data is q_r(lambda), never ch Q-hat_r(lambda) = ch St_r * q_r(lambda).
Every q_r comes from an exact division by ch St_r (character_divide): the
built-in rank-1 data divides the p classical ch Q-hat_1(m) once each and
forms q_r as a twisted product, and QrData.from_json_dict divides each
Q-hat of a document as it is read.

Each identity check is a generator of records holding both sides of one
cell, in a fixed order, and lays out nothing: cj_table yields
(lam, mu, lhs, rhs), jantzen_identity_check (lam, nu, lhs, rhs) and
theorem45a_socle_check (mu, lhs, rhs).  The CLI compares and renders them.
"""

from __future__ import annotations

from operator import add

from .characters import (
    Character,
    _check_invariant,
    _over_denominator,
    _times_denominator,
    check_printable_power,
    from_weyl_basis,
    leading_dominant_weights,
    twisted_product,
)
from .decomp import expand_above, to_simple_basis
from .errors import (
    CoverageError,
    DataValidationError,
    DivisionFailure,
    NonInvariantError,
    strict_int,
    weight_keyed,
)
from .finite import (
    contributing_nus,
    finite_simple_multiplicities,
    steinberg_multiplicity,
    steinberg_nu_sum,
)
from .rootdata import root_system_of


def character_divide(num, rs, p, r):
    """q_r with ch St_r * q_r = num, for a W-invariant num; St_r only.

    By Weyl's formula ch St_r = chi((p^r - 1) rho) = d^(p^r) / d, so q_r is
    num * d over d^(p^r): one product with the Weyl denominator, then one
    exact root-string division per positive root (see the characters
    module docstring).  RankMismatchError if num is not of rs's rank, and
    NonInvariantError if num is not W-invariant (St_r * e^mu is a multiple
    of St_r but is not); DivisionFailure, naming the least lowest weight of
    a root string left over, if St_r does not divide num.
    """
    return Character._wrap(
        rs.rank, _over_denominator(_times_denominator(num, rs), rs, p**r)
    )


def _check_entry(lam, chi, rs, q):
    """DataValidationError unless lam is a q-restricted weight of rs's rank
    and chi has rs's rank: the rule for every entry of a QrData."""
    if len(lam) != rs.rank or not all(0 <= c < q for c in lam):
        raise DataValidationError(
            f"entry {lam}: lambda is not a {q}-restricted weight of rank {rs.rank}"
        )
    if chi.rank != rs.rank:
        raise DataValidationError(f"entry {lam}: rank mismatch")


class QrData:
    """q_r(lambda) = ch Q-hat_r(lambda) / ch St_r over the restricted weights,
    for the root system and prime of a decomposition provider.

    Built from entries, a map from lambda to q_r(lambda), and validated at
    construction: each lambda is a p^r-restricted weight of the provider's
    rank, each q_r(lambda) is a W-invariant character of that rank, and the
    Steinberg entry is the trivial character (DataValidationError).  No
    Q-hat character is kept, since ch Q-hat_r(lambda) is
    steinberg_character(rs, p, r) * q.
    """

    def __init__(self, provider, r, entries):
        self.provider = provider
        self.r = r
        self.entries = {tuple(lam): q for lam, q in entries.items()}
        self._leads = {}
        rs = provider.rs
        for lam, q in self.entries.items():
            _check_entry(lam, q, rs, provider.p**r)
            try:
                _check_invariant(q, rs)
            except NonInvariantError as exc:
                raise DataValidationError(f"q_r for {lam}: {exc}") from exc
        st_q = self.entries.get(rs.steinberg_weight(provider.p, r))
        if st_q is not None and not st_q._is_unit():
            raise DataValidationError(
                "Steinberg entry must divide to the trivial character"
            )

    def q(self, lam):
        try:
            return self.entries[tuple(lam)]
        except KeyError:
            raise CoverageError(tuple(lam), f"no Q-hat data for weight {lam}")

    def leads(self, lam):
        """The leading dominant weights of q_r(lam).

        q_r(lam) is W-invariant (checked at construction), so every weight
        of its support lies below its dominant W-conjugate, which is in the
        support, and hence below one of these; cj_lhs bounds nu by them.
        Computed on first use, not at construction.
        """
        lam = tuple(lam)
        cached = self._leads.get(lam)
        if cached is None:
            cached = self._leads[lam] = tuple(
                leading_dominant_weights(self.q(lam).support, self.provider.rs)
            )
        return cached

    @classmethod
    def builtin_sl2(cls, provider, r):
        """Rank-1 data from the classical ch Q-hat_1, with p divisions.

        ch Q-hat_1(m) = chi(2p-2-m) + chi(m) for m <= p-2 and chi(p-1) =
        ch St_1 at the Steinberg weight: the Weyl-basis map {2p-2-m: 1,
        m: 1}, whose two keys coincide at m = p-1.  Each is divided by
        ch St_1 once, and q_r(lambda) is characters.twisted_product of the
        q_1 of lambda's r base-p digits, as ch Q-hat_r and ch St_r are.
        """
        rs, p = provider.rs, provider.p
        if rs.rank != 1:
            raise DataValidationError("built-in Q-hat data supports only rank 1")
        qhat1 = [from_weyl_basis({(2 * p - 2 - m,): 1, (m,): 1}, rs) for m in range(p)]
        q1 = [character_divide(qhat, rs, p, 1) for qhat in qhat1]
        entries = {
            lam: twisted_product([q1[lam[0] // p**i % p] for i in range(r)], p)
            for lam in rs.restricted_weights(p, r)
        }
        return cls(provider, r, entries)

    @classmethod
    def from_json_dict(cls, doc, provider):
        """Load from {"type"/"cartan": ..., "p": ..., "r": ..., "entries":
        [{"lambda": [...], "qhat": <character JSON>}, ...]} over provider.

        A document that names a root system must name the provider's Cartan
        matrix (see root_system_of), and its p must be the provider's; each
        refusal is a DataValidationError naming both.  The entries are read
        by errors.weight_keyed, so a malformed entry or a repeated lambda
        raises DataValidationError.  Each entry is checked as the
        constructor checks it (_check_entry), and its Q-hat divided by
        ch St_r, as it is read, so at most one Q-hat is held at a time, and
        the first bad entry in document order is the one named.
        """
        if not isinstance(doc, dict):
            raise DataValidationError("Q-hat document must be an object")
        rs = root_system_of(doc, provider.rs)
        p = strict_int(doc.get("p"), "p")
        r = strict_int(doc.get("r"), "r")
        if p < 2 or r < 1:
            raise DataValidationError(f"invalid (p, r): ({p!r}, {r!r})")
        if p != provider.p:
            raise DataValidationError(
                f"Q-hat data is for p={p}, decomposition data is for p={provider.p}"
            )
        check_printable_power(p, r, "r =")

        def read_q(entry):
            # weight_keyed has checked entry["lambda"] already.
            lam = tuple(entry["lambda"])
            qhat = Character.from_json_dict(entry["qhat"])
            _check_entry(lam, qhat, rs, p**r)
            try:
                return character_divide(qhat, rs, p, r)
            except (DivisionFailure, NonInvariantError) as exc:
                raise DataValidationError(
                    f"Q-hat character for {lam} is not divisible by the "
                    f"Steinberg character: {exc}"
                ) from exc

        entries = weight_keyed(doc.get("entries"), "lambda", read_q, "entry for lambda")
        return cls(provider, r, entries)


def cj_lhs(lam, mu, qrdata, method):
    """[Q-hat_r(lambda) : U_r(mu)] = [chi_p(mu) . q_r(lambda*) : St_r]_{G(F_q)}.

    The two nu-sum routes bound nu by the factors' leads rather than by
    nu_bound of the product, which would expand the product in the Weyl
    basis on every cell.  The factor leads are sound: every weight of L(mu)
    lies below mu, and every weight of the W-invariant q_r(lambda*) below
    some m in qrdata.leads(lambda*), so every weight of the product lies
    below some mu + m, and contributing_nus on the weights mu + m keeps
    every nu that nu_bound keeps.  When it keeps none, the cell is 0;
    otherwise steinberg_nu_sum runs over those nu on the factors
    (L(mu), q_r(lambda*)), which certify the W-invariance of their product,
    so the simple_basis route forms only the part of each product at or
    above its target and good_filtration forms the product once.  The direct
    route is the independent check of the other two, so it forms the whole
    product on every cell and never reads the leads.
    """
    provider, r = qrdata.provider, qrdata.r
    rs, p = provider.rs, provider.p
    mu = tuple(mu)
    dual = rs.dual_weight(tuple(lam))
    # Looked up before the bound, so that a bad mu raises on every cell.
    chi_mu = provider.simple_character(mu)
    if method in ("good_filtration", "simple_basis"):
        leads = [tuple(map(add, mu, m)) for m in qrdata.leads(dual)]
        nus = contributing_nus(leads, rs.steinberg_weight(p, r), p, r, rs)
        if not nus:
            return 0
        return steinberg_nu_sum((chi_mu, qrdata.q(dual)), nus, r, provider, method)
    return steinberg_multiplicity(chi_mu * qrdata.q(dual), r, provider, method)


def cj_rhs(lam, mu, r, provider):
    """sum over nu of [L(mu) x L(nu) : L(lambda + p^r nu)]_G.

    The simple-basis expansion of L(mu) x L(nu) does not depend on lambda or
    r, so it is memoized on the provider and read, never handed out.
    """
    rs, p = provider.rs, provider.p
    lam = tuple(lam)
    mu = tuple(mu)
    total = 0
    chi_mu = provider.simple_character(mu)
    cache = provider._tensor_cache
    for nu in contributing_nus([mu], lam, p, r, rs):
        coeffs = cache.get((mu, nu))
        if coeffs is None:
            product = chi_mu * provider.simple_character(nu)
            coeffs = cache[(mu, nu)] = to_simple_basis(product, provider)
        target = tuple(a + p**r * n for a, n in zip(lam, nu))
        total += coeffs.get(target, 0)
    return total


def cj_table(qrdata, method):
    """Both sides of the Chastkofsky-Jantzen formula, as one record
    (lam, mu, lhs, rhs) per pair of restricted weights, lam-major in
    restricted_weights order: lhs is cj_lhs by method, rhs is cj_rhs.
    """
    provider, r = qrdata.provider, qrdata.r
    labels = provider.rs.restricted_weights(provider.p, r)
    for lam in labels:
        for mu in labels:
            left = cj_lhs(lam, mu, qrdata, method)
            yield lam, mu, left, cj_rhs(lam, mu, r, provider)


def jantzen_identity_check(chi, qrdata):
    """Both sides of [chi : chi_p(p^r nu + lam)]_G =
    [chi . q_r(lambda*) : chi_p((p^r-1) rho + p^r nu)]_G, as one record
    (lam, nu, lhs, rhs) per cell where either side is nonzero: restricted
    lam in order, nu sorted within each lam.  A cell left out has 0 on both
    sides.

    The cells are read off the two expansions: a coefficient of chi at w is
    the lhs of (lam, nu) = (w mod q, w div q), and one of chi . q_r(lambda*)
    at (q-1) rho + q nu is the rhs of (lam, nu).  chi is expanded once,
    fully, before any rhs is read: a chi that is not W-invariant raises
    NonInvariantError there.  So chi . q_r(lambda*), W-invariant since
    QrData checks q_r(lambda*), is expanded once per lam only at or above
    the Steinberg weight's scaled height (decomp.expand_above), where every
    (q-1) rho + q nu with nu dominant lies.
    """
    provider, r = qrdata.provider, qrdata.r
    rs, p = provider.rs, provider.p
    q = p**r
    st_weight = rs.steinberg_weight(p, r)
    floor = rs.scaled_height(st_weight)
    lhs_cells = {}
    for w, c in to_simple_basis(chi, provider).items():
        lam = tuple(x % q for x in w)
        lhs_cells.setdefault(lam, {})[tuple(x // q for x in w)] = c
    for lam in rs.restricted_weights(p, r):
        lhs = lhs_cells.get(lam, {})
        rhs = {}
        factors = (chi, qrdata.q(rs.dual_weight(lam)))
        for w, c in expand_above(factors, floor, provider).items():
            # w is dominant, so w = (q-1) rho mod q gives nu >= 0.
            nu, rest = zip(*(divmod(x - s, q) for x, s in zip(w, st_weight)))
            if not any(rest):
                rhs[nu] = c
        for nu in sorted(lhs.keys() | rhs.keys()):
            yield lam, nu, lhs.get(nu, 0), rhs.get(nu, 0)


def barq_multiplicities(lam, r, provider):
    """The PIM exponents defining bar-Q_r(lambda); zero entries dropped."""
    result = {}
    for mu in provider.rs.restricted_weights(provider.p, r):
        value = cj_rhs(lam, mu, r, provider)
        if value:
            result[mu] = value
    return result


def induced_socle_multiplicity(mu, sigma, r, provider):
    """Number of I(sigma) summands in the induced injective hull of L(mu).

    By Frobenius reciprocity it is [L(sigma) : L(mu)]_{G(F_q)}, read off
    finite_simple_multiplicities(sigma) and memoized there.
    """
    # r and provider by keyword, as in finite_composition_multiplicities.
    mults = finite_simple_multiplicities(sigma, r=r, provider=provider)
    return mults.get(tuple(mu), 0)


def theorem45a_socle_check(lam, r, provider):
    """Socle multiplicities of each restricted L(mu) on both sides of the
    induced bar-Q identity, as one record (mu, lhs, rhs) per mu.

    lhs goes through the bar-Q multiset, built once per lam, and the
    induced-hull socle counts; rhs is the direct tensor-decomposition sum
    cj_rhs(lam, mu), which the multiset already holds (0 where dropped).
    """
    lam = tuple(lam)
    barq = barq_multiplicities(lam, r, provider)
    for mu in provider.rs.restricted_weights(provider.p, r):
        lhs = sum(
            count * induced_socle_multiplicity(mu_prime, mu, r, provider)
            for mu_prime, count in barq.items()
        )
        yield mu, lhs, barq.get(mu, 0)
