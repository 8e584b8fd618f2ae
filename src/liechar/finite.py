"""Composition multiplicities over the finite group of Lie type.

Restriction to the F_q-points is computed by recursive untwisting: base-p
digits of a highest weight are regrouped so that Frobenius twists act with
exponents reduced mod r, and the resulting product character is expanded
again in the simple basis.  The recursion strictly decreases the pairing
of the leading weight with rho, which guarantees termination.
"""

from __future__ import annotations

import itertools
from operator import add, sub

from .characters import frobenius_twist, leading_dominant_weights, to_weyl_basis
from .decomp import to_simple_basis, weight_digits
from .errors import LiecharError


def _rho_pairing(weight, rs):
    return rs.bilinear(weight, rs.rho)


def finite_simple_multiplicities(mu, p, r, provider):
    """[L(mu) : L(lam)]_{G(F_q)} as a map over restricted lam."""
    mu = tuple(mu)
    key = (r, mu)
    cached = provider._finite_cache.get(key)
    if cached is not None:
        return dict(cached)
    rs = provider.rs
    bound = p**r
    if all(0 <= c < bound for c in mu):
        result = {mu: 1}
    else:
        digits = weight_digits(mu, p)
        untwisted = None
        for i, digit in enumerate(digits):
            factor = frobenius_twist(
                provider.restricted_simple_character(digit), p, i % r
            )
            untwisted = factor if untwisted is None else untwisted * factor
        ceiling = _rho_pairing(mu, rs)
        result = {}
        for kappa, coeff in to_simple_basis(untwisted, provider).items():
            if _rho_pairing(kappa, rs) >= ceiling:
                raise LiecharError(
                    f"untwisting failed to decrease weight {mu} (got {kappa})"
                )
            for lam, mult in finite_simple_multiplicities(
                kappa, p, r, provider
            ).items():
                new = result.get(lam, 0) + coeff * mult
                if new:
                    result[lam] = new
                else:
                    del result[lam]
    provider._finite_cache[key] = result
    return dict(result)


def finite_composition_multiplicities(chi, p, r, provider):
    """[chi : L(lam)]_{G(F_q)} over restricted lam, for W-invariant chi."""
    result = {}
    for mu, coeff in to_simple_basis(chi, provider).items():
        for lam, mult in finite_simple_multiplicities(mu, p, r, provider).items():
            new = result.get(lam, 0) + coeff * mult
            if new:
                result[lam] = new
            else:
                del result[lam]
    return result


def contributing_nus(max_weights, base, p, r, rs):
    """Dominant nu that can satisfy base + p^r nu <= m + nu for some m.

    Enumerates a sound coordinate box from the root-lattice inequality
    (p^r - 1) nu <= m - base, then filters by the exact dominance test.
    """
    max_weights = [tuple(m) for m in max_weights]
    if not max_weights:
        return []
    base = tuple(base)
    scale = (p**r - 1) * rs.det
    box = [0] * rs.rank
    for m in max_weights:
        diff = tuple(a - b for a, b in zip(m, base))
        coords = rs.scaled_root_coords(diff)
        if any(n < 0 for n in coords):
            continue
        for i in range(rs.rank):
            # nu_i <= 2 * n_i(nu) since the Cartan diagonal is 2.
            box[i] = max(box[i], 2 * coords[i] // scale)
    kept = []
    for nu in itertools.product(*(range(b + 1) for b in box)):
        shifted = tuple(b + p**r * n for b, n in zip(base, nu))
        if any(
            rs.dominance_leq(shifted, tuple(a + n for a, n in zip(m, nu)))
            for m in max_weights
        ):
            kept.append(nu)
    return kept


def nu_bound(chi, p, r, rs):
    """Finite dominant set covering every nu in the Steinberg-multiplicity sum."""
    if not chi.support:
        return []
    max_weights = leading_dominant_weights(chi.support, rs)
    st_weight = tuple((p**r - 1) * c for c in rs.rho)
    return contributing_nus(max_weights, st_weight, p, r, rs)


def steinberg_multiplicity(chi, p, r, provider=None, method="simple_basis", rs=None):
    """[chi : St_r]_{G(F_q)} by one of three independent routes.

    direct: value of the finite composition multiplicities at (p^r-1) rho.
    good_filtration: sum over nu of [chi . chi(nu) : chi(t)]_G with
    t = (p^r-1) rho + p^r nu (provider-free).  chi is expanded once in the
    Weyl basis, which raises NonInvariantError unless chi is W-invariant; the
    maximal weights of that expansion are chi's leading dominant weights and
    bound nu.  By Weyl's formula each term is then
    sum_w sgn(w) chi(t + rho - w(nu + rho)), one lookup in chi per element of
    the signed orbit of the regular weight nu + rho: no product and no
    expansion per nu.
    simple_basis: the same sum with simple characters in place of Weyl ones.
    Its input is not checked up front: a non-invariant chi times a nonzero
    invariant L(nu) is not invariant, so the simple-basis expansion raises
    NonInvariantError as soon as one nu is summed, and a full check would
    add about 25 % to cj_table.
    """
    if rs is None:
        if provider is None:
            raise ValueError("need a provider or a root system")
        rs = provider.rs
    st_weight = tuple((p**r - 1) * c for c in rs.rho)

    if method == "direct":
        if provider is None:
            raise ValueError("direct route needs a decomposition provider")
        return finite_composition_multiplicities(chi, p, r, provider).get(
            st_weight, 0
        )
    if method == "good_filtration":
        leads = leading_dominant_weights(to_weyl_basis(chi, rs), rs)
        support = chi.support
        total = 0
        for nu in contributing_nus(leads, st_weight, p, r, rs):
            t_rho = tuple(s + p**r * n + c for s, n, c in zip(st_weight, nu, rs.rho))
            orbit = rs.signed_orbit(tuple(map(add, nu, rs.rho)))
            for x, sign in orbit.items():
                total += sign * support.get(tuple(map(sub, t_rho, x)), 0)
        return total
    if method == "simple_basis":
        if provider is None:
            raise ValueError("simple_basis route needs a decomposition provider")
        total = 0
        for nu in nu_bound(chi, p, r, rs):
            product = chi * provider.simple_character(nu)
            target = tuple(s + p**r * n for s, n in zip(st_weight, nu))
            total += to_simple_basis(product, provider).get(target, 0)
        return total
    raise ValueError(f"unknown method {method!r}")


STEINBERG_METHODS = ("direct", "good_filtration", "simple_basis")
