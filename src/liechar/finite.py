"""Composition multiplicities over the finite group of Lie type.

The prime p is the decomposition provider's, so q = provider.p^r.
Restriction to G(F_q) has one rule.  By Steinberg's tensor product theorem
(Jantzen, RAGS II.3.17) L(mu) is the tensor product of L(mu_k)^[q^k] over
the base-q digits mu_k of mu, and F^r acts trivially on G(F_q), so
L(mu)|_{G(F_q)} is the restriction of the product of the q-restricted
L(mu_k).  That product is expanded again in the simple basis.  For mu not
q-restricted, its top weight sum_k mu_k pairs with rho to less than mu
does, and every weight of the product lies below that top weight in
dominance, which can only lower the pairing; so the recursion terminates.
By Frobenius reciprocity the number of I(sigma) summands in the induced
injective hull of L(mu) is [L(sigma) : L(mu)]_{G(F_q)}, one lookup here
(pims.induced_socle_multiplicity).
"""

from __future__ import annotations

import functools
import itertools
from operator import add, mul, sub

from .characters import leading_dominant_weights, to_weyl_basis
from .decomp import simple_multiplicity, to_simple_basis, weight_digits
from .errors import LiecharError


def finite_simple_multiplicities(mu, r, provider):
    """[L(mu) : L(lam)]_{G(F_q)} as a map over q-restricted lam.

    The simple-basis expansion of the product of ch L(mu_k) over the base-q
    digits mu_k of mu (see the module docstring); {mu: 1} when mu is
    q-restricted.  simple_character refuses a digit character too large to
    build, with LiecharError.
    """
    mu = tuple(mu)
    key = (r, mu)
    cached = provider._finite_cache.get(key)
    if cached is not None:
        return dict(cached)
    rs = provider.rs
    digits = weight_digits(mu, provider.p**r)
    if len(digits) == 1:
        result = {mu: 1}
    else:
        top = tuple(map(sum, zip(*digits)))
        if rs.bilinear(top, rs.rho) >= rs.bilinear(mu, rs.rho):
            raise LiecharError(
                f"untwisting failed to decrease weight {mu} (got {top})"
            )
        product = functools.reduce(mul, map(provider.simple_character, digits))
        result = finite_composition_multiplicities(product, r, provider)
    provider._finite_cache[key] = result
    return dict(result)


def finite_composition_multiplicities(chi, r, provider):
    """[chi : L(lam)]_{G(F_q)} over restricted lam, for W-invariant chi."""
    result = {}
    for mu, coeff in to_simple_basis(chi, provider).items():
        # r and provider by keyword: perfbench/tracer.py reads them by name
        # when they are not at positions 2 and 3.
        mults = finite_simple_multiplicities(mu, r=r, provider=provider)
        for lam, mult in mults.items():
            new = result.get(lam, 0) + coeff * mult
            if new:
                result[lam] = new
            else:
                del result[lam]
    return result


def contributing_nus(max_weights, base, p, r, rs):
    """Dominant nu that can satisfy base + p^r nu <= m + nu for some m.

    Enumerates a sound coordinate box from the root-lattice inequality
    (p^r - 1) nu <= m - base, then filters by the exact dominance test
    against the m that can pass.  A dominant nu has nonnegative root
    coordinates, so an m for which m - base has a negative root coordinate
    passes for no nu and is dropped first.
    """
    base = tuple(base)
    scale = (p**r - 1) * rs.det
    box = [0] * rs.rank
    reachable = []
    for m in max_weights:
        m = tuple(m)
        coords = rs.scaled_root_coords(tuple(a - b for a, b in zip(m, base)))
        if any(n < 0 for n in coords):
            continue
        reachable.append(m)
        for i in range(rs.rank):
            # nu_i <= 2 * n_i(nu) since the Cartan diagonal is 2.
            box[i] = max(box[i], 2 * coords[i] // scale)
    if not reachable:
        return []
    kept = []
    for nu in itertools.product(*(range(b + 1) for b in box)):
        shifted = tuple(b + p**r * n for b, n in zip(base, nu))
        if any(
            rs.dominance_leq(shifted, tuple(a + n for a, n in zip(m, nu)))
            for m in reachable
        ):
            kept.append(nu)
    return kept


def nu_bound(chi, p, r, rs):
    """Finite dominant set covering every nu in the Steinberg-multiplicity sum.

    The range of steinberg_multiplicity (cj_lhs reads its own off the leads
    of its two factors instead).  chi is expanded in the Weyl basis,
    which raises NonInvariantError unless chi is W-invariant; the maximal
    weights of that expansion are chi's leading dominant weights (every
    weight of chi lies below one of them), and contributing_nus keeps the nu
    with (p^r-1) rho + p^r nu below some of them plus nu.
    """
    leads = leading_dominant_weights(to_weyl_basis(chi, rs), rs)
    return contributing_nus(leads, rs.steinberg_weight(p, r), p, r, rs)


def steinberg_nu_sum(factors, nus, r, provider, method):
    """sum over nu in nus of [chi . M(nu) : M(t)]_G, t = (p^r-1) rho + p^r nu,
    where chi is the product of factors, a nonempty sequence of characters.

    good_filtration: M is the Weyl character chi(nu) (provider-free).  chi
    is formed once, and by Weyl's formula each term is
    sum_w sgn(w) chi(t + rho - w(nu + rho)), one lookup in chi per element
    of the signed orbit of the regular weight nu + rho: no product and no
    expansion per nu.
    simple_basis: M is the simple character L(nu), and each term is
    simple_multiplicity of (*factors, L(nu)), which forms only the part of
    that product at or above t and eliminates only down to t; chi itself is
    never formed.  That route checks W-invariance only on the leads it
    processes, so chi must be W-invariant, and the caller certifies it:
    steinberg_multiplicity by nu_bound, cj_lhs by its factors.
    nus must contain every nu whose term can be nonzero; a term outside
    the range adds 0.  nu_bound(chi) is such a set, and so is
    contributing_nus on any weights that each weight of chi lies below one
    of (cj_lhs uses the factor leads of its product).
    """
    rs, p = provider.rs, provider.p
    st_weight = rs.steinberg_weight(p, r)
    total = 0
    if method == "good_filtration":
        support = functools.reduce(mul, factors).support
        for nu in nus:
            t_rho = tuple(s + p**r * n + c for s, n, c in zip(st_weight, nu, rs.rho))
            orbit = rs.signed_orbit(tuple(map(add, nu, rs.rho)))
            for x, sign in orbit.items():
                total += sign * support.get(tuple(map(sub, t_rho, x)), 0)
        return total
    if method == "simple_basis":
        for nu in nus:
            target = tuple(s + p**r * n for s, n in zip(st_weight, nu))
            total += simple_multiplicity(
                (*factors, provider.simple_character(nu)), target, provider
            )
        return total
    raise ValueError(f"unknown method {method!r}")


def steinberg_multiplicity(chi, r, provider, method):
    """[chi : St_r]_{G(F_q)} by one of three independent routes.

    direct: value of the finite composition multiplicities at (p^r-1) rho.
    good_filtration and simple_basis: steinberg_nu_sum over nu_bound(chi).
    Every route raises NonInvariantError unless chi is W-invariant: direct
    in its simple-basis expansion, the other two in nu_bound.
    """
    if method == "direct":
        st_weight = provider.rs.steinberg_weight(provider.p, r)
        return finite_composition_multiplicities(chi, r, provider).get(st_weight, 0)
    nus = nu_bound(chi, provider.p, r, provider.rs)
    return steinberg_nu_sum((chi,), nus, r, provider, method)


STEINBERG_METHODS = ("direct", "good_filtration", "simple_basis")
