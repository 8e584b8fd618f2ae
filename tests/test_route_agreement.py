"""The routes that must agree, on every built-in type, on A3, B3, C3 and
A1 x A2 by Cartan matrix, at p = 2 and 3, and on A2 with the packaged rows
perfbench/data/a2_p2.json at r = 2.

For each root system and prime the inputs are the products L(a) L(b) for
a <= b among the dominant weights of coordinate sum at most BOX[rank], and
for a few Steinberg pairs (see inputs), each also less chi(c) for c in 0 and
rho.  For each input X:

* the three steinberg_multiplicity routes agree;
* decomp.simple_coefficient is the coefficient of to_simple_basis at every
  target: every dominant weight of X and every weight of its expansion.  A
  product is read off its two factors, a difference as one factor;
* widening the nu box of steinberg_nu_sum, two past nu_bound's largest
  coordinate in each direction, changes neither nu-sum route.

A1 (the built-in rows) and A2 at p = 2 (the packaged rows) have true rows.
Every other provider is route-only: DecompositionProvider(rs, p, None)
takes every restricted nabla(lam) to be simple, which is false for most of
these (rs, p), so its numbers are not decomposition numbers.  The
one-coefficient read is an identity in any unitriangular basis, and the
three routes agree on each of these bases in every case below, so a change
to one route or to the read shows as a disagreement all the same.
"""

import functools
import itertools
import json
import os

import pytest

from liechar import (
    STEINBERG_METHODS,
    CartanMatrix,
    DecompositionProvider,
    RootSystem,
    load_decomposition_data,
    steinberg_multiplicity,
    to_simple_basis,
    weyl_character,
)
from liechar.decomp import simple_coefficient
from liechar.finite import nu_bound, steinberg_nu_sum

MATRICES = {
    "A1": "A1",
    "A2": "A2",
    "B2": "B2",
    "G2": "G2",
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "A1xA2": [[2, 0, 0], [0, 2, -1], [0, -1, 2]],
}
# The largest coordinate sum of a and b, by rank.
BOX = {1: 5, 2: 2, 3: 1}
A2_DATA = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "data",
    "a2_p2.json",
)
# (name, p, r); the A2 case at p = 2 and r = 2 reads the packaged rows.
CASES = [(name, p, 1) for name in MATRICES for p in (2, 3)] + [("A2-data", 2, 2)]
CASE_R = {**dict.fromkeys(MATRICES, 1), "A2-data": 2}
# The Steinberg pairs (see inputs) only where dim St_r = q^N, N the number of
# positive roots, is at most this: not on B3 and C3 at p = 3 (3^9).
MAX_STEINBERG_DIMENSION = 729


def case_id(case):
    name, p, r = case
    return f"{name}-p{p}-r{r}"


@functools.cache
def provider_for(name, p):
    """The packaged A2 rows for "A2-data", else the route-only provider."""
    if name == "A2-data":
        with open(A2_DATA, encoding="utf-8") as handle:
            return load_decomposition_data(json.load(handle))
    matrix = MATRICES[name]
    cartan = CartanMatrix.builtin(matrix) if isinstance(matrix, str) else CartanMatrix(matrix)
    return DecompositionProvider(RootSystem(cartan), p, None)


@functools.cache
def inputs(name, p):
    """(X, factors) pairs: factors is (L(a), L(b)) for X = L(a) L(b), and
    (X,) for X = L(a) L(b) - chi(c).

    Besides the box, (a, b) runs over the Steinberg pairs
    ((q-1) rho, (q-1) omega_i), q = p^r: the product's term at nu = omega_i
    is 1, its top, and omega_i is on the edge of contributing_nus' box
    wherever that box is tight, so a box one too small shows.
    """
    provider = provider_for(name, p)
    rs = provider.rs
    box = [
        w
        for w in itertools.product(range(BOX[rs.rank] + 1), repeat=rs.rank)
        if sum(w) <= BOX[rs.rank]
    ]
    cs = [weyl_character(c, rs) for c in ((0,) * rs.rank, rs.rho)]
    pairs = list(itertools.combinations_with_replacement(box, 2))
    q = p ** CASE_R[name]
    if q ** len(rs.positive_roots) <= MAX_STEINBERG_DIMENSION:
        steinberg = rs.steinberg_weight(q, 1)
        pairs += [(steinberg, tuple(q - 1 if j == i else 0 for j in range(rs.rank)))
                  for i in range(rs.rank)]
    found = []
    for a, b in pairs:
        factors = (provider.simple_character(a), provider.simple_character(b))
        product = factors[0] * factors[1]
        found.append((product, factors))
        found += [(product - chi, (product - chi,)) for chi in cs]
    return found


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_steinberg_routes_agree(case):
    name, p, r = case
    provider = provider_for(name, p)
    for chi, _ in inputs(name, p):
        values = {
            method: steinberg_multiplicity(chi, r, provider, method)
            for method in STEINBERG_METHODS
        }
        assert len(set(values.values())) == 1, (chi, values)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_simple_coefficient_is_the_expansion(case):
    name, p, _ = case
    provider = provider_for(name, p)
    for chi, factors in inputs(name, p):
        coeffs = to_simple_basis(chi, provider)
        targets = {w for w in chi.support if min(w) >= 0} | set(coeffs)
        for t in targets:
            value = simple_coefficient(factors, t, provider)
            assert value == coeffs.get(t, 0), (chi, t)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_a_wider_nu_box_changes_nothing(case):
    name, p, r = case
    provider = provider_for(name, p)
    rs = provider.rs
    for chi, _ in inputs(name, p):
        nus = nu_bound(chi, p, r, rs)
        ends = [max((nu[i] for nu in nus), default=0) + 3 for i in range(rs.rank)]
        wide = list(itertools.product(*map(range, ends)))
        for method in ("good_filtration", "simple_basis"):
            value = steinberg_nu_sum((chi,), nus, r, provider, method)
            assert steinberg_nu_sum((chi,), wide, r, provider, method) == value, (
                chi,
                method,
            )
