"""Acceptance sweeps for the full identity stack.

Each test prints a single PASS/FAIL line for its criterion; all equalities
are exact integer comparisons with zero tolerance.
"""

import functools
import itertools
import json
import random

from liechar import (
    CartanMatrix,
    DecompositionProvider,
    QrData,
    RootSystem,
    barq_multiplicities,
    cj_table,
    cli,
    induced_socle_multiplicity,
    jantzen_identity_check,
    load_decomposition_data,
    steinberg_character,
    steinberg_multiplicity,
    theorem45a_socle_check,
    to_weyl_basis,
    weyl_character,
)
from liechar.characters import from_weyl_basis
from liechar.finite import STEINBERG_METHODS

from test_decomp import a2_p2_document
from test_finite import oracle_covers, use_wide_box
from test_pims import a1_qhat, grid_records, lhs_rows

TABLE_CASES = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


@functools.lru_cache(maxsize=None)
def provider_for(p):
    return DecompositionProvider.builtin_sl2(p)


@functools.lru_cache(maxsize=None)
def qrdata_for(p, r):
    return QrData.builtin_sl2(provider_for(p), r)


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed"


def routes_agree(p, r):
    provider = provider_for(p)
    for m in range(4 * p**r + 1):
        chi = weyl_character((m,), provider.rs)
        reference = steinberg_multiplicity(chi, r, provider=provider, method="direct")
        for method in ("good_filtration", "simple_basis"):
            value = steinberg_multiplicity(chi, r, provider=provider, method=method)
            if value != reference:
                return False
    return True


def cj_records(p, r):
    return cj_table(qrdata_for(p, r), "simple_basis")


def cj_agrees(p, r):
    return all(lhs == rhs for _, _, lhs, rhs in cj_records(p, r))


def golden_rows(p, r):
    return lhs_rows(cj_records(p, r))


def test_criterion_01_steinberg_route_triangulation():
    ok = all(routes_agree(p, r) for p in (2, 3, 5, 7) for r in (1, 2))
    report(1, "Steinberg-multiplicity routes agree", ok)


def test_criterion_02_cj_equality_on_restricted_square():
    ok = all(cj_agrees(p, r) for p, r in TABLE_CASES)
    report(2, "lhs equals rhs on the full restricted square", ok)


def test_criterion_03_golden_table_and_steinberg_row():
    ok = golden_rows(3, 1) == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    for p, r in TABLE_CASES:
        st_weight = (p**r - 1,)
        row = {mu: lhs for lam, mu, lhs, _ in cj_records(p, r) if lam == st_weight}
        expected = {(m,): int(m == p**r - 1) for m in range(p**r)}
        ok = ok and row == expected
    report(3, "golden table and Steinberg delta row", ok)


def test_criterion_04_identity_shift_sweep():
    ok = True
    for p in (3, 5):
        provider = provider_for(p)
        qrdata = qrdata_for(p, 1)
        # Every nonzero cell of chi(sigma), sigma <= 4p, has nu <= 4.
        nus = [(nu,) for nu in range(6)]
        for sigma in range(4 * p + 1):
            chi = weyl_character((sigma,), provider.rs)
            records = list(jantzen_identity_check(chi, qrdata))
            grid = grid_records(chi, nus, qrdata)
            ok = ok and records == [rec for rec in grid if rec[2] or rec[3]]
            ok = ok and bool(records)
            ok = ok and all(lhs == rhs for _, _, lhs, rhs in records)
    report(4, "basis-shift identity sweep", ok)


def test_criterion_05_socle_comparison_sweep():
    ok = True
    for lam in range(3):
        records = list(theorem45a_socle_check((lam,), 1, provider_for(3)))
        ok = ok and len(records) == 3
        ok = ok and all(lhs == rhs for _, lhs, rhs in records)
    report(5, "socle multiplicities agree on the restricted square", ok)


def test_criterion_06_induced_socle_delta_and_spot():
    provider = provider_for(3)
    ok = induced_socle_multiplicity((2,), (8,), 1, provider) == 2
    for mu in range(3):
        for sigma in range(3):
            expected = 1 if mu == sigma else 0
            value = induced_socle_multiplicity((mu,), (sigma,), 1, provider)
            ok = ok and value == expected
    report(6, "induced-socle delta property and spot value", ok)


def test_criterion_07_qhat_self_certification():
    ok = True
    for p in (2, 3, 5, 7):
        qrdata = qrdata_for(p, 1)
        st = steinberg_character(qrdata.provider.rs, p, 1)
        ok = ok and sorted(qrdata.entries) == [(m,) for m in range(p)]
        for m in range(p):
            qhat = st * qrdata.q((m,))
            ok = ok and qhat == a1_qhat(p, 1, m, qrdata.provider.rs)
            expected = p if m == p - 1 else 2 * p
            ok = ok and qhat.dimension() == expected
    report(7, "injective-hull data divides and has the right dimensions", ok)


def test_criterion_08_engine_generics_rank_two():
    ok = True
    for name in ("A2", "B2"):
        rs = RootSystem(CartanMatrix.builtin(name))
        grid = list(itertools.product(range(4), repeat=2))
        chars = {lam: weyl_character(lam, rs) for lam in grid}
        for lam in grid:
            ok = ok and chars[lam].dimension() == rs.weyl_dimension(lam)
        for lam, mu in itertools.product(grid[:6], repeat=2):
            product = chars[lam] * chars[mu]
            coeffs = to_weyl_basis(product, rs)
            ok = ok and all(c > 0 for c in coeffs.values())
            ok = ok and product.dimension() == (
                chars[lam].dimension() * chars[mu].dimension()
            )
        rng = random.Random(17)
        for _ in range(100):
            coeffs = {lam: rng.randint(-3, 3) for lam in rng.sample(grid, 4)}
            coeffs = {w: c for w, c in coeffs.items() if c}
            ok = ok and to_weyl_basis(from_weyl_basis(coeffs, rs), rs) == coeffs
    report(8, "rank-two engine generics", ok)


def rank_two_routes():
    """Both nu-sum routes of [chi(lam) : St] for lam in [0,6]^2, on A2 at p = 2."""
    provider = load_decomposition_data(a2_p2_document())
    return [
        steinberg_multiplicity(
            weyl_character(lam, provider.rs), 1, provider=provider, method=method
        )
        for lam in itertools.product(range(7), repeat=2)
        for method in ("good_filtration", "simple_basis")
    ]


def test_criterion_09_widening_invariance(monkeypatch):
    def results():
        return (
            [golden_rows(p, r) for p, r in TABLE_CASES],
            [
                list(theorem45a_socle_check((lam,), 1, provider_for(3)))
                for lam in range(3)
            ],
            [barq_multiplicities((lam,), 1, provider_for(3)) for lam in range(3)],
            rank_two_routes(),
        )

    narrow = results()
    calls = use_wide_box(monkeypatch)
    ok = all(routes_agree(p, r) for p in (2, 3, 5, 7) for r in (1, 2))
    ok = ok and all(cj_agrees(p, r) for p, r in TABLE_CASES)
    ok = ok and results() == narrow
    ok = ok and oracle_covers(calls)
    report(9, "box widening changes no result", ok)


def test_criterion_10_cli_determinism(capsys):
    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        return code, out

    ok = True
    for p, r in TABLE_CASES:
        argv = ["cj-table", "--format", "json", "-p", str(p), "-r", str(r)]
        code1, first = run(argv)
        code2, second = run(argv)
        ok = ok and code1 == code2 == 0
        ok = ok and first == second
    code, out = run(["cj-table", "--format", "json", "-p", "3", "-r", "1"])
    ok = ok and code == 0
    ok = ok and json.loads(out)["lhs"] == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    report(10, "CLI output is byte-identical across runs", ok)
