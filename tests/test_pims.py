import inspect
import itertools
import json
import re

import pytest

from liechar import (
    CartanMatrix,
    Character,
    CoverageError,
    DataValidationError,
    DecompositionProvider,
    DivisionFailure,
    NonInvariantError,
    QrData,
    RootSystem,
    barq_multiplicities,
    character_divide,
    cj_lhs,
    cj_rhs,
    cj_table,
    cli,
    finite,
    frobenius_twist,
    induced_socle_multiplicity,
    pims,
    jantzen_identity_check,
    load_decomposition_data,
    steinberg_character,
    steinberg_multiplicity,
    theorem45a_socle_check,
    weyl_character,
)
from liechar.decomp import to_simple_basis
from liechar.finite import (
    STEINBERG_METHODS,
    contributing_nus,
    finite_composition_multiplicities,
)

from test_decomp import A1XA1, a1xa1_rows_document
from test_finite import oracle_covers, untwisting_cases, use_wide_box


class TestCharacterDivide:
    def test_worked_example(self, rs_a1):
        # chi(2) is St at p = 3.
        num = weyl_character((4,), rs_a1) + weyl_character((0,), rs_a1)
        quotient = character_divide(num, rs_a1, 3, 1)
        assert quotient == weyl_character((2,), rs_a1) - weyl_character((0,), rs_a1)
        assert weyl_character((2,), rs_a1) * quotient == num

    def test_parity_obstruction(self, rs_a1):
        # St at p = 2 is chi(1).  chi(2) * d = e^3 - e^-3, shifted by -2 rho,
        # is e^1 - e^-5: two strings of 2 alpha = (4,), neither totalling 0.
        with pytest.raises(DivisionFailure) as info:
            character_divide(weyl_character((2,), rs_a1), rs_a1, 2, 1)
        assert (info.value.weight, info.value.mult) == ((-5,), -1)

    def test_rank_two(self, rs_a2):
        # St at p = 2 is chi(1, 1).
        a = weyl_character((1, 0), rs_a2)
        b = weyl_character((1, 1), rs_a2)
        assert character_divide(a * b, rs_a2, 2, 1) == a

    def test_divisible_but_not_invariant(self, rs_a1):
        # St * e^{(1)} is St times a Laurent polynomial, but not W-invariant.
        num = steinberg_character(rs_a1, 3, 1) * Character(1, {(1,): 1})
        with pytest.raises(NonInvariantError, match="not W-invariant"):
            character_divide(num, rs_a1, 3, 1)


def a1_qhat(p, r, m, rs):
    """ch Q-hat_r(m) on A1, built from the closed form ch Q-hat_1(d) =
    chi(2p-2-d) + chi(d), or chi(p-1) at d = p-1: the product of the
    twisted ch Q-hat_1 of the r base-p digits d of m."""

    def qhat1(d):
        if d == p - 1:
            return weyl_character((p - 1,), rs)
        return weyl_character((2 * p - 2 - d,), rs) + weyl_character((d,), rs)

    chi = qhat1(m % p)
    for i in range(1, r):
        chi = chi * frobenius_twist(qhat1(m // p**i % p), p, i)
    return chi


def qhat_entries(qrdata):
    """The "entries" of a Q-hat document for qrdata: each Q-hat is St_r * q_r."""
    provider = qrdata.provider
    st = steinberg_character(provider.rs, provider.p, qrdata.r)
    return [
        {"lambda": list(lam), "qhat": (st * q).to_json_dict()}
        for lam, q in sorted(qrdata.entries.items())
    ]


class TestQrData:
    def test_p3_examples(self, qr3):
        rs = qr3.provider.rs
        assert qr3.q((2,)) == weyl_character((0,), rs)
        assert qr3.q((1,)) == weyl_character((1,), rs)
        assert qr3.q((0,)) == weyl_character((2,), rs) - weyl_character(
            (0,), rs
        )

    @pytest.mark.parametrize(
        "p,r", [(2, 1), (3, 1), (5, 1), (11, 1), (2, 2), (3, 2), (7, 2), (5, 3)]
    )
    def test_division_invariant(self, p, r):
        qrdata = QrData.builtin_sl2(DecompositionProvider.builtin_sl2(p), r)
        rs = qrdata.provider.rs
        st = steinberg_character(rs, p, r)
        assert sorted(qrdata.entries) == [(m,) for m in range(p**r)]
        for m in range(p**r):
            assert st * qrdata.q((m,)) == a1_qhat(p, r, m, rs)

    def test_builtin_divides_only_the_rank_one_qhats(self, monkeypatch):
        # One division per ch Q-hat_1(m), by ch St_1: q_r is the twisted
        # product of the quotients, not a quotient of each ch Q-hat_r.
        divisions = []
        divide = pims.character_divide

        def counting(num, rs, p, r):
            divisions.append((p, r))
            return divide(num, rs, p, r)

        monkeypatch.setattr(pims, "character_divide", counting)
        qrdata = QrData.builtin_sl2(DecompositionProvider.builtin_sl2(7), 2)
        assert len(qrdata.entries) == 49
        assert divisions == [(7, 1)] * 7

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_qhat_dimensions(self, p):
        qrdata = QrData.builtin_sl2(DecompositionProvider.builtin_sl2(p), 1)
        st = steinberg_character(qrdata.provider.rs, p, 1)
        for (m,), q in qrdata.entries.items():
            expected = p if m == p - 1 else 2 * p
            assert (st * q).dimension() == expected

    def test_a1xa1_entries_are_the_quotients(self, a1xa1_p3_r2):
        # The document's Q-hat characters are not kept; St_r * q_r rebuilds
        # every one of them.
        qrdata = a1xa1_p3_r2
        doc = a1xa1_qhat_document(3, 2)
        st = steinberg_character(qrdata.provider.rs, 3, 2)
        assert len(qrdata.entries) == len(doc["entries"]) == 81
        for entry in doc["entries"]:
            lam = tuple(entry["lambda"])
            assert qrdata.entries[lam] is qrdata.q(lam)
            assert st * qrdata.q(lam) == Character.from_json_dict(entry["qhat"])

    def test_json_roundtrip(self, qr3):
        doc = {"type": "A1", "p": 3, "r": 1, "entries": qhat_entries(qr3)}
        loaded = QrData.from_json_dict(doc, qr3.provider)
        for lam, q in qr3.entries.items():
            assert loaded.q(lam) == q

    def test_rejects_non_divisible_qhat(self, prov3, rs_a1):
        doc = {
            "type": "A1",
            "p": 3,
            "r": 1,
            "entries": [
                {"lambda": [0], "qhat": weyl_character((1,), rs_a1).to_json_dict()}
            ],
        }
        with pytest.raises(DataValidationError, match="not divisible"):
            QrData.from_json_dict(doc, prov3)

    @pytest.mark.parametrize(
        "p, qhat_of, message",
        [
            pytest.param(
                3,
                lambda rs: steinberg_character(rs, 3, 1) * Character(1, {(1,): 1}),
                "not W-invariant at",
                id="st-times-weight",
            ),
            pytest.param(
                2,
                lambda rs: weyl_character((2,), rs),
                "non-divisible: remainder term -1 at weight (-5,)",
                id="chi2-at-p2",
            ),
        ],
    )
    def test_rejects_qhat_that_st_does_not_divide(
        self, rs_a1, capsys, tmp_path, p, qhat_of, message
    ):
        qhat = qhat_of(rs_a1)
        doc = {
            "type": "A1",
            "p": p,
            "r": 1,
            "entries": [{"lambda": [0], "qhat": qhat.to_json_dict()}],
        }
        prefix = "Q-hat character for (0,) is not divisible by the Steinberg character"
        provider = DecompositionProvider.builtin_sl2(p, rs=rs_a1)
        with pytest.raises(DataValidationError, match=re.escape(prefix)) as info:
            QrData.from_json_dict(doc, provider)
        assert message in str(info.value)
        path = tmp_path / "qhat.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["cj-table", "-p", str(p), "--qhat-data", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert prefix in captured.err and message in captured.err

    @pytest.mark.parametrize(
        "lam,weight,mult",
        [
            ([0], [2], 1.7),
            ([0], [2], True),
            ([0], [2], "3"),
            ([0], [1.9], 1),
            ([1.9], [2], 1),
        ],
    )
    def test_rejects_non_integers(self, prov3, lam, weight, mult):
        qhat = {"rank": 1, "entries": [{"weight": weight, "mult": mult}]}
        doc = {"type": "A1", "p": 3, "r": 1, "entries": [{"lambda": lam, "qhat": qhat}]}
        with pytest.raises(DataValidationError, match="must be an integer"):
            QrData.from_json_dict(doc, prov3)

    def test_rejects_duplicate_lambda(self, prov3, rs_a1):
        st = steinberg_character(rs_a1, 3, 1)
        entries = [
            {"lambda": [0], "qhat": st.to_json_dict()},
            {"lambda": [0], "qhat": (2 * st).to_json_dict()},
        ]
        doc = {"type": "A1", "p": 3, "r": 1, "entries": entries}
        with pytest.raises(DataValidationError, match=r"duplicate entry for lambda \(0,\)"):
            QrData.from_json_dict(doc, prov3)

    @pytest.mark.parametrize("lam", [[0, 0], [7], [3], [-1]])
    def test_rejects_lambda_of_wrong_rank_or_unrestricted(self, prov3, rs_a1, lam):
        st = steinberg_character(rs_a1, 3, 1)
        doc = {
            "type": "A1",
            "p": 3,
            "r": 1,
            "entries": [{"lambda": lam, "qhat": st.to_json_dict()}],
        }
        message = f"entry {tuple(lam)}: lambda is not a 3-restricted weight of rank 1"
        with pytest.raises(DataValidationError, match=re.escape(message)):
            QrData.from_json_dict(doc, prov3)

    def test_given_root_system_must_match_the_document(self, qr3, rs_a1, rs_a2):
        doc = {"type": "A2", "p": 3, "r": 1, "entries": qhat_entries(qr3)}
        over_a1 = DecompositionProvider.builtin_sl2(3, rs=rs_a1)
        with pytest.raises(DataValidationError, match="document is for"):
            QrData.from_json_dict(doc, over_a1)
        doc["type"] = "A1"
        assert QrData.from_json_dict(doc, over_a1).provider.rs is rs_a1
        del doc["type"]
        assert QrData.from_json_dict(doc, over_a1).provider.rs is rs_a1
        doc["cartan"] = {"rank": 1, "matrix": [[2]]}
        assert QrData.from_json_dict(doc, over_a1).provider.rs is rs_a1
        with pytest.raises(DataValidationError, match="document is for"):
            QrData.from_json_dict(doc, DecompositionProvider(rs_a2, 3, {}))

    @pytest.mark.parametrize("key", ["p", "r"])
    def test_rejects_boolean_p_and_r(self, prov3, key):
        doc = {"type": "A1", "p": 3, "r": 1, "entries": []}
        doc[key] = True
        with pytest.raises(DataValidationError, match="must be an integer"):
            QrData.from_json_dict(doc, prov3)

    @pytest.mark.parametrize("p, r", [(3, 0), (1, 1)])
    def test_rejects_invalid_p_and_r(self, prov3, p, r):
        doc = {"type": "A1", "p": p, "r": r, "entries": []}
        message = re.escape(f"invalid (p, r): ({p}, {r})")
        with pytest.raises(DataValidationError, match=message):
            QrData.from_json_dict(doc, prov3)

    def test_rejects_qhat_of_wrong_rank(self, prov3):
        qhat = {"rank": 2, "entries": [{"weight": [0, 0], "mult": 1}]}
        doc = {"type": "A1", "p": 3, "r": 1, "entries": [{"lambda": [0], "qhat": qhat}]}
        message = re.escape("entry (0,): rank mismatch")
        with pytest.raises(DataValidationError, match=message):
            QrData.from_json_dict(doc, prov3)

    def test_rejects_steinberg_entry_that_is_not_trivial(self, rs_a1):
        # q_r at the Steinberg weight must be e^0, not 2 e^0.
        over_a1 = DecompositionProvider.builtin_sl2(3, rs=rs_a1)
        with pytest.raises(DataValidationError, match="Steinberg entry must divide"):
            QrData(over_a1, 1, {(2,): Character(1, {(0,): 2})})

    def test_rejects_q_that_is_not_invariant(self, rs_a1):
        over_a1 = DecompositionProvider.builtin_sl2(3, rs=rs_a1)
        with pytest.raises(DataValidationError, match=r"not W-invariant at \(1,\)"):
            QrData(over_a1, 1, {(0,): Character(1, {(1,): 1})})

    def test_rejects_document_whose_steinberg_qhat_is_not_st(self, prov3, rs_a1):
        # 2 St divides by St, but to 2, not to the trivial character.
        st = steinberg_character(rs_a1, 3, 1)
        qhat = (2 * st).to_json_dict()
        doc = {"type": "A1", "p": 3, "r": 1, "entries": [{"lambda": [2], "qhat": qhat}]}
        with pytest.raises(DataValidationError, match="Steinberg entry must divide"):
            QrData.from_json_dict(doc, prov3)

    @pytest.mark.parametrize(
        "later",
        [
            pytest.param(
                {"lambda": [7], "qhat": {"rank": 1, "entries": []}},
                id="unrestricted-lambda",
            ),
            pytest.param({"lambda": [1]}, id="malformed"),
        ],
    )
    def test_names_the_first_bad_entry_in_document_order(self, prov3, rs_a1, later):
        # Each entry is checked and divided as it is read, so a later bad
        # entry is not reached.
        first = {"lambda": [0], "qhat": weyl_character((1,), rs_a1).to_json_dict()}
        doc = {"type": "A1", "p": 3, "r": 1, "entries": [first, later]}
        prefix = "Q-hat character for (0,) is not divisible by the Steinberg character"
        with pytest.raises(DataValidationError, match=re.escape(prefix)):
            QrData.from_json_dict(doc, prov3)

    @pytest.mark.parametrize(
        "lam, rank",
        [((0, 0), 1), ((3,), 1), ((-1,), 1), ((0,), 2)],
        ids=["lambda-of-rank-2", "lambda-past-p", "negative-lambda", "q-of-rank-2"],
    )
    def test_constructor_refuses_an_entry_as_the_loader(self, prov3, lam, rank):
        # Both run one entry check, so a bad key or a q of the wrong rank
        # is refused with the same message either way.
        q = Character(rank, {(0,) * rank: 1})
        entry = {"lambda": list(lam), "qhat": q.to_json_dict()}
        doc = {"type": "A1", "p": 3, "r": 1, "entries": [entry]}
        with pytest.raises(DataValidationError) as loaded:
            QrData.from_json_dict(doc, prov3)
        with pytest.raises(DataValidationError) as built:
            QrData(prov3, 1, {lam: q})
        assert str(built.value) == str(loaded.value)
        assert str(built.value).startswith(f"entry {lam}: ")

    @pytest.mark.parametrize(
        "r, lam, rank, problem",
        [
            (1, (0,), 2, "lambda is not a 2-restricted weight of rank 2"),
            (1, (5, 5), 2, "lambda is not a 2-restricted weight of rank 2"),
            (1, (0, 0), 1, "rank mismatch"),
            (2, (4, 0), 2, "lambda is not a 4-restricted weight of rank 2"),
        ],
        ids=["rank-1-lambda", "lambda-past-p", "rank-1-q", "lambda-past-p-squared"],
    )
    def test_constructor_refuses_an_entry_over_a2(self, rs_a2, r, lam, rank, problem):
        # Each entry is checked before its q is tested for W-invariance,
        # which would index a rank-1 q as a rank-2 one.
        provider = DecompositionProvider(rs_a2, 2, {})
        q = Character(rank, {(0,) * rank: 1})
        message = f"entry {lam}: {problem}"
        with pytest.raises(DataValidationError, match=re.escape(message)):
            QrData(provider, r, {lam: q})

    def test_builtin_rejects_rank_two(self, rs_a2):
        with pytest.raises(DataValidationError, match="only rank 1"):
            QrData.builtin_sl2(DecompositionProvider(rs_a2, 3, {}), 1)

    def test_missing_weight(self, qr3):
        from liechar import CoverageError

        with pytest.raises(CoverageError):
            qr3.q((7,))


def lhs_rows(records):
    """The lhs matrix of cj_table's records: one row per lambda, in the
    order the records give."""
    rows = {}
    for lam, _, lhs, _ in records:
        rows.setdefault(lam, []).append(lhs)
    return list(rows.values())


class TestChastkofskyJantzen:
    def test_lhs_row_lambda_zero(self, qr3):
        values = [cj_lhs((0,), (m,), qr3, "simple_basis") for m in range(3)]
        assert values == [1, 0, 1]

    def test_rhs_row_lambda_zero(self, prov3):
        values = [cj_rhs((0,), (m,), 1, prov3) for m in range(3)]
        assert values == [1, 0, 1]

    def test_rhs_row_lambda_one(self, prov3):
        values = [cj_rhs((1,), (m,), 1, prov3) for m in range(3)]
        assert values == [0, 1, 0]

    def test_golden_table_p3(self, qr3):
        records = list(cj_table(qr3, "simple_basis"))
        assert all(lhs == rhs for _, _, lhs, rhs in records)
        assert lhs_rows(records) == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]

    def test_golden_table_p2(self):
        provider = DecompositionProvider.builtin_sl2(2)
        records = list(cj_table(QrData.builtin_sl2(provider, 1), "simple_basis"))
        assert all(lhs == rhs for _, _, lhs, rhs in records)
        assert lhs_rows(records) == [[1, 1], [0, 1]]

    @pytest.mark.parametrize("method", STEINBERG_METHODS)
    def test_table_is_its_cells_lambda_major(self, method):
        # The CLI lays the records out as rows lambda and columns mu, so
        # their order is part of cj_table's contract.
        provider = DecompositionProvider.builtin_sl2(3)
        qrdata = QrData.builtin_sl2(provider, 2)
        labels = provider.rs.restricted_weights(3, 2)
        expected = [
            (
                lam,
                mu,
                cj_lhs(lam, mu, qrdata, method),
                cj_rhs(lam, mu, 2, provider),
            )
            for lam, mu in itertools.product(labels, repeat=2)
        ]
        fresh = DecompositionProvider.builtin_sl2(3)
        assert list(cj_table(QrData.builtin_sl2(fresh, 2), method)) == expected

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (5, 1), (2, 2)])
    def test_steinberg_row_is_delta(self, p, r):
        provider = DecompositionProvider.builtin_sl2(p)
        qrdata = QrData.builtin_sl2(provider, r)
        st_weight = (p**r - 1,)
        for mu in provider.rs.restricted_weights(p, r):
            expected = 1 if mu == st_weight else 0
            assert cj_lhs(st_weight, mu, qrdata, "simple_basis") == expected
            assert cj_rhs(st_weight, mu, r, provider) == expected

    def test_method_flag(self, qr3):
        for method in ("direct", "good_filtration", "simple_basis"):
            assert cj_lhs((0,), (2,), qr3, method) == 1

    def test_widening_changes_nothing(self, prov3, qr3, monkeypatch):
        def both_sides():
            return [
                (cj_rhs(lam, mu, 1, prov3), cj_lhs(lam, mu, qr3, "simple_basis"))
                for lam, mu in itertools.product([(0,), (1,), (2,)], repeat=2)
            ]

        narrow = both_sides()
        calls = use_wide_box(monkeypatch)
        assert both_sides() == narrow
        assert calls and oracle_covers(calls)


def two_lead_qrdata(provider, r):
    """User Q-hat data over the A1 provider for lambda = 0 with q =
    chi(p^r) + chi(p^r - 1): two leads of opposite parity, which are
    incomparable in A1."""
    rs, p = provider.rs, provider.p
    q = weyl_character((p**r,), rs) + weyl_character((p**r - 1,), rs)
    qhat = steinberg_character(rs, p, r) * q
    doc = {
        "type": "A1",
        "p": p,
        "r": r,
        "entries": [{"lambda": [0], "qhat": qhat.to_json_dict()}],
    }
    return QrData.from_json_dict(doc, provider), q


class TestZeroCells:
    """cj_lhs returns 0 without forming the product when no nu passes the
    bound from mu + (leads of q); otherwise it is the Steinberg multiplicity
    of the product."""

    @pytest.mark.parametrize("p, r", [(3, 1), (2, 2), (5, 1)])
    def test_incomparable_leads(self, p, r):
        provider = DecompositionProvider.builtin_sl2(p)
        rs = provider.rs
        qrdata, q = two_lead_qrdata(provider, r)
        assert sorted(qrdata.leads((0,))) == [(p**r - 1,), (p**r,)]
        st_weight = (p**r - 1,)
        needed = set()
        for mu in rs.restricted_weights(p, r):
            chi = provider.simple_character(mu) * q
            values = {
                method: cj_lhs((0,), mu, qrdata, method)
                for method in STEINBERG_METHODS
            }
            assert values == {
                method: steinberg_multiplicity(
                    chi, r, provider=provider, method=method
                )
                for method in STEINBERG_METHODS
            }, mu
            if values["direct"]:
                for (m,) in qrdata.leads((0,)):
                    if not contributing_nus([(mu[0] + m,)], st_weight, p, r, rs):
                        needed.add(m)
        # Each lead alone would zero a nonzero cell: the bound uses both.
        assert needed == {p**r - 1, p**r}

    def test_direct_route_never_reads_leads(self, monkeypatch):
        provider = DecompositionProvider.builtin_sl2(3)
        before = list(cj_table(QrData.builtin_sl2(provider, 2), "direct"))
        assert all(lhs == rhs for _, _, lhs, rhs in before)

        def leads(self, lam):
            raise AssertionError("the direct route read QrData.leads")

        monkeypatch.setattr(QrData, "leads", leads)
        fresh = DecompositionProvider.builtin_sl2(3)
        after = list(cj_table(QrData.builtin_sl2(fresh, 2), "direct"))
        assert after == before

    def test_nu_sum_routes_never_call_nu_bound(self, monkeypatch):
        # cj_lhs bounds nu by the factor leads alone; a second bound from
        # the product would be wasted work on every nonzero cell.
        def new_qrdata():
            return QrData.builtin_sl2(DecompositionProvider.builtin_sl2(3), 2)

        direct = list(cj_table(new_qrdata(), "direct"))

        def nu_bound(*args):
            raise AssertionError("cj_lhs called nu_bound")

        monkeypatch.setattr(finite, "nu_bound", nu_bound)
        for method in ("simple_basis", "good_filtration"):
            records = list(cj_table(new_qrdata(), method))
            assert records == direct, method

    def test_leads(self, qr3):
        # q_1(0) = e^2 + e^-2 and q_1(2) = e^0 at p = 3.
        assert qr3.leads((0,)) == ((2,),)
        assert qr3.leads((2,)) == ((0,),)

    def test_leads_of_missing_weight(self, qr3):
        with pytest.raises(CoverageError):
            qr3.leads((7,))


class TestTensorCache:
    """cj_rhs memoizes the simple-basis expansion of L(mu) * L(nu) on the
    provider, for every r."""

    P = 3

    def sweep(self, provider_for, r):
        labels = provider_for().rs.restricted_weights(self.P, r)
        cells = list(itertools.product(labels, repeat=2))
        return {
            "cj_rhs": [cj_rhs(lam, mu, r, provider_for()) for lam, mu in cells],
            "barq": [barq_multiplicities(lam, r, provider_for()) for lam in labels],
            "thm45a": [
                list(theorem45a_socle_check(lam, r, provider_for()))
                for lam in labels
            ],
        }

    def test_shared_provider_matches_fresh(self):
        shared = DecompositionProvider.builtin_sl2(self.P)
        for r in (1, 2, 1):
            fresh = self.sweep(lambda: DecompositionProvider.builtin_sl2(self.P), r)
            assert self.sweep(lambda: shared, r) == fresh
        assert shared._tensor_cache

    def test_no_cached_dict_is_handed_out(self):
        provider = DecompositionProvider.builtin_sl2(self.P)
        first = barq_multiplicities((0,), 2, provider)
        assert all(first is not coeffs for coeffs in provider._tensor_cache.values())
        first.clear()
        assert barq_multiplicities((0,), 2, provider) == (
            barq_multiplicities((0,), 2, DecompositionProvider.builtin_sl2(self.P))
        )
        for (mu, nu), coeffs in provider._tensor_cache.items():
            product = provider.simple_character(mu) * provider.simple_character(nu)
            assert coeffs == to_simple_basis(product, provider)


def a1xa1_qhat_document(p, r):
    """The Q-hat data of the block-diagonal A1 x A1 at (p, r): ch Q-hat_r(a, b)
    is the outer product of the A1 built-in characters ch Q-hat_r(a) and
    ch Q-hat_r(b), each St_r * q_r."""
    qrdata = QrData.builtin_sl2(DecompositionProvider.builtin_sl2(p), r)
    st = steinberg_character(qrdata.provider.rs, p, r)
    qhats = [(lam, st * q) for lam, q in sorted(qrdata.entries.items())]
    doc_entries = []
    for (a, qhat_a), (b, qhat_b) in itertools.product(qhats, repeat=2):
        support = [
            {"weight": [*wa, *wb], "mult": ma * mb}
            for wa, ma in qhat_a.support.items()
            for wb, mb in qhat_b.support.items()
        ]
        qhat = {"rank": 2, "entries": support}
        doc_entries.append({"lambda": [*a, *b], "qhat": qhat})
    return {"cartan": A1XA1, "p": p, "r": r, "entries": doc_entries}


@pytest.fixture(scope="module")
def a1xa1_p3_r2():
    provider = load_decomposition_data(a1xa1_rows_document(3))
    return QrData.from_json_dict(a1xa1_qhat_document(3, 2), provider)


def grid_records(chi, nus, qrdata):
    """Both sides of Jantzen's identity at every restricted lam and every nu
    in nus, zero cells included, each read off a full expansion: the
    reference for the cells that jantzen_identity_check reads off its
    expansions, its rhs cut at the Steinberg weight."""
    provider, r = qrdata.provider, qrdata.r
    rs, p = provider.rs, provider.p
    st_weight = rs.steinberg_weight(p, r)
    coeffs = to_simple_basis(chi, provider)
    for lam in rs.restricted_weights(p, r):
        shifted = to_simple_basis(chi * qrdata.q(rs.dual_weight(lam)), provider)
        for nu in nus:
            lhs = coeffs.get(tuple(p**r * n + c for n, c in zip(nu, lam)), 0)
            rhs = shifted.get(tuple(s + p**r * n for s, n in zip(st_weight, nu)), 0)
            yield lam, nu, lhs, rhs


def jantzen_records(chi, qrdata):
    """(lam, nu) -> (lhs, rhs) of jantzen_identity_check."""
    return {
        (lam, nu): (lhs, rhs)
        for lam, nu, lhs, rhs in jantzen_identity_check(chi, qrdata)
    }


def check_sweep(sigmas, nus, qrdata):
    """The records of each chi(sigma) are the nonzero cells of the grid over
    nus, in its order; there is one at least, and lhs = rhs in each."""
    for sigma in sigmas:
        chi = weyl_character(sigma, qrdata.provider.rs)
        records = list(jantzen_identity_check(chi, qrdata))
        grid = grid_records(chi, nus, qrdata)
        assert records == [rec for rec in grid if rec[2] or rec[3]], sigma
        assert records, sigma
        for lam, nu, lhs, rhs in records:
            assert lhs == rhs, (sigma, lam, nu)


class TestJantzenIdentity:
    def test_simple_input(self, prov3, qr3):
        chi = prov3.simple_character((1,))
        records = jantzen_records(chi, qr3)
        assert records[((1,), (0,))] == (1, 1)

    def test_twisted_input(self, prov3, qr3):
        chi = prov3.simple_character((4,))
        lhs, rhs = jantzen_records(chi, qr3)[((1,), (1,))]
        assert lhs == 1
        assert lhs == rhs

    def test_trivial_character(self, prov3, qr3):
        # Only the cell (0, 0) is nonzero; (0, 1), with 0 on both sides, is
        # left out.
        chi = weyl_character((0,), prov3.rs)
        assert jantzen_records(chi, qr3) == {((0,), (0,)): (1, 1)}

    def test_sweep_p3(self, qr3):
        # Every nonzero cell of chi(sigma), sigma < 9, has nu < 6.
        sigmas = [(sigma,) for sigma in range(9)]
        check_sweep(sigmas, [(nu,) for nu in range(6)], qr3)

    def test_sweep_a1xa1_p3_r2(self, a1xa1_p3_r2):
        # Rank 2 at r = 2; every nonzero cell has nu < (3, 3).
        sigmas = itertools.product(range(0, 7, 3), repeat=2)
        nus = list(itertools.product(range(3), repeat=2))
        check_sweep(sigmas, nus, a1xa1_p3_r2)

    @pytest.mark.parametrize(
        "rank, weight", [(1, (-4,)), (1, (7,)), (2, (1, -2)), (2, (20, 1))]
    )
    def test_non_invariant_chi_raises_before_any_record(
        self, monkeypatch, qr3, a1xa1_p3_r2, rank, weight
    ):
        # The rhs is cut at the Steinberg weight, which is sound only for a
        # W-invariant chi: the lhs's full expansion must reject chi first,
        # whether the stray weight lies below the cut or above it.
        qrdata = qr3 if rank == 1 else a1xa1_p3_r2
        chi = weyl_character((1,) * rank, qrdata.provider.rs) + Character(rank, {weight: 1})

        def no_rhs(*args):
            pytest.fail("the rhs was read before chi's expansion was checked")

        monkeypatch.setattr(pims, "expand_above", no_rhs)
        records = jantzen_identity_check(chi, qrdata)
        with pytest.raises(NonInvariantError):
            next(records)


class TestBarQ:
    def test_rows_p3(self, prov3):
        assert barq_multiplicities((0,), 1, prov3) == {(0,): 1, (2,): 1}
        assert barq_multiplicities((1,), 1, prov3) == {(1,): 1}
        assert barq_multiplicities((2,), 1, prov3) == {(2,): 1}

    def test_total_positive(self, prov3):
        for lam in range(3):
            assert sum(barq_multiplicities((lam,), 1, prov3).values()) >= 1


def split_reference(sigma, r, provider):
    """[L(sigma) : L(mu)]_{G(F_q)} over mu, from the one-step split
    L(sigma mod q) . L(sigma div q), in place of sigma's base-q digits."""
    q = provider.p**r
    chi = provider.simple_character(tuple(c % q for c in sigma))
    chi = chi * provider.simple_character(tuple(c // q for c in sigma))
    return finite_composition_multiplicities(chi, r, provider)


class TestInducedSocle:
    def test_equals_one_step_split(self):
        checked = 0
        for provider, r, weights in untwisting_cases():
            restricted = provider.rs.restricted_weights(provider.p, r)
            for sigma in weights:
                expected = split_reference(sigma, r, provider)
                for mu in restricted:
                    value = induced_socle_multiplicity(mu, sigma, r, provider)
                    assert value == expected.get(mu, 0), (provider.p, r, mu, sigma)
                    checked += 1
        assert checked > 2000

    def test_restricted_delta(self, prov3):
        assert induced_socle_multiplicity((2,), (2,), 1, prov3) == 1
        assert induced_socle_multiplicity((0,), (2,), 1, prov3) == 0

    def test_spot_value(self, prov3):
        assert induced_socle_multiplicity((2,), (8,), 1, prov3) == 2

    def test_delta_sweep(self, prov3):
        for mu in range(3):
            for sigma in range(3):
                expected = 1 if mu == sigma else 0
                assert (
                    induced_socle_multiplicity((mu,), (sigma,), 1, prov3)
                    == expected
                )


def socle_records(lam, provider):
    """mu -> (lhs, rhs) of theorem45a_socle_check at p = 3, r = 1."""
    return {
        mu: (lhs, rhs) for mu, lhs, rhs in theorem45a_socle_check(lam, 1, provider)
    }


class TestTheorem45a:
    def test_examples(self, prov3):
        assert socle_records((0,), prov3)[(0,)] == (1, 1)
        assert socle_records((0,), prov3)[(1,)] == (0, 0)
        assert socle_records((2,), prov3)[(2,)] == (1, 1)

    def test_sweep_p3(self, prov3):
        for lam in range(3):
            records = list(theorem45a_socle_check((lam,), 1, prov3))
            assert [mu for mu, _, _ in records] == [(0,), (1,), (2,)]
            for mu, lhs, rhs in records:
                assert lhs == rhs, (lam, mu)

    @pytest.mark.parametrize("p, r", [(3, 1), (2, 2), (5, 2)])
    def test_one_cj_rhs_per_mu(self, monkeypatch, p, r):
        # rhs is read from the bar-Q multiset, which holds cj_rhs(lam, mu)
        # for every restricted mu: |X_r| calls per lam, not twice that.
        provider = DecompositionProvider.builtin_sl2(p)
        restricted = provider.rs.restricted_weights(p, r)
        calls = []
        cj_rhs = pims.cj_rhs

        def counted(lam, mu, *args):
            calls.append((lam, mu))
            return cj_rhs(lam, mu, *args)

        monkeypatch.setattr(pims, "cj_rhs", counted)
        for lam in restricted[:3]:
            calls.clear()
            records = list(theorem45a_socle_check(lam, r, provider))
            assert sorted(calls) == [(lam, mu) for mu in restricted]
            assert [rhs for _, _, rhs in records] == [
                cj_rhs(lam, mu, r, provider) for mu in restricted
            ]


class TestDataPairing:
    """p comes from the provider and r from the Q-hat data.  A QrData is
    built over its provider, so the loader refuses a document for another
    prime or Cartan matrix, once, before any entry is divided."""

    def refused(self, monkeypatch, doc, provider):
        def divide(*args):
            pytest.fail("an entry was divided before the document was refused")

        monkeypatch.setattr(pims, "character_divide", divide)
        with pytest.raises(DataValidationError) as info:
            QrData.from_json_dict(doc, provider)
        return str(info.value)

    def test_other_prime(self, monkeypatch, prov3):
        qr5 = QrData.builtin_sl2(DecompositionProvider.builtin_sl2(5), 1)
        doc = {"type": "A1", "p": 5, "r": 1, "entries": qhat_entries(qr5)}
        assert re.search("p=5.*p=3", self.refused(monkeypatch, doc, prov3))

    def test_other_cartan_matrix(self, monkeypatch, qr3):
        provider = DecompositionProvider(RootSystem(CartanMatrix.builtin("A2")), 3, {})
        doc = {"type": "A1", "p": 3, "r": 1, "entries": qhat_entries(qr3)}
        message = self.refused(monkeypatch, doc, provider)
        assert re.search(r"\[\[2\]\].*\[\[2, -1\]", message)

    @pytest.mark.parametrize("module", [finite, pims], ids=["finite", "pims"])
    def test_one_source_for_each_value(self, module):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            params = inspect.signature(fn).parameters
            assert not {"provider", "p"} <= set(params), name
            assert not {"qrdata", "r"} <= set(params), name
            assert not {"provider", "qrdata"} <= set(params), name
