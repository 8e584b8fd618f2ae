import json
import math
import os
import subprocess
import sys

import pytest

from liechar import Character, LiecharError, QrData, cli, pims

from test_decomp import a1_p3_nabla6_document, a2_p2_document

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# A1 at p = 5 with the wrong row nabla(3) = L(3) + L(1); the true row is L(3).
BAD_A1_P5 = os.path.join(os.path.dirname(SRC), "tests", "data", "bad_a1_p5.json")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def a1_p3_document(flag, label):
    """Valid A1 data at p = 3, r = 1 for `flag`, labelled with root system `label`."""
    if flag == "--decomp-data":
        rows = [{"lambda": [m], "factors": [{"mu": [m], "mult": 1}]} for m in range(3)]
        return {"type": label, "p": 3, "rows": rows}
    entries = [
        {"lambda": list(lam), "qhat": entry.qhat_char.to_json_dict()}
        for lam, entry in sorted(QrData.builtin_sl2(3, 1).entries.items())
    ]
    return {"type": label, "p": 3, "r": 1, "entries": entries}


class TestCharCommand:
    def test_pretty_default(self, capsys):
        code, out, _ = run(capsys, ["char", "weyl(2)"])
        assert code == 0
        assert out == "(-2): 1\n(0): 1\n(2): 1\ndimension: 3\n"

    def test_weyl_character_past_the_size_bound(self, capsys):
        code, out, err = run(capsys, ["char", "weyl(1000000000)"])
        assert code == 2
        assert out == ""
        assert "error: chi(1000000000,) is too large" in err

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, ["char", "--format", "tsv", "weyl(1)"])
        assert code == 0
        assert out == "-1\t1\n1\t1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["char", "--format", "json", "weyl(1)*weyl(1)"])
        assert code == 0
        assert out == (
            '{"entries":[{"mult":1,"weight":[-2]},{"mult":2,"weight":[0]},'
            '{"mult":1,"weight":[2]}],"rank":1}\n'
        )

    def test_st_and_twist(self, capsys):
        code, out, _ = run(capsys, ["char", "--format", "tsv", "twist(st,1)"])
        assert code == 0
        assert out == "-6\t1\n0\t1\n6\t1\n"

    def test_simple_uses_provider(self, capsys):
        code, out, _ = run(capsys, ["char", "--format", "tsv", "simple(4)"])
        assert code == 0
        assert out == "-4\t1\n-2\t1\n2\t1\n4\t1\n"

    def test_dual_and_sum_chain(self, capsys):
        code, out, _ = run(
            capsys, ["char", "--format", "tsv", "dual(weyl(3))+weyl(1)+weyl(1)"]
        )
        assert code == 0
        assert out == "-3\t1\n-1\t3\n1\t3\n3\t1\n"

    def test_parenthesized_mixed_operators(self, capsys):
        code, out, _ = run(
            capsys, ["char", "--format", "tsv", "(weyl(1)+weyl(1))*weyl(0)"]
        )
        assert code == 0
        assert out == "-1\t2\n1\t2\n"

    def test_a2_weight_parsing(self, capsys):
        code, out, _ = run(
            capsys, ["char", "--type", "A2", "-p", "2", "weyl(1,1)"]
        )
        assert code == 0
        assert "dimension: 8" in out


def json_oracle(doc):
    """The JSON renderers' output for doc, by the stdlib encoder."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def table_doc(table):
    """The document render_table's json branch prints for table, as the
    dict that the renderer passed to json.dump before it formatted its own
    string."""
    labels = table.labels
    return {
        "labels": [list(w) for w in labels],
        "lhs": [[table.lhs[(lam, mu)] for mu in labels] for lam in labels],
        "rhs": [[table.rhs[(lam, mu)] for mu in labels] for lam in labels],
        "mismatches": [
            {"lambda": list(lam), "mu": list(mu), "lhs": a, "rhs": b}
            for lam, mu, a, b in table.mismatches
        ],
    }


def hand_table(labels, value, mismatched=()):
    """A MultiplicityTable over labels with lhs = value(lam, mu), and rhs equal
    to lhs except at each (lam, mu) in mismatched, where it is -lhs - 1."""
    lhs = {(lam, mu): value(lam, mu) for lam in labels for mu in labels}
    rhs = dict(lhs)
    mismatches = []
    for lam, mu in mismatched:
        rhs[(lam, mu)] = -lhs[(lam, mu)] - 1
        mismatches.append((lam, mu, lhs[(lam, mu)], rhs[(lam, mu)]))
    return pims.MultiplicityTable(labels, lhs, rhs, mismatches)


class CountingOut:
    """A stream that keeps what is written and counts the write calls."""

    def __init__(self):
        self.writes = 0
        self.text = ""

    def write(self, text):
        self.writes += 1
        self.text += text
        return len(text)


RANK_2_LABELS = [(0, 0), (1, 0), (0, 1), (1, 1)]
RENDERED_CHARACTERS = {
    "empty": Character(2),
    "rank-1": Character(1, {(-3,): -2, (0,): 5, (3,): -2}),
    "rank-2": Character(2, {(-1, 2): -7, (0, 0): 1, (3, -4): 12}),
    "rank-3": Character(3, {(-1, 0, -2): 3, (0, -5, 1): -1, (2, 2, 2): -40}),
    "4000-digit-mult": Character(2, {(0, -1): -(10**3999 + 7), (1, 1): 10**3999}),
}
RENDERED_TABLES = {
    "rank-1": hand_table([(0,), (1,), (2,)], lambda lam, mu: lam[0] - mu[0]),
    "rank-1-mismatched": hand_table(
        [(0,), (1,), (2,)], lambda lam, mu: lam[0] * mu[0], [((1,), (2,))]
    ),
    "rank-2": hand_table(RANK_2_LABELS, lambda lam, mu: lam[0] - 2 * mu[1]),
    "rank-2-mismatched": hand_table(
        RANK_2_LABELS,
        lambda lam, mu: lam[1] * mu[0] - 3,
        [((0, 0), (1, 1)), ((1, 0), (0, 1))],
    ),
}


class TestJsonRendering:
    """The JSON renderers print json.dumps(doc, sort_keys=True, compact
    separators) byte for byte, in one write call."""

    @pytest.mark.parametrize("name", RENDERED_CHARACTERS)
    def test_character_matches_stdlib_encoder(self, name):
        chi = RENDERED_CHARACTERS[name]
        out = CountingOut()
        cli.render_character(chi, "json", out)
        assert out.text == json_oracle(chi.to_json_dict())
        assert out.writes == 1

    @pytest.mark.parametrize("name", RENDERED_TABLES)
    def test_table_matches_stdlib_encoder(self, name):
        table = RENDERED_TABLES[name]
        out = CountingOut()
        cli.render_table(table, "json", out)
        assert out.text == json_oracle(table_doc(table))
        assert out.writes == 1


class TestInputErrors:
    def test_mixed_operators_need_parens(self, capsys):
        code, _, err = run(capsys, ["char", "weyl(1)+weyl(1)*weyl(1)"])
        assert code == 2
        assert "parentheses" in err

    def test_unknown_atom(self, capsys):
        code, _, err = run(capsys, ["char", "verma(1)"])
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize(
        "expression, message",
        [
            ("weyl(1,)", "expected an integer, got ')'"),
            ("twist(weyl(1), -1)", "expected an integer, got '-'"),
            ("weyl(1) + ", "unexpected end"),
        ],
    )
    def test_malformed_expression(self, capsys, expression, message):
        code, out, err = run(capsys, ["char", expression])
        assert code == 2
        assert out == ""
        assert "parse error" in err and message in err
        assert "Traceback" not in err

    def test_trailing_garbage(self, capsys):
        code, _, err = run(capsys, ["char", "weyl(1))"])
        assert code == 2
        assert "parse error" in err

    def test_weight_rank_mismatch(self, capsys):
        code, _, err = run(capsys, ["char", "--type", "A2", "weyl(1)"])
        assert code == 2
        assert "rank" in err

    def test_non_prime_p(self, capsys):
        code, _, err = run(capsys, ["char", "-p", "4", "weyl(1)"])
        assert code == 2
        assert "prime" in err

    def test_is_prime_matches_trial_division(self):
        def trial_division(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert [cli._is_prime(n) for n in range(10**4)] == [
            trial_division(n) for n in range(10**4)
        ]

    def test_missing_data_file(self, capsys):
        code, _, err = run(
            capsys, ["char", "--decomp-data", "no-such-file.json", "weyl(1)"]
        )
        assert code == 2
        assert "not found" in err

    def test_rank_two_simple_needs_data(self, capsys):
        code, _, err = run(capsys, ["char", "--type", "B2", "simple(1,1)"])
        assert code == 2
        assert "decomposition data required: supply --decomp-data" in err

    def test_corrupted_json(self, capsys, tmp_path):
        # Invalid JSON, bytes that are not UTF-8, an integer past the
        # conversion limit of 4300 digits, and nesting too deep to parse.
        contents = [
            b"{not json",
            b'{"type": "A1"}\xff',
            b'{"p": ' + b"1" * 5000 + b"}",
            b"[" * 10**5 + b"]" * 10**5,
        ]
        for i, content in enumerate(contents):
            bad = tmp_path / f"broken{i}.json"
            bad.write_bytes(content)
            for flag in ("--cartan", "--decomp-data", "--qhat-data"):
                code, out, err = run(capsys, ["char", flag, str(bad), "weyl(1)"])
                assert code == 2, (content[:20], flag)
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1

    def test_invalid_decomposition_data(self, capsys, tmp_path):
        doc = a2_p2_document()
        doc["rows"][0]["factors"] = [{"mu": [0, 0], "mult": 2}]
        path = tmp_path / "decomp.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys,
            ["char", "--type", "A2", "-p", "2", "--decomp-data", str(path), "weyl(1,0)"],
        )
        assert code == 2
        assert "must be 1" in err


    @pytest.mark.parametrize("flag", ["--decomp-data", "--qhat-data"])
    def test_fractional_multiplicity_in_data(self, capsys, tmp_path, flag):
        if flag == "--decomp-data":
            row = {"lambda": [0], "factors": [{"mu": [0], "mult": 1.7}]}
            doc = {"type": "A1", "p": 3, "rows": [row]}
        else:
            qhat = {"rank": 1, "entries": [{"weight": [0], "mult": 1.7}]}
            entry = {"lambda": [0], "qhat": qhat}
            doc = {"type": "A1", "p": 3, "r": 1, "entries": [entry]}
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["char", "-p", "3", flag, str(path), "weyl(1)"])
        assert code == 2
        assert out == ""
        assert "must be an integer, got 1.7" in err


    @pytest.mark.parametrize(
        "flag, doc, message",
        [
            (
                "--decomp-data",
                {
                    "type": "A1",
                    "p": 3,
                    "rows": [
                        {
                            "lambda": [0],
                            "factors": [{"mu": [0], "mult": 1}, {"mu": [0], "mult": 1}],
                        }
                    ],
                },
                "duplicate factor (0,)",
            ),
            (
                "--decomp-data",
                {
                    "type": "A1",
                    "p": 3,
                    "rows": [{"lambda": [0], "factors": [{"mu": [0], "mult": 1}]}] * 2,
                },
                "duplicate row for lambda (0,)",
            ),
            (
                "--qhat-data",
                {
                    "type": "A1",
                    "p": 3,
                    "r": 1,
                    "entries": [
                        {
                            "lambda": [0],
                            "qhat": {
                                "rank": 1,
                                "entries": [
                                    {"weight": [0], "mult": 1},
                                    {"weight": [0], "mult": 2},
                                ],
                            },
                        }
                    ],
                },
                "duplicate weight (0,)",
            ),
            (
                "--qhat-data",
                {
                    "type": "A1",
                    "p": 3,
                    "r": 1,
                    "entries": [
                        {
                            "lambda": [0],
                            "qhat": {
                                "rank": 1,
                                "entries": [
                                    {"weight": [w], "mult": mult} for w in (-2, 0, 2)
                                ],
                            },
                        }
                        for mult in (1, 2)
                    ],
                },
                "duplicate entry for lambda (0,)",
            ),
        ],
        ids=["decomp-factor", "decomp-row", "qhat-weight", "qhat-lambda"],
    )
    def test_duplicates_in_data(self, capsys, tmp_path, flag, doc, message):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["char", "-p", "3", flag, str(path), "weyl(1)"])
        assert code == 2
        assert out == ""
        assert message in err


class TestNumbersTooLongToPrint:
    """Past sys.get_int_max_str_digits() (4300 by default) a number cannot
    be printed: the CLI exits 2 with one error line and an empty stdout."""

    @pytest.fixture(autouse=True)
    def no_huge_twist(self, monkeypatch):
        # Computing p**s for these exponents would not finish: frobenius_twist
        # must reject them before computing p**s.
        twist = cli.frobenius_twist

        def guarded(chi, p, s):
            if s <= 10**4:
                return twist(chi, p, s)
            with pytest.raises(LiecharError) as info:
                twist(chi, p, s)
            raise info.value

        monkeypatch.setattr(cli, "frobenius_twist", guarded)

    @pytest.mark.parametrize("fmt", ["pretty", "json", "tsv"])
    @pytest.mark.parametrize(
        "expression, message",
        [
            ("twist(weyl(1),9013)", "twist exponent 9013 is too large"),
            ("twist(weyl(1),10000)", "twist exponent 10000 is too large"),
            ("twist(weyl(1),1000000000)", "twist exponent 1000000000 is too large"),
            ("twist(twist(twist(weyl(1),4000),4000),4000)", "too long to print"),
            pytest.param(
                "weyl(" + "1" * 5000 + ")",
                "integer of 5000 digits is too long",
                id="literal-of-5000-digits",
            ),
        ],
    )
    def test_exit_2_before_any_output(self, capsys, fmt, expression, message):
        code, out, err = run(capsys, ["char", "-p", "3", "--format", fmt, expression])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("exponent", [9000, 9012])
    def test_longest_printable_twist(self, capsys, exponent):
        # 3**9012 has 4300 digits, 3**9013 has 4301.
        code, out, _ = run(capsys, ["char", "-p", "3", f"twist(weyl(1),{exponent})"])
        assert code == 0
        top = 3**exponent
        assert out == f"({-top}): 1\n({top}): 1\ndimension: 2\n"


class TestDataResolution:
    def test_decomp_data_file(self, capsys, tmp_path):
        path = tmp_path / "a2p2.json"
        path.write_text(json.dumps(a2_p2_document()))
        code, out, _ = run(
            capsys,
            [
                "char",
                "--type",
                "A2",
                "-p",
                "2",
                "--decomp-data",
                str(path),
                "simple(1,1)",
            ],
        )
        assert code == 0
        assert "dimension: 8" in out

    def test_data_dir_env(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "a2p2.json").write_text(json.dumps(a2_p2_document()))
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))
        code, out, _ = run(
            capsys,
            ["char", "--type", "A2", "-p", "2", "--decomp-data", "a2p2.json", "simple(0,1)"],
        )
        assert code == 0
        assert "dimension: 3" in out

    def test_wrong_p_for_data(self, capsys, tmp_path):
        path = tmp_path / "a2p2.json"
        path.write_text(json.dumps(a2_p2_document()))
        code, _, err = run(
            capsys,
            ["char", "--type", "A2", "-p", "3", "--decomp-data", str(path), "weyl(0,0)"],
        )
        assert code == 2
        assert "p=2" in err

    @pytest.mark.parametrize("flag", ["--decomp-data", "--qhat-data"])
    def test_data_for_another_root_system(self, capsys, tmp_path, flag):
        path = tmp_path / "data.json"
        argv = ["cj-table", "-p", "3", "-r", "1", "--format", "json", flag, str(path)]
        path.write_text(json.dumps(a1_p3_document(flag, "A2")))
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "document is for" in err
        path.write_text(json.dumps(a1_p3_document(flag, "A1")))
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["lhs"] == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("flag", ["--decomp-data", "--qhat-data"])
    def test_data_matches_cartan_file(self, capsys, tmp_path, flag):
        cartan = tmp_path / "cartan.json"
        cartan.write_text(json.dumps({"rank": 1, "matrix": [[2]]}))
        data = tmp_path / "data.json"
        data.write_text(json.dumps(a1_p3_document(flag, "A1")))
        argv = ["cj-table", "-p", "3", "--cartan", str(cartan), flag, str(data)]
        assert run(capsys, argv)[0] == 0

    @pytest.mark.parametrize(
        "flag, doc",
        [("--cartan", [[2]]), ("--decomp-data", {"type": ["A1"], "p": 3, "rows": []})],
    )
    def test_malformed_root_system_key(self, capsys, tmp_path, flag, doc):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["char", flag, str(path), "weyl(1)"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("matrix", [[[2, -2], [-2, 2]], [[2, -1], [-4, 2]]])
    def test_cartan_file_not_of_finite_type(self, capsys, tmp_path, matrix):
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"rank": 2, "matrix": matrix}))
        code, out, err = run(capsys, ["char", "--cartan", str(path), "weyl(0,0)"])
        assert code == 2
        assert out == ""
        assert "positive definite" in err

    def test_cartan_file(self, capsys, tmp_path):
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"rank": 1, "matrix": [[2]]}))
        code, out, _ = run(
            capsys, ["char", "--cartan", str(path), "--format", "tsv", "weyl(2)"]
        )
        assert code == 0
        assert out == "-2\t1\n0\t1\n2\t1\n"


class TestCjTableCommand:
    def test_golden_tsv(self, capsys):
        code, out, _ = run(capsys, ["cj-table", "--format", "tsv"])
        assert code == 0
        assert out == (
            "# route=lhs\n"
            "\t0\t1\t2\n"
            "0\t1\t0\t1\n"
            "1\t0\t1\t0\n"
            "2\t0\t0\t1\n"
            "# route=rhs\n"
            "\t0\t1\t2\n"
            "0\t1\t0\t1\n"
            "1\t0\t1\t0\n"
            "2\t0\t0\t1\n"
        )

    def test_golden_json(self, capsys):
        code, out, _ = run(capsys, ["cj-table", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["lhs"] == [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
        assert doc["rhs"] == doc["lhs"]
        assert doc["mismatches"] == []

    def test_method_direct(self, capsys):
        code, out, _ = run(
            capsys, ["cj-table", "--format", "json", "--method", "direct"]
        )
        assert code == 0
        assert json.loads(out)["mismatches"] == []

    def test_rank_two_without_data_fails(self, capsys):
        code, _, err = run(capsys, ["cj-table", "--type", "A2", "-p", "2"])
        assert code == 2
        assert "data" in err

    def test_missing_qhat_data_names_the_flag(self, capsys, tmp_path):
        path = tmp_path / "a2p2.json"
        path.write_text(json.dumps(a2_p2_document()))
        argv = ["cj-table", "--type", "A2", "-p", "2", "--decomp-data", str(path)]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "Q-hat data required: supply --qhat-data" in err

    @pytest.mark.parametrize("lam", [[0, 0], [7]])
    def test_qhat_lambda_out_of_range_exits_2(self, capsys, tmp_path, lam):
        doc = a1_p3_document("--qhat-data", "A1")
        doc["entries"][0]["lambda"] = lam
        path = tmp_path / "qhat.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["cj-table", "-p", "3", "--qhat-data", str(path)])
        assert code == 2
        assert out == ""
        assert f"entry {tuple(lam)}: lambda is not a 3-restricted weight" in err


    def test_wrong_row_with_the_right_dimension_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad_a1_p3.json"
        path.write_text(json.dumps(a1_p3_nabla6_document([6, 2, 0])))
        argv = ["cj-table", "-p", "3", "--decomp-data", str(path)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: row (6,)") and err.count("\n") == 1

    def test_wrong_row_mismatch_exits_1(self, capsys):
        # The file loads, so the table is printed in full; the one cell where
        # the routes disagree goes to stderr.
        argv = ["cj-table", "-p", "5", "--decomp-data", BAD_A1_P5]
        code, out, err = run(capsys, argv)
        assert code == 1
        labels = "\t0\t1\t2\t3\t4\n"
        assert out == (
            "# route=lhs\n" + labels + "0\t1\t0\t0\t0\t1\n1\t0\t1\t0\t-1\t0\n"
            "2\t0\t0\t1\t0\t0\n3\t0\t0\t0\t1\t0\n4\t0\t0\t0\t0\t1\n"
            "# route=rhs\n" + labels + "0\t1\t0\t0\t0\t1\n1\t0\t1\t0\t0\t0\n"
            "2\t0\t0\t1\t0\t0\n3\t0\t0\t0\t1\t0\n4\t0\t0\t0\t0\t1\n"
        )
        assert err == "mismatch at (lambda=1, mu=3): lhs=-1 rhs=0 method=simple_basis\n"

    @pytest.mark.parametrize("p, r", [(3, 2), (5, 2)])
    def test_file_of_restricted_rows_matches_builtin(self, capsys, tmp_path, p, r):
        rows = [{"lambda": [m], "factors": [{"mu": [m], "mult": 1}]} for m in range(p)]
        path = tmp_path / "a1.json"
        path.write_text(json.dumps({"type": "A1", "p": p, "rows": rows}))
        argv = ["cj-table", "--format", "json", "-p", str(p), "-r", str(r)]
        builtin = run(capsys, argv)
        assert builtin[0] == 0
        assert run(capsys, argv + ["--decomp-data", str(path)]) == builtin


class TestSizeLimits:
    """A huge r or --bound is refused with exit 2, one error line and an
    empty stdout.  Each case runs in a child process under a time limit and
    a 2 GB address-space limit, so that a regression fails rather than
    hanging or exhausting memory."""

    CHILD = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9)); "
        "from liechar.cli import main; sys.exit(main(sys.argv[1:]))"
    )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["char", "-p", "3", "-r", "100000000", "weyl(1)"], "r = 100000000"),
            (["cj-table", "-p", "2", "-r", "40"], "2^40-restricted weights"),
            (["verify", "thm45a", "-p", "2", "-r", "40"], "2^40-restricted weights"),
            (["verify", "prop31", "-p", "2", "--bound", "100000000"], "sweep grid"),
            (["char", "-p", "3", "simple(100000000000000000000)"], "is too large"),
        ],
    )
    def test_refused_with_exit_2(self, argv, message):
        self.check_refused(argv, message)

    def test_qhat_file_with_huge_r(self, tmp_path):
        doc = a1_p3_document("--qhat-data", "A1")
        doc["r"] = 100000000
        path = tmp_path / "qhat.json"
        path.write_text(json.dumps(doc))
        argv = ["cj-table", "-p", "3", "--qhat-data", str(path)]
        self.check_refused(argv, "r = 100000000")

    @pytest.mark.parametrize(
        "argv",
        [
            # The built-in Q-hat data at 3^11 would take minutes; char never
            # reads it.
            ["char", "-p", "3", "-r", "11", "weyl(1)"],
            # A prime of 19 digits, and no built-in table of 10^18 rows.
            ["char", "-p", str(10**18 + 3), "weyl(1)"],
        ],
    )
    def test_accepted_at_once(self, argv):
        proc = self.run_child(argv, timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "(-1): 1\n(1): 1\ndimension: 2\n"

    @pytest.mark.parametrize(
        "p, message",
        [
            # Carmichael, base-2 strong pseudoprime, and strong pseudoprime
            # to bases 2, 3, 5 and 7.
            (561, "p must be prime"),
            (2047, "p must be prime"),
            (3215031751, "p must be prime"),
            (cli.MAX_PRIME_BOUND, "p must be less than"),
            (10**30 + 57, "p must be less than"),
        ],
    )
    def test_p_refused(self, p, message):
        self.check_refused(["char", "-p", str(p), "weyl(1)"], message)

    def test_built_in_table_of_a_huge_prime_refused(self):
        argv = ["char", "-p", str(10**18 + 3), "simple(1)"]
        self.check_refused(argv, "restricted weights of rank 1 number more than")

    def run_child(self, argv, timeout=60):
        return subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            env={**os.environ, "PYTHONPATH": SRC},
        )

    def check_refused(self, argv, message):
        proc = self.run_child(argv)
        errors = [line for line in proc.stderr.splitlines() if "error" in line]
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert message in errors[0]


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        argv = ["cj-table", "--format", "json", "-p", "3"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_widen_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cj-table", "--format", "json", "--widen"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --widen" in captured.err


class TestVerifyCommand:
    def test_prop44delta(self, capsys):
        code, out, _ = run(capsys, ["verify", "prop44delta", "-p", "2"])
        assert code == 0
        assert out == "target=prop44delta checks=4 mismatches=0\n"

    def test_thm41(self, capsys):
        code, out, _ = run(capsys, ["verify", "thm41", "-p", "3"])
        assert code == 0
        assert out.startswith("target=thm41 checks=9 mismatches=0")

    @pytest.mark.parametrize("target", ["prop31", "prop32"])
    def test_route_agreement(self, capsys, target):
        code, out, _ = run(capsys, ["verify", target, "-p", "2", "--bound", "6"])
        assert code == 0
        assert "mismatches=0" in out

    def test_lemma33(self, capsys):
        code, out, _ = run(capsys, ["verify", "lemma33", "-p", "2", "--bound", "4"])
        assert code == 0
        assert "mismatches=0" in out

    def test_thm45a(self, capsys):
        code, out, _ = run(capsys, ["verify", "thm45a", "-p", "3"])
        assert code == 0
        assert "checks=9 mismatches=0" in out

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run(capsys, ["verify", "thm41", "-p", "2"])
        assert "verify thm41" in err
        assert "running" in err
        assert "verify" not in out

    def test_unknown_target_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nope"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'nope'" in captured.err


def off_by_one(monkeypatch, owner, name, when):
    """Patch owner.name to add one to its value on the calls where
    when(*args, **kwargs) holds."""
    fn = getattr(owner, name)

    def shifted(*args, **kwargs):
        value = fn(*args, **kwargs)
        return value + 1 if when(*args, **kwargs) else value

    monkeypatch.setattr(owner, name, shifted)


def mu_and_sigma_one(mu, sigma, *args):
    return mu == sigma == (1,)


class TestVerifyMismatchLines:
    """One side off by one: the exact summary and mismatch lines, exit 1."""

    @pytest.mark.parametrize(
        "target, route", [("prop31", "good_filtration"), ("prop32", "simple_basis")]
    )
    def test_route_agreement(self, capsys, monkeypatch, target, route):
        def route_at_chi_one(chi, r, provider, method):
            return method == route and chi.dimension() == 2

        off_by_one(monkeypatch, cli, "steinberg_multiplicity", route_at_chi_one)
        code, out, _ = run(capsys, ["verify", target, "-p", "2", "--bound", "2"])
        assert code == 1
        assert out == (
            f"target={target} checks=3 mismatches=1\n"
            f"mismatch lambda=1 direct=1 {route}=2\n"
        )

    def test_lemma33(self, capsys, monkeypatch):
        check = pims.jantzen_identity_check

        def rhs_off_at_nu_one(*args):
            for lam, nu, lhs, rhs in check(*args):
                yield lam, nu, lhs, rhs + (nu == (1,))

        monkeypatch.setattr(pims, "jantzen_identity_check", rhs_off_at_nu_one)
        code, out, _ = run(capsys, ["verify", "lemma33", "-p", "2", "--bound", "3"])
        assert code == 1
        assert out == (
            "target=lemma33 checks=5 mismatches=2\n"
            "mismatch sigma=2 lambda=0 nu=1 lhs=1 rhs=2\n"
            "mismatch sigma=3 lambda=1 nu=1 lhs=1 rhs=2\n"
        )

    def test_lemma33_wrong_row(self, capsys):
        # Only the cells where a side is nonzero are checked, and the wrong
        # row shows in four of them.
        argv = ["verify", "lemma33", "-p", "5", "--bound", "12"]
        code, out, _ = run(capsys, argv + ["--decomp-data", BAD_A1_P5])
        assert code == 1
        assert out == (
            "target=lemma33 checks=24 mismatches=4\n"
            "mismatch sigma=3 lambda=1 nu=0 lhs=1 rhs=0\n"
            "mismatch sigma=5 lambda=1 nu=0 lhs=1 rhs=0\n"
            "mismatch sigma=8 lambda=1 nu=1 lhs=1 rhs=0\n"
            "mismatch sigma=10 lambda=1 nu=1 lhs=1 rhs=0\n"
        )

    def test_thm41(self, capsys, monkeypatch):
        def cell_zero_one(lam, mu, *args, **kwargs):
            return (lam, mu) == ((0,), (1,))

        off_by_one(monkeypatch, pims, "cj_rhs", cell_zero_one)
        code, out, _ = run(capsys, ["verify", "thm41", "-p", "2"])
        assert code == 1
        assert out == (
            "target=thm41 checks=4 mismatches=1\n"
            "mismatch lambda=0 mu=1 lhs=1 rhs=2\n"
        )

    def test_thm45a(self, capsys, monkeypatch):
        off_by_one(monkeypatch, pims, "induced_socle_multiplicity", mu_and_sigma_one)
        code, out, _ = run(capsys, ["verify", "thm45a", "-p", "2"])
        assert code == 1
        assert out == (
            "target=thm45a checks=4 mismatches=2\n"
            "mismatch lambda=0 mu=1 lhs=2 rhs=1\n"
            "mismatch lambda=1 mu=1 lhs=2 rhs=1\n"
        )

    def test_prop44delta(self, capsys, monkeypatch):
        off_by_one(monkeypatch, pims, "induced_socle_multiplicity", mu_and_sigma_one)
        code, out, _ = run(capsys, ["verify", "prop44delta", "-p", "2"])
        assert code == 1
        assert out == (
            "target=prop44delta checks=4 mismatches=1\n"
            "mismatch mu=1 sigma=1 value=2 expected=1\n"
        )


def test_cli_imports_no_dataclasses():
    # dataclasses imports inspect, which every CLI run would pay for at
    # start-up.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import liechar.cli, sys; print('dataclasses' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
