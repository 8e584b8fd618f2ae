import functools
import io
import itertools
import json
import math
import operator
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liechar import (
    Character,
    DecompositionProvider,
    LiecharError,
    QrData,
    cli,
    finite,
    formal_dual,
    frobenius_twist,
    load_decomposition_data,
    pims,
    steinberg_character,
    weyl_character,
)

from test_decomp import (
    A1XA1,
    a1_p3_nabla6_document,
    a1xa1_rows_document,
    a2_p2_document,
)
from test_kernel import PROPERTY
from test_pims import a1xa1_qhat_document, qhat_entries

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
    entries = qhat_entries(QrData.builtin_sl2(DecompositionProvider.builtin_sl2(3), 1))
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


def table_doc(labels, cells):
    """The document render_table's json branch prints for cells over labels,
    as the dict that the renderer passed to json.dump before it formatted its
    own string."""
    lhs = {(lam, mu): a for lam, mu, a, _ in cells}
    rhs = {(lam, mu): b for lam, mu, _, b in cells}
    return {
        "labels": [list(w) for w in labels],
        "lhs": [[lhs[(lam, mu)] for mu in labels] for lam in labels],
        "rhs": [[rhs[(lam, mu)] for mu in labels] for lam in labels],
        "mismatches": [
            {"lambda": list(lam), "mu": list(mu), "lhs": a, "rhs": b}
            for lam, mu, a, b in cells
            if a != b
        ],
    }


def table_text(labels, cells):
    """The text render_table's pretty branch prints for cells over labels,
    cell by cell: per route a header row of the labels, then one row per
    lambda, tab-separated."""
    values = {(lam, mu): (a, b) for lam, mu, a, b in cells}
    names = {w: ",".join(map(str, w)) for w in labels}
    text = ""
    for side, route in enumerate(("lhs", "rhs")):
        text += f"# route={route}\n"
        text += "".join(f"\t{names[mu]}" for mu in labels) + "\n"
        for lam in labels:
            row = "".join(f"\t{values[(lam, mu)][side]}" for mu in labels)
            text += f"{names[lam]}{row}\n"
    return text


def hand_records(labels, value, mismatched=()):
    """labels and the records (lam, mu, lhs, rhs) over them, lambda-major,
    with lhs = value(lam, mu) and rhs equal to lhs except at each (lam, mu)
    in mismatched, where it is -lhs - 1."""
    cells = []
    for lam, mu in itertools.product(labels, repeat=2):
        lhs = value(lam, mu)
        cells.append((lam, mu, lhs, -lhs - 1 if (lam, mu) in mismatched else lhs))
    return labels, cells


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
    "rank-1": hand_records([(0,), (1,), (2,)], lambda lam, mu: lam[0] - mu[0]),
    "rank-1-mismatched": hand_records(
        [(0,), (1,), (2,)], lambda lam, mu: lam[0] * mu[0], [((1,), (2,))]
    ),
    "rank-2": hand_records(RANK_2_LABELS, lambda lam, mu: lam[0] - 2 * mu[1]),
    "rank-2-mismatched": hand_records(
        RANK_2_LABELS,
        lambda lam, mu: lam[1] * mu[0] - 3,
        [((0, 0), (1, 1)), ((1, 0), (0, 1))],
    ),
}


class TestJsonRendering:
    """Each renderer writes its whole output in one call, and the JSON ones
    print json.dumps(doc, sort_keys=True, compact separators) byte for byte."""

    @pytest.mark.parametrize("name", RENDERED_CHARACTERS)
    def test_character_matches_stdlib_encoder(self, name):
        chi = RENDERED_CHARACTERS[name]
        out = CountingOut()
        cli.render_character(chi, "json", out)
        assert out.text == json_oracle(chi.to_json_dict())
        assert out.writes == 1
        for fmt, line in (("tsv", "{}\t{}\n"), ("pretty", "({}): {}\n")):
            out = CountingOut()
            cli.render_character(chi, fmt, out)
            items = [(",".join(map(str, w)), m) for w, m in chi.sorted_items()]
            lines = [line.format(*item) for item in items]
            if fmt == "pretty":
                lines.append(f"dimension: {chi.dimension()}\n")
            assert out.text == "".join(lines)
            assert out.writes == 1

    @pytest.mark.parametrize("name", RENDERED_TABLES)
    def test_table_matches_stdlib_encoder(self, name):
        labels, cells = RENDERED_TABLES[name]
        out = CountingOut()
        cli.render_table(labels, cells, "json", out)
        assert out.text == json_oracle(table_doc(labels, cells))
        assert out.writes == 1
        out = CountingOut()
        cli.render_table(labels, cells, "pretty", out)
        assert out.writes == 1
        assert out.text == table_text(labels, cells)

    def test_pretty_table_text(self):
        out = CountingOut()
        cli.render_table(*RENDERED_TABLES["rank-1-mismatched"], "pretty", out)
        assert out.text == (
            "# route=lhs\n\t0\t1\t2\n0\t0\t0\t0\n1\t0\t1\t2\n2\t0\t2\t4\n"
            "# route=rhs\n\t0\t1\t2\n0\t0\t0\t0\n1\t0\t1\t-3\n2\t0\t2\t4\n"
        )


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


def expression_trees(config):
    """Expressions under config, each drawn as (tokens, value, is_chain): the
    tokens that spell it, its character built without the parser, and
    whether it is a chain of '+' or '*'."""
    rs, p = config.rs, config.p
    coordinate = st.integers(0, 6 // rs.rank)
    weights = st.lists(coordinate, min_size=rs.rank, max_size=rs.rank)

    def spell(weight):
        # The coordinates, with a ',' token between each two.
        return [token for c in weight for token in (",", str(c))][1:]

    def weyl(lam):
        tokens = ["weyl", "(", *spell(lam), ")"]
        return tokens, weyl_character(tuple(lam), rs), False

    def simple(lam):
        tokens = ["simple", "(", *spell(lam), ")"]
        return tokens, config.provider.simple_character(tuple(lam)), False

    def twist(case):
        (tokens, value, _), s = case
        tokens = ["twist", "(", *tokens, ",", str(s), ")"]
        return tokens, frobenius_twist(value, p, s), False

    def dual(tree):
        tokens, value, _ = tree
        return ["dual", "(", *tokens, ")"], formal_dual(value), False

    def chain(case):
        # A chain inside a chain is parenthesized, so the operators may mix.
        op, children = case
        tokens = []
        for child_tokens, _, is_chain in children:
            tokens += [op] if tokens else []
            tokens += ["(", *child_tokens, ")"] if is_chain else child_tokens
        combine = operator.add if op == "+" else operator.mul
        return tokens, functools.reduce(combine, (c[1] for c in children)), True

    def nodes(trees):
        operands = st.lists(trees, min_size=2, max_size=3)
        chains = st.tuples(st.sampled_from("+*"), operands)
        twists = st.tuples(trees, st.integers(0, 2))
        return twists.map(twist) | trees.map(dual) | chains.map(chain)

    steinberg = (["st"], steinberg_character(rs, p, config.r), False)
    leaves = weights.map(weyl) | st.just(steinberg) | weights.map(simple)
    return st.recursive(leaves, nodes, max_leaves=8)


# Every token of the grammar, digits, whitespace and a few characters outside it.
ALPHABET = (
    "weyl", "simple", "twist", "dual", "st", "(", ")", ",", "+", "*",
    "0", "1", "7", " ", "\t", "-", "x", "_", "\u00e9", "\u00b2",
)


class TestExpressionGrammar:
    @settings(PROPERTY, max_examples=60)
    @given(data=st.data())
    def test_printed_tree_evaluates_to_its_character(self, data):
        # On A1 every expression is its own dual; on A2 dual(weyl(1,0)) is
        # weyl(0,1).
        kind = data.draw(st.sampled_from(["A1", "A2"]))
        p = data.draw(st.sampled_from((2, 3, 5))) if kind == "A1" else 2
        r = data.draw(st.integers(1, 2))
        argv = ["char", "--type", kind, "-p", str(p), "-r", str(r), "st"]
        config = cli.build_config(cli.build_parser().parse_args(argv))
        if kind == "A1":
            config.provider = DecompositionProvider.builtin_sl2(p, rs=config.rs)
        else:
            config.provider = load_decomposition_data(a2_p2_document(), rs=config.rs)
        tokens, value, _ = data.draw(expression_trees(config))
        spaces = data.draw(
            st.lists(
                st.sampled_from(["", " ", "\t", "\n  "]),
                min_size=len(tokens),
                max_size=len(tokens),
            )
        )
        text = "".join(space + token for space, token in zip(spaces, tokens))
        assert cli.evaluate_expression(text, config) == value

    @settings(PROPERTY, max_examples=200)
    @given(text=st.lists(st.sampled_from(ALPHABET), max_size=16).map("".join))
    def test_any_string_exits_0_or_2(self, text):
        # Any other exception out of main would be a traceback and exit 1.
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(["char", text])
            except SystemExit as exc:  # argparse refuses an option-like text
                code = exc.code
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""


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

    def test_only_a_printed_dimension_is_refused(self):
        # Each multiplicity has 4300 digits; their sum, the dimension, 4301.
        chi = Character(1, {(0,): 9 * 10**4299, (1,): 9 * 10**4299})
        for fmt in ("json", "tsv"):
            out = CountingOut()
            cli.render_character(chi, fmt, out)
            assert out.writes == 1
        out = CountingOut()
        with pytest.raises(cli.CliError, match="too long to print"):
            cli.render_character(chi, "pretty", out)
        assert out.writes == 0

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["-p", "5"], "Q-hat data is for p=3, decomposition data is for p=5"),
            (["-p", "3", "-r", "2"], "Q-hat data is for r=1, requested r=2"),
        ],
        ids=["other-p", "other-r"],
    )
    def test_qhat_data_for_another_p_or_r(self, capsys, tmp_path, argv, message):
        path = tmp_path / "qhat.json"
        path.write_text(json.dumps(a1_p3_document("--qhat-data", "A1")))
        code, out, err = run(capsys, ["cj-table", *argv, "--qhat-data", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_rank_two_qhat_data_needs_decomposition_data(self, capsys, tmp_path):
        # The file is read over the provider, so even char, which reads no
        # Q-hat data, needs one.
        path = tmp_path / "qhat.json"
        path.write_text(json.dumps(a1xa1_qhat_document(3, 2)))
        argv = ["char", "--type", "A2", "-p", "3", "-r", "2", "--qhat-data", str(path)]
        code, out, err = run(capsys, argv + ["weyl(1,0)"])
        assert code == 2
        assert out == ""
        assert err == "error: decomposition data required: supply --decomp-data\n"

    def test_factor_of_another_rank(self, capsys, tmp_path):
        factors = [{"mu": [0], "mult": 1}, {"mu": [5, 7, 9], "mult": 0}]
        doc = {"type": "A1", "p": 3, "rows": [{"lambda": [0], "factors": factors}]}
        path = tmp_path / "decomp.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, ["char", "-p", "3", "--decomp-data", str(path), "simple(0)"]
        )
        assert code == 2
        assert out == ""
        assert "weight (5, 7, 9) has length 3, expected 1" in err

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
        [
            ("--cartan", [[2]]),
            ("--decomp-data", {"type": ["A1"], "p": 3, "rows": []}),
            ("--cartan", {"matrix": 5}),
            ("--cartan", {"rank": 2, "matrix": 7}),
            ("--decomp-data", {"cartan": {"matrix": 5}, "p": 3, "rows": []}),
            ("--cartan", {"rank": True, "matrix": [[2]]}),
            ("--cartan", {"rank": "2", "matrix": [[2, -1], [-1, 2]]}),
        ],
    )
    def test_malformed_root_system_key(self, capsys, tmp_path, flag, doc):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["char", flag, str(path), "weyl(1)"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, flag, doc, message",
        [
            pytest.param(
                ["char", "weyl(1,1)"],
                "--cartan",
                {"type": "A2", "matrix": [[2]]},
                "both a 'type' and a 'matrix'",
                id="cartan-file",
            ),
            pytest.param(
                ["char", "--type", "A2", "-p", "2", "simple(1,1)"],
                "--decomp-data",
                {**a2_p2_document(), "cartan": {"type": "B2"}},
                "both a 'type' and a 'cartan' key",
                id="decomposition-data",
            ),
            pytest.param(
                ["cj-table", "-p", "3"],
                "--qhat-data",
                {**a1_p3_document("--qhat-data", "A1"), "cartan": {"type": "A1"}},
                "both a 'type' and a 'cartan' key",
                id="qhat-data-that-agrees",
            ),
        ],
    )
    def test_root_system_named_twice(self, capsys, tmp_path, argv, flag, doc, message):
        # A document names its root system by one key; both are refused,
        # even when they agree.
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, [*argv, flag, str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

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
    """A huge r, --bound or expression depth is refused with exit 2, one
    error line, no traceback and an empty stdout.  Each case runs in a child
    process under a time limit and a 2 GB address-space limit, so that a
    regression fails rather than hanging or exhausting memory."""

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
            (["char", "(" * 5000 + "weyl(1)" + ")" * 5000], "nests too deep"),
            (["char", "dual(" * 5000 + "weyl(1)" + ")" * 5000], "nests too deep"),
            (["cj-table", "-p", "3", "-r", "0"], "r must be >= 1, got 0"),
            (["verify", "prop31", "-p", "2", "--bound", "-1"], "must be nonnegative"),
            # 2^19 labels pass restricted_weights, but not their pairs.
            (["cj-table", "-p", "2", "-r", "19"], "pairs of the 524288"),
            (["verify", "thm41", "-p", "2", "-r", "19"], "pairs of the 524288"),
            (["verify", "thm45a", "-p", "2", "-r", "19"], "pairs of the 524288"),
            (["verify", "prop44delta", "-p", "2", "-r", "19"], "pairs of the 524288"),
            (
                ["char", "-p", "3", "twist(weyl(20000), 7) * weyl(20000)"],
                "product of 20001 by 20001 weights is too large",
            ),
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
        assert "Traceback" not in proc.stderr
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

    def test_lemma33_rank_two_through_files(self, capsys, tmp_path):
        # A1 x A1 at p = 3, r = 2 through --cartan: its rows and Q-hat data
        # are the outer products of the A1 built-ins.
        argv = ["verify", "lemma33", "-p", "3", "-r", "2", "--bound", "6"]
        documents = {
            "--cartan": A1XA1,
            "--decomp-data": a1xa1_rows_document(3),
            "--qhat-data": a1xa1_qhat_document(3, 2),
        }
        for flag, doc in documents.items():
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == "target=lemma33 checks=100 mismatches=0\n"

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

        off_by_one(monkeypatch, finite, "steinberg_multiplicity", route_at_chi_one)
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
