"""Command-line surface: character evaluation, CJ tables, verification sweeps.

Exit codes: 0 success, 1 verification mismatch, 2 input or validation error.
Progress and timing go to stderr; the data stream stays machine-readable
and deterministic.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
import time

# Only what every command runs is imported here; decomp, finite, pims and
# json are imported where a command first needs them, so a run compiles and
# loads no module it does not execute.
from . import STEINBERG_METHODS
from .characters import (
    check_printable_power,
    formal_dual,
    frobenius_twist,
    steinberg_character,
    weyl_character,
)
from .errors import LiecharError
from .rootdata import MAX_WEYL_WEIGHTS, root_system_of

DATA_DIR_ENV = "LIECHAR_DATA_DIR"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2


class CliError(LiecharError):
    """Input error surfaced as exit code 2."""


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below MAX_PRIME_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime, by deterministic Miller-Rabin; n < MAX_PRIME_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _resolve_data_path(path):
    if os.path.exists(path):
        return path
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidate = os.path.join(data_dir, path)
        if os.path.exists(candidate):
            return candidate
    raise CliError(f"data file not found: {path}")


def _load_json(path):
    """The JSON document in path; CliError when it is not UTF-8 JSON, holds
    an integer too long to convert or nests too deep to parse."""
    import json

    with open(_resolve_data_path(path), "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise CliError(f"{path}: {exc}") from None


def build_config(args):
    """The parsed options args of one run, checked, with the root system rs,
    the data files' provider and qrdata (None for none; _provider and
    _qrdata fill them in) and the default bound set on them.

    A --qhat-data file is read over _provider, the --decomp-data file's or,
    for rank 1, the built-in provider, so the loader refuses a file for
    another prime or root system; only its r is checked here.
    """
    rs = root_system_of(
        {"cartan": _load_json(args.cartan)} if args.cartan else {"type": args.type}
    )
    if args.p >= MAX_PRIME_BOUND:
        raise CliError(f"p must be less than {MAX_PRIME_BOUND}, got {args.p}")
    if not _is_prime(args.p):
        raise CliError(f"p must be prime, got {args.p}")
    if args.r < 1:
        raise CliError(f"r must be >= 1, got {args.r}")
    check_printable_power(args.p, args.r, "r =")
    if args.bound is not None and args.bound < 0:
        raise CliError(f"bound must be nonnegative, got {args.bound}")

    # Data files are loaded and validated up front; the built-in rank-1
    # data only when a command or a --qhat-data file reads it (_provider,
    # _qrdata).
    args.rs, args.provider, args.qrdata = rs, None, None
    if args.decomp_data:
        from .decomp import load_decomposition_data

        args.provider = load_decomposition_data(_load_json(args.decomp_data), rs=rs)
        if args.provider.p != args.p:
            raise CliError(
                f"decomposition data is for p={args.provider.p}, requested p={args.p}"
            )

    if args.qhat_data:
        from .pims import QrData

        args.qrdata = QrData.from_json_dict(_load_json(args.qhat_data), _provider(args))
        if args.qrdata.r != args.r:
            raise CliError(f"Q-hat data is for r={args.qrdata.r}, requested r={args.r}")

    if args.bound is None:
        args.bound = 2 * args.p**args.r
    return args


def _provider(config):
    """config.provider: the --decomp-data file's or, for rank 1 without
    one, the built-in data, built on first use and kept; CliError for
    neither."""
    if config.provider is None and config.rs.rank == 1:
        from .decomp import DecompositionProvider

        config.provider = DecompositionProvider.builtin_sl2(config.p, rs=config.rs)
    if config.provider is None:
        raise CliError("decomposition data required: supply --decomp-data")
    return config.provider


def _qrdata(config):
    """config.qrdata: the --qhat-data file's or, for rank 1 without one,
    the built-in data over _provider, built on first use and kept; CliError
    for neither."""
    if config.qrdata is None and config.rs.rank == 1:
        from .pims import QrData

        config.qrdata = QrData.builtin_sl2(_provider(config), config.r)
    if config.qrdata is None:
        raise CliError("Q-hat data required: supply --qhat-data")
    return config.qrdata


# -- expression grammar ----------------------------------------------------

# One token: a run of letters, a run of digits, or one other character;
# whitespace before a token is skipped.
_TOKEN = re.compile(r"\s*([^\W\d_]+|\d+|\S)")


class _Parser:
    """Recursive descent over the tokens of one expression:

        expr   := atom ('+' atom)* | atom ('*' atom)*
        atom   := 'st' | '(' expr ')' | 'weyl' '(' weight ')'
                | 'simple' '(' weight ')' | 'twist' '(' expr ',' int ')'
                | 'dual' '(' expr ')'
        weight := int (',' int)*

    Each method parses one production and evaluates it under config.
    """

    def __init__(self, text, config):
        matches = list(_TOKEN.finditer(text))
        self.tokens = [m[1] for m in matches] + [None]
        self.starts = [m.start(1) for m in matches] + [len(text)]
        self.i = 0
        self.config = config

    def peek(self):
        return self.tokens[self.i]

    def error(self, message, back=0):
        """CliError at the current token, or back tokens before it."""
        return CliError(
            f"parse error at position {self.starts[self.i - back]}: {message}"
        )

    def take(self, expected=None):
        token = self.peek()
        if token is None:
            raise self.error("unexpected end")
        if expected is not None and token != expected:
            raise self.error(f"expected {expected!r}, got {token!r}")
        self.i += 1
        return token

    def integer(self):
        token = self.take()
        if not token.isdecimal():
            raise self.error(f"expected an integer, got {token!r}", back=1)
        try:
            return int(token)
        except ValueError:
            raise self.error(
                f"integer of {len(token)} digits is too long", back=1
            ) from None

    def weight(self):
        coords = [self.integer()]
        while self.peek() == ",":
            self.take()
            coords.append(self.integer())
        rank = self.config.rs.rank
        if len(coords) != rank:
            raise self.error(f"weight has {len(coords)} coordinates, rank is {rank}")
        return tuple(coords)

    def atom(self):
        config = self.config
        token = self.peek()
        if token == "st":
            self.take()
            return steinberg_character(config.rs, config.p, config.r)
        if token not in ("(", "weyl", "simple", "twist", "dual"):
            what = "end" if token is None else repr(token)
            raise self.error(f"unexpected {what}")
        if token != "(":
            self.take()
        self.take("(")
        if token == "weyl":
            value = weyl_character(self.weight(), config.rs)
        elif token == "simple":
            lam = self.weight()
            provider = _provider(config)
            value = provider.simple_character(lam)
        else:
            value = self.expression()
            if token == "twist":
                self.take(",")
                value = frobenius_twist(value, config.p, self.integer())
            elif token == "dual":
                value = formal_dual(value)
        self.take(")")
        return value

    def expression(self):
        value = self.atom()
        op = self.peek()
        if op not in ("+", "*"):
            return value
        while self.peek() not in (None, ")", ","):
            if self.peek() != op:
                raise self.error("mixed '+' and '*' need explicit parentheses")
            self.take()
            rhs = self.atom()
            value = value + rhs if op == "+" else value * rhs
        return value


def evaluate_expression(text, config):
    """The character that text denotes under config; CliError when text is
    not in the grammar (see _Parser) or nests too deep to parse."""
    parser = _Parser(text, config)
    try:
        value = parser.expression()
    except RecursionError:
        raise parser.error("expression nests too deep") from None
    if parser.peek() is not None:
        raise parser.error(f"trailing {parser.peek()!r}")
    return value


# -- rendering -------------------------------------------------------------


def _weight_label(weight):
    return ",".join(map(str, weight))


# Each renderer formats its whole output as one string and writes it once.
# The JSON output is byte for byte json.dumps(doc, sort_keys=True,
# separators=(",", ":")), so each object's keys appear in sorted order;
# json.dump would encode in pure Python and call out.write once per token.


def render_character(chi, fmt, out):
    """Write chi to out; CliError, before any output, when a number it
    prints is past sys.get_int_max_str_digits()."""
    items = chi.sorted_items()
    try:
        if fmt == "json":
            entries = ",".join(
                f'{{"mult":{m},"weight":[{_weight_label(w)}]}}' for w, m in items
            )
            text = f'{{"entries":[{entries}],"rank":{chi.rank}}}\n'
        elif fmt == "tsv":
            text = "".join(f"{_weight_label(w)}\t{m}\n" for w, m in items)
        else:
            text = "".join(f"({_weight_label(w)}): {m}\n" for w, m in items)
            text += f"dimension: {chi.dimension()}\n"
    except ValueError:
        raise CliError(
            f"result has a number of more than {sys.get_int_max_str_digits()} "
            "digits, too long to print"
        ) from None
    out.write(text)


def _json_matrix(rows, side):
    """The JSON matrix with one row per row of records, of their field side."""
    rows = ("[" + ",".join(str(cell[side]) for cell in row) + "]" for row in rows)
    return "[" + ",".join(rows) + "]"


def render_table(labels, cells, fmt, out):
    """Write the CJ table of cells, the records (lambda, mu, lhs, rhs) of
    pims.cj_table, one per pair of labels in lambda-major order: the lhs
    and rhs matrices with rows lambda and columns mu, and in JSON the
    records where they differ."""
    names = [_weight_label(w) for w in labels]
    rows = [cells[i : i + len(names)] for i in range(0, len(cells), len(names))]
    if fmt == "json":
        label_list = ",".join(f"[{name}]" for name in names)
        mismatches = ",".join(
            f'{{"lambda":[{_weight_label(lam)}],"lhs":{a},'
            f'"mu":[{_weight_label(mu)}],"rhs":{b}}}'
            for lam, mu, a, b in cells
            if a != b
        )
        out.write(
            f'{{"labels":[{label_list}],"lhs":{_json_matrix(rows, 2)},'
            f'"mismatches":[{mismatches}],"rhs":{_json_matrix(rows, 3)}}}\n'
        )
        return
    lines = []
    for side, route in ((2, "lhs"), (3, "rhs")):
        lines.append(f"# route={route}")
        lines.append("\t" + "\t".join(names))
        for name, row in zip(names, rows):
            values = "\t".join(str(cell[side]) for cell in row)
            lines.append(f"{name}\t{values}")
    out.write("\n".join(lines) + "\n")


# -- commands --------------------------------------------------------------


def cmd_char(config, expression):
    chi = evaluate_expression(expression, config)
    render_character(chi, config.format, sys.stdout)
    return EXIT_OK


def _restricted_weights(config):
    """config.rs's p^r-restricted weights, the labels of a sweep over pairs
    of them; CliError, before any data is built, when there are more than
    MAX_WEYL_WEIGHTS pairs."""
    labels = config.rs.restricted_weights(config.p, config.r)
    if len(labels) ** 2 > MAX_WEYL_WEIGHTS:
        raise CliError(
            f"a sweep over pairs of the {len(labels)} {config.p}^{config.r}-"
            f"restricted weights is more than {MAX_WEYL_WEIGHTS} cells"
        )
    return labels


def _cj_table(config):
    """The restricted weights and the records of pims.cj_table under config."""
    from . import pims

    labels = _restricted_weights(config)
    cells = pims.cj_table(_qrdata(config), config.method)
    return labels, cells


def cmd_cj_table(config):
    labels, cells = _cj_table(config)
    cells = list(cells)
    render_table(labels, cells, config.format, sys.stdout)
    mismatches = [cell for cell in cells if cell[2] != cell[3]]
    for lam, mu, left, right in mismatches:
        print(
            f"mismatch at (lambda={_weight_label(lam)}, mu={_weight_label(mu)}): "
            f"lhs={left} rhs={right} method={config.method}",
            file=sys.stderr,
        )
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _dominant_grid(rs, bound):
    if (bound + 1) ** rs.rank > MAX_WEYL_WEIGHTS:
        raise CliError(
            f"a sweep grid of ({bound} + 1)^{rs.rank} weights is more than "
            f"{MAX_WEYL_WEIGHTS}"
        )
    return list(itertools.product(range(bound + 1), repeat=rs.rank))


# A verify sweep takes the run's config and yields one (label, left, right)
# record per check; cmd_verify compares left with right.


def _route_agreement(route):
    """The sweep comparing the direct route with route on each chi(lam)."""

    def sweep(config):
        from .finite import steinberg_multiplicity

        provider = _provider(config)
        for lam in _dominant_grid(config.rs, config.bound):
            chi = weyl_character(lam, config.rs)
            yield (
                f"lambda={_weight_label(lam)}",
                steinberg_multiplicity(chi, config.r, provider, "direct"),
                steinberg_multiplicity(chi, config.r, provider, route),
            )

    return sweep


def _lemma33(config):
    from . import pims

    qrdata = _qrdata(config)
    for sigma in _dominant_grid(config.rs, config.bound):
        chi = weyl_character(sigma, config.rs)
        for lam, nu, lhs, rhs in pims.jantzen_identity_check(chi, qrdata):
            label = (
                f"sigma={_weight_label(sigma)} lambda={_weight_label(lam)} "
                f"nu={_weight_label(nu)}"
            )
            yield label, lhs, rhs


def _thm41(config):
    _, cells = _cj_table(config)
    for lam, mu, lhs, rhs in cells:
        yield f"lambda={_weight_label(lam)} mu={_weight_label(mu)}", lhs, rhs


def _thm45a(config):
    from . import pims

    labels = _restricted_weights(config)
    provider = _provider(config)
    for lam in labels:
        for mu, lhs, rhs in pims.theorem45a_socle_check(lam, config.r, provider):
            yield f"lambda={_weight_label(lam)} mu={_weight_label(mu)}", lhs, rhs


def _prop44delta(config):
    from . import pims

    restricted = _restricted_weights(config)
    provider = _provider(config)
    for mu, sigma in itertools.product(restricted, repeat=2):
        value = pims.induced_socle_multiplicity(mu, sigma, config.r, provider)
        label = f"mu={_weight_label(mu)} sigma={_weight_label(sigma)}"
        yield label, value, int(mu == sigma)


# target -> (sweep, name of the left value, name of the right value)
VERIFY_TARGETS = {
    "prop31": (_route_agreement("good_filtration"), "direct", "good_filtration"),
    "prop32": (_route_agreement("simple_basis"), "direct", "simple_basis"),
    "lemma33": (_lemma33, "lhs", "rhs"),
    "thm41": (_thm41, "lhs", "rhs"),
    "thm45a": (_thm45a, "lhs", "rhs"),
    "prop44delta": (_prop44delta, "value", "expected"),
}


def cmd_verify(config, target):
    sweep, left, right = VERIFY_TARGETS[target]
    print(f"verify {target}: running", file=sys.stderr)
    start = time.monotonic()
    checks = 0
    mismatches = []
    for label, a, b in sweep(config):
        checks += 1
        if a != b:
            mismatches.append(f"mismatch {label} {left}={a} {right}={b}\n")
    elapsed = time.monotonic() - start
    print(f"verify {target}: {elapsed:.2f}s", file=sys.stderr)
    print(f"target={target} checks={checks} mismatches={len(mismatches)}")
    sys.stdout.writelines(mismatches)
    return EXIT_MISMATCH if mismatches else EXIT_OK


# -- entry point -----------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_mutually_exclusive_group()
    group.add_argument("--type", default="A1", help="built-in root-system type")
    group.add_argument("--cartan", help="path to a Cartan matrix JSON file")
    common.add_argument("-p", type=int, default=3, help="prime characteristic")
    common.add_argument("-r", type=int, default=1, help="Frobenius iteration")
    common.add_argument("--decomp-data", help="decomposition-number JSON file")
    common.add_argument("--qhat-data", help="injective-hull character JSON file")
    common.add_argument("--bound", type=int, help="weight-range bound for sweeps")
    common.add_argument(
        "--method",
        choices=STEINBERG_METHODS,
        default="simple_basis",
        help="Steinberg-multiplicity route",
    )
    common.add_argument(
        "--format",
        choices=("json", "tsv", "pretty"),
        default="pretty",
        help="output format",
    )

    parser = argparse.ArgumentParser(
        prog="liechar",
        description="Exact character calculus for algebraic groups and their "
        "finite groups of Lie type",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_char = sub.add_parser("char", parents=[common], help="evaluate an expression")
    p_char.add_argument("expression")
    sub.add_parser("cj-table", parents=[common], help="both CJ routes over X_r^2")
    p_verify = sub.add_parser("verify", parents=[common], help="equality sweeps")
    p_verify.add_argument("target", choices=VERIFY_TARGETS)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "char":
            return cmd_char(config, args.expression)
        if args.command == "cj-table":
            return cmd_cj_table(config)
        return cmd_verify(config, args.target)
    except (LiecharError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
