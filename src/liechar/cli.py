"""Command-line surface: character evaluation, CJ tables, verification sweeps.

Exit codes: 0 success, 1 verification mismatch, 2 input or validation error.
Progress and timing go to stderr; the data stream stays machine-readable
and deterministic.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from . import pims
from .characters import (
    check_printable_power,
    formal_dual,
    frobenius_twist,
    steinberg_character,
    weyl_character,
)
from .decomp import DecompositionProvider, load_decomposition_data
from .errors import LiecharError
from .finite import STEINBERG_METHODS, steinberg_multiplicity
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
    with open(_resolve_data_path(path), "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise CliError(f"{path}: {exc}") from None


def build_config(args):
    """The parsed options args of one run, checked, with the root system rs,
    the data files' provider and qrdata (None for none; _require fills them
    in) and the default bound set on them."""
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
    # data only when a command reads it (_require).
    provider = None
    if args.decomp_data:
        provider = load_decomposition_data(_load_json(args.decomp_data), rs=rs)
        if provider.p != args.p:
            raise CliError(
                f"decomposition data is for p={provider.p}, requested p={args.p}"
            )

    qrdata = None
    if args.qhat_data:
        qrdata = pims.QrData.from_json_dict(_load_json(args.qhat_data), rs=rs)
        if (qrdata.p, qrdata.r) != (args.p, args.r):
            raise CliError(
                f"Q-hat data is for (p, r)=({qrdata.p}, {qrdata.r}), "
                f"requested ({args.p}, {args.r})"
            )

    args.rs, args.provider, args.qrdata = rs, provider, qrdata
    if args.bound is None:
        args.bound = 2 * args.p**args.r
    return args


_DATA_FLAGS = {"provider": "--decomp-data", "qrdata": "--qhat-data"}

# The built-in rank-1 data of each config attribute.
_BUILTIN_DATA = {
    "provider": lambda c: DecompositionProvider.builtin_sl2(c.p, rs=c.rs),
    "qrdata": lambda c: pims.QrData.builtin_sl2(c.p, c.r, rs=c.rs),
}


def _require(config, attr, what):
    """config.<attr>: the data file's or, for rank 1 without one, the
    built-in data, built on first use and kept; CliError for neither."""
    value = getattr(config, attr)
    if value is None and config.rs.rank == 1:
        value = _BUILTIN_DATA[attr](config)
        setattr(config, attr, value)
    if value is None:
        raise CliError(f"{what} required: supply {_DATA_FLAGS[attr]}")
    return value


# -- expression grammar ----------------------------------------------------


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        for kind in (str.isalpha, str.isdigit):
            end = self.pos
            while end < len(self.text) and kind(self.text[end]):
                end += 1
            if end > self.pos:
                return self.text[self.pos:end]
        return self.text[self.pos]

    def take(self, expected=None):
        token = self.peek()
        if token is None:
            raise CliError(f"parse error at position {self.pos}: unexpected end")
        if expected is not None and token != expected:
            raise CliError(
                f"parse error at position {self.pos}: expected {expected!r}, "
                f"got {token!r}"
            )
        self.pos += len(token)
        return token

    def take_int(self):
        token = self.take()
        if not token.isdecimal():
            raise CliError(
                f"parse error at position {self.pos - len(token)}: expected an "
                f"integer, got {token!r}"
            )
        try:
            return int(token)
        except ValueError:
            raise CliError(
                f"parse error at position {self.pos - len(token)}: integer of "
                f"{len(token)} digits is too long"
            ) from None


def _parse_weight(tokens, rank):
    coords = [tokens.take_int()]
    while tokens.peek() == ",":
        tokens.take(",")
        coords.append(tokens.take_int())
    if len(coords) != rank:
        raise CliError(
            f"parse error at position {tokens.pos}: weight has {len(coords)} "
            f"coordinates, rank is {rank}"
        )
    return tuple(coords)


def _parse_atom(tokens, config):
    token = tokens.peek()
    if token == "st":
        tokens.take()
        return steinberg_character(config.rs, config.p, config.r)
    if token not in ("(", "weyl", "simple", "twist", "dual"):
        what = "end" if token is None else repr(token)
        raise CliError(f"parse error at position {tokens.pos}: unexpected {what}")
    if token != "(":
        tokens.take()
    tokens.take("(")
    if token == "weyl":
        value = weyl_character(_parse_weight(tokens, config.rs.rank), config.rs)
    elif token == "simple":
        lam = _parse_weight(tokens, config.rs.rank)
        provider = _require(config, "provider", "decomposition data")
        value = provider.simple_character(lam)
    else:
        value = _parse_expression(tokens, config)
        if token == "twist":
            tokens.take(",")
            value = frobenius_twist(value, config.p, tokens.take_int())
        elif token == "dual":
            value = formal_dual(value)
    tokens.take(")")
    return value


def _parse_expression(tokens, config):
    value = _parse_atom(tokens, config)
    op = tokens.peek()
    if op not in ("+", "*"):
        return value
    while True:
        nxt = tokens.peek()
        if nxt is None or nxt in (")", ","):
            return value
        if nxt != op:
            raise CliError(
                f"parse error at position {tokens.pos}: mixed '+' and '*' "
                "need explicit parentheses"
            )
        tokens.take(op)
        rhs = _parse_atom(tokens, config)
        value = value + rhs if op == "+" else value * rhs


def evaluate_expression(text, config):
    tokens = _Tokens(text)
    value = _parse_expression(tokens, config)
    if tokens.peek() is not None:
        raise CliError(
            f"parse error at position {tokens.pos}: trailing {tokens.peek()!r}"
        )
    return value


# -- rendering -------------------------------------------------------------


def _weight_label(weight):
    return ",".join(map(str, weight))


# The JSON renderers format their document as one string and write it once:
# json.dump would encode in pure Python and call out.write once per token.
# The output is byte for byte json.dumps(doc, sort_keys=True,
# separators=(",", ":")), so each object's keys appear in sorted order.


def render_character(chi, fmt, out):
    if fmt == "json":
        entries = ",".join(
            f'{{"mult":{m},"weight":[{_weight_label(w)}]}}'
            for w, m in chi.sorted_items()
        )
        out.write(f'{{"entries":[{entries}],"rank":{chi.rank}}}\n')
    elif fmt == "tsv":
        for weight, mult in chi.sorted_items():
            out.write(f"{_weight_label(weight)}\t{mult}\n")
    else:
        for weight, mult in chi.sorted_items():
            out.write(f"({_weight_label(weight)}): {mult}\n")
        out.write(f"dimension: {chi.dimension()}\n")


def _json_matrix(values, labels):
    rows = (
        "[" + ",".join(str(values[(lam, mu)]) for mu in labels) + "]"
        for lam in labels
    )
    return "[" + ",".join(rows) + "]"


def render_table(table, fmt, out):
    labels = table.labels
    if fmt == "json":
        label_list = ",".join(f"[{_weight_label(w)}]" for w in labels)
        mismatches = ",".join(
            f'{{"lambda":[{_weight_label(lam)}],"lhs":{a},'
            f'"mu":[{_weight_label(mu)}],"rhs":{b}}}'
            for lam, mu, a, b in table.mismatches
        )
        out.write(
            f'{{"labels":[{label_list}],"lhs":{_json_matrix(table.lhs, labels)},'
            f'"mismatches":[{mismatches}],"rhs":{_json_matrix(table.rhs, labels)}}}\n'
        )
        return
    for route in ("lhs", "rhs"):
        values = getattr(table, route)
        out.write(f"# route={route}\n")
        out.write("\t" + "\t".join(_weight_label(mu) for mu in labels) + "\n")
        for lam in labels:
            cells = "\t".join(str(values[(lam, mu)]) for mu in labels)
            out.write(f"{_weight_label(lam)}\t{cells}\n")


# -- commands --------------------------------------------------------------


def _check_printable(chi):
    """Raise CliError before any output if a number of chi cannot be printed."""
    numbers = itertools.chain(
        itertools.chain.from_iterable(chi.support),
        chi.support.values(),
        (chi.dimension(),),
    )
    widest = max(map(abs, numbers))
    try:
        str(widest)
    except ValueError:
        raise CliError(
            f"result has a number of more than {sys.get_int_max_str_digits()} "
            "digits, too long to print"
        ) from None


def cmd_char(config, expression):
    chi = evaluate_expression(expression, config)
    _check_printable(chi)
    render_character(chi, config.format, sys.stdout)
    return EXIT_OK


def _cj_table(config):
    provider = _require(config, "provider", "decomposition data")
    qrdata = _require(config, "qrdata", "Q-hat data")
    return pims.cj_table(provider, qrdata, config.method)


def cmd_cj_table(config):
    table = _cj_table(config)
    render_table(table, config.format, sys.stdout)
    if table.mismatches:
        for lam, mu, left, right in table.mismatches:
            print(
                f"mismatch at (lambda={_weight_label(lam)}, mu={_weight_label(mu)}): "
                f"lhs={left} rhs={right} method={config.method}",
                file=sys.stderr,
            )
        return EXIT_MISMATCH
    return EXIT_OK


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
        provider = _require(config, "provider", "decomposition data")
        for lam in _dominant_grid(config.rs, config.bound):
            chi = weyl_character(lam, config.rs)
            yield (
                f"lambda={_weight_label(lam)}",
                steinberg_multiplicity(chi, config.r, provider, "direct"),
                steinberg_multiplicity(chi, config.r, provider, route),
            )

    return sweep


def _lemma33(config):
    provider = _require(config, "provider", "decomposition data")
    qrdata = _require(config, "qrdata", "Q-hat data")
    for sigma in _dominant_grid(config.rs, config.bound):
        chi = weyl_character(sigma, config.rs)
        for lam, nu, lhs, rhs in pims.jantzen_identity_check(chi, provider, qrdata):
            label = (
                f"sigma={_weight_label(sigma)} lambda={_weight_label(lam)} "
                f"nu={_weight_label(nu)}"
            )
            yield label, lhs, rhs


def _thm41(config):
    table = _cj_table(config)
    for lam, mu in itertools.product(table.labels, repeat=2):
        label = f"lambda={_weight_label(lam)} mu={_weight_label(mu)}"
        yield label, table.lhs[(lam, mu)], table.rhs[(lam, mu)]


def _thm45a(config):
    provider = _require(config, "provider", "decomposition data")
    for lam in config.rs.restricted_weights(config.p, config.r):
        for mu, lhs, rhs in pims.theorem45a_socle_check(lam, config.r, provider):
            yield f"lambda={_weight_label(lam)} mu={_weight_label(mu)}", lhs, rhs


def _prop44delta(config):
    provider = _require(config, "provider", "decomposition data")
    restricted = config.rs.restricted_weights(config.p, config.r)
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
