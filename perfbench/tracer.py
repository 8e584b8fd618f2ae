"""Per-layer span tracer for liechar, installed from outside the package.

Run as a child process with the liechar sources on PYTHONPATH:

    python3 perfbench/tracer.py <liechar argv...>

It wraps the public functions listed in TARGETS at every name that binds
them, runs ``liechar.cli.main(argv)`` in-process, and prints one line
``PERFBENCH_TRACE <json>`` to stderr.  Spans are kept in memory: the
innermost layers are called hundreds of thousands of times per run, so each
span is folded into a per-function aggregate (calls, self time) as it closes.  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

TRACE_MARK = "PERFBENCH_TRACE "

# (span name, module, attribute path).  Two attributes may share a span.
TARGETS = (
    ("rootdata.dominance_leq", "liechar.rootdata", "RootSystem.dominance_leq"),
    ("rootdata.root_coords", "liechar.rootdata", "RootSystem.root_coords"),
    ("rootdata.bilinear", "liechar.rootdata", "RootSystem.bilinear"),
    ("characters.mul", "liechar.characters", "Character.__mul__"),
    ("characters.weyl_character", "liechar.characters", "weyl_character"),
    ("characters.to_weyl_basis", "liechar.characters", "to_weyl_basis"),
    (
        "characters.leading_dominant_weights",
        "liechar.characters",
        "leading_dominant_weights",
    ),
    (
        "decomp.simple_character",
        "liechar.decomp",
        "DecompositionProvider.simple_character",
    ),
    ("decomp.to_simple_basis", "liechar.decomp", "to_simple_basis"),
    ("finite.steinberg_multiplicity", "liechar.finite", "steinberg_multiplicity"),
    ("finite.nu_bound", "liechar.finite", "nu_bound"),
    (
        "finite.finite_simple_multiplicities",
        "liechar.finite",
        "finite_simple_multiplicities",
    ),
    ("finite.contributing_nus", "liechar.finite", "contributing_nus"),
    ("pims.cj_lhs", "liechar.pims", "cj_lhs"),
    ("pims.cj_rhs", "liechar.pims", "cj_rhs"),
    ("pims.character_divide", "liechar.pims", "character_divide"),
    ("cli.build_config", "liechar.cli", "build_config"),
    ("cli.render", "liechar.cli", "render_character"),
    ("cli.render", "liechar.cli", "render_table"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def liechar_modules():
    """The liechar package and every submodule, imported."""
    package = importlib.import_module("liechar")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"liechar.{info.name}"))
    return modules


def liechar_classes(modules):
    seen = {}
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("liechar"):
                seen[id(value)] = value
    return list(seen.values())


def resolve(module_name, path):
    """The object at module.path, and the class owning it (or None)."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    value = vars(owner)[name]
    return value, (owner if isinstance(owner, type) else None), name


def bindings(original, modules, classes):
    """Every (namespace, name) among liechar modules and classes bound to original."""
    found = []
    for space in list(modules) + list(classes):
        for name, value in list(vars(space).items()):
            if value is original:
                found.append((space, name))
    return found


class Tracer:
    """Span aggregates for one traced process.

    stats[span] = [calls, self_ns]; counters holds the per-layer work
    counts; rows maps each CJ row label lambda to the inclusive time of its
    cj_lhs and cj_rhs calls.
    """

    def __init__(self):
        self.stats = {}
        self.counters = {}
        self.rows = {}
        self._stack = [0]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, span, fn, before=None, after=None):
        stat = self.stats.setdefault(span, [0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - children
            if after is not None:
                after(token, args, kwargs, result, elapsed)
            return result

        wrapper.__perfbench_span__ = span
        return wrapper

    # -- per-span work counters ------------------------------------------

    def _hooks(self, span):
        """(before, after) callbacks that record the counts of one span."""
        count = self.count

        def cache_miss(cache_of, key_of):
            def before(args, kwargs):
                if key_of(args, kwargs) not in cache_of(args, kwargs):
                    count(f"{span}.misses")

            return before

        def steps(token, args, kwargs, result, elapsed):
            count(f"{span}.steps", len(result))

        if span == "characters.mul":

            def before(args, kwargs):
                left, right = args
                other = getattr(right, "support", None)
                count(f"{span}.terms", len(left.support) * (1 if other is None else len(other)))

            return before, None
        if span == "characters.weyl_character":
            return (
                cache_miss(
                    lambda a, k: _arg(a, k, 1, "rs")._weyl_char_cache,
                    lambda a, k: tuple(_arg(a, k, 0, "lam")),
                ),
                None,
            )
        if span == "decomp.simple_character":
            return (
                cache_miss(
                    lambda a, k: a[0]._simple_cache,
                    lambda a, k: tuple(_arg(a, k, 1, "lam")),
                ),
                None,
            )
        if span == "finite.finite_simple_multiplicities":
            return (
                cache_miss(
                    lambda a, k: _arg(a, k, 3, "provider")._finite_cache,
                    lambda a, k: (_arg(a, k, 2, "r"), tuple(_arg(a, k, 0, "mu"))),
                ),
                None,
            )
        if span in ("characters.to_weyl_basis", "decomp.to_simple_basis"):
            return None, steps
        if span == "finite.contributing_nus":
            dominance = self.stats.setdefault("rootdata.dominance_leq", [0, 0])

            def before(args, kwargs):
                return dominance[0]

            def after(token, args, kwargs, result, elapsed):
                count(f"{span}.kept", len(result))
                count(f"{span}.tests", dominance[0] - token)

            return before, after
        if span in ("pims.cj_lhs", "pims.cj_rhs"):
            rows = self.rows

            def after(token, args, kwargs, result, elapsed):
                lam = tuple(_arg(args, kwargs, 0, "lam"))
                rows[lam] = rows.get(lam, 0) + elapsed

            return None, after
        return None, None

    def install(self):
        """Replace every liechar binding of each target with its wrapper."""
        modules = liechar_modules()
        classes = liechar_classes(modules)
        for span, module_name, path in TARGETS:
            original, _, _ = resolve(module_name, path)
            before, after = self._hooks(span)
            wrapper = self.wrap(span, original, before, after)
            for space, name in bindings(original, modules, classes):
                setattr(space, name, wrapper)

    def summary(self):
        """Aggregates as plain JSON data (times in seconds)."""
        return {
            "spans": {
                span: {"calls": calls, "self_s": self_ns / 1e9}
                for span, (calls, self_ns) in self.stats.items()
            },
            "counters": dict(self.counters),
            "rows_s": [ns / 1e9 for _, ns in sorted(self.rows.items())],
        }


def main(argv):
    tracer = Tracer()
    tracer.install()
    from liechar import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.summary(), sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
