"""End-to-end and per-layer benchmark of the liechar CLI.

    python3 perfbench/run.py --workload cj_a1 --seed 1 --seconds 30 --trace 0

Run from the root of a liechar checkout.  The CLI runs from ``src/`` in
child processes, one at a time (a closed loop with a single client).  Every
child's output is checked; a nonzero exit, a timeout or a wrong output
counts as a failed run.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from tracer.py) with ``--trace 1``.
See perfbench/README.md for the workloads and the metric map.

The CPU speed one process sees on a shared host changes by up to 2x within
seconds and differs between cores, so raw child times do not repeat from
one run to the next.  The benchmark therefore pins itself and its children
to one core and, while an end-to-end child runs, spins a fixed calibration
chunk on that core.  Parent and child share the core, so the chunk's rate
is the speed the child saw, and the child's CPU seconds scaled by
REFERENCE_CHUNK_S / (observed CPU seconds per chunk) is its time at the
reference speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

import tracer
from cli_child import PEAK_MARK

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
CLI_CHILD = os.path.join(HERE, "cli_child.py")
A2_P2_DATA = "perfbench/data/a2_p2.json"  # relative to ROOT, the children's cwd

CHILD_TIMEOUT_S = 90.0
POLL_S = 0.001
# A set-up child takes a tenth of a second; several per step give setup_s a
# median over ten or more samples.
SETUP_PER_STEP = 3

# The reference CPU speed: the speed at which one calibration_chunk() takes
# this many CPU seconds.  A two-core Xeon container runs it in 1.2-1.5 ms
# while it shares its core with a child.
REFERENCE_CHUNK_S = 0.001

# sha256 of the stdout of the liechar sources this benchmark was written
# against; an optimisation must reproduce these bytes.
CJ_A1_SHA256 = "fa4acbe0e65c8ab8aac78fae263d6b126d6ecf4435f1796e9836d50b671b91b3"
# product_g2 prints chi(8+a, 8+b) * chi(8-a, 8-b); keyed by the unordered pair.
PRODUCT_G2_SHA256 = {
    ((7, 7), (9, 9)): "45fb2ded21f84bdf87aa03fd49385f99c263dfa2ca01d595f63dbb11bc2f01a4",
    ((7, 8), (9, 8)): "1271f30732f32d917042bd08dd3a1765a76f04e23a2a784ec41b38aeb30b5c51",
    ((7, 9), (9, 7)): "82297f264f7f55dbc2efda39ebd45180ad490fa9e64012b13351041027664e58",
    ((8, 7), (8, 9)): "13a1307c7279ae61927bd11dffda4dce8f4fe61d91d287f7607b4560017d845e",
    ((8, 8), (8, 8)): "3dd805613481dba69ffbfaf200ac5e5fa3587c56b7ce9b9828ba2a912cf4917b",
}
PROP31_OUTPUT = re.compile(r"target=prop31 checks=36 mismatches=0( seed=0)?\n")


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def g2_dimension(lam):
    """Weyl dimension of the G2 module with highest weight a w1 + b w2 (dim L(w1) = 7)."""
    a, b = lam
    return (a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3) * (a + 3 * b + 4) * (
        2 * a + 3 * b + 5
    ) // 120


def g2_pair(seed):
    """Two highest weights from the box (8, 8) +- 1 with a fixed sum (16, 16).

    A fixed sum keeps the product's support, and so the work, nearly the
    same for every seed, while the factors still differ.
    """
    rng = random.Random(seed)
    a, b = rng.randint(-1, 1), rng.randint(-1, 1)
    return (8 + a, 8 + b), (8 - a, 8 - b)


@dataclass
class Workload:
    """A liechar command: subcommand, configuring flags, seeded arguments, output check.

    The configuring flags are shared with the set-up command, so setup_s
    covers the same root system and data loading as the workload.
    """

    name: str
    rank: int
    command: list
    config: list
    arguments: object  # seed -> trailing argv
    check: object  # (seed, stdout bytes) -> bool

    def argv(self, seed):
        return [*self.command, *self.config, *self.arguments(seed)]

    def setup_argv(self):
        """liechar char <config flags> weyl(0,...,0): start-up and data loading only."""
        return ["char", *self.config, "weyl({})".format(_weight((0,) * self.rank))]

    def setup_output(self):
        return "({}): 1\ndimension: 1\n".format(_weight((0,) * self.rank)).encode()


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _check_product_g2(seed, stdout):
    lam, mu = g2_pair(seed)
    expected = PRODUCT_G2_SHA256.get(tuple(sorted((lam, mu))))
    if expected is None or _sha256(stdout) != expected:
        return False
    doc = json.loads(stdout)
    total = sum(entry["mult"] for entry in doc["entries"])
    return total == g2_dimension(lam) * g2_dimension(mu)


def _weight(lam):
    return ",".join(map(str, lam))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cj_a1",
            1,
            ["cj-table"],
            ["-p", "7", "-r", "2"],
            lambda seed: ["--format", "json"],
            lambda seed, out: _sha256(out) == CJ_A1_SHA256,
        ),
        Workload(
            "prop31_a2",
            2,
            ["verify", "prop31"],
            ["--type", "A2", "-p", "2", "--decomp-data", A2_P2_DATA, "--bound", "5"],
            lambda seed: [],
            lambda seed, out: PROP31_OUTPUT.fullmatch(out.decode("ascii", "replace"))
            is not None,
        ),
        Workload(
            "product_g2",
            2,
            ["char"],
            ["--type", "G2"],
            lambda seed: [
                "--format", "json", "weyl({}) * weyl({})".format(*map(_weight, g2_pair(seed)))
            ],
            _check_product_g2,
        ),
    )
}


@dataclass
class Child:
    """One finished child process."""

    ok: bool
    code: int
    wall_s: float
    cpu_s: float
    ref_s: object  # CPU seconds at the reference speed, or None
    stdout: bytes = b""
    stderr: bytes = b""
    rss_mb: object = None  # peak resident memory, reported by cli_child.py


def calibration_chunk():
    """A fixed piece of the work liechar does most: dict updates with Fraction values."""
    weights = {}
    for i in range(400):
        key = (i % 7, i % 11)
        weights[key] = weights.get(key, 0) + Fraction(1, i % 13 + 1)


def _drain(stream, sink):
    sink.append(stream.read())
    stream.close()


def run_child(argv, timeout, calibrate=True):
    """Run argv to completion: wall time and CPU time of that child alone.

    With calibrate, the parent spins calibration chunks until the child
    exits, and ref_s is the child's CPU time at the reference speed;
    otherwise the parent sleeps and ref_s is None.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err = [], []
    readers = [
        threading.Thread(target=_drain, args=(proc.stdout, out)),
        threading.Thread(target=_drain, args=(proc.stderr, err)),
    ]
    for reader in readers:
        reader.start()
    chunks, chunk_cpu, timed_out = 0, 0.0, False
    while True:
        if calibrate:
            before = time.process_time()
            calibration_chunk()
            chunk_cpu += time.process_time() - before
            chunks += 1
        else:
            time.sleep(POLL_S)
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if not timed_out and time.perf_counter() - start > timeout:
            proc.kill()
            timed_out = True
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    cpu = usage.ru_utime + usage.ru_stime
    return Child(
        ok=not timed_out and proc.returncode == 0,
        code=proc.returncode,
        wall_s=wall,
        cpu_s=cpu,
        ref_s=cpu * REFERENCE_CHUNK_S * chunks / chunk_cpu if calibrate else None,
        stdout=b"".join(out),
        stderr=b"".join(err),
    )


def liechar_child(argv, timeout, calibrate=True):
    """Run the CLI under cli_child.py; a child that reports no peak memory fails."""
    child = run_child([sys.executable, CLI_CHILD, *argv], timeout, calibrate)
    lines = child.stderr.decode("utf-8", "replace").splitlines()
    if lines and lines[-1].startswith(PEAK_MARK):
        child.rss_mb = int(lines[-1][len(PEAK_MARK):]) / 1024.0
    else:
        child.ok = False
    return child


def traced_child(argv, timeout):
    """Run the CLI under tracer.py; returns (child, trace summary or None)."""
    child = run_child([sys.executable, TRACER, *argv], timeout, calibrate=False)
    lines = child.stderr.decode("utf-8", "replace").splitlines()
    marked = [line for line in lines if line.startswith(tracer.TRACE_MARK)]
    trace = json.loads(marked[-1][len(tracer.TRACE_MARK):]) if marked else None
    return child, trace


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok, what, child):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{what} child (exit {child.code})")


class Runner:
    """One benchmark run: the workload, its failure tally and its deadline."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.argv = workload.argv(seed)
        self.tally = Tally()
        self.deadline = time.perf_counter() + seconds + CHILD_TIMEOUT_S

    def timeout(self):
        return max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.perf_counter()))

    def setup_child(self):
        child = liechar_child(self.workload.setup_argv(), self.timeout())
        ok = child.ok and child.stdout == self.workload.setup_output()
        self.tally.record(ok, "set-up", child)
        return child

    def workload_child(self, calibrate=True):
        child = liechar_child(self.argv, self.timeout(), calibrate)
        ok = child.ok and self.workload.check(self.seed, child.stdout)
        self.tally.record(ok, "workload", child)
        return child

    def timed_loop(self, step):
        """Call step() back to back, at least once, while another call of the
        length of the last one still ends within --seconds."""
        loop_start = time.perf_counter()
        while True:
            step_start = time.perf_counter()
            step()
            now = time.perf_counter()
            if (now - loop_start) + (now - step_start) > self.seconds:
                return


def end_to_end(runner):
    """Alternate calibrated set-up and workload children.

    Set-up samples are spread over the whole run rather than taken in one
    burst, so each sample sees the same conditions as the workload.
    """
    setup, children = [], []

    def step():
        setup.extend(runner.setup_child() for _ in range(SETUP_PER_STEP))
        children.append(runner.workload_child())

    runner.timed_loop(step)
    peaks = [c.rss_mb for c in children if c.rss_mb is not None]
    if not peaks:
        raise BenchError("no workload child reported its peak memory")
    print(
        "perfbench: setup_s samples", " ".join(f"{c.ref_s:.3f}" for c in setup),
        "| time_s samples", " ".join(f"{c.ref_s:.3f}" for c in children),
        "| raw wall samples", " ".join(f"{c.wall_s:.3f}" for c in children),
        file=sys.stderr,
    )
    return {
        "time_s": (statistics.median(c.ref_s for c in children), "s"),
        "setup_s": (statistics.median(c.ref_s for c in setup), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }


# Count metrics that must repeat exactly between traced runs.
COUNT_METRICS = (
    "characters.mul.terms",
    "characters.weyl_character.misses",
    "characters.to_weyl_basis.steps",
    "decomp.simple_character.misses",
    "decomp.to_simple_basis.steps",
    "finite.finite_simple_multiplicities.misses",
    "finite.contributing_nus.kept",
    "finite.contributing_nus.tests",
)
SPANS = tuple(dict.fromkeys(span for span, _, _ in tracer.TARGETS))
CALL_SPANS = tuple(s for s in SPANS if not s.startswith("cli."))
SELF_SPANS = tuple(s for s in SPANS if s != "finite.contributing_nus")


def trace_counts(trace):
    counts = {f"{span}.calls": trace["spans"].get(span, {}).get("calls", 0) for span in CALL_SPANS}
    counts.update({name: trace["counters"].get(name, 0) for name in COUNT_METRICS})
    return counts


def per_layer(runner):
    """Alternate untraced and traced children; aggregate the traced spans.

    Neither child is calibrated, so each has its core to itself and span
    times are plain wall times.  A traced child fails unless its stdout
    equals the untraced stdout and its counts equal those of the first
    traced child.
    """
    plain, traced, counts, overheads = [], [], [], []

    def step():
        child = runner.workload_child(calibrate=False)
        plain.append(child)
        t_child, trace = traced_child(runner.argv, runner.timeout())
        ok = t_child.ok and trace is not None and t_child.stdout == child.stdout
        if ok:
            traced.append((t_child, trace))
            counts.append(trace_counts(trace))
            ok = counts[-1] == counts[0]
            overheads.append(t_child.wall_s - child.wall_s)
        runner.tally.record(ok, "traced", t_child)

    runner.timed_loop(step)
    if not traced:
        raise BenchError("no traced child produced a trace")
    metrics = {name: (value, "count") for name, value in counts[0].items()}
    tests = counts[0]["finite.contributing_nus.tests"]
    metrics["finite.contributing_nus.kept_per_test"] = (
        counts[0]["finite.contributing_nus.kept"] / tests if tests else 0.0,
        "ratio",
    )
    for span in SELF_SPANS:
        metrics[f"{span}.self_s"] = (
            statistics.median(t["spans"].get(span, {}).get("self_s", 0.0) for _, t in traced),
            "s",
        )
    rows = [t["rows_s"] for _, t in traced]
    metrics["pims.cj_row_s.p50"] = (
        statistics.median(statistics.median(r) if r else 0.0 for r in rows),
        "s",
    )
    metrics["pims.cj_row_s.max"] = (statistics.median(max(r, default=0.0) for r in rows), "s")
    metrics["cli.output_bytes"] = (len(plain[0].stdout), "bytes")
    metrics["cli.cpu_s"] = (statistics.median(c.cpu_s for c in plain), "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics


def preflight():
    for path in ("src/liechar/cli.py", "src/liechar/__init__.py"):
        if not os.path.isfile(os.path.join(ROOT, path)):
            raise BenchError(f"{path} not found: run from the root of a liechar checkout")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds)
        measured = per_layer(runner) if args.trace else end_to_end(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tally = runner.tally
    for note in tally.notes:
        print(f"perfbench: failed: {note}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()
                },
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
