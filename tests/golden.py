"""Check the liechar CLI against the golden-output manifest, tests/golden.json.

    PYTHONPATH=src python tests/golden.py

Each manifest entry is one command line, ``argv``, with the exit code it must
give (``exit``, default 0) and either its exact ``stdout`` or the ``sha256``
of its stdout.  An entry may set ``timeout_s``: the exit-2 entries do, so that
a size check that stops working fails instead of hanging.  An exit-2 entry
passes only if the last stderr line starts with ``error: ``, the line
liechar's own handler prints: argparse also exits 2 on a usage error, so a
renamed flag would otherwise pass every exit-2 entry.  Prints one
``ok``/``FAIL`` line per entry and exits 1 if any failed.

Each entry runs as ``python -m liechar.cli`` from the repository root, so data
paths in ``argv`` and a relative PYTHONPATH are read from there, and under a
2 GB address-space limit (``ulimit -v 2000000``), so that a regression fails
instead of exhausting the machine's memory.

``tests/data/bad_a1_p3.json`` gives nabla(6) = L(6) + L(2) + L(0) at p = 3.
The row has the right dimension (3 + 3 + 1 = 7) and is unitriangular, but is
wrong: nabla(6) = L(6) + L(4).  Loading it must exit 2.
``tests/data/bad_a1_p5.json`` gives nabla(3) = L(3) + L(1) at p = 5, where
nabla(3) = L(3).  It loads, since only restricted rows are given, and the
routes that read it must disagree: those entries exit 1.
``tests/data/bad_cartan_matrix.json`` declares rank 2 with a matrix that is
not a list, and ``tests/data/e8_cartan.json`` is the Cartan matrix of E8,
whose Weyl group of order 696,729,600 is past MAX_WEYL_WEIGHTS: both exit 2,
the second before the Weyl denominator is built.
"""

import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden.json")
ADDRESS_SPACE_BYTES = 2_000_000 * 1024


def load_manifest():
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def check(entry):
    """None if ``entry``'s command gives its pinned exit code and stdout,
    else a message naming the first difference."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "liechar.cli", *entry["argv"]],
            cwd=ROOT,
            capture_output=True,
            timeout=entry.get("timeout_s"),
            preexec_fn=_limit_address_space,
        )
    except subprocess.TimeoutExpired:
        return f"no exit within {entry['timeout_s']} s"
    expected_exit = entry.get("exit", 0)
    last = proc.stderr.decode(errors="replace").strip().rpartition("\n")[2]
    if proc.returncode != expected_exit:
        return f"exit {proc.returncode}, expected {expected_exit}: {last}"
    if expected_exit == 2 and not last.startswith("error: "):
        return f"exit 2 not from liechar's error handler, last stderr line: {last!r}"
    if "sha256" in entry:
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if digest != entry["sha256"]:
            return f"stdout sha256 {digest}, expected {entry['sha256']}"
    elif proc.stdout != entry["stdout"].encode():
        actual = proc.stdout.decode(errors="replace")
        return f"stdout {actual!r}, expected {entry['stdout']!r}"
    return None


def main():
    failed = 0
    for entry in load_manifest():
        command = shlex.join(["liechar", *entry["argv"]])
        message = check(entry)
        if message is None:
            print(f"ok   {command}", flush=True)
        else:
            print(f"FAIL {command}: {message}", flush=True)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
