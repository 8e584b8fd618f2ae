"""Each CLI command loads only the modules it runs.

Every case runs liechar.cli.main(argv) in a fresh interpreter, since this
test process has long imported every module, and reads the child's
sys.modules after the command has run.
"""

import json
import os
import subprocess
import sys

from test_decomp import a2_p2_document

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The child reports sys.modules on the last line of stderr; it imports
# nothing itself beyond what cli.main loads.
CHILD = """
import sys
from liechar import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write("MODULES " + " ".join(sorted(sys.modules)) + "\\n")
sys.exit(code)
"""


def python(code, *argv):
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def run_child(argv):
    """(exit code, stdout, set of module names loaded) of one CLI run."""
    proc = python(CHILD, *argv)
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("MODULES "), proc.stderr
    return proc.returncode, proc.stdout, set(last.split()[1:])


def test_package_import_loads_no_submodule():
    proc = python("import sys, liechar; print(*sorted(sys.modules))")
    assert [m for m in proc.stdout.split() if m.startswith("liechar")] == ["liechar"]


def test_char_loads_no_data_or_finite_group_code():
    code, out, modules = run_child(["char", "--type", "G2", "weyl(1,0)"])
    assert code == 0
    assert out.endswith("dimension: 7\n")
    assert {"liechar.characters", "liechar.rootdata"} <= modules
    loaded = modules & {"liechar.decomp", "liechar.finite", "liechar.pims", "json"}
    assert loaded == set()


def test_route_agreement_sweep_loads_no_pims(tmp_path):
    data = tmp_path / "a2_p2.json"
    data.write_text(json.dumps(a2_p2_document()))
    argv = ["verify", "prop31", "--type", "A2", "-p", "2", "--bound", "2"]
    code, out, modules = run_child(argv + ["--decomp-data", str(data)])
    assert code == 0
    assert out == "target=prop31 checks=9 mismatches=0\n"
    assert {"liechar.decomp", "liechar.finite", "json"} <= modules
    assert "liechar.pims" not in modules


def test_cj_table_loads_pims():
    code, out, modules = run_child(["cj-table", "-p", "3"])
    assert code == 0
    assert out.startswith("# route=lhs\n")
    assert "liechar.pims" in modules
