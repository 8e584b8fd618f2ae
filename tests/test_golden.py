import hashlib
import os

import pytest

import golden

PROP44 = {
    "argv": ["verify", "prop44delta", "-p", "2"],
    "stdout": "target=prop44delta checks=4 mismatches=0\n",
}
PROP44_SHA256 = {
    "argv": PROP44["argv"],
    "sha256": hashlib.sha256(PROP44["stdout"].encode()).hexdigest(),
}
DATA_FLAGS = ("--decomp-data", "--qhat-data", "--cartan")


class TestCheck:
    @pytest.mark.parametrize("entry", [PROP44, PROP44_SHA256])
    def test_right_entry_passes(self, entry):
        assert golden.check(entry) is None

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"stdout": PROP44["stdout"].rstrip("\n")}, "stdout"),
            ({"stdout": PROP44["stdout"].replace("4", "5", 1)}, "stdout"),
            ({"exit": 1}, "exit 0, expected 1"),
        ],
    )
    def test_wrong_pin_is_named(self, change, named):
        message = golden.check({**PROP44, **change})
        assert message is not None and named in message

    def test_wrong_sha256_is_named(self):
        message = golden.check({**PROP44_SHA256, "sha256": "0" * 64})
        assert message is not None and message.startswith("stdout sha256 ")

    def test_exit_2_from_liechar_passes(self):
        entry = {"argv": ["cj-table", "-p", "3", "-r", "0"], "exit": 2, "stdout": ""}
        assert golden.check(entry) is None

    def test_exit_2_from_a_usage_error_is_named(self):
        # argparse exits 2 with an empty stdout too, so a renamed flag would
        # otherwise pass an exit-2 entry.
        entry = {"argv": ["cj-table", "--rr", "3"], "exit": 2, "stdout": ""}
        message = golden.check(entry)
        assert message is not None
        assert "not from liechar's error handler" in message
        assert "unrecognized arguments: --rr 3" in message


class TestManifest:
    def test_entry_shape(self):
        for entry in golden.load_manifest():
            assert set(entry) <= {"argv", "exit", "stdout", "sha256", "timeout_s"}
            assert ("stdout" in entry) != ("sha256" in entry), entry["argv"]
            assert all(isinstance(arg, str) for arg in entry["argv"])

    def test_no_argv_twice(self):
        argvs = [tuple(entry["argv"]) for entry in golden.load_manifest()]
        assert len(set(argvs)) == len(argvs)

    def test_data_paths_exist(self):
        for entry in golden.load_manifest():
            argv = entry["argv"]
            for flag, path in zip(argv, argv[1:]):
                if flag in DATA_FLAGS:
                    assert os.path.isfile(os.path.join(golden.ROOT, path)), path
