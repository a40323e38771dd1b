"""The behaviour lock: sha256 prefixes of CLI stdout that refactors keep."""

import hashlib
import os
import subprocess
import sys

import pytest

from rootcover import cli

STDOUT_SHA16 = {
    ("build", "--type", "A2"): "f57a928c2aa953ea",
    ("build", "--type", "D4"): "9941957b4a62bd02",
    ("build", "--type", "E6"): "b0522df614f12f9b",
    ("build", "--type", "E7"): "cde6ef5b16f1214d",
    ("build", "--type", "E8"): "6869f7e73f7d665e",
    ("table", "real-orbits"): "4dc8c548d6872287",
    ("delpezzo",): "e9bcf041cb193002",
    ("verify", "--type", "E6", "--depth", "exhaustive"): "5878c680a78ef462",
    ("verify", "--type", "E7", "--depth", "exhaustive"): "29103f078c7f27a8",
    ("verify", "--type", "E8", "--depth", "exhaustive"): "46a3b470c7ea8eb2",
    ("verify", "--type", "E8", "--depth", "sampled", "--seed", "3",
     "--samples", "200000"): "971ba43b9a9e23e2",
    ("verify", "--type", "E6", "--depth", "sampled", "--seed", "1",
     "--samples", "20000"): "18e496852f169d30",
    ("verify", "--type", "E7", "--depth", "sampled", "--seed", "1",
     "--samples", "20000"): "27c60ce38a190bbf",
    ("quartic", "e6", "--params", "1,0,0,2,0,-1"): "77468225bb03286c",
    ("quartic", "e7", "--params", "0,0,0,0,0,0,0"): "8d8c5a0178dec746",
    # a SINGULAR witness found through CRT, then an INCONCLUSIVE verdict
    ("quartic", "e7", "--params", "0,0,-5/3,0,0,7/8,0"): "7f56292bd5b3b2b0",
    ("quartic", "e7", "--params", "0,0,1/3,0,0,3/2,0"): "0bbdf03801cb68cd",
    ("counts", "--g", "4"): "c54636e803a5f44e",
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA16), ids="-".join)
def test_stdout_matches_behaviour_lock(capsys, argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest()[:16] == STDOUT_SHA16[argv]


def _run_module(argv):
    """``python -m rootcover.cli argv`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "rootcover.cli", *argv],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("argv", [
    ("build", "--type", "A2"), ("delpezzo",), ("counts", "--g", "4"),
    ("quartic", "e6", "--params", "1,0,0,2,0,-1"),
    ("quartic", "e7", "--params", "0,0,0,0,0,0,0"), ("table", "real-orbits"),
], ids="-".join)
def test_module_entry_point_matches_behaviour_lock(argv):
    proc = _run_module(argv)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest()[:16] == STDOUT_SHA16[argv]


def test_module_entry_point_rejects_bad_input():
    proc = _run_module(["build", "--type", "A60"])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: rank 60 is outside the supported range 2..16\n"
