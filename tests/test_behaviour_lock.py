"""The behaviour lock: sha256 prefixes of CLI stdout that refactors keep."""

import hashlib

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
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA16), ids="-".join)
def test_stdout_matches_behaviour_lock(capsys, argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest()[:16] == STDOUT_SHA16[argv]
