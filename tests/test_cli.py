import ast
import copy
import errno
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import basis_of_root, bracket, reference_r_failures, upper_table, with_mats

from rootcover import (cli, cmd_lattice, cmd_pipeline, cmd_quartic, heisrep,
                       lattice, liealg, quartic, realtable)
from rootcover.f2 import F2Error
from rootcover.gaussian import MonoMat, add_terms
from rootcover.liealg import IntegralLieAlgebra


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _json_tail(out):
    start = out.index("{")
    return json.loads(out[start:])


def test_counts_command(capsys):
    code, out = _run(capsys, ["counts", "--g", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["arf0"] == 36 and payload["arf1"] == 28


def test_counts_rejects_large_g(capsys):
    assert cli.main(["counts", "--g", "9"]) == 2


def test_delpezzo_command(capsys):
    code, out = _run(capsys, ["delpezzo"])
    assert code == 0
    payload = json.loads(out)
    assert payload["e7_roots"] == 126
    assert payload["e6_roots"] == 72
    assert payload["lines"] == 56
    assert payload["meeting_e"] == 27
    assert payload["e6_discriminant"] == [3]
    assert payload["e7_discriminant"] == [2]


def test_build_small_type(capsys):
    code, out = _run(capsys, ["build", "--type", "A2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 8
    assert payload["fixed_dim"] == 3
    assert payload["trace_theta"] == -2


def test_build_rejects_rank_one(capsys):
    assert cli.main(["build", "--type", "A1"]) == 2


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("name", ["E9", "X6", "A1"])
def test_bad_type_exits_2_before_any_work(capsys, monkeypatch, command, name):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("root enumeration started before the type was checked")
    monkeypatch.setattr(cmd_pipeline, "root_datum", no_enumeration)
    assert cli.main([command, "--type", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "verification" not in captured.err


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("stub, error", [
    ("root_datum", lattice.LatticeError), ("mod2_space", F2Error)],
    ids=["lattice", "f2"])
def test_failed_lattice_or_f2_check_exits_1(capsys, monkeypatch, command, stub, error):
    # the type is accepted; a check inside the pipeline fails, which is not
    # bad input
    def failing(*args, **kwargs):
        raise error("planted check failure")
    monkeypatch.setattr(cmd_pipeline, stub, failing)
    assert cli.main([command, "--type", "E6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failed: planted check failure\n"


@pytest.mark.parametrize("argv, message", [
    (["build", "--type", "A60"], "outside the supported range"),
    (["verify", "--type", "X"], "unsupported lattice type 'X'"),
    (["quartic", "e6", "--params", "0,0,0,0,0,1", "--probe", "4,9"],
     "not a prime"),
    (["quartic", "e6", "--params", "0,0,0,0,0,1", "--probe", "5,10007"],
     "above the limit 1000"),
    (["verify", "--type", "E6", "--depth", "sampled", "--samples", "100000000"],
     f"--samples must be between 1 and {cmd_pipeline.MAX_SAMPLES}"),
    (["quartic", "e6", "--params", "1e20000,1/3,3,1e-20000,0,1e20000",
      "--probe", "7,11,13"], f"exponent above {cli.MAX_PARAM_BITS}"),
    (["quartic", "e6", "--params", f"0,0,0,1/{2 ** cli.MAX_PARAM_BITS},0,1"],
     f"is above {cli.MAX_PARAM_BITS} bits"),
    (["quartic", "e6", "--params", "0,0,0,0,0,1", "--probe", "5,5"],
     "repeat a prime"),
    (["quartic", "e6", "--params", "0,0,0,0,0,1", "--probe",
      ",".join(str(p) for p in range(2, 1000) if all(p % d for d in range(2, p)))],
     f"sum of squares 49345379 above the limit {quartic.MAX_PROBE_SQUARES}"),
    (["quartic", "e6", "--params", "0,0,0,0,0,0,0"],
     "error: e6 takes 6 parameters: p2,p5,p8,p6,p9,p12\n"),
    (["quartic", "e7", "--params", "0,0,0,0,0,0"],
     "error: e7 takes 7 parameters: p2,p10,p8,p14,p6,p12,p18\n"),
    # random.Random seeds with |seed|: --seed -5 would draw the triples of 5
    (["verify", "--type", "E8", "--depth", "sampled", "--seed", "-5", "--samples", "1000"],
     "error: --seed must be nonnegative, not -5\n"),
    (["quartic", "e6", "--params", "0,0,0,0,0,1", "--probe="],
     "error: --probe item '' is not an integer\n"),
    (["quartic", "e6", "--params", "0,0,0,0,0,1", "--probe", "5,,7"],
     "error: --probe item '' is not an integer\n"),
    (["quartic", "e6", "--params=1/0,0,0,2,0,-1"],
     "error: --params item '1/0' is not a rational number\n"),
], ids=["rank-60", "type-X", "probe-4-9", "probe-10007", "samples-1e8",
        "params-1e20000", "params-2049-bits", "probe-5-5", "probe-168-primes",
        "e6-7-params", "e7-6-params", "seed-negative", "probe-empty",
        "probe-empty-item", "params-1-over-0"])
def test_bad_input_exits_2_before_any_work(capsys, monkeypatch, argv, message):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("root enumeration started before the type was checked")

    def no_probe(*args, **kwargs):
        raise AssertionError("a probe started before the primes were checked")
    monkeypatch.setattr(cmd_pipeline, "root_datum", no_enumeration)
    monkeypatch.setattr(quartic, "_singular_points_mod_p", no_probe)
    t0 = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, module, stub", [
    (["counts", "--g", "2"], cmd_lattice, "count_refinements_by_arf"),
    (["verify", "--type", "E6"], cmd_pipeline, "build_pipeline"),
], ids=["counts", "verify-E6"])
def test_unwritable_out_exits_2_before_any_work(capsys, monkeypatch, tmp_path,
                                                argv, module, stub):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")
    monkeypatch.setattr(module, stub, no_work)
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert cli.main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err and "not a writable" in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_out_write_exits_2_without_a_traceback(capsys):
    # /dev/full passes the writability check; the write itself fails (ENOSPC)
    assert cli.main(["counts", "--g", "2", "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out /dev/full: ")
    assert "Traceback" not in captured.err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["counts", "--g", "2"], ["table", "real-orbits"]],
                         ids=["counts", "table"])
def test_failed_stdout_write_exits_2_without_a_traceback(argv, unbuffered):
    # unbuffered, the write in the command fails; buffered, the flush after
    # it, and the exit-time flush must not report the lost bytes again
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "rootcover.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    message = f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert (proc.returncode, proc.stderr.decode()) == (2, message)


class _FullStream:
    """A stream on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_unwritable_stderr_changes_neither_stdout_nor_exit_code(capsys, monkeypatch):
    argv = ["verify", "--type", "A2"]
    code, plain = _run(capsys, argv)
    monkeypatch.setattr(sys, "stderr", _FullStream())
    # the stage lines go to the full stream; the verdict and payload do not
    assert _run(capsys, argv) == (code, plain) == (0, plain)
    # bad input still exits 2, its message lost with no exception
    assert _run(capsys, ["verify", "--type", "Z2"]) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_write_exits_2_when_stderr_is_full_too():
    # the handler's own message cannot be written either: still exit 2, where
    # an escaping exception would exit 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "rootcover.cli", "verify",
                               "--type", "A2"], stdout=full, stderr=full,
                              env=env, timeout=120)
    assert proc.returncode == 2


def test_worker_variable_no_longer_read(capsys, monkeypatch):
    code, plain = _run(capsys, ["counts", "--g", "2"])
    monkeypatch.setenv("ROOTCOVER_WORKERS", "x")
    code_x, with_var = _run(capsys, ["counts", "--g", "2"])
    assert code == code_x == 0
    assert with_var == plain
    assert json.loads(plain)["config"]["workers"] == 1


def test_build_deterministic_bytes(tmp_path):
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    assert cli.main(["build", "--type", "A3", "--out", str(out1)]) == 0
    assert cli.main(["build", "--type", "A3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_build_out_file_holds_the_stdout_bytes(tmp_path):
    # the behaviour lock hashes stdout; --out must hold the same bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = tmp_path / "e7.json"
    proc = subprocess.run([sys.executable, "-m", "rootcover.cli", "build", "--type", "E7",
                           "--out", str(out)],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest()[:16] == "cde6ef5b16f1214d"
    assert out.read_bytes() == proc.stdout


def test_writer_matches_json_dumps_around_a_value_that_renders_itself(capsys):
    # a self-rendering value gets the indentation of its line and must return
    # its text as json.dumps would lay it out there
    table = [[1, [2, "\u00e9"]], {"k": []}]

    def rendered(indent):
        return json.dumps(table, sort_keys=True, indent=2).replace("\n", "\n" + indent)
    payload = {"z": {}, "b": {"y": {"deep": rendered, "a": [{}, []]}, "x": "\"q\""},
               "\u00fc": 1.5, "a": None, "c": [True, {"b": 2, "a": 1}]}
    reference = copy.deepcopy(payload)
    reference["b"]["y"]["deep"] = table
    cli._emit(payload, None)
    assert capsys.readouterr().out == json.dumps(reference, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("kind", ["A2", "E6"])
def test_build_times_every_stage_on_stderr(capsys, kind):
    code = cli.main(["build", "--type", kind])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["algebra"]["type"] == kind
    names = [re.match(r"\[(\w+)\] \d+\.\d{3}s$", line).group(1)
             for line in captured.err.splitlines()]
    assert names == ["pipeline", "render", "total"]


def test_verify_small_exhaustive(capsys, tmp_path):
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--type", "A2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["checks"]["jacobi"]["ok"] is True
    assert payload["checks"]["jacobi"]["sampled"] is False
    assert "failures" not in payload["checks"]["jacobi"]


def test_verify_checks_the_grading_once_and_build_never(capsys, monkeypatch):
    scans = []
    real = liealg.assert_weight_graded

    def counted(L):
        scans.append(L.datum.type_name)
        return real(L)

    monkeypatch.setattr(liealg, "assert_weight_graded", counted)
    assert cli.main(["build", "--type", "A2"]) == 0
    assert scans == []
    # exhaustive Jacobi relies on the grading; the Killing forms need none
    assert cli.main(["verify", "--type", "A2"]) == 0
    assert scans == ["A2"]


def test_verify_packs_the_weights_once_and_reduces_each_root_once(capsys, monkeypatch):
    # build_lie reads datum.packed and the algebra keeps it, behind the Cartan
    # zeros, for the grading check and Jacobi; build_lie, the representation
    # checks and RMap read datum.root_classes
    packings, reductions = [], []
    real_packed = lattice.RootDatum.__dict__["packed"].func

    def counted(datum):
        packings.append(datum.type_name)
        return real_packed(datum)

    packed = functools.cached_property(counted)
    packed.__set_name__(lattice.RootDatum, "packed")
    monkeypatch.setattr(lattice.RootDatum, "packed", packed)
    real_bits = lattice.mod2_bits

    def counted_bits(coords):
        reductions.append(coords)
        return real_bits(coords)

    monkeypatch.setattr(lattice, "mod2_bits", counted_bits)
    assert cli.main(["verify", "--type", "E7"]) == 0
    datum = lattice.root_datum("E7")
    assert packings == ["E7"]
    # mod2_space also reduces the gram rows, whose signs are mixed, so no
    # root, and the half norms, as a list
    assert sorted(c for c in reductions
                  if isinstance(c, tuple) and c in datum.index) == sorted(datum.roots)


def test_ungraded_table_exits_1_through_jacobi(capsys, monkeypatch):
    # [h_1, x_a] and [h_1, x_-a] moved onto x_b and x_-b: the involution is
    # still an automorphism, so the grading check of exhaustive Jacobi is
    # the first to see the table
    real_build_lie = cmd_pipeline.build_lie

    def moved(datum, cocycle):
        L = real_build_lie(datum, cocycle)
        neg = datum.negation
        ra = next(r for r, root in enumerate(datum.roots) if root[0])
        rb = next(r for r in range(len(datum.roots)) if r not in (ra, neg[ra]))
        table = upper_table(L)
        for a, b in ((ra, rb), (neg[ra], neg[rb])):
            key = (0, basis_of_root(L, a))
            (_, c), = table[key]
            table[key] = ((basis_of_root(L, b), c),)
        return IntegralLieAlgebra(datum, cocycle, table)

    monkeypatch.setattr(cmd_pipeline, "build_lie", moved)
    assert cli.main(["verify", "--type", "A2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification failed: bracket table is not weight graded" in captured.err


def test_verify_sampled_records_seed(capsys, tmp_path):
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--type", "D4", "--depth", "sampled",
                     "--seed", "7", "--samples", "500", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 7
    assert payload["checks"]["jacobi"]["sampled"] is True
    assert payload["checks"]["jacobi"]["checked_unordered"] == 500


@pytest.mark.parametrize("spelling", ["E06", "e6"])
def test_verify_any_spelling_of_a_type_runs_every_check(capsys, spelling):
    # the representation checks and the config stamp follow the canonical name
    assert _run(capsys, ["verify", "--type", spelling]) == _run(
        capsys, ["verify", "--type", "E6"])


def test_build_any_spelling_of_a_type_writes_the_same_bytes(capsys):
    code, out = _run(capsys, ["build", "--type", "e07"])
    assert code == 0 and "rep" in json.loads(out)
    assert json.loads(out)["config"]["type"] == "E7"
    assert (code, out) == _run(capsys, ["build", "--type", "E7"])


def test_verify_records_a_seed_only_when_sampling(capsys):
    code, out = _run(capsys, ["verify", "--type", "A2", "--seed", "5"])
    assert code == 0 and "seed" not in json.loads(out)["config"]
    assert (code, out) == _run(capsys, ["verify", "--type", "A2"])
    code, out = _run(capsys, ["verify", "--type", "A2", "--depth", "sampled",
                              "--samples", "50"])
    assert code == 0 and json.loads(out)["config"]["seed"] == 0


def test_verify_sampled_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert cli.main(["verify", "--type", "D4", "--depth", "sampled",
                         "--seed", "3", "--samples", "200",
                         "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_e8_defaults_to_exhaustive(capsys, monkeypatch):
    # the A2 pipeline stands in for E8: only the chosen depth is under test
    a2 = cmd_pipeline.build_pipeline("A2")
    monkeypatch.setattr(cmd_pipeline, "build_pipeline", lambda kind: a2)
    code, out = _run(capsys, ["verify", "--type", "E8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["type"] == "E8"
    assert payload["config"]["depth"] == "exhaustive"
    assert "seed" not in payload["config"]
    assert payload["checks"]["jacobi"]["sampled"] is False


def _jacobi_sum(L, i, j, k):
    return add_terms({}, [t for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
                          for t in bracket(L, bracket(L, {x: 1}, {y: 1}), {z: 1}).items()])


def test_jacobi_failure_exits_1_with_witnesses(capsys, monkeypatch):
    # flip the sign of one coefficient of [x_a, x_-a]: the involution stays an
    # automorphism, so only the Jacobi check can see it
    real_build_lie = cmd_pipeline.build_lie
    built = []

    def flipped(datum, cocycle):
        L = real_build_lie(datum, cocycle)
        key = tuple(sorted((basis_of_root(L, 0),
                            basis_of_root(L, datum.negation[0]))))
        table = upper_table(L)
        (k, c), *rest = table[key]
        table[key] = ((k, -c), *rest)
        built.append(IntegralLieAlgebra(datum, cocycle, table))
        return built[-1]

    monkeypatch.setattr(cmd_pipeline, "build_lie", flipped)
    code = cli.main(["verify", "--type", "E6"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    jac = payload["checks"]["jacobi"]
    assert payload["ok"] is False and jac["ok"] is False
    # the first five failures of a scan over every triple, by basis label,
    # each Jacobi sum computed from L.bracket
    L, = built
    failing = [t for t in combinations(range(L.dim), 3) if _jacobi_sum(L, *t)]
    assert len(failing) > 5
    assert jac["failures"] == [[L.labels[i] for i in t] for t in failing[:5]]
    assert ("[jacobi]" in captured.err and "live 14876 = evaluated 7676 "
            "+ mirrored 7200, zero by grading 61200" in captured.err)


def test_verify_checks_the_automorphism_once(capsys, monkeypatch):
    # the mirrored Jacobi scan rests on build_theta's check and repeats none
    calls = []
    real = liealg._automorphism_failures

    def counted(alg, image):
        calls.append(alg)
        return real(alg, image)

    monkeypatch.setattr(liealg, "_automorphism_failures", counted)
    assert cli.main(["verify", "--type", "A2"]) == 0
    assert len(calls) == 1


def test_unverified_involution_stops_verify_before_jacobi(capsys, monkeypatch):
    # one root-root coefficient flipped without its theta-image: theta is no
    # automorphism, so no Jacobi scan, mirrored or not, runs on it
    real_build_lie = cmd_pipeline.build_lie

    def flipped(datum, cocycle):
        L = real_build_lie(datum, cocycle)
        nc, neg, table = L.n_cartan, datum.negation, upper_table(L)
        key = min(key for key in table
                  if key[0] >= nc and neg[key[0] - nc] != key[1] - nc)
        (k, c), = table[key]
        return IntegralLieAlgebra(datum, cocycle, {**table, key: ((k, -c),)})

    monkeypatch.setattr(cmd_pipeline, "build_lie", flipped)
    assert cli.main(["verify", "--type", "A2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "involution fails the automorphism check" in captured.err
    assert "[jacobi]" not in captured.err


@pytest.mark.parametrize("kind, stages", [
    ("A2", ["pipeline", "jacobi", "killing", "total"]),
    ("E6", ["pipeline", "jacobi", "killing", "rep", "fixed_rep_hom",
            "identify_fixed", "total"]),
])
def test_verify_times_every_stage_on_stderr(capsys, kind, stages):
    code = cli.main(["verify", "--type", kind])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["ok"] is True
    names = [re.match(r"\[(\w+)\] \d+\.\d{3}s", line).group(1)
             for line in captured.err.splitlines()]
    assert names == stages


def _flip_row_3(m):
    return MonoMat(m.n, m.col, m.phase[:3] + ((m.phase[3] + 1) & 3,) + m.phase[4:])


def test_r_check_failure_names_its_first_pairs(capsys, monkeypatch):
    # the R check alone sees R(z_0) with one phase moved
    real_verify_R = cmd_pipeline.verify_R
    seen = []

    def flipped(rmap):
        bad = copy.copy(rmap)
        bad.mats = (_flip_row_3(rmap.mats[0]),) + rmap.mats[1:]
        seen.append(bad)
        return real_verify_R(bad)

    monkeypatch.setattr(cmd_pipeline, "verify_R", flipped)
    code = cli.main(["verify", "--type", "E6"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["ok"] is False
    hom = payload["checks"]["fixed_rep_hom"]
    assert hom["ok"] is False and hom["pairs"] == 630
    rmap, = seen
    fixed = rmap.fixed
    failing = reference_r_failures(rmap)
    assert len(failing) == 43
    assert real_verify_R(rmap).failures == failing
    assert hom["failures"] == [[fixed.labels[i], fixed.labels[j]]
                               for i, j in failing[:5]]
    assert "failures" not in payload["checks"]["comm_relation"]


def test_root_square_failure_fails_rep_and_lift_order4(capsys, monkeypatch):
    # one root class reported with M_v^2 != -id: the rep check fails, and so
    # does the order-4 entry, which reads the same result
    real = heisrep._root_square_failures

    def one_failure(rep, root_classes):
        assert real(rep, root_classes) == []
        return [root_classes[0]]

    monkeypatch.setattr(heisrep, "_root_square_failures", one_failure)
    code = cli.main(["verify", "--type", "E6"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["ok"] is False
    checks = payload["checks"]
    assert checks["rep"]["ok"] is False
    assert checks["lift_order4"] == {"ok": False, "roots": 72}
    for name in ("jacobi", "fixed_rep_hom", "comm_relation"):
        assert checks[name]["ok"] is True


def test_failed_anticommutation_model_fails_verify(capsys, monkeypatch):
    monkeypatch.setattr(cmd_pipeline, "anticommutation_model_holds", lambda: False)
    code, out = _run(capsys, ["verify", "--type", "E6"])
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    checks = payload["checks"]
    assert checks["anticommutation_model"] == {"ok": False}
    for name in ("jacobi", "theta", "rep", "lift_order4", "comm_relation", "fixed_rep_hom"):
        assert checks[name]["ok"] is True


def test_verify_rejects_nonpositive_samples(capsys, monkeypatch):
    def no_lattice_work(*args, **kwargs):
        raise AssertionError("lattice work started before --samples was checked")
    monkeypatch.setattr(cmd_pipeline, "build_pipeline", no_lattice_work)
    for samples in ("0", "-3"):
        assert cli.main(["verify", "--type", "D4", "--depth", "sampled",
                         "--samples", samples]) == 2
        assert "--samples" in capsys.readouterr().err


def test_construction_verification_failure_exits_1(capsys, monkeypatch):
    # flip the phase of one row of one E6 matrix before the build-time check
    real_check = heisrep._check_table
    bad = 0b1011

    def corrupted(rep, *args, **kwargs):
        mats = list(rep.mats)
        m = mats[bad]
        mats[bad] = MonoMat(m.n, m.col, ((m.phase[0] + 1) & 3,) + m.phase[1:])
        return real_check(with_mats(rep, mats), *args, **kwargs)

    monkeypatch.setattr(heisrep, "_check_table", corrupted)
    code = cli.main(["verify", "--type", "E6"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "verification failed" in captured.err
    witnesses = [ast.literal_eval(line.split("failing pair ", 1)[1])
                 for line in captured.err.splitlines() if "failing pair" in line]
    assert 1 <= len(witnesses) <= 5
    for (su, u), (sv, v) in witnesses:
        assert su in (1, -1) and sv in (1, -1)
        assert bad in (u, v, u ^ v)


def test_table_command(capsys, tmp_path):
    out = tmp_path / "table.json"
    code = cli.main(["table", "real-orbits", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["weyl_order"] == 51840
    rows = payload["rows"]
    assert [r["real_bitangents"] for r in rows] == [28, 16, 8, 4, 4]
    assert [r["j_mod_2j"] for r in rows] == [8, 4, 2, 1, 2]
    assert [r["orbits"] for r in rows] == [36, 10, 3, 1, 3]


# -- each command's own checks, driven to fail through the command path; a
# failed check exits 1, only bad input exits 2


def test_table_mismatch_exits_1_and_names_the_row(capsys, monkeypatch):
    monkeypatch.setitem(realtable.EXPECTED_COLUMNS, "s1", (15, 4, 10))
    assert cli.main(["table", "real-orbits"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("verification failed: row s1: computed "
                            "(16, 4, 10), expected (15, 4, 10)\n")


def test_table_bitangent_count_that_fits_no_topology_exits_1(capsys, monkeypatch):
    # one bitangent more than computed: 29 at n(C) = 4 is neither 32 nor 28
    real = realtable.invariant_odd_refinements
    monkeypatch.setattr(realtable, "invariant_odd_refinements",
                        lambda space, rows: real(space, rows) + 1)
    assert cli.main(["table", "real-orbits"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("verification failed: row 1: 29 real bitangents fit "
                            "no real curve with n(C) = 4\n")


def test_table_split_conjugacy_class_exits_1(capsys, monkeypatch):
    real = lattice._conjugacy_orbit
    monkeypatch.setattr(lattice, "_conjugacy_orbit",
                        lambda datum, start: real(datum, start) - {start})
    assert cli.main(["table", "real-orbits"]) == 1
    assert capsys.readouterr().err == ("verification failed: involutions of "
                                       "trace 4: 36 listed, conjugacy orbit 35\n")


def test_table_with_an_involution_missing_exits_1(capsys, monkeypatch):
    # an enumeration that misses one involution leaves its class short of
    # the conjugacy orbit of the class's first member
    real = cmd_lattice.weyl_enumerate

    def planted(datum):
        weyl = real(datum)
        weyl.involutions.remove(next(p for p in weyl.involutions
                                     if weyl.trace(p) == 2))
        return weyl

    monkeypatch.setattr(cmd_lattice, "weyl_enumerate", planted)
    assert cli.main(["table", "real-orbits"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("verification failed: involutions of trace 2: "
                            "269 listed, conjugacy orbit 270\n")


def test_delpezzo_wrong_count_exits_1(capsys, monkeypatch):
    real = cmd_lattice.lines
    monkeypatch.setattr(cmd_lattice, "lines", lambda: real()[1:])
    code, out = _run(capsys, ["delpezzo"])
    assert code == 1 and json.loads(out)["lines"] == 55


def test_counts_wrong_split_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cmd_lattice, "count_refinements_by_arf",
                        lambda g: (37, 27))
    code, out = _run(capsys, ["counts", "--g", "3"])
    payload = json.loads(out)
    assert code == 1 and (payload["arf0"], payload["expected"]) == (37, [36, 28])


def test_degenerate_killing_form_exits_1(capsys, monkeypatch):
    # the fault sits at the Killing check alone: the root datum's own
    # determinant is left intact
    monkeypatch.setattr(cmd_pipeline, "killing_form",
                        lambda alg: ((0,) * alg.dim,) * alg.dim)
    code, out = _run(capsys, ["verify", "--type", "A3"])
    payload = json.loads(out)
    assert code == 1 and not payload["ok"]
    assert payload["checks"]["killing"] == {"nondegenerate": False}


def _plant_identify_fixed(monkeypatch, plant):
    """identify_fixed of verify runs on a copy of the R map changed by
    ``plant``, which returns the copy's images and cover matrices."""
    real = cmd_pipeline.identify_fixed

    def planted(fixed, rmap):
        bad = copy.copy(rmap)
        bad.rep = copy.copy(rmap.rep)
        bad.mats, bad.rep.mats = plant(rmap.mats, rmap.rep.mats)
        assert len(bad.mats) == fixed.dim
        return real(fixed, bad)

    monkeypatch.setattr(cmd_pipeline, "identify_fixed", planted)


_NO_FORM = ("verification failed: no cover element is an invariant "
            "antisymmetric form of the image matrices")


def _assert_no_cover_form(capsys):
    assert cli.main(["verify", "--type", "E6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _NO_FORM in captured.err.splitlines()


def test_degenerate_invariant_form_exits_1(capsys, monkeypatch):
    # a cover element is a unit monomial, so no candidate form is degenerate;
    # the E6 form, M_1, loses its antisymmetry instead: its row 0 entry is
    # multiplied by i, and no other cover element is an invariant form
    def row_0_turned(images, cover):
        m = cover[1]
        assert m.transpose() == -m
        turned = MonoMat(m.n, m.col, ((m.phase[0] + 1) & 3,) + m.phase[1:])
        return images, cover[:1] + (turned,) + cover[2:]

    _plant_identify_fixed(monkeypatch, row_0_turned)
    _assert_no_cover_form(capsys)


def test_invariant_form_meeting_an_index_twice_exits_1(capsys, monkeypatch):
    # every cover element pairs each index once; M_1 is made to pair the
    # indices differently, rows 0 and 1 trading columns, and no cover
    # element is an invariant form any more
    def rows_swapped(images, cover):
        m = cover[1]
        col = (m.col[1], m.col[0]) + m.col[2:]
        return images, cover[:1] + (MonoMat(m.n, col, m.phase),) + cover[2:]

    _plant_identify_fixed(monkeypatch, rows_swapped)
    _assert_no_cover_form(capsys)


def test_missing_antisymmetric_form_exits_1(capsys, monkeypatch):
    # the images conjugated by D = diag(i, 1, ..., 1): the trace Gram matrix
    # is unchanged, so the Gram check passes, but their invariant form
    # D^-1 M_1 D^-1 lies outside the cover, and verify prints no payload
    d = MonoMat(8, tuple(range(8)), (1,) + (0,) * 7)
    d_inv = MonoMat(8, tuple(range(8)), (3,) + (0,) * 7)

    def conjugated(images, cover):
        return tuple(d * u * d_inv for u in images), cover

    _plant_identify_fixed(monkeypatch, conjugated)
    _assert_no_cover_form(capsys)


@pytest.mark.parametrize("plant, entry", [
    # U_7 made equal to U_5
    (lambda mats: mats[:7] + (mats[5],) + mats[8:], "(5, 7) is 8+0i"),
    # U_3 replaced by i times the identity, of trace 8i
    (lambda mats: mats[:3] + (MonoMat(8, tuple(range(8)), (1,) * 8),) + mats[4:],
     "(3, 63) is 0-8i"),
], ids=["equal-pair", "nonzero-trace"])
def test_failed_trace_gram_exits_1_and_names_the_entry(capsys, monkeypatch, plant, entry):
    real = cmd_pipeline.identify_fixed

    def planted(fixed, rmap):
        bad = copy.copy(rmap)
        bad.mats = plant(rmap.mats)
        assert len(bad.mats) == 63
        return real(fixed, bad)

    monkeypatch.setattr(cmd_pipeline, "identify_fixed", planted)
    assert cli.main(["verify", "--type", "E7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"verification failed: trace Gram entry {entry}, not 0: the image "
            f"matrices and the identity (index 63) are not orthogonal\n" in captured.err)


def test_failed_trace_gram_on_the_sp_route_exits_1(capsys, monkeypatch):
    # the sp route runs the trace Gram check too: with U_7 = U_5 the images
    # are dependent, so R is not injective, whatever form the cover holds
    _plant_identify_fixed(monkeypatch, lambda images, cover: (
        images[:7] + (images[5],) + images[8:], cover))
    assert cli.main(["verify", "--type", "E6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("verification failed: trace Gram entry (5, 7) is 8+0i, not 0: the "
            "image matrices and the identity (index 36) are not orthogonal"
            in captured.err.splitlines())


def test_commutant_larger_than_the_scalars_exits_1(capsys, monkeypatch):
    # the character gives M_1 the trace 8 of the identity: <chi, chi> = 2,
    # so the commutant is no longer the scalars and the rep check fails
    real = heisrep.character
    monkeypatch.setattr(heisrep, "character", lambda rep: [
        (8, 0) if v == 1 else t for v, t in enumerate(real(rep))])
    code, out = _run(capsys, ["verify", "--type", "E6"])
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    assert payload["checks"]["rep"] == {"ok": False, "pairs": 16384,
                                        "commutant_dim": 2}


def test_theta_trace_mismatch_exits_1(capsys, monkeypatch):
    # build_theta compares the trace with -rank before cmd_verify reads it
    monkeypatch.setattr(liealg.Involution, "trace", lambda self: 0)
    assert cli.main(["verify", "--type", "A2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification failed: involution trace is not -rank\n" in captured.err


def test_quartic_command(capsys):
    code, out = _run(capsys, ["quartic", "e6",
                              "--params", "0,0,0,0,0,1",
                              "--probe", "5,7,11"])
    assert code == 0
    payload = json.loads(out)
    assert payload["contact_order"] == 4
    assert payload["verdict"]["kind"] == "SMOOTH"


def test_quartic_singular_member(capsys):
    code, out = _run(capsys, ["quartic", "e6", "--params", "0,0,0,0,0,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "SINGULAR"
    assert payload["verdict"]["witness"] == [0, 0, 1]


def test_quartic_e7_with_fractions(capsys):
    code, out = _run(capsys, ["quartic", "e7",
                              "--params", "1/2,0,3,0,0,1,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["contact_order"] == 3


def test_quartic_contact_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cmd_quartic, "tangent_contact_order", lambda curve: None)
    code, out = _run(capsys, ["quartic", "e6", "--params", "0,0,0,0,0,1"])
    assert code == 1 and '"contact_order": null' in out
    payload = json.loads(out)
    assert (payload["contact_order"], payload["expected_contact"]) == (None, 4)


def test_quartic_huge_coefficients_answer_fast(capsys):
    # Y^3 Z - (X^2 - 10^20 Z^2)^2: singular at (+-10^10 : 0 : 1), too large
    # for the CRT witness search mod 5 * 7 * 11; the exact rank still decides
    t0 = time.perf_counter()
    code, out = _run(capsys, ["quartic", "e6", "--params",
                              f"0,0,0,{-2 * 10 ** 20},0,{10 ** 40}"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert (verdict["kind"], verdict["exact"]) == ("INCONCLUSIVE", "singular")


def _loaded_modules(*args, stdlib=False):
    """Exit code and the rootcover modules, in import order, that a fresh
    interpreter run with ``args`` imports, read from -X importtime; with
    ``stdlib``, also every other module it imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    ours = [n for n in names if n.split(".")[0] == "rootcover"]
    if stdlib:
        return proc.returncode, ours, [n for n in names if n not in ours]
    return proc.returncode, ours


_LATTICE = ["cmd_lattice", "f2", "intmat", "lattice", "realtable"]
_PIPELINE = ["cmd_pipeline", "f2", "gaussian", "heisrep", "intmat", "lattice",
             "liealg"]


_COMMANDS = [
    (["quartic", "e6", "--params", "0,0,0,0,0,1"],
     ["cmd_quartic", "gaussian", "quartic"]),
    (["table", "real-orbits"], _LATTICE),
    (["delpezzo"], _LATTICE),
    (["counts", "--g", "2"], _LATTICE),
    (["build", "--type", "A2"], _PIPELINE),
    (["verify", "--type", "A2"], _PIPELINE),
]
_COMMAND_IDS = ["quartic", "table", "delpezzo", "counts", "build", "verify"]


@pytest.mark.parametrize("argv, modules", _COMMANDS, ids=_COMMAND_IDS)
def test_each_command_loads_only_its_own_stack(argv, modules):
    # no lattice command loads quartic, and quartic loads no lattice module;
    # under -m the CLI runs as __main__, so rootcover.cli must not appear:
    # importing it would compile and run cli.py a second time
    code, loaded = _loaded_modules("-m", "rootcover.cli", *argv)
    assert code == 0
    assert sorted(loaded) == ["rootcover"] + [f"rootcover.{m}" for m in modules]


@pytest.mark.parametrize("argv", [argv for argv, _ in _COMMANDS], ids=_COMMAND_IDS)
def test_no_command_loads_dataclasses_or_inspect(argv):
    # importing dataclasses loads inspect, ast, dis and tokenize, and every
    # decorated class execs generated methods: together about a third of the
    # import time of the build/verify stack
    code, _, stdlib = _loaded_modules("-m", "rootcover.cli", *argv, stdlib=True)
    assert code == 0
    assert "argparse" in stdlib
    assert "dataclasses" not in stdlib and "inspect" not in stdlib


_TRACED_VERIFY = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
code = tracer.run(["verify", "--type", "A2"])["code"]
print(json.dumps([code, tracer.calls["extension.beta"], tracer.calls["f2.q"]]))
e6 = tracer.run(["verify", "--type", "E6"])
print(json.dumps([e6["code"], tracer.calls["gaussian.monomat_mul"],
                  json.loads(e6["stdout"])["checks"]["comm_relation"]["pairs"]]))
"""


def test_benchmark_tracer_installs_and_counts_the_cover_kernels():
    # perfbench/tracer.py imports every rootcover module, extension included,
    # and counts Cocycle.beta and F2QuadraticSpace.q calls by those names; A2
    # builds no representation, so E6 guards the count of MonoMat products
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    bench = os.path.join(os.path.dirname(src), "perfbench")
    proc = subprocess.run([sys.executable, "-c", _TRACED_VERIFY, bench],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    code, beta_calls, q_calls = json.loads(first)
    assert code == 0
    assert beta_calls > 0 and q_calls > 0
    code, monomat_muls, comm_pairs = json.loads(second)
    assert code == 0
    assert monomat_muls > 0 and comm_pairs == 2556


def test_bare_package_import_loads_no_submodule():
    assert _loaded_modules("-c", "import rootcover") == (0, ["rootcover"])


def test_cli_forwards_only_build_pipeline():
    from rootcover.cli import build_pipeline
    assert build_pipeline is cmd_pipeline.build_pipeline
    for name in ("root_datum", "build_lie", "cmd_build", "MAX_SAMPLES"):
        with pytest.raises(AttributeError):
            getattr(cli, name)


# Spawns the command it is given, passing its stdout through, and writes the
# command's exit code and peak RSS (KiB on Linux) to stderr.  A command
# spawned straight from pytest would not do: a vfork child inherits its
# parent's RSS high-water mark, and pytest grows far larger than a CLI call.
_RSS_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
sys.stderr.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""


def test_quartic_probe_of_thirty_primes_stays_small():
    # 21 of these primes list a singular point of this curve, and no rational
    # one exists: listing every subset of them before the CRT cap applied
    # took 4 s and 355 MB; the verdict bytes are those of that search
    primes = [p for p in range(5, 132) if all(p % d for d in range(2, p))]
    assert len(primes) == 30
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER,
         "-c", "import sys; from rootcover.cli import main; sys.exit(main())",
         "quartic", "e7", "--params", "1,0,-3,0,0,3,0",
         "--probe", ",".join(map(str, primes))],
        capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    code, maxrss = map(int, proc.stderr.split())
    assert code == 0
    assert hashlib.sha256(proc.stdout).hexdigest()[:16] == "24e84e6b2b27515f"
    assert json.loads(proc.stdout)["verdict"]["kind"] == "INCONCLUSIVE"
    assert maxrss < 100 * 1024


def test_quartic_params_up_to_the_bit_cap_are_accepted():
    top = 2 ** cli.MAX_PARAM_BITS - 1
    assert cli._parse_fraction_list(f"{top},-{top}/{top - 2},1e616") == (
        top, Fraction(-top, top - 2), 10 ** 616)
    for text in (str(top + 1), f"1/{top + 1}", "1e617", "1e-617"):
        with pytest.raises(ValueError):
            cli._parse_fraction_list(text)


def test_quartic_bad_params(capsys):
    assert cli.main(["quartic", "e6", "--params", "1,2"]) == 2
