"""Command line interface: exit codes, determinism, output formats."""

import argparse
import hashlib
import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc

import pytest

from cyclictri import cli, posets
from cyclictri.cli import main
from cyclictri.posets import FinitePoset, build_s2


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse error paths
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--d", "2")
    assert code == 0
    assert "triangulations of C(6,2): 14" in out
    doc = json.loads(out.splitlines()[-1])
    assert doc["count"] == 14 and len(doc["triangulations"]) == 14


def test_enumerate_deterministic(capsys):
    a = run(capsys, "enumerate", "--n", "7", "--d", "2")
    b = run(capsys, "enumerate", "--n", "7", "--d", "2")
    assert a == b


def test_poset_json_schema(capsys):
    code, out, _ = run(capsys, "poset", "--n", "5", "--d", "2", "--order", "s1")
    assert code == 0
    doc = json.loads(out.splitlines()[-1])
    assert set(doc) == {"elements", "covers"}
    assert len(doc["elements"]) == 5


def test_poset_dot(capsys):
    code, out, _ = run(capsys, "poset", "--n", "5", "--d", "2", "--format", "dot")
    assert code == 0
    assert "digraph" in out


def test_compare_orders_equal(capsys):
    code, out, _ = run(capsys, "compare-orders", "--n", "6", "--d", "2")
    assert code == 0
    assert "equal" in out


def test_compare_orders_difference_is_refuted_in_any_dimension(capsys, monkeypatch):
    def discrete_s2(n, d, cap=None):
        p = build_s2(n, d, cap)
        return FinitePoset(p.elements, [1 << i for i in range(len(p))])

    monkeypatch.setattr(posets, "build_s2", discrete_s2)
    code, out, _ = run(capsys, "compare-orders", "--n", "7", "--d", "4")
    assert code == 1
    assert "orders differ" in out


def test_check_lattice(capsys):
    code, out, _ = run(capsys, "check-lattice", "--n", "6", "--d", "2")
    assert code == 0
    assert "is a lattice" in out


def test_check_lattice_refutation_is_a_finding(capsys):
    # a non-lattice is still exit 0: the check ran and reported
    code, out, _ = run(capsys, "check-lattice", "--n", "9", "--d", "4")
    assert code == 0
    assert "not a lattice" in out


def test_mobius(capsys):
    code, out, _ = run(capsys, "mobius", "--n", "6", "--d", "2")
    assert code == 0
    assert "-1" in out


def test_sphere_pass(capsys):
    code, out, _ = run(capsys, "sphere", "--n", "6", "--d", "2")
    assert code == 0
    assert "PASS" in out
    doc = json.loads(out.splitlines()[-1])
    assert doc["dims"]["1"]["betti"] == 1
    assert doc["mobius_crosscheck"] == -1


def test_sphere_9_3_certified(capsys):
    # its full order complex is over the default face budget; its core is not
    code, out, _ = run(capsys, "sphere", "--n", "9", "--d", "3")
    assert code == 0
    assert out.startswith("homology certificate PASS: S^3\n")


def test_sphere_wrong_k_fails(capsys):
    code, out, _ = run(capsys, "sphere", "--n", "6", "--d", "2", "--k", "2")
    assert code == 1
    assert "FAIL" in out


def test_baues(capsys):
    code, out, _ = run(capsys, "baues", "--n", "5", "--d", "2", "--certificate")
    assert code == 0
    assert "10 elements" in out and "PASS" in out


def test_verify_suspension(capsys):
    code, out, _ = run(capsys, "verify-suspension", "--n", "6", "--d", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_connecting(capsys):
    code, out, _ = run(capsys, "verify-connecting", "--n", "5", "--d", "2")
    assert code == 0
    assert "0 failures" in out


@pytest.mark.parametrize("n,d", [(3, 2), (2, 1)])
def test_verify_connecting_needs_a_vertex_to_contract(capsys, n, d):
    # the smallest instance, n = d + 2, still runs
    assert run(capsys, "verify-connecting", "--n", "4", "--d", "2") == (
        0, "connecting sets for C(4,2): 2 triangulations, 0 failures\n", "")
    assert run(capsys, "verify-connecting", "--n", str(n), "--d", str(d)) == (
        3, "", "error: need n >= d+2 so the last vertex can be contracted\n")


def test_oracle_crosscheck(capsys):
    code, out, _ = run(capsys, "oracle-crosscheck", "--n", "5", "--d", "2")
    assert code == 0
    assert "agree" in out


def test_flip_graph(capsys):
    code, out, _ = run(capsys, "flip-graph", "--n", "5", "--d", "2")
    assert code == 0
    assert "5 nodes" in out


def test_budget_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "8", "--d", "3", "--cap", "5")
    assert code == 2
    assert "budget" in err


def test_size_guard_exits_before_any_work():
    # C(30, 15) vertex sets: the guard must fire before bottom() walks them;
    # the timeout turns a regressed guard into a failure instead of a hang
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cyclictri.cli", "enumerate",
                           "--n", "30", "--d", "14", "--cap", "10"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def test_mobius_size_guard_on_middle_cells():
    # C(40, 38) has two triangulations, but the height order would list its
    # C(40, 20) middle cells: the guard refuses them before building any.
    # A child capped at 1 GiB of address space turns a regressed guard into
    # an out-of-memory exit instead of a host-wide one
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cyclictri.cli", "mobius", "--n", "40", "--d", "38"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("resource budget exceeded: C(40, 38): 137846528820 vertex sets"
                           " of size 20 exceed the size bound 1000000\n")


def test_mobius_size_guard_before_enumeration():
    # C(24, 20) has 28,648 triangulations, and its C(24, 11) middle cells
    # pass the bound: the guard fires before the flip search starts
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cyclictri.cli", "mobius", "--n", "24", "--d", "20"],
        capture_output=True, text=True, env=env, timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("resource budget exceeded: C(24, 20): 2496144 vertex sets"
                           " of size 11 exceed the size bound 1000000\n")


@pytest.mark.parametrize("n,d,count", [(32, 25, 3365856), (28, 21, 1184040)])
def test_table_size_guard_on_facets(n, d, count):
    # the d- and (d+1)-simplices of C(n, d) pass the bound, but the table
    # numbers its C(n, d) facets too: the guard refuses them before the
    # table is built.  A child capped at 1 GiB of address space turns a
    # regressed guard into an out-of-memory exit instead of a host-wide one
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cyclictri.cli", "check-lattice", "--order", "s1",
         "--n", str(n), "--d", str(d)],
        capture_output=True, text=True, env=env, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("resource budget exceeded: C(%d, %d): %d vertex sets of size %d"
                           " exceed the size bound 1000000\n" % (n, d, count, d))


def test_check_lattice_s1_10_3_within_a_minute():
    # 8,477 elements: a lattice certified by joins of cover pairs, where a
    # meet and join test of every pair takes minutes
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cyclictri.cli", "check-lattice",
                           "--order", "s1", "--n", "10", "--d", "3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "s1(10,3) is a lattice\n"


def test_closed_stdout_exits_quietly():
    # about 100 KB of JSON, more than a pipe buffer holds, into a pipe whose
    # read end is already closed: the handler's exit code, no traceback
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "cyclictri.cli", "baues",
                             "--n", "8", "--d", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert code == 0, err
    assert b"Traceback" not in err


def test_cli_import_stays_light():
    # dataclasses pulls inspect, ast, dis and tokenize into every CLI process;
    # fractions (which loads decimal) and the oracles are for oracle-crosscheck only
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    modules = ('dataclasses', 'inspect', 'fractions', 'decimal', 'cyclictri.oracles')
    code = ("import sys, cyclictri.cli; "
            "print(sorted(m for m in %r if m in sys.modules))" % (modules,))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SUBMODULES = sorted(name[:-3] for name in os.listdir(os.path.join(SRC, "cyclictri"))
                    if name.endswith(".py") and name != "__init__.py")

# Runs `import cyclictri.cli` and then, given arguments, the CLI, and prints
# as its last line which submodules are in sys.modules and which have run.
# It reads no attribute of a module that has not run, which would run it: a
# lazily registered module's type is types.ModuleType only once it has run.
_MODULES_RUN = """
import json, sys, types
import cyclictri.cli
argv = json.loads(sys.argv[1])
code = cyclictri.cli.main(argv) if argv else None
mods = [(name[len("cyclictri."):], type(mod) is types.ModuleType)
        for name, mod in sorted(sys.modules.items()) if name.startswith("cyclictri.")]
print(json.dumps({"code": code, "loaded": [m for m, _ in mods],
                  "ran": [m for m, ran in mods if ran]}))
"""


def _modules_run(argv):
    proc = subprocess.run([sys.executable, "-c", _MODULES_RUN, json.dumps(argv)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_cli_import_registers_every_submodule_and_runs_only_cli():
    # perfbench/tracer.py wraps the modules `import cyclictri.cli` leaves in
    # sys.modules, so all of them must be there, though none but cli has run
    got, _ = _modules_run([])
    assert got["loaded"] == [m for m in SUBMODULES if m != "oracles"]
    assert got["ran"] == ["cli"]


@pytest.mark.parametrize("write", [True, False])
def test_cli_import_writes_every_bytecode_cache_and_runs_only_cli(tmp_path, write):
    # the first process caches what an eager import would, so a module first
    # used by a later process is not compiled there
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=str(tmp_path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", _MODULES_RUN, "[]"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["ran"] == ["cli"]
    cached = sorted(name.split(".")[0] for path, _, files in os.walk(tmp_path)
                    if os.path.basename(path) == "cyclictri"
                    for name in files if name.endswith(".pyc"))
    registered = [m for m in SUBMODULES if m != "oracles"]
    assert cached == (sorted(["__init__"] + registered) if write else [])


@pytest.mark.parametrize("argv,not_run", [
    ("check-lattice --n 6 --d 2", {"topology", "baues", "verification"}),
    ("mobius --n 7 --d 2", {"topology", "baues", "verification"}),
    ("compare-orders --n 6 --d 2", {"topology", "baues", "verification"}),
    ("sphere --n 6 --d 2", {"baues", "verification"}),
])
def test_subcommand_runs_only_the_modules_it_uses(argv, not_run):
    got, _ = _modules_run(argv.split())
    assert got["code"] == 0
    assert not_run.isdisjoint(got["ran"]) and "oracles" not in got["loaded"]
    assert "posets" in got["ran"]


def test_argument_error_runs_no_computing_module(tmp_path):
    missing = str(tmp_path / "missing" / "x")
    for argv, err in [
            (["check-lattice", "--n", "2", "--d", "3"], "error: need n > d >= 1\n"),
            (["enumerate", "--n", "6", "--d", "2", "--output", missing],
             "error: cannot write %s: No such file or directory\n" % missing)]:
        got, stderr = _modules_run(argv)
        assert (got["code"], stderr) == (3, err)
        assert got["ran"] == ["cli"]


@pytest.mark.parametrize("argv,digest", [
    ("enumerate --n 8 --d 3",
     "4235f8fe974c66d5d65afa014823f4228f4c0d8a91e7cc7372a0c5f5b376a385"),
    ("flip-graph --n 8 --d 3",
     "398ad412e9c2808ec5f1c0eadaafb779315bcfc0fac71303fb75acd1a7a4daa1"),
    ("poset --order s1 --n 8 --d 3",
     "2c1d1b9f8c9e89dbbcfda725dfd1a4e0c5c930aee200aaf52c6791a310176241"),
    # witnesses and covers printed in key order, recorded before posets were
    # stored in linear-extension positions
    ("check-lattice --order s1 --n 9 --d 4",
     "99376a4782d540e116284f9302a70c4cf80c0cc0aabcdfe504c736cc85dafc0c"),
    ("poset --order s2 --n 8 --d 3 --format dot",
     "8d6aec57e7a5cb2e18b861150756bafc0faf88450d9cabb5463d71374e06db4c"),
    ("baues --n 6 --d 2 --certificate",
     "5b16ae30be1efb0e41fd8b85f6811a8a5066bd484168787775f49fe41e58f876"),
    ("mobius --order s2 --n 8 --d 3",
     "f0e0d736c0cfe11da9fc33562b26e5bda3713faa379764a0112c57af95fec5e5"),
    # the Baues cell walk at d = 3 and its d = 1 branch, recorded before the
    # walk read table rows
    ("baues --n 8 --d 3 --certificate",
     "d708148d5a4bff287947a2c40722232c9c50b336829912ba597a6bd54c3069a2"),
    ("baues --n 7 --d 1 --certificate",
     "bfdd2215fa436d56ee9102f06a6f5e3447c611fa52906bfc3d5a8ab626fc7f8a"),
    # a 4-dimensional core complex of about 100k faces for the reduction,
    # recorded before the column reduction replaced the unit elimination
    ("baues --n 8 --d 2 --certificate",
     "98a3a5a63fa76ca34426a76f0d88ce299bdab2ec0be384579c9076762117aef5"),
    # 4,278 subdivisions, recorded before the round trip became end-mask
    # equality and faces a lookup
    ("baues --n 9 --d 2",
     "a396a13ffabc799d4de61013399d55d67cb1af2555cb96add851f33750f90dae"),
])
def test_payload_bytes_pinned(capsys, argv, digest):
    # whole stdout, as printed before the triangulation table existed
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _benchmark_jobs():
    """The benchmark's jobs that pin a stdout digest (perfbench/jobs.py,
    loaded read-only)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", os.path.join(root, "perfbench", "jobs.py"))
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return [j for w in jobs.WORKLOADS.values() for j in w if j.sha256]


@pytest.mark.parametrize("job", _benchmark_jobs(), ids=lambda j: " ".join(j.argv))
def test_benchmark_digests_in_process(capsys, job):
    code, out, _ = run(capsys, *job.argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == job.sha256


@pytest.mark.parametrize("argv,where", [
    ("sphere --order s1 --n 6 --d 2", "flip order of C(6, 2)"),
    ("check-lattice --order s2 --n 6 --d 2", "height order of C(6, 2)")])
def test_relation_bound_exits_2_after_enumeration(capsys, monkeypatch, argv, where):
    monkeypatch.setattr(posets, "RELATION_BYTES", 10)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == ("resource budget exceeded: %s: 14 elements need 24 bytes of "
                   "relation rows, over the bound of 10 bytes\n" % where)


def test_memory_error_exits_2_without_traceback(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_check_lattice", exhausted)
    code, out, err = run(capsys, "check-lattice", "--n", "6", "--d", "2")
    assert (code, out) == (2, "")
    assert err == "resource budget exceeded: out of memory\n"


def test_enumerate_output_bytes_pinned(tmp_path, capsys):
    # the key-string order, as the sort by key strings gave it
    path = tmp_path / "t.json"
    code, _, _ = run(capsys, "enumerate", "--n", "9", "--d", "3", "--output", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "0fe60da93aef2fc4deaae27150b597ad7ebf0862c0be892d3e3307b13e71ab7a"


def test_enumerate_payload_memory_is_a_few_payloads():
    # the export is joined from one JSON text per triangulation; nested
    # lists of every member took 15.9 MB for this 1.3 MB payload
    from cyclictri.posets import enumerate_triangulations
    enumerate_triangulations(10, 4)
    args = cli.build_parser().parse_args(["enumerate", "--n", "10", "--d", "4"])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        code, _, payload = args.func(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(payload)["count"] == 4824
    assert peak < 3 * len(payload), (peak, len(payload))


def test_bad_args_exit_code(capsys):
    code, _, _ = run(capsys, "enumerate", "--n", "2", "--d", "4")
    assert code == 3
    code, _, _ = run(capsys, "enumerate", "--d", "2")
    assert code == 3
    code, _, _ = run(capsys, "no-such-command")
    assert code == 3


@pytest.mark.parametrize("argv", [
    "baues --n 6 --d 4",
    "oracle-crosscheck --n 9 --d 3",
    "verify-suspension --n 5 --d 3",
    "sphere --n 3 --d 2",
])
def test_domain_error_exit_code(capsys, argv):
    # out-of-domain requests are bad arguments: exit 3, one line, no traceback
    code, _, err = run(capsys, *argv.split())
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--cap", "--budget", "--max-candidates"])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_nonpositive_limit_exit_code(capsys, flag, value):
    command = "oracle-crosscheck" if flag == "--max-candidates" else "sphere"
    code, _, err = run(capsys, command, "--n", "6", "--d", "2", flag, value)
    assert code == 3
    assert "positive integer" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--d", "2",
                       "--output", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["count"] == 5


def test_output_unwritable_exit_code(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, _, err = run(capsys, "enumerate", "--n", "5", "--d", "2",
                       "--output", str(target))
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


# The options each subcommand takes beyond --n, --d and --cap.
OPTIONS = {
    "enumerate": {"--output"},
    "poset": {"--order", "--output", "--format"},
    "compare-orders": set(),
    "check-lattice": {"--order"},
    "mobius": {"--order"},
    "sphere": {"--order", "--budget", "--output", "--k"},
    "baues": {"--budget", "--output", "--format", "--certificate"},
    "verify-suspension": {"--order", "--output"},
    "verify-connecting": set(),
    "oracle-crosscheck": {"--max-candidates"},
    "flip-graph": {"--output", "--format"},
}
SHARED = {"--order": "s1", "--budget": "5", "--output": "f", "--format": "dot"}


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_subcommand_options_pinned():
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in _subparsers().items()}
    assert got == {name: {"--n", "--d", "--cap"} | opts for name, opts in OPTIONS.items()}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, opts in OPTIONS.items()
    for flag in SHARED if flag not in opts])
def test_removed_option_exit_code(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--n", "6", "--d", "2", flag, SHARED[flag])
    assert code == 3 and out == ""
    assert err.count("error:") == 1 and "unrecognized arguments" in err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("argv,expected", [
    ("enumerate --n 5 --d 2 --output missing/x", 3),
    ("flip-graph --n 5 --d 2 --output missing/x", 3),
    ("baues --n 5 --d 2 --certificate --output missing/x", 3),
    ("baues --n 7 --d 2 --certificate --budget 10", 2),
])
def test_failed_run_leaves_stdout_empty(tmp_path, monkeypatch, capsys, argv, expected):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv.split())
    assert code == expected and out == ""
    assert err.count("\n") == 1


@pytest.mark.parametrize("target,reason", [
    ("missing/x", "No such file or directory"),
    ("file/x", "Not a directory"),
    (".", "Is a directory"),
    ("", "No such file or directory"),
])
def test_unwritable_output_stops_before_the_handler(tmp_path, monkeypatch, capsys,
                                                    target, reason):
    # the path is checked before any work: the handler must not run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")

    def handler(args):
        pytest.fail("the handler ran before the output path was checked")

    monkeypatch.setattr(cli, "cmd_baues", handler)
    code, out, err = run(capsys, "baues", "--n", "9", "--d", "2", "--output", target)
    assert code == 3 and out == ""
    assert err == "error: cannot write %s: %s\n" % (target, reason)


@pytest.mark.parametrize("argv", [
    "enumerate --n 5 --d 2",
    "poset --n 5 --d 2 --format dot",
    "sphere --n 6 --d 2 --k 2",
    "baues --n 5 --d 2 --certificate",
    "verify-suspension --n 6 --d 2 --order s1",
    "flip-graph --n 5 --d 2 --format dot",
])
def test_output_file_is_the_stdout_payload(tmp_path, capsys, argv):
    plain_code, plain, _ = run(capsys, *argv.split())
    target = tmp_path / "payload"
    code, out, _ = run(capsys, *argv.split(), "--output", str(target))
    assert code == plain_code
    assert out.encode() + target.read_bytes() == plain.encode()
    assert out and target.read_bytes()


def test_readme_examples_parse():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    documented = set()
    for line in block.splitlines():
        argv = line.split("#", 1)[0].split()
        if argv[:1] == ["cyclictri"]:
            args = cli.build_parser().parse_args(argv[1:])
            documented.add(args.command)
    assert documented == set(OPTIONS)
