"""Cold-start CLI benchmark for cyclictri.

    python3 perfbench/run.py --workload flip|height|sphere --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from src/ as
is, so there is nothing to build.  Each job is one `cyclictri <subcommand>`
invocation in a fresh interpreter, spawned one at a time from this process
(closed loop, one client).  The workloads and the output each job must
produce are in jobs.py.

The seed picks the order of the jobs in every pass and the PYTHONHASHSEED
of every interpreter, so one seed gives the same runs and other seeds also
check that the output bytes do not depend on hash order.

--trace 0 runs whole passes over the workload's jobs and reports the
end-to-end metrics of BENCHMARK.json from per-job medians.  How much runs is
fixed in advance from the jobs' nominal seconds (jobs.py), not from the
clock: a job runs ceil(REPEAT_S / nominal_s) times in each pass, and there
are as many passes as nominal passes fit in --seconds (at least one).  So a
seed and --seconds always give the same job runs, and the attempted and
failed counts do not move with the speed of the machine or of the program.
setup_s is the median wall time of fresh interpreters running
`import cyclictri.cli`, a few after each job run.

--trace 1 does the same untraced passes, then two traced passes through
tracer.py with different hash seeds, and reports the per-layer metrics of
BENCHMARK.json: span counts and self times (mean of the two traced passes),
the counters tracer.py keeps, each job's untraced wall time, and the tracing
overhead.  It also runs the self-tests: no binding of a wrapped function is
missed, traced stdout equals untraced stdout byte for byte, the counts the
workload must not touch read zero, and the exact counts agree between the
two traced passes.

A job fails when it exits non-zero, prints a traceback, runs past the time
limit, or prints other verdict lines, payload bytes or certificate than
expected.  A failure that still printed an answer (exit 0 or 1 with wrong
output) is a wrong answer and makes "correct" false; a failure without an
answer (budget exit, crash, timeout) only counts in "failed".

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Everything it writes goes under a temporary .perfbench-* directory
in the checkout, removed on exit, and to the bytecode caches of src/.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from jobs import PREDICTED_ZERO, WORKLOADS, job_name  # noqa: E402

DEADLINE_S = 165          # the whole run must end within 180 s
SETUP_SAMPLES = 60        # at least this many setup_s samples in a run
REPEAT_S = 2.0            # a job nominally shorter than this runs again in its pass
IMPORT = "import cyclictri.cli"
CLI = "import sys; from cyclictri.cli import main; sys.exit(main())"
EXACT_COUNTS = (
    "posets.enumerate_triangulations.elements",
    "posets.enumerate_triangulations.flip_edges",
    "geometry.exact_lp.calls",
    "topology.chain_counts.chains",
    "topology.order_complex.faces",
    "triangulations.validate.calls",
    "simplices.gale_facets.calls",
)

Run = namedtuple("Run", "rc wall cpu rss_mb stdout stderr")


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Spawner:
    """Starts children one at a time and measures each from spawn to exit."""

    def __init__(self, root, tmp, rng, deadline):
        self.root = root
        self.tmp = tmp
        self.rng = rng
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("CYCLICTRI_")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def run(self, argv):
        """Run `python3 <argv>`; None when the deadline has already passed."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None
        env = dict(self.env, PYTHONHASHSEED=str(self.rng.randrange(1 << 32)))
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + list(argv), cwd=self.root,
                                    env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            # Signal the pid directly: Popen.kill polls first, which could
            # reap the child before wait4 collects its resource usage.
            timer = threading.Timer(remaining, _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, stdout, stderr)


def sphere_payload_ok(stdout, k):
    """The last stdout line certifies S^k: reduced Betti numbers 1 in
    dimension k and 0 elsewhere, no torsion, Euler characteristic and Mobius
    value (-1)^k, and pass true."""
    sign = -1 if k % 2 else 1
    try:
        doc = json.loads(stdout.decode().splitlines()[-1])
        betti = {int(dim): v["betti"] for dim, v in doc["dims"].items()}
        torsion = [t for v in doc["dims"].values() for t in v["torsion"]]
        return (doc["pass"] is True and doc["euler"] == sign
                and doc["mobius_crosscheck"] == sign and not torsion
                and {dim: b for dim, b in betti.items() if b} == {k: 1})
    except (ValueError, IndexError, KeyError, TypeError, AttributeError):
        return False


def judge(job, run):
    """("ok" | "failed" | "wrong", reason) for one run of a job."""
    if run is None:
        return "failed", "not started before the deadline"
    if b"Traceback (most recent call last)" in run.stderr:
        return "failed", "traceback"
    if run.rc not in (0, 1):
        return "failed", "exit %d: %s" % (run.rc, run.stderr.decode(errors="replace").strip()[:200])
    problems = []
    if run.rc != 0:
        problems.append("exit %d" % run.rc)
    lines = run.stdout.decode(errors="replace").split("\n")
    for i, want in enumerate(job.lines):
        got = lines[i] if i < len(lines) else ""
        if not (got.startswith(want[:-3]) if want.endswith("...") else got == want):
            problems.append("line %d is %r" % (i + 1, got[:120]))
    if job.sha256 and hashlib.sha256(run.stdout).hexdigest() != job.sha256:
        problems.append("stdout digest differs")
    if job.sphere is not None and not sphere_payload_ok(run.stdout, job.sphere):
        problems.append("payload is not a certificate for S^%d" % job.sphere)
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")


class Tally:
    """Attempted, failed and wrong job runs over the whole invocation, and
    the jobs (by index) with at least one run that was not ok."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.failed_jobs = set()

    def add(self, label, index, job, run):
        verdict, reason = judge(job, run)
        self.attempted += 1
        self.failed += verdict != "ok"
        self.wrong += verdict == "wrong"
        if verdict != "ok":
            self.failed_jobs.add(index)
        shown = " ".join(job.argv)
        if run is None:
            print("%s %-42s %s: %s" % (label, shown, verdict, reason))
        else:
            print("%s %-42s %-6s wall %8.3f s  cpu %8.3f s  rss %7.1f MB  %s"
                  % (label, shown, verdict, run.wall, run.cpu, run.rss_mb, reason))
        sys.stdout.flush()


def runs_per_pass(job):
    """How often a job runs in one pass: enough nominal runs for REPEAT_S."""
    return max(1, math.ceil(REPEAT_S / job.nominal_s))


def passes(jobs, seconds):
    """Whole passes in a run: as many nominal passes as fit in `seconds`."""
    nominal = sum(runs_per_pass(j) * j.nominal_s for j in jobs)
    return max(1, int(seconds // nominal))


def one_pass(spawner, jobs, tally, label, argv_of, repeat=False, between=None):
    """Run every job, in an order drawn from the seed, once or, with repeat,
    runs_per_pass(job) times.  `between` is called after each run.  Returns
    each job's list of runs, in the order of `jobs`."""
    runs = [[] for _ in jobs]
    for i in spawner.rng.sample(range(len(jobs)), len(jobs)):
        for _ in range(runs_per_pass(jobs[i]) if repeat else 1):
            run = spawner.run(argv_of(i))
            tally.add(label, i, jobs[i], run)
            runs[i].append(run)
            if between is not None:
                between()
    return runs


def untraced_passes(spawner, jobs, tally, seconds, between=None):
    """The untraced passes of a run.  Returns each job's runs over all
    passes."""
    runs = [[] for _ in jobs]
    for number in range(1, passes(jobs, seconds) + 1):
        got = one_pass(spawner, jobs, tally, "pass %d" % number,
                       lambda i: ["-c", CLI] + list(jobs[i].argv), True, between)
        for mine, new in zip(runs, got):
            mine.extend(new)
    return runs


def per_job(runs, field):
    """Median of one Run field for each job, over the runs that started."""
    out = []
    for job_runs in runs:
        vals = [getattr(r, field) for r in job_runs if r is not None]
        out.append(statistics.median(vals) if vals else None)
    return out


def end_to_end(spawner, jobs, tally, seconds):
    """setup_s samples are spread evenly over the whole run, the same number
    after each job run, so that a moment of load on the machine does not
    decide them."""
    job_runs = passes(jobs, seconds) * sum(map(runs_per_pass, jobs))
    per_job_run = math.ceil(SETUP_SAMPLES / job_runs)
    setup = []

    def sample_setup():
        setup.extend(spawner.run(["-c", IMPORT]) for _ in range(per_job_run))

    runs = untraced_passes(spawner, jobs, tally, seconds, sample_setup)
    setup_ok = all(r is not None and r.rc == 0 for r in setup)
    if not setup_ok:
        print("setup: a fresh `%s` failed" % IMPORT)
    print("jobs ok: %d of %d" % (len(jobs) - len(tally.failed_jobs), len(jobs)))
    wall = [w for w in per_job(runs, "wall") if w is not None]
    return setup_ok, {
        "verdict_s": sum(wall),
        "verdict_geomean_s": math.exp(sum(map(math.log, wall)) / len(wall)) if wall else 0.0,
        "cpu_s": sum(c for c in per_job(runs, "cpu") if c is not None),
        "peak_rss_mb": max((r for r in per_job(runs, "rss_mb") if r is not None), default=0.0),
        "setup_s": statistics.median([r.wall for r in setup if r is not None] or [0.0]),
        "ok_share": 1 - len(tally.failed_jobs) / len(jobs),
    }


def span_sum(trace, name, field):
    """Sum over jobs of one span field (0 calls, 1 inclusive, 2 self); a
    name ending in "." sums every span of that module."""
    total = 0
    for doc in trace:
        for span, stat in doc["spans"].items():
            if span == name or (name.endswith(".") and span.startswith(name)):
                total += stat[field]
    return total


def counter_sum(trace, name):
    return sum(doc["counters"].get(name, 0) for doc in trace)


def layer_value(name, traces, untraced_wall, jobs, output_bytes, overhead):
    """One per-layer metric by name; times are the mean of the traced passes."""
    def mean(f):
        return statistics.fmean(f(t) for t in traces)

    first = traces[0]
    if name == "trace.overhead_s":
        return overhead
    if name == "cli.output_bytes":
        return output_bytes
    if name.startswith("cli.") and name.endswith(".s"):
        names = [job_name(j) for j in jobs]
        return untraced_wall[names.index(name)] if name in names else 0.0
    if name == "triangulations.validate.distinct_ratio":
        calls = span_sum(first, "triangulations.validate", 0)
        return counter_sum(first, "triangulations.validate.distinct") / calls if calls else 0.0
    if name == "posets.enumerate_triangulations.new_per_flip":
        edges = counter_sum(first, "posets.enumerate_triangulations.flip_edges")
        new = counter_sum(first, "posets.enumerate_triangulations.elements") - \
            counter_sum(first, "posets.enumerate_triangulations.instances")
        return new / edges if edges else 0.0
    if name.endswith(".calls"):
        return span_sum(first, name[:-len(".calls")], 0)
    if name.endswith(".self_s"):
        return mean(lambda t: span_sum(t, name[:-len(".self_s")], 2))
    return counter_sum(first, name)


def per_layer(spawner, jobs, tally, seconds, workload, spec):
    """Untraced passes, two traced passes, the self-tests and the per-layer
    metrics.  Returns (self-tests passed, metrics)."""
    untraced = untraced_passes(spawner, jobs, tally, seconds)
    reference = [job_runs[0] for job_runs in untraced]
    traces, traced_wall = [], []
    for label in ("trace A", "trace B"):
        paths = [os.path.join(spawner.tmp, "trace-%d.json" % i) for i in range(len(jobs))]
        runs = [job_runs[0] for job_runs in one_pass(
            spawner, jobs, tally, label,
            lambda i: [os.path.join(HERE, "tracer.py"), paths[i], "--"] + list(jobs[i].argv))]
        docs = []
        for i, path in enumerate(paths):
            if runs[i] is None or not os.path.exists(path):
                print("self-test: %s wrote no trace for %s" % (label, " ".join(jobs[i].argv)))
                return False, {}
            with open(path) as fh:
                docs.append(json.load(fh))
            os.remove(path)
        traces.append((runs, docs))
        traced_wall.append(sum(r.wall for r in runs))

    ok = True
    for runs, docs in traces:
        for i, (run, doc) in enumerate(zip(runs, docs)):
            if doc["missed"] or not doc["wrapped"]:
                ok = False
                print("self-test: %d functions wrapped, bindings missed: %s"
                      % (doc["wrapped"], ", ".join(doc["missed"])))
            if reference[i] is not None and run.stdout != reference[i].stdout:
                ok = False
                print("self-test: traced stdout differs for %s" % " ".join(jobs[i].argv))
    for prefix in PREDICTED_ZERO[workload]:
        for _, docs in traces:
            calls = span_sum(docs, prefix, 0)
            if calls:
                ok = False
                print("self-test: predicted zero %s has %d calls" % (prefix, calls))
    a, b = traces[0][1], traces[1][1]
    for name in EXACT_COUNTS:
        va = layer_value(name, [a], [], jobs, 0, 0.0)
        vb = layer_value(name, [b], [], jobs, 0, 0.0)
        if va != vb:
            ok = False
            print("self-test: %s is %s in one traced pass and %s in the other" % (name, va, vb))
    print("self-tests %s" % ("pass" if ok else "FAIL"))

    wall = per_job(untraced, "wall")
    overhead = statistics.fmean(traced_wall) - sum(w for w in wall if w is not None)
    output_bytes = sum(len(r.stdout) for r in reference if r is not None)
    docs_by_pass = [docs for _, docs in traces]
    metrics = {}
    for m in spec["per_layer"]:
        value = layer_value(m["name"], docs_by_pass, wall, jobs, output_bytes, overhead)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    ranked = sorted(((span_sum(a, s, 2), s) for s in {s for d in a for s in d["spans"]}),
                    reverse=True)
    print("top self time, trace A:")
    for self_s, span in ranked[:15]:
        print("  %9.3f s  %10d calls  %s" % (self_s, span_sum(a, span, 0), span))
    return ok, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cyclictri", "cli.py")):
        print("run from the root of a cyclictri checkout: src/cyclictri/cli.py is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    jobs = WORKLOADS[args.workload]
    tally = Tally()
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        spawner = Spawner(root, tmp, random.Random(args.seed),
                          time.monotonic() + DEADLINE_S)
        spawner.run(["-c", IMPORT])    # fills the bytecode cache; not timed
        if args.trace:
            ok, metrics = per_layer(spawner, jobs, tally, args.seconds,
                                    args.workload, spec)
        else:
            ok, values = end_to_end(spawner, jobs, tally, args.seconds)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": ok and tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
