#!/usr/bin/env python3
"""Run one popan benchmark workload and print its result.

    python3 perfbench/run.py --workload serve-churn-1m --seed 1 --seconds 20 --trace 0

Run from the root of a popan checkout. The script builds `popan` and the
benchmark's load generator from source (into .bench_build/), runs the
workload, checks every answer, and prints a human-readable report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with no tracing; with --trace 1 they are the per-layer metrics,
timed in process from this benchmark's own code. --record DIR also
writes the full result, stamped with host and build identity, to DIR for
perfbench/compare.py. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
POPAN = os.path.join(BUILD_DIR, "default", "bin", "popan.exe")
LOADGEN = os.path.join(BUILD_DIR, "default", "perfbench", "loadgen.exe")
WORK_DIR = os.path.join(BUILD_DIR, "perfbench-work")
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170
BATCH_QUERIES = 1024

# Why each workload exists is in README.md. `serve`: the `popan serve`
# flags, the query family and the batches per session (a fresh server
# each). `study`: the churn-experiment parameters; for the experiment
# they are its command's, for serve workloads they size the traced
# churn layers at the workload's population. The experiment profiles
# the serve layers with one short session at its own size.
SERVE_MIX = "0.5:0.3333333333333333"  # popan serve's default churn mix
WORKLOADS = {
    "serve-churn-1m": {
        "serve": {"family": "point", "points": 1 << 20, "churn_ops": 256,
                  "jobs": 1, "batches": 64},
        "study": {"capacity": 8, "trials": 2, "ops": 256 * 64,
                  "mixes": SERVE_MIX},
    },
    "serve-range-64k": {
        "serve": {"family": "range", "points": 1 << 16, "churn_ops": 0,
                  "jobs": 2, "batches": 64},
        "study": {"capacity": 8, "trials": 2, "ops": 0, "mixes": SERVE_MIX},
    },
    "experiment-churn-64k": {
        "experiment": True,
        "serve": {"family": "point", "points": 1 << 16, "churn_ops": 256,
                  "jobs": 2, "batches": 8},
        "study": {"capacity": 4, "trials": 2, "ops": 200_000,
                  "mixes": "0.5:0,0.5:0.5,0.75:0"},
    },
}

# Variables that would change what popan does behind the flags.
SCRUBBED_ENV = ("POPAN_CACHE", "POPAN_JOBS", "POPAN_TRACE", "OCAMLRUNPARAM")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for k in SCRUBBED_ENV:
        env.pop(k, None)
    env["DUNE_CACHE"] = "disabled"
    return env


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 1:
            raise BenchError("run exceeded its time budget")
        return left


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_child(argv, deadline, capture=True):
    """Run argv in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), start_new_session=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=subprocess.PIPE if capture else sys.stderr,
    )
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise BenchError(f"timed out: {' '.join(argv)}")
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace") if err else "")
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv)}")
    return out.decode() if capture else ""


def build():
    missing = [p for p in ("dune-project", "bin/popan.ml", "lib/serve/server.ml")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a popan checkout (missing " + ", ".join(missing) + ")")
    run_child(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
               "./bin/popan.exe", "./perfbench/loadgen.exe"],
              Deadline(BUILD_TIMEOUT_S), capture=False)


# Identity: what must match for two results to be comparable.

def command_output(argv):
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


SOURCE_SUFFIXES = (".ml", ".mli", ".c", ".h", ".py", "dune")


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "_")))
            for name in sorted(filenames):
                if not name.endswith(SOURCE_SUFFIXES):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    for name in ("dune-project", "BENCHMARK.json"):
        path = os.path.join(ROOT, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def identity(seed, load_at_start):
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"]) or None
        dirty = bool(command_output(["git", "status", "--porcelain",
                                     "--untracked-files=no"]))
    return {
        "nproc": os.cpu_count(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocamlopt", "-version"]) or "unknown",
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_digest(),
        "loadavg_start": load_at_start,
        "seed": seed,
    }


def loadavg():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


# Statistics

def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when fewer than 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def batch_metrics(groups_ms, answered):
    """groups_ms: per-session (or one) lists of latencies. The tail is
    taken per group and its median reported: a tail pooled over a whole
    run follows the host's slow spells more than the program."""
    samples = [x for g in groups_ms for x in g]
    tails = [tail(g) for g in groups_ms]
    return ({
        "batch_p50_ms": statistics.median(samples),
        "batch_tail_ms": statistics.median(t[0] for t in tails),
        "qps": answered / (sum(samples) / 1000),
    }, statistics.median(t[1] for t in tails))


# Serve workloads

def loadgen_args(serve, seed, workdir):
    return ["--workdir", workdir, "--family", serve["family"],
            "--points", str(serve["points"]),
            "--churn-ops", str(serve["churn_ops"]), "--jobs", str(serve["jobs"]),
            "--seed", str(seed), "--batches", str(serve["batches"])]


def study_args(w):
    study = w["study"]
    return ["--capacity", str(study["capacity"]), "--trials", str(study["trials"]),
            "--ops", str(study["ops"]), "--mixes", study["mixes"],
            "--study-jobs", str(w["serve"]["jobs"])]


def fresh_workdir(name):
    path = os.path.join(WORK_DIR, name)
    os.makedirs(os.path.join(ROOT, path), exist_ok=True)
    for f in os.listdir(os.path.join(ROOT, path)):
        os.remove(os.path.join(ROOT, path, f))
    return path


def loadgen(command, serve, seed, workdir, deadline, extra=()):
    argv = [LOADGEN, command] + loadgen_args(serve, seed, workdir) + list(extra)
    return json.loads(run_child(argv, deadline).strip().splitlines()[-1])


def self_test(deadline):
    """One corrupted answer in a tiny session must count as one failure."""
    serve = {"family": "range", "points": 4096, "churn_ops": 16, "jobs": 1,
             "batches": 2}
    workdir = fresh_workdir("self-test")
    loadgen("replay", serve, 7, workdir, deadline)
    r = loadgen("serve", serve, 7, workdir, deadline,
                ["--popan", POPAN, "--corrupt"])
    return r["failed"] == 1 and r["attempted"] == 2 * BATCH_QUERIES


def serve_sessions(name, w, seed, seconds, min_sessions, trace, deadline):
    """The replay (oracle, and with trace the server-side phases), then
    the socket sessions checked against it, then with trace the churn
    layers; returns (sessions, layers, median server-side phase sum)."""
    workdir = fresh_workdir(name)
    oracle = loadgen("replay", w["serve"], seed, workdir, deadline,
                     ["--trace"] if trace else [])
    s = loadgen("serve", w["serve"], seed, workdir, deadline,
                ["--popan", POPAN, "--seconds", str(seconds),
                 "--min-sessions", str(min_sessions)])
    if not all(s["rtt_ms"]):
        raise BenchError("a session completed no batch")
    layers = {}
    if trace:
        layers.update(oracle["layers"])
        layers["wire.response_decode_ms"] = statistics.median(s["decode_ms"])
        churn = loadgen("churn-layers", w["serve"], seed, workdir, deadline,
                        study_args(w))
        layers.update(churn["layers"])
        layers["study_ms"] = churn["study_ms"]
    phases = oracle["phase_sum_ms"] + layers.get("wire.response_decode_ms", 0)
    return s, layers, phases


def run_serve(name, w, seed, seconds, trace, deadline):
    s, layers, phases = serve_sessions(name, w, seed, seconds, 3, trace, deadline)
    rtt = s["rtt_ms"]
    batches = sum(len(r) for r in rtt)
    e2e, pct = batch_metrics(rtt, batches * s["batch_queries"])
    e2e["setup_s"] = statistics.median(s["setup_s"])
    e2e["peak_rss_mb"] = statistics.median(s["vm_hwm_kb"]) / 1024
    e2e["run_s"] = statistics.median(s["run_s"])
    if trace:
        del layers["study_ms"]
        layers["proc.threads"] = statistics.median(s["threads"])
        layers["trace.gap_ms"] = e2e["batch_p50_ms"] - phases
    notes = {"samples": f"{batches} batches in {len(rtt)} sessions",
             "tail_percentile": pct}
    return e2e, layers, s["attempted"], s["failed"], notes


# The churn experiment

def churn_argv(w, seed, jobs, points=None, ops=None):
    study = w["study"]
    return [POPAN, "churn", "-j", str(jobs), "--no-cache",
            "-n", str(points or w["serve"]["points"]),
            "--ops", str(ops or study["ops"]), "--trials", str(study["trials"]),
            "-m", str(study["capacity"]), "--mixes", study["mixes"],
            "--seed", str(seed)]


def on_alarm(signum, frame):
    raise BenchError("churn command timed out")


def timed_command(argv, deadline, sample_threads=False):
    """Wall time, peak RSS (KiB), exit code, stdout and the most threads
    seen (only when sample_threads, which polls /proc)."""
    out_path = os.path.join(ROOT, WORK_DIR, "experiment", "stdout")
    threads = 0
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            if sample_threads:
                pid = 0
                while pid == 0:
                    threads = max(threads, proc_threads(proc.pid))
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid == 0:
                        deadline.left()
                        time.sleep(0.005)
            else:
                signal.signal(signal.SIGALRM, on_alarm)
                signal.alarm(max(1, int(deadline.left())))
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.alarm(0)
        except BaseException:
            kill_group(proc)
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    return wall, usage.ru_maxrss, proc.returncode, stdout, threads


def proc_threads(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_experiment(name, w, seed, seconds, trace, deadline):
    fresh_workdir("experiment")
    layers = {}
    attempted = failed = 0
    if trace:
        # The serve layers, profiled on one short session at this
        # workload's size; its answers are checked like any other.
        s, layers, _ = serve_sessions(name, w, seed, 0, 1, True, deadline)
        attempted, failed = s["attempted"], s["failed"]
    # Set-up: the same command with all its work shrunk away — process
    # start, module initialisation and pool creation.
    jobs = w["serve"]["jobs"]
    setups = [timed_command(churn_argv(w, seed, jobs, points=64, ops=1),
                            deadline)[0] for _ in range(9)]
    walls, rss, outputs, threads = [], [], [], []
    t0 = time.monotonic()
    while len(walls) < 3 or time.monotonic() - t0 < seconds:
        wall, maxrss, rc, stdout, th = timed_command(
            churn_argv(w, seed, jobs), deadline, sample_threads=trace)
        walls.append(wall)
        rss.append(maxrss)
        outputs.append((rc, stdout))
        threads.append(th)
    # Outside the timed window: the -j 1 run is the reference output.
    _, _, rc1, reference, _ = timed_command(churn_argv(w, seed, 1), deadline)
    for rc, stdout in outputs:
        attempted += 1
        failed += rc != 0 or stdout != reference or rc1 != 0
    ms = [x * 1000 for x in walls]
    study = w["study"]
    ops = study["trials"] * study["ops"] * len(study["mixes"].split(","))
    e2e, pct = batch_metrics([ms], ops * len(walls))
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = statistics.median(rss) / 1024
    e2e["run_s"] = statistics.median(walls)
    if trace:
        layers["proc.threads"] = max(threads)
        layers["trace.gap_ms"] = e2e["batch_p50_ms"] - layers.pop("study_ms")
    notes = {"samples": f"{len(ms)} commands", "tail_percentile": pct}
    return e2e, layers, attempted, failed, notes


# Output

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(name, spec, metrics, trace, attempted, failed, notes, ident):
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    print(f"perfbench {name}: seed {ident['seed']}, {notes['samples']}, "
          f"batch_tail_ms = p{notes['tail_percentile']:.1f}")
    for m in listed:
        print(f"  {m['name']:<28} {metrics[m['name']]:>16.6g} {m['unit']}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'fail_frac':<28} {frac:>16.6g} ({failed}/{attempted})")
    print("identity " + json.dumps(ident, sort_keys=True))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="DIR",
                    help="also write the stamped result to DIR")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    try:
        build()
        spec = load_spec()
        load_at_start = loadavg()
        deadline = Deadline(RUN_BUDGET_S)
        w = WORKLOADS[args.workload]
        runner = run_experiment if w.get("experiment") else run_serve
        e2e, layers, attempted, failed, notes = runner(
            args.workload, w, args.seed, args.seconds, bool(args.trace), deadline)
        self_test_ok = self_test(deadline)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if not self_test_ok:
        print("perfbench: self-test: a corrupted answer was not counted",
              file=sys.stderr)
    metrics = layers if args.trace else e2e
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print("perfbench: no value for " + ", ".join(missing), file=sys.stderr)
        return 1
    ident = identity(args.seed, load_at_start)
    report(args.workload, spec, metrics, args.trace, attempted, failed, notes, ident)
    correct = failed == 0 and self_test_ok
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    if args.record:
        os.makedirs(args.record, exist_ok=True)
        record = dict(result, workload=args.workload, trace=args.trace,
                      seconds=args.seconds, identity=ident, notes=notes)
        path = os.path.join(args.record,
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
