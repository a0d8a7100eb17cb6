#!/usr/bin/env python3
"""GraphZeppelin end-to-end benchmark runner.

Run from the repository root:

    python3 gzbench/run.py --workload ram-ingest --seed 1 --seconds 10 --trace 0

Builds gzbench/ (and the library sources it compiles) into .bench_build
(or $CARGO_TARGET_DIR), runs one workload in a private directory under
it, checks that no process or file of the run survives, prints every
metric with its unit and the correctness verdict, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer ones.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("ram-ingest", "disk-ingest", "sharded-ingest", "serve-watch")
RUN_TIMEOUT_S = 150  # Leaves room for clean-up inside the 180 s limit.
PR_SET_CHILD_SUBREAPER = 36


def fail(msg):
    print("gzbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, log):
    """Configures once, then builds incrementally; output goes to `log`."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "gzbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "gz_bench",
         "gz_shard"],
        stdout=log, stderr=log, check=True)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this stands in for a commit id)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "gzbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def session_processes(sid):
    """Pids of live processes in session `sid` (the run's processes)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # Fields after the command name: state ppid pgrp session ...
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_children():
    """Reaps every exited child, including orphans adopted as subreaper."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def run_workload(binary, args, run_dir, timeout_s):
    """Runs gz_bench in its own session. Returns (exit code, stdout text,
    survivors): survivors are processes of the run still alive after the
    binary exited; they are killed and reaped before returning."""
    out_path = os.path.join(run_dir, "gz_bench.out")
    err_path = os.path.join(run_dir, "gz_bench.err")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", run_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(run_dir, "spans.jsonl")]
    env = dict(os.environ, TMPDIR=run_dir, GZ_SHARD_LOG_DIR=run_dir)
    # Files, not pipes, so no shard can hold this process's pipes open.
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            code = proc.wait()
    survivors = session_processes(proc.pid)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.time() + 10
    while session_processes(proc.pid) and time.time() < deadline:
        reap_children()
        time.sleep(0.05)
    reap_children()
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        sys.stderr.write(f.read()[-4000:])
    return code, stdout, survivors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "src", "tools/gz_shard.cc",
                   "gzbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the repository root: %s is missing" % needed)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Orphaned grandchildren (shards whose parent died) re-parent here,
    # so they can be reaped.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    try:
        with open(build_log, "ab") as log:
            build(root, build_dir, log)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed (%s); see %s" % (e, build_log))

    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        code, stdout, survivors = run_workload(
            os.path.join(build_dir, "gz_bench"), args, run_dir, RUN_TIMEOUT_S)
        if args.trace and os.path.exists(os.path.join(run_dir, "spans.jsonl")):
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            shutil.copy(os.path.join(run_dir, "spans.jsonl"),
                        os.path.join(trace_dir, "%s-seed%d.jsonl" %
                                     (args.workload, args.seed)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if os.path.exists(run_dir):
        fail("could not remove the run directory " + run_dir)
    lines = [l for l in stdout.splitlines() if l.startswith("{")]
    if code != 0 or not lines:
        fail("gz_bench exited with code %d and no report" % code)
    report = json.loads(lines[-1])

    correct = bool(report["correct"])
    messages = list(report["messages"])
    if survivors:
        correct = False
        messages.append("WRONG: %d process(es) of the run outlived it: %s" %
                        (len(survivors), survivors))
    metrics = {}
    idle = []
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            # A layer this workload does not run.
            got = {"value": 0, "unit": m["unit"]}
            idle.append(m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    provenance = dict(report["info"])
    provenance.update({
        "git_sha": git_sha(root) or "unavailable (not a git checkout)",
        "source_sha256": source_digest(root),
        "cpu_model": cpu_model(),
        "nproc_os": os.cpu_count(),
        "sketch_kernel_env": os.environ.get("GZ_SKETCH_KERNEL", "auto"),
        "trace": args.trace,
        "idle_layers": idle,
        "error_rate": (report["failed"] / report["attempted"]
                       if report["attempted"] else None),
    })
    for name, m in metrics.items():
        print("%-34s %16.6g %s" % (name, m["value"], m["unit"]))
    print("%-34s %16.6g (%d of %d operations failed)" %
          ("error_rate", provenance["error_rate"] or 0, report["failed"],
           report["attempted"]))
    for msg in messages:
        print("  " + msg)
    print("correct: %s" % ("yes" if correct else "NO"))
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(report["attempted"])),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
