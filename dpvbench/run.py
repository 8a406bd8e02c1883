#!/usr/bin/env python3
"""Build and run the dpv benchmark from the root of a source tree.

    python3 dpvbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 dpvbench/run.py --selfcheck

Builds dpvbench/bench.exe with dune, runs it, and prints its output.
The last line is one JSON object: correct, attempted, failed and the
metrics -- the end-to-end metrics with --trace 0 (this script adds
peak_rss_mb, the benchmark process's peak resident memory), the
per-layer metrics with --trace 1.  Runtime state (network cache,
journals, traces) lives in .bench_work/ at the root.

--selfcheck runs every workload briefly in both modes and checks that
each metric BENCHMARK.json names is printed with its unit and that no
operation failed.  Exits non-zero on any build, run or check failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)
EXE = os.path.join("_build", "default", BENCH_DIR, "bench.exe")
WORK_DIR = ".bench_work"
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ["guided-campaign", "serve-loop"]

# A run must end within 180 s; past this the benchmark is killed and
# the run fails without a result.
RUN_TIMEOUT_S = 175

# serve-loop's client, connection and executor threads share one OCaml
# domain, and every frame hands the domain lock from one to the next.
# Spread over two cores, each handoff (and each stop-the-world sync with
# the server's sampler domain) crosses cores, and on a shared VM that
# made jobs_per_s swing by 2x between runs.  Pinned to one core it
# stays within a few percent (NOTES.md).
PINNED_TO_ONE_CORE = {"serve-loop"}


def fail(msg):
    print("dpvbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # No shared dune cache: the build reads and writes only this tree.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = subprocess.call(
        ["dune", "build", "--root", ".", "./" + BENCH_DIR + "/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_bench(workload, seed, seconds, trace):
    """Run the benchmark once; returns (notes, result object)."""
    cmd = [
        EXE, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--work-dir", WORK_DIR, "--reference", REFERENCE,
    ]
    pin = None
    if workload in PINNED_TO_ONE_CORE:
        core = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {core})
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=pin)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 gives this child's own peak RSS; the build's does not
        # mix in.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        fail("%s exited with %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s printed no result line" % workload)
    if trace == 0:
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0,
            "unit": "MB",
        }
    return lines[:-1], result


def selfcheck():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if names != WORKLOADS:
        fail("BENCHMARK.json names workloads %s" % names)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_bench(workload, 1, 1, trace)
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (workload, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s in %s, declared %s"
                                    % (workload, m["name"], got["unit"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: undeclared %s" % (workload, sorted(extra)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d failed"
                                % (workload, result["failed"], result["attempted"]))
            if trace == 1 and metrics["failed_frac"]["value"] != 0:
                problems.append("%s: failed_frac %s"
                                % (workload, metrics["failed_frac"]["value"]))
            print("selfcheck %s trace=%d: %d metrics, %d attempted, %d failed"
                  % (workload, trace, len(metrics), result["attempted"],
                     result["failed"]))
    for p in problems:
        print("selfcheck: " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build()
    if args.selfcheck:
        selfcheck()
    if args.workload is None:
        fail("--workload is required")
    notes, result = run_bench(args.workload, args.seed, args.seconds, args.trace)
    for line in notes:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
