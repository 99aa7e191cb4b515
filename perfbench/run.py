#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog_audit --seed 1 --seconds 10 --trace 0

Builds the Go benchmark in perfbench/ (its own module, which compiles the
repository's packages from source), asks it for the hash-kernel
calibration pick in a few separate processes, then runs one workload.
Everything the build and the run write goes under .bench_build/ in the
checkout. The last line of standard output is the run's JSON result.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
HISTORY = os.path.join(BUILD, "calibration_history.jsonl")

WORKLOADS = ("catalog_audit", "owner_roundtrip", "audit_service")
# KernelAuto calibrates once per process, so each probe is its own process.
CALIBRATION_PROBES = 3
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def go_env():
    """The environment for go and the benchmark: every cache, temporary
    and config directory inside the checkout's build directory."""
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env.update(
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
        GOTELEMETRY="off",
    )
    return env


def build(env):
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                             timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if res.returncode != 0:
        fail("build failed:\n" + res.stdout)


def calibration(env, args):
    """Probe KernelAuto's pick in separate processes, append the picks to
    the checkout's history, and summarize how often the pick differed."""
    picks = []
    for _ in range(CALIBRATION_PROBES):
        res = subprocess.run([BINARY, "-calibrate"], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=60)
        if res.returncode != 0:
            fail("calibration probe failed", 1)
        picks.append(json.loads(res.stdout)["Kind"])
    with open(HISTORY, "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed, "picks": picks}) + "\n")
    runs = []
    with open(HISTORY) as f:
        for line in f:
            try:
                runs.append(json.loads(line)["picks"])
            except (ValueError, KeyError):
                continue
    counts = collections.Counter(p for r in runs for p in r)
    modal = counts.most_common(1)[0][0]
    return {
        "this_run_picks": picks,
        "history_runs": len(runs),
        "history_probes": sum(counts.values()),
        "modal_pick": modal,
        "probes_differing_from_modal": sum(n for k, n in counts.items() if k != modal),
        "runs_with_a_differing_pick": sum(1 for r in runs if any(p != modal for p in r)),
        "picks": dict(counts),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        fail("no repository sources next to %s: run from a full checkout" % BENCH_DIR)
    env = go_env()
    build(env)
    start = time.monotonic()
    print("# calibration " + json.dumps(calibration(env, args), sort_keys=True), flush=True)

    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", BUILD]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=max(RUN_TIMEOUT - (time.monotonic() - start), 30))
    except subprocess.TimeoutExpired:
        fail("run timed out", 1)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        sys.stdout.write("".join(l + "\n" for l in lines if l.startswith("#")))
        fail("run failed with exit code %d" % res.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("malformed result line: %r" % lines[-1][:200], 1)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
