#!/usr/bin/env python3
"""Compare the benchmark on two checkouts in alternating same-session pairs.

Usage, from anywhere:

    python3 tools/bench_compare.py --parent DIR --change DIR
        [--pairs N] [--seconds S] [--seed N] [--workloads a,b,c]

Builds perfbench_driver from each checkout's perfbench/ package (Release),
in build trees under CHANGE/.bench_build/compare, never inside
perfbench/; a tree configured from another checkout is rebuilt from
scratch. The header names each side's checkout (and its git HEAD).
Then, per workload, it runs N pairs of `perfbench_driver --workload W
--seed N --seconds S --trace 0`, one run per side, alternating which
side goes first. Host speed drifts within a session, so short
alternating runs compare better than one long run each. Each run is
started from a shell, so its peak_rss_mb is the driver's own peak, not
python3's inherited one.

For every end-to-end metric in the change's BENCHMARK.json it prints each
side's median and quartiles, the change/parent ratio of the medians, the
pairs the change won (ties count for neither side), the parent's IQR and
the metric's bound. Simulated metrics are deterministic: they must be
equal in every run of both sides, and a simulated metric reported by some
runs but not by others counts as a difference.

Exit status: 0 when every simulated metric is equal and the change fails
no more checks than the parent; 1 when a simulated metric differs or the
change fails more checks; 2 when a build or a run fails. Host metrics are
reported, never gated.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# Metrics of the modelled machine: any difference between the two sides is
# a behaviour change, not host noise.
SIMULATED = ("paper_error_pct", "p50_cycles", "p999_cycles", "episode_cycles")
WORKLOADS = ("paper_tables", "service_open_loop", "scale_1024")
SIDES = ("parent", "change")


def configured_source(build_dir):
    """The source directory a build tree's CMakeCache.txt names, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(checkout, build_dir):
    """Configures and builds the checkout's driver; returns its path.

    A build tree is reused only when it was configured from this
    checkout's perfbench/; one left by another checkout is wiped, or a
    later run with a different --parent would time the old one.
    """
    source = os.path.join(checkout, "perfbench")
    configured = configured_source(build_dir)
    steps = []
    if configured is None or not os.path.exists(configured) or \
            not os.path.samefile(configured, source):
        shutil.rmtree(build_dir, ignore_errors=True)
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def describe(checkout):
    """The checkout's path, plus its short HEAD when it is a git tree."""
    proc = subprocess.run(["git", "-C", checkout, "rev-parse",
                           "--show-toplevel", "--short", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    out = proc.stdout.split()
    # A plain copy that sits inside some other work tree is not that tree.
    if proc.returncode != 0 or len(out) != 2 or \
            not os.path.samefile(out[0], checkout):
        return checkout
    dirty = subprocess.run(["git", "-C", checkout, "status", "--porcelain",
                            "--untracked-files=no"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True).stdout
    suffix = " + uncommitted changes" if dirty else ""
    return f"{checkout} (git {out[1]}{suffix})"


def run_once(driver, workload, seed, seconds, spans_dir):
    """Runs the driver once; returns its final JSON line as a dict."""
    # The driver reads peak_rss_mb from getrusage(RUSAGE_SELF), whose
    # high-water mark survives exec: exec'd from a python3 child it reports
    # python3's RSS whenever that is larger. A shell forks the driver from
    # its own small image instead (the trailing `exit` keeps the shell from
    # exec'ing the driver in its own place).
    cmd = ["sh", "-c", '"$@"; exit $?', "sh",
           driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0",
           "--spans-dir", spans_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed ({proc.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report(workload, runs, metrics):
    """Prints one workload's table; returns True when the gate holds."""
    ok = True
    print(f"\n== {workload}")
    print(f"{'metric':<18} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>7} {'won':>6} "
          f"{'parent IQR':>11} {'bound':>6}")
    pairs = len(runs["parent"])
    for m in metrics:
        name = m["name"]
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]
                    if name in r["metrics"]] for s in SIDES}
        if not vals["parent"] and not vals["change"]:
            continue  # the workload does not report it (episode_cycles)
        if any(len(vals[s]) != len(runs[s]) for s in SIDES):
            # Dropped by some runs: for a simulated metric that is a
            # behaviour change; a host metric just goes unreported.
            if name in SIMULATED:
                ok = False
            seen = {s: f"in {len(vals[s])}/{pairs} runs" for s in SIDES}
            verdict = "DIFFERS" if name in SIMULATED else ""
            print(f"{name:<18} {seen['parent']:>30} {seen['change']:>30} "
                  f"{'':>7} {'':>6} {'':>11} {verdict:>6}")
            continue
        pq1, pmed, pq3 = quartiles(vals["parent"])
        cq1, cmed, cq3 = quartiles(vals["change"])
        if name in SIMULATED:
            same = len(set(vals["parent"] + vals["change"])) == 1
            ok = ok and same
            verdict = "equal" if same else "DIFFERS"
            print(f"{name:<18} {pmed:>30.12g} {cmed:>30.12g} "
                  f"{'':>7} {'':>6} {'':>11} {verdict:>6}")
            continue
        lower = m.get("better") == "lower"
        won = sum(1 for p, c in zip(vals["parent"], vals["change"])
                  if (c < p if lower else c > p))
        ratio = cmed / pmed if pmed else float("nan")
        print(f"{name:<18} {f'{pmed:.4g} [{pq1:.4g}, {pq3:.4g}]':>30} "
              f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':>30} {ratio:>7.3f} "
              f"{f'{won}/{pairs}':>6} {pq3 - pq1:>11.4g} "
              f"{m.get('bound', ''):>6}")
    failed = {s: sum(r.get("failed", 0) for r in runs[s]) for s in SIDES}
    print(f"{'failed checks':<18} {failed['parent']:>30} "
          f"{failed['change']:>30}")
    if failed["change"] > failed["parent"]:
        ok = False
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    root = os.path.join(checkouts["change"], ".bench_build", "compare")
    try:
        drivers = {s: build(checkouts[s], os.path.join(root, s))
                   for s in SIDES}
    except RuntimeError as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    for s in SIDES:
        print(f"{s}: {describe(checkouts[s])}")
    print(f"seed {args.seed}, {args.pairs} alternating pairs x "
          f"{args.seconds} s per workload")
    ok = True
    with tempfile.TemporaryDirectory() as spans:
        for w in args.workloads.split(","):
            runs = {s: [] for s in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for s in order:
                    try:
                        runs[s].append(run_once(drivers[s], w, args.seed,
                                                args.seconds, spans))
                    except RuntimeError as e:
                        print(f"bench_compare: {e}", file=sys.stderr)
                        return 2
            ok = report(w, runs, metrics) and ok
            sys.stdout.flush()
    if not ok:
        print("\nbench_compare: a simulated metric differs, or the change "
              "fails more checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
