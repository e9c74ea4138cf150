#!/usr/bin/env python3
"""Knob census: which config fields move which workload's output.

Usage, from the repository root after a build:

    python3 tools/knob_census.py [--bench build/amo_bench] [--timeout S]
        [--jobs N] [--mem-mb M] [--fields a.b,c.d]

Reads the default config from the `config` object of a `--json` record
(`table2 --quick --episodes=1`), then sweeps every field except num_cpus
and seed on its own: numbers to x0.5 and x2 (1 and 8 for a field that
defaults to 0), bools toggled. Each setting runs every workload with
`--quick --threads=4 --set field=value` under a timeout and an
address-space limit, and its stdout is compared with the default run's.

Prints one markdown table row per setting: the workloads whose stdout
moved, those that timed out, and those that exited non-zero (exit 2 is
a setting validate() rejects). A field none of whose settings moves,
times out or fails anything is inert at --quick; the last lines list
those. Exits 1 if a default run fails.

A full pass is 80 settings x 23 workloads; with runaway settings timing
out it takes tens of minutes, so it is a tool to run by hand, not a gate.
"""

import argparse
import concurrent.futures
import json
import os
import resource
import subprocess
import sys
import tempfile

SKIP = ("num_cpus", "seed")


def flatten(obj, prefix=""):
    """Nested config object -> [(dotted name, value)] in document order."""
    out = []
    for key, value in obj.items():
        name = prefix + key
        if isinstance(value, dict):
            out += flatten(value, name + ".")
        else:
            out.append((name, value))
    return out


def settings(value):
    """The census values for one field's default."""
    if isinstance(value, bool):
        return ["false" if value else "true"]
    if value == 0:
        return ["1", "8"]
    return [str(value // 2), str(value * 2)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bench", default="build/amo_bench")
    ap.add_argument("--timeout", type=float, default=20.0,
                    help="seconds per run (default 20)")
    ap.add_argument("--jobs", type=int, default=2,
                    help="runs at once (default 2; each uses 4 threads)")
    ap.add_argument("--mem-mb", type=int, default=1024,
                    help="address-space limit per run (default 1024)")
    ap.add_argument("--fields", default="",
                    help="comma-separated dotted fields (default: all)")
    args = ap.parse_args()

    def limit():
        cap = args.mem_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    def run(workload, extra):
        cmd = [args.bench, "run", workload, "--quick", "--threads=4", *extra]
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=args.timeout, preexec_fn=limit)
        except subprocess.TimeoutExpired:
            return "timeout", None
        return ("ok" if p.returncode == 0 else "failed"), p.stdout

    listing = subprocess.run([args.bench, "list"], capture_output=True,
                             text=True, check=True).stdout
    workloads = [line.split()[0] for line in listing.splitlines()[1:]]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "defaults.json")
        subprocess.run([args.bench, "run", "table2", "--quick",
                        "--episodes=1", "--json=" + path],
                       stdout=subprocess.DEVNULL, check=True)
        with open(path) as f:
            config = json.load(f)["records"][0]["config"]
    fields = [(n, v) for n, v in flatten(config) if n not in SKIP]
    if args.fields:
        wanted = args.fields.split(",")
        fields = [(n, v) for n, v in fields if n in wanted]
    cases = [(n, s) for n, v in fields for s in settings(v)]

    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        base = dict(zip(workloads, pool.map(lambda w: run(w, []),
                                            workloads)))
        broken = [w for w, (status, _) in base.items() if status != "ok"]
        if broken:
            print("default runs failed: " + ", ".join(broken),
                  file=sys.stderr)
            return 1
        jobs = {(n, s, w): pool.submit(run, w, ["--set", f"{n}={s}"])
                for n, s in cases for w in workloads}

        print("| setting | stdout moved | timed out | exit != 0 |")
        print("|---|---|---|---|")
        touched = set()
        for n, s in cases:
            moved, slow, failed = [], [], []
            for w in workloads:
                status, out = jobs[(n, s, w)].result()
                if status == "timeout":
                    slow.append(w)
                elif status == "failed":
                    failed.append(w)
                elif out != base[w][1]:
                    moved.append(w)
            if moved or slow or failed:
                touched.add(n)
            cells = ["-" if not ws else
                     f"all {len(ws)}" if len(ws) == len(workloads) else
                     f"{len(ws)}: {', '.join(ws)}"
                     for ws in (moved, slow, failed)]
            print(f"| `{n}={s}` | " + " | ".join(cells) + " |", flush=True)
    inert = [n for n, _ in fields if n not in touched]
    print("\ninert at --quick: " + (", ".join(inert) if inert else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
