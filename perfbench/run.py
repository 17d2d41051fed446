#!/usr/bin/env python3
"""Build and run the FACT end-to-end benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload search-cold --seed 1 --seconds 10 --trace 0

builds the benchmark and the `factd` daemon from source (release profile,
into $CARGO_TARGET_DIR, default `.bench_build`), then runs one workload and
prints its result as the last line of standard output.

Repeat mode, to set bounds and to show two sets of runs agree:

    python3 perfbench/run.py --repeat 10 [--seconds 10]

runs each workload --repeat times in each of two sets, alternating the
workload order and using a new seed each time, and prints for every
end-to-end metric its median, quartiles and spread (interquartile range
over median) beside the bound in BENCHMARK.json, and how far the second
set's median moved from the first's in the metric's worse direction.

Run it from the root of the repository.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["search-cold", "search-traces", "factd-shared"]
SETS = 2


def target_dir():
    return os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark and factd; returns the two executables."""
    quiet = ["cargo", "build", "--release", "--quiet"]
    steps = [
        quiet + ["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        quiet + ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "factd"],
    ]
    for cmd in steps:
        # Cargo's own output goes to stderr; standard output stays the
        # benchmark's.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(ROOT, target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "factd")


def run_once(bench, factd, args, capture=False):
    cmd = [bench] + args + ["--factd", factd]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("perfbench: run failed: " + " ".join(cmd))
    return json.loads(out.stdout.strip().splitlines()[-1])


def flag(argv, name, default):
    if name in argv:
        i = argv.index(name)
        value = argv[i + 1]
        del argv[i : i + 2]
        return value
    return default


def repeat(bench, factd, argv):
    n = int(flag(argv, "--repeat", "10"))
    seconds = flag(argv, "--seconds", "10")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    results = {}  # (set, workload) -> list of run results
    for s in range(SETS):
        for i in range(n):
            order = WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]
            for w in order:
                seed = 1000 * (s + 1) + i
                r = run_once(bench, factd, ["--workload", w, "--seed", str(seed),
                                            "--seconds", seconds, "--trace", "0"], capture=True)
                results.setdefault((s, w), []).append(r)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: attempted {r['attempted']} "
                      f"failed {r['failed']}", file=sys.stderr, flush=True)
    worst_ok = True
    for w in WORKLOADS:
        print(f"\n{w}")
        print(f"  {'metric':20s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'shift':>7s}")
        for name, m in spec.items():
            medians = []
            for s in range(SETS):
                runs = results[(s, w)]
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                shift = ""
                if s > 0:
                    worse = medians[s] - medians[0]
                    if m["better"] == "higher":
                        worse = -worse
                    rel = worse / medians[0] if medians[0] else float("inf")
                    shift = f"{rel:+7.3f}"
                    worst_ok &= rel <= m["bound"]
                if name != "setup_s":
                    worst_ok &= spread <= m["bound"]
                print(f"  {name:20s} {s + 1:3d} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:7.3f} {m['bound']:6.2f} {shift:>7s}")
        shares = [sum(r["failed"] for r in results[(s, w)]) /
                  sum(r["attempted"] for r in results[(s, w)]) for s in range(SETS)]
        worst_ok &= len(set(shares)) == 1
        print(f"  failed share per set: {shares}")
    print(f"\nall spreads and shifts within bounds: {worst_ok}")
    return 0 if worst_ok else 1


def main():
    argv = sys.argv[1:]
    bench, factd = build()
    if "--repeat" in argv:
        return repeat(bench, factd, argv)
    return run_once(bench, factd, argv)


if __name__ == "__main__":
    sys.exit(main())
