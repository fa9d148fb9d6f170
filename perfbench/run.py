#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two sets of results.

Run from the repository root:

    python3 perfbench/run.py --workload http-upload --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py compare OLD NEW

The first form builds perfbench/darpabench (a Go module of its own that
builds the repository's packages from source) into .bench_build/ and runs it
with the given arguments; its last line of output is the one-line JSON
result. The second form reads full result files (each run writes one under
.bench_build/perfbench/results/) from OLD and NEW, each a file or a
directory, and prints one row per workload and end-to-end metric.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")


def git(*args):
    try:
        r = subprocess.run(["git", *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def build():
    """Builds the benchmark binary; every build output stays under .bench_build."""
    root = os.getcwd()
    env = dict(os.environ)
    env["GOCACHE"] = os.path.join(root, ".bench_build", "gocache")
    env["GOPATH"] = os.path.join(root, ".bench_build", "gopath")
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=readonly -buildvcs=false"
    binary = os.path.join(root, BUILD, "darpabench")
    r = subprocess.run(["go", "build", "-o", binary, "./darpabench"], cwd=HERE, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def run(args):
    """Runs one workload, or with --workload all every workload in turn."""
    if "--workload" in args and args[args.index("--workload") + 1] == "all":
        with open("BENCHMARK.json") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
        i = args.index("--workload")
        codes = [subprocess.run([sys.executable, __file__, *args[:i], "--workload", n, *args[i + 2:]]).returncode
                 for n in names]
        sys.exit(max(codes))
    binary = build()
    extra = []
    commit = git("rev-parse", "HEAD")
    if commit and git("rev-parse", "--show-toplevel") == os.getcwd():
        status = git("status", "--porcelain")
        extra = ["-commit", commit, "-dirty", "true" if status else "false"]
    r = subprocess.run([binary, *extra, *args])
    sys.exit(r.returncode)


def load_results(path):
    files = []
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
    else:
        files = [path]
    out = {}
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        prov = doc.get("provenance") or {}
        if prov.get("trace") or "end_to_end" not in doc:
            continue
        out.setdefault(prov["workload"], []).append(doc["end_to_end"])
    return out


def spread(values):
    """Interquartile range as a share of the median (None for fewer than 2 runs)."""
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def compare(old_path, new_path):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    old, new = load_results(old_path), load_results(new_path)
    print(f"{'workload':<14} {'metric':<22} {'old':>12} {'new':>12} {'delta':>8} {'bound':>6} {'spread':>7}  verdict")
    flagged = 0
    for wl in sorted(set(old) | set(new)):
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            a = [r[name]["value"] for r in old.get(wl, []) if name in r]
            b = [r[name]["value"] for r in new.get(wl, []) if name in r]
            if not a or not b:
                print(f"{wl:<14} {name:<22} {'-':>12} {'-':>12}  missing")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / abs(ma) if ma else 0.0
            worse = delta if better == "lower" else -delta
            spreads = [s for s in (spread(a), spread(b)) if s is not None]
            sp = max(spreads) if spreads else None
            if sp is not None and sp > bound:
                verdict = "unresolved (spread above bound)"
            elif worse > bound:
                verdict = "REGRESSED"
                flagged += 1
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            sps = f"{sp:7.3f}" if sp is not None else "    n/a"
            print(f"{wl:<14} {name:<22} {ma:12.5g} {mb:12.5g} {delta:+8.3f} {bound:6.2f} {sps}  {verdict}"
                  f"  (runs {len(a)}/{len(b)})")
    return 1 if flagged else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare OLD NEW")
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    run(sys.argv[1:])


if __name__ == "__main__":
    main()
