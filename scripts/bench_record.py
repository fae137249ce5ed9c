"""Record the benchmark's end-to-end numbers in a BENCH_<n>.json file.

    python3 scripts/bench_record.py [--checkout DIR] [--out FILE]

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds 10 --trace 0`
in DIR (default: this checkout) three times for each workload that DIR's
BENCHMARK.json lists, one workload after another.  Per workload, the file
holds each end-to-end metric as the median, min and max of the three
runs' values (within a run, `wall_s` and `setup_s` are medians and
`peak_rss_mb` the highest peak), each run's quartiles of its rescaled
round times, and the correct/attempted/failed counts over the three runs;
plus the host (Python, NumPy, usable CPUs) and DIR's commit.  A single run
moves with the host's noise; the median of three damps it, and min and
max show the spread.  It then runs the Tier-1 suite once in DIR (`python
-m pytest -q --continue-on-collection-errors --durations=5`, with DIR's
`src` first on PYTHONPATH) and records its wall time, its passed and
failed counts (errors counted as failed) and its five slowest tests, in a
`tier1` entry.  It measures committed code only: if DIR is not a git
checkout, or its tracked files differ from its HEAD, it lists them and
exits non-zero before running anything.  FILE defaults to the next free
BENCH_<n>.json at the root of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, SECONDS, RUNS = 1, 10, 3


def next_bench_path():
    taken = [int(m.group(1)) for name in os.listdir(ROOT)
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    return os.path.join(ROOT, f"BENCH_{max(taken, default=0) + 1}.json")


def run_workload(checkout, name):
    argv = ["python3", "perfbench/run.py", "--workload", name, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    rounds = next(ln for ln in lines if ln.startswith("round_s "))
    quartiles = dict(kv.split("=") for kv in rounds.split()[1:4])
    return result, {k: float(quartiles[k]) for k in ("q1", "median", "q3")}


def run_tier1(checkout):
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "--durations=5"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    started = time.perf_counter()
    out = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = out.stdout.splitlines()
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", lines[-1] if lines else "")}
    durations = (re.fullmatch(r"([\d.]+)s (call|setup|teardown) +(\S+)", ln) for ln in lines)
    slowest = [{"test": m[3], "phase": m[2], "s": float(m[1])} for m in durations if m]
    return {"command": " ".join(["PYTHONPATH=src", "python", *argv[1:]]),
            "wall_s": round(wall, 3), "passed": counts.get("passed", 0),
            "failed": sum(counts.get(k, 0) for k in ("failed", "error", "errors")),
            "slowest": slowest}


def summarize(runs):
    """Median, min and max of each end-to-end metric over the runs."""
    metrics = {}
    for metric in runs[0][0]["metrics"]:
        values = [result["metrics"][metric]["value"] for result, _ in runs]
        metrics[metric] = {"median": float(np.median(values)),
                           "min": min(values), "max": max(values)}
    return {
        **metrics,
        "runs": len(runs),
        "round_s": [quartiles for _, quartiles in runs],
        "correct": all(result["correct"] for result, _ in runs),
        **{k: sum(result[k] for result, _ in runs) for k in ("attempted", "failed")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", default=ROOT, help="checkout to measure")
    ap.add_argument("--out", help="output file (default: next BENCH_<n>.json)")
    args = ap.parse_args()
    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=checkout,
                              capture_output=True, text=True).stdout.strip()
    commit, changed = git("rev-parse", "HEAD"), git("diff", "--name-only", "HEAD")
    if not commit or changed:
        sys.exit(f"{checkout}: not a git checkout, or tracked files differ from HEAD "
                 f"(commit them first):\n{changed}")
    record = {
        "commit": commit,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                   f"--seconds {SECONDS} --trace 0, {RUNS} times",
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()},
        "workloads": {},
    }
    for name in names:
        runs = [run_workload(checkout, name) for _ in range(RUNS)]
        record["workloads"][name] = summarize(runs)
        print(name, json.dumps(record["workloads"][name]), flush=True)
    record["tier1"] = run_tier1(checkout)
    print("tier1", json.dumps(record["tier1"]), flush=True)
    path = args.out or next_bench_path()
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
