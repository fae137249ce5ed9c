"""Record the benchmark's end-to-end numbers in a BENCH_<n>.json file.

    python3 scripts/bench_record.py [--checkout DIR] [--out FILE]

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds 10 --trace 0`
in DIR (default: this checkout) for each workload that DIR's BENCHMARK.json
lists, one after another.  The file holds, per workload, the run's
end-to-end metrics (`wall_s` and `setup_s` are medians, `peak_rss_mb` the
highest peak), the quartiles of its rescaled round times and its
correct/attempted/failed counts; plus the host (Python, NumPy, usable
CPUs) and DIR's commit.  It measures committed code only: if DIR is not
a git checkout, or its tracked files differ from its HEAD, it lists them
and exits non-zero before running anything.  FILE defaults to the next
free BENCH_<n>.json at the root of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, SECONDS = 1, 10


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
    return {
        **{metric: m["value"] for metric, m in result["metrics"].items()},
        "round_s": {k: float(quartiles[k]) for k in ("q1", "median", "q3")},
        **{k: result[k] for k in ("correct", "attempted", "failed")},
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
                   f"--seconds {SECONDS} --trace 0",
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()},
        "workloads": {},
    }
    for name in names:
        record["workloads"][name] = run_workload(checkout, name)
        print(name, json.dumps(record["workloads"][name]), flush=True)
    path = args.out or next_bench_path()
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
