"""Benchmark of the `drauc` CLI: `python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1`, from the root of a checkout.

Set-up runs SETUPS times, each in a fresh interpreter that imports drauc and
writes the workload's inputs; `setup_s` is the median, plus, for
eval-binding, the one timed `drauc train` that writes its checkpoint.  Then
whole rounds of the workload's CLI commands repeat until S seconds have
passed (two rounds at least where a check compares repeats), each command
in a fresh process that imports drauc and times the command from call to
return.  Every output is checked as it comes.

Times are rescaled to a reference host speed (see hostspeed.py): on a
shared host a core's speed drifts by a third or more, and a fixed NumPy
loop timed inside each process while it works follows that drift.  The raw
times are printed too.

With --trace 0 the last stdout line carries the end-to-end metrics:
`wall_s` (median time of a round's commands), `setup_s` and `peak_rss_mb`
(the highest peak resident memory of an operation's process).  With
--trace 1 each operation's process, and the first set-up, wraps drauc's
public functions and the line carries the per-layer metrics instead.  Run
outputs go to `.bench_runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from hostspeed import rescale  # noqa: E402
from tracer import PER_LAYER, per_layer  # noqa: E402

SETUPS = 5
DEADLINE_S = 170.0
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def steal_ticks():
    """The host's steal counter, summed over CPUs, for the noise line; 0
    where /proc/stat is missing."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


class Children:
    """Runs child processes one at a time, each to its end or the deadline."""

    def __init__(self, log, deadline):
        self.log = log
        self.deadline = deadline

    def run(self, argv, workdir):
        """(wall seconds, exit code, rusage) of one child."""
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", TMPDIR=workdir)
        with open(self.log, "ab") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=workdir, env=env,
                                    stdout=out, stderr=subprocess.STDOUT)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
                    sys.exit(f"{' '.join(argv[1:3])} still running at the deadline")
                time.sleep(0.005)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(wl, args, run_dir, children, worker, speeds):
    """Set up SETUPS times; (working directory, rescaled setup_s, raw samples,
    faults)."""
    dirs = [os.path.join(run_dir, f"setup{i}") for i in range(SETUPS)]
    raw, scaled, faults = [], [], []
    for i, d in enumerate(dirs):
        os.makedirs(d)
        out = os.path.join(run_dir, f"setup{i}.json")
        wall, rc, _ = children.run(
            worker + ["prepare", "--workload", args.workload, "--seed", str(args.seed),
                      "--trace", str(args.trace if i == 0 else 0), "--out", out], d)
        if rc != 0:
            sys.exit(f"set-up failed with exit code {rc}; see {children.log}")
        rep = read_json(out)
        raw.append(wall - rep["paused_s"])
        scaled.append(rescale(raw[-1], rep))
        speeds.append(rep["speed_mean_s"])
    for name in sorted(os.listdir(dirs[0])):
        blobs = set()
        for d in dirs:
            with open(os.path.join(d, name), "rb") as fh:
                blobs.add(fh.read())
        if len(blobs) != 1:
            faults.append(f"set-up input {name} differs between set-ups of one seed")
    for d in dirs[1:]:
        shutil.rmtree(d)
    setup_s = statistics.median(scaled)
    if wl.setup_train:
        out = os.path.join(run_dir, "setup_train.json")
        _, rc, _ = children.run(worker + ["setup-train", "--workload", args.workload,
                                          "--seed", str(args.seed), "--out", out], dirs[0])
        rep = read_json(out) if rc == 0 else {"rc": rc}
        if rep["rc"] != 0:
            sys.exit(f"set-up training failed with exit code {rep['rc']}; see {children.log}")
        raw.append(rep["op_s"])
        setup_s += rescale(rep["op_s"], rep)
        speeds.append(rep["speed_mean_s"])
    return dirs[0], setup_s, raw, faults


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "drauc", "cli.py")):
        sys.exit(f"no drauc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    from drauc.checkpoint import load_checkpoint

    run_dir = os.path.join(ROOT, ".bench_runs",
                           f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    children = Children(os.path.join(run_dir, "children.log"),
                        time.monotonic() + DEADLINE_S)
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    wl = workloads.get(args.workload, args.seed)
    speeds = []
    steal0 = steal_ticks()
    workdir, setup_s, setup_raw, faults = setup(wl, args, run_dir, children, worker, speeds)

    os.chdir(workdir)
    state = {"load_checkpoint": load_checkpoint}
    round_s, raw_round_s, op_s, totals, absent = [], [], [], [], set()
    attempted = failed = peak_kb = 0
    cpu = proc_wall = 0.0
    began = time.perf_counter()
    while True:
        scaled = raw = 0.0
        for k, op in enumerate(wl.ops):
            out = os.path.join(run_dir, f"op{len(op_s)}.json")
            wall, rc, usage = children.run(
                worker + ["op", "--workload", args.workload, "--seed", str(args.seed),
                          "--index", str(k), "--trace", str(args.trace), "--out", out],
                workdir)
            if rc != 0:
                sys.exit(f"operation process failed with exit code {rc}; see {children.log}")
            res = read_json(out)
            scaled += rescale(res["op_s"], res)
            speeds.append(res["speed_mean_s"])
            raw += res["op_s"]
            op_s.append(res["op_s"])
            peak_kb = max(peak_kb, usage.ru_maxrss)
            cpu += usage.ru_utime + usage.ru_stime
            proc_wall += wall
            if args.trace:
                totals.append(res["totals"])
                absent.update(res["absent"])
            attempted += 1
            found = op.check(state, res["text"], res["rc"])
            if op.known_fault and found:
                failed += 1
            else:
                faults += [f"{op.argv[0]}: {f}" for f in found]
        round_s.append(scaled)
        raw_round_s.append(raw)
        if time.perf_counter() - began >= args.seconds and len(round_s) >= wl.min_rounds:
            break
    steal = steal_ticks() - steal0

    wall_s = statistics.median(round_s)
    firsts = op_s[::len(wl.ops)]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={len(round_s)}")
    print("raw_setup_samples_s=" + ",".join(f"{t:.4f}" for t in setup_raw))
    for label, values in (("round_s", round_s), ("raw_round_s", raw_round_s)):
        med, q1, q3 = spread(values)
        print(f"{label} median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
              f"all={','.join(f'{t:.4f}' for t in values)}")
    print(f"noise: cpu_over_wall={cpu / proc_wall:.4f} steal_ticks={steal} "
          f"speed_sample_s={statistics.median(speeds):.5f} "
          f"speed_sample_min_max={min(speeds):.5f},{max(speeds):.5f} "
          + (f"first_op_over_rest={firsts[0] / statistics.median(firsts[1:]):.3f}"
             if len(firsts) > 1 else "first_op_over_rest=n/a"))
    for fault in faults:
        print(f"FAULT: {fault}")

    if args.trace:
        for name in sorted(absent):
            print(f"absent span: {name}")
        values = per_layer(totals, len(round_s),
                           read_json(os.path.join(run_dir, "setup0.json"))["totals"])
        units = PER_LAYER
    else:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, m in metrics.items():
        print(f"{name}={m['value']:.6g} {m['unit']}")
    os.chdir(ROOT)
    shutil.rmtree(workdir)
    print(json.dumps({"correct": not faults, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
