"""One benchmark process, started by `run.py` in a run's working directory.

`prepare` writes a workload's inputs.  `op` runs one of its CLI commands
through `drauc.cli.run_command`, timed from call to return (less the time
spent sampling the host's speed), and writes the time, exit code and
printed output as JSON; `setup-train` does the same for the set-up's
training command.  Every mode samples the host's speed while it runs and
reports it.  With `--trace 1` the process also writes its spans and their
totals.  Each operation gets a fresh
process, as a command-line call does, so none inherits another's heap.
drauc is imported from the checkout's `src`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import drauc  # noqa: E402
import drauc.cli  # noqa: E402

import workloads  # noqa: E402
from hostspeed import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

if not os.path.abspath(drauc.__file__).startswith(SRC + os.sep):
    sys.exit(f"drauc imported from {drauc.__file__}, not from {SRC}")


def cli(argv):
    """Run one CLI command in this process; (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = drauc.cli.run_command(argv)
    return rc, buf.getvalue()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["prepare", "setup-train", "op"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, default=0, help="operation within the round")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="op.json")
    args = ap.parse_args()
    wl = workloads.get(args.workload, args.seed)
    sampler = Sampler()
    sampler.start()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    if args.mode == "prepare":
        for argv in wl.prepare:
            rc, text = cli(argv)
            if rc != 0:
                sys.exit(f"set-up command {argv} failed with {rc}: {text}")
        if wl.derive is not None:
            wl.derive(os.getcwd())
        result = {}
    else:
        argv = wl.setup_train if args.mode == "setup-train" else wl.ops[args.index].argv
        t0 = time.perf_counter()
        rc, text = cli(argv)
        t1 = time.perf_counter()
        result = {"op_s": t1 - t0 - sampler.paused_s(t0, t1), "rc": rc, "text": text}
    sampler.stop()
    result.update(sampler.report())
    if tracer is not None:
        tracer.save(os.path.splitext(args.out)[0] + ".spans.npz")
        result["totals"] = tracer.totals()
        result["absent"] = tracer.absent
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
