"""Golden outputs: the files a byte-identity claim compares, and their digests.

    python3 scripts/golden.py [--set full|reduced] [--out DIR] [--write]

Runs the `drauc` CLI in process, in DIR (default: a temporary directory),
and writes every output of the chosen set there.  It then compares each
file's SHA-256 digest with the manifest, `tests/golden.json`, prints each
file that differs, is missing or is new, and exits non-zero if any does or
if this platform is not the manifest's.  With --write it records this
platform and the set's digests in the manifest instead.  A change that
alters outputs on purpose rewrites the manifest and lists each changed
file, and why; no other change touches it.

The full set (about 6 s on a 2-core x86-64 VM):
  * `gen-data` CSVs and stdout, n 2000, d 2, ratio 0.1, seeds 1 and 7;
  * `train` checkpoints, reports and stdout on the reference config (mlp
    with 8 tanh units, B 128, K 10, eps 0.5): `da` on seeds 1 and 7 and
    `aucm` at T 10,000 on seed 1; `da` and `df` on the binding config (eps
    0.002, eta_lambda 10, seed 7); and the seven-row one-negative
    `linear-sigmoid` `da` run (B 3, K 3, T 300, eps 0.1, seed 32) at
    eta_z 0 and 0.05;
  * `eval` of the seed-1 `da` checkpoint on the seed-7 CSV at the binding
    settings (sigmas 0,0.1, eps 0,0.002, seed 1), at its defaults, and
    with empty lists; `attack-oracle`'s example1 and two-point presets;
  * `verify`'s lines.
The reduced set (about 1 s; `tests/test_golden.py` regenerates it) runs the
same code paths at n 300 (166 rows after the ratio), B 32 and short T: the
attack off (`aucm`); the reference `da` config, where every row's best
ascent iterate is its last; the binding `da` config from lambda0 12, where
in some iterations it is not; the seven-row runs; three such binding runs
trained as one stack; and `eval` at a budget that binds there.

Train stdout and reports drop their `wall_clock_seconds` line and verify
lines their times; every other byte counts.  Bits depend on the platform:
libm's `pow` (the loss's alpha**2), the BLAS kernel's row blocking, and
NumPy's SIMD loops (exp, tanh).  So the manifest records Python, NumPy,
the machine, libc, the BLAS build and the kernel it picked, and NumPy's
SIMD extensions; digests from another platform are not comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from drauc import Dataset, TrainConfig, init_model, load_csv, save_csv, train_stacked  # noqa: E402
from drauc.cli import run_command  # noqa: E402

MANIFEST = os.path.join(ROOT, "tests", "golden.json")
REF = ["--arch", "mlp1-tanh-sigmoid(8)", "--batch", "128", "--steps-K", "10"]
BINDING = ["--eps", "0.002", "--eta-lambda", "10"]
EVAL_BINDING = ["--sigmas", "0,0.1", "--eps", "0,0.002", "--seed", "1"]
# The seven-row one-negative runs: a batch of three often lacks the negative.
FEW = ["--variant", "da", "--arch", "linear-sigmoid", "--batch", "3", "--steps-K", "3",
       "--iters-T", "300", "--eps", "0.1", "--seed", "32"]


def platform_info():
    """What the bits depend on, beyond the code."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "libc": " ".join(platform.libc_ver()),
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_core": _blas_core(),
            "simd": " ".join(config["SIMD Extensions"]["found"])}


def _blas_core():
    """The kernel a dynamic-arch OpenBLAS picked for this CPU, or "unknown"."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return "unknown"


def _run(argv, stdout_name=None):
    """Run one CLI command; keep its stdout in ``stdout_name`` if given."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(argv)
    if code != 0:
        raise RuntimeError(f"drauc {' '.join(argv)} exited with {code}")
    if stdout_name:
        _write(stdout_name, buf.getvalue())


def _write(name, text):
    with open(name, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _drop_wall_clock(name):
    with open(name, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    _write(name, "".join(ln for ln in lines if not ln.startswith("wall_clock_seconds=")))


def _train(name, data, args):
    """A `train` run's checkpoint, report and stdout, without their wall times."""
    _run(["train", "--data", data, *args, "--out", name + ".ckpt"], name + ".stdout")
    _drop_wall_clock(name + ".stdout")
    _drop_wall_clock(name + ".ckpt.report")


def _gen(name, n, seed):
    _run(["gen-data", "--out", name, "--n", str(n), "--d", "2", "--ratio", "0.1",
          "--seed", str(seed)], name + ".stdout")


def _few_rows():
    feats = np.random.default_rng(21).uniform(0, 1, size=(7, 2))
    save_csv(Dataset.from_arrays(feats, np.array([1, 1, 0, 1, 1, 1, 1])), "few.csv")


def _stacked(name, data, iters):
    """Three binding `da` runs (seeds 7-9, lambda0 12) trained as one stack:
    each run's parameters, aux, multipliers and history as hex bytes."""
    ds = load_csv(data)
    runs = [(ds, TrainConfig(variant="da", iters=iters, batch_size=32, eps=0.002,
                             eta_lambda=10.0, lambda0=12.0, seed=seed),
             init_model("mlp1-tanh-sigmoid(8)", 2, seed)) for seed in (7, 8, 9)]
    lines = []
    for r, state in enumerate(train_stacked(runs)):
        arrays = {"params": state.model.params, "aux": np.array(tuple(state.aux)),
                  "lam": np.array(state.dual.lam), "history": state.history.values}
        lines += [f"run{r}.{key}={a.tobytes().hex()}" for key, a in arrays.items()]
    _write(name, "\n".join(lines) + "\n")


def write_full():
    for seed in (1, 7):
        _gen(f"train_{seed}.csv", 2000, seed)
    for seed in (1, 7):
        _train(f"ref_da_{seed}", f"train_{seed}.csv",
               ["--variant", "da", *REF, "--iters-T", "2000", "--eps", "0.5",
                "--seed", str(seed)])
    _train("ref_aucm_1", "train_1.csv",
           ["--variant", "aucm", *REF, "--iters-T", "10000", "--eps", "0.5", "--seed", "1"])
    for variant in ("da", "df"):
        _train(f"binding_{variant}_7", "train_7.csv",
               ["--variant", variant, *REF, "--iters-T", "2000", *BINDING, "--seed", "7"])
    _few_rows()
    for eta_z in ("0", "0.05"):
        _train(f"few_da_eta_z_{eta_z}", "few.csv", [*FEW, "--eta-z", eta_z])
    ck = ["eval", "--ckpt", "ref_da_1.ckpt", "--data", "train_7.csv"]
    _run([*ck, *EVAL_BINDING], "eval_binding.stdout")
    _run(ck, "eval_defaults.stdout")
    _run([*ck, "--sigmas", "", "--eps", ""], "eval_empty.stdout")
    for preset in ("example1", "two-point"):
        _run(["attack-oracle", "--preset", preset], f"oracle_{preset}.stdout")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run_command(["verify"])  # a failed check shows in its line's digest
    _write("verify.stdout", re.sub(r" \([0-9.]+ s\)$", "", buf.getvalue(), flags=re.M))


def write_reduced():
    # At n 300 the unpenalized attack costs under 0.002; 0.0002 binds.
    _gen("train.csv", 300, 1)
    small = ["--arch", "mlp1-tanh-sigmoid(8)", "--batch", "32", "--steps-K", "10",
             "--seed", "1", "--report-eps", "0.0002"]
    _train("aucm", "train.csv", ["--variant", "aucm", *small, "--iters-T", "1000"])
    _train("ref_da", "train.csv", ["--variant", "da", *small, "--iters-T", "600",
                                   "--eps", "0.5"])
    # From lambda0 12 (2 * eta_z * lam > 1) the ascent oscillates, and in 232 of
    # the 600 iterations some row's best iterate is not its last.
    _train("binding_da", "train.csv", ["--variant", "da", *small, "--iters-T", "600",
                                       *BINDING, "--lambda0", "12"])
    _few_rows()
    for eta_z in ("0", "0.05"):
        _train(f"few_da_eta_z_{eta_z}", "few.csv", [*FEW, "--eta-z", eta_z])
    _stacked("stacked_da.txt", "train.csv", 300)
    _run(["eval", "--ckpt", "ref_da.ckpt", "--data", "train.csv", "--sigmas", "0,0.1",
          "--eps", "0,0.0002", "--seed", "1"], "eval_binding.stdout")


SETS = {"full": write_full, "reduced": write_reduced}


def digests(name, directory):
    """Write set ``name`` in ``directory``; each file's SHA-256, by file name."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        SETS[name]()
        out = {}
        for path in sorted(os.listdir(".")):
            with open(path, "rb") as fh:
                out[path] = hashlib.sha256(fh.read()).hexdigest()
        return out
    finally:
        os.chdir(cwd)


def compare(manifest, name, got):
    """Each difference from the manifest, as a line: the platform's first."""
    here = platform_info()
    faults = [f"platform {key}: manifest {want!r}, here {here.get(key)!r}"
              for key, want in manifest["platform"].items() if here.get(key) != want]
    want = manifest[name]
    faults += [f"{path}: missing" for path in sorted(set(want) - set(got))]
    faults += [f"{path}: not in the manifest" for path in sorted(set(got) - set(want))]
    faults += [f"{path}: digest {got[path]} differs from {want[path]}"
               for path in sorted(set(want) & set(got)) if got[path] != want[path]]
    return faults


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", choices=sorted(SETS), default="full")
    parser.add_argument("--out", default=None,
                        help="keep the outputs in this new or empty directory")
    parser.add_argument("--write", action="store_true",
                        help="record this platform and the set's digests")
    args = parser.parse_args()
    with contextlib.ExitStack() as stack:
        directory = args.out or stack.enter_context(tempfile.TemporaryDirectory())
        os.makedirs(directory, exist_ok=True)
        got = digests(args.set, directory)
    manifest = {"platform": {}}
    if os.path.exists(MANIFEST):
        with open(MANIFEST, encoding="utf-8") as fh:
            manifest = json.load(fh)
    if args.write:
        if manifest["platform"] != platform_info():  # no other set's digests hold here
            manifest = {"platform": platform_info()}
        manifest[args.set] = got
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(got)} digests of the {args.set} set to {MANIFEST}")
        return
    faults = compare(manifest, args.set, got)
    for line in faults:
        print(line)
    print(f"{len(got)} files, {len(faults)} differences from the manifest")
    sys.exit(1 if faults else 0)


if __name__ == "__main__":
    main()
