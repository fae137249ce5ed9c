"""The four workloads: their inputs, commands and output checks.

Every command is a `drauc` CLI argument list.  A workload's set-up makes its
inputs from the seed; a round is the list of operations repeated while the
run lasts.  Each operation's check compares the program's output with a
computation from `checks.py` or with a property the method must have, never
with a stored copy of earlier output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import checks

ARCH = "mlp1-tanh-sigmoid(8)"
EPS = 0.5
LAMBDA0 = 1.0
# Two-blob generator: Bayes AUC is Phi(|mu_pos - mu_neg| sqrt(d) / (sigma sqrt(2)))
# = Phi(2.0) = 0.977; a trained scorer must sit well above chance (0.5).
AUC_FLOOR = 0.9
TRAIN_CSV = "train.csv"
HELDOUT_SEED = 1007           # fixed, so the scaler fault shows on every seed
HELDOUT_SRC = "heldout_src.csv"
HELDOUT = "heldout.csv"       # held-out rows spanning the training file's range
RAW_COPY = "heldout_raw.csv"  # held-out rows mapped back through the training scaler
EVAL_CKPT = "ref.ckpt"
# 0.002 lies below the unconstrained attack's realised cost (0.008 to 0.013
# on the checkpoints of seeds 1-5), so the multiplier bisection runs; 0 is
# the documented no-attack case.
BUDGETS = "0,0.002"
SIGMAS = "0,0.1"


def gen_train(seed):
    return ["gen-data", "--out", TRAIN_CSV, "--n", "2000", "--d", "2",
            "--ratio", "0.1", "--seed", str(seed)]


def train_argv(variant, iters, seed, out):
    """The reference config (d=2 and ratio 0.1 are in the training CSV)."""
    return ["train", "--data", TRAIN_CSV, "--variant", variant, "--arch", ARCH,
            "--iters-T", str(iters), "--batch", "128", "--steps-K", "10",
            "--eps", str(EPS), "--seed", str(seed), "--out", out,
            "--report", out + ".report"]


@dataclass
class Op:
    argv: list
    check: object          # (run_state, stdout_text, exit_code) -> list of faults
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    prepare: list                      # CLI commands that make the inputs
    derive: object = None              # (dir) -> None, writes derived inputs
    setup_train: list | None = None    # CLI command run once, in its own process
    ops: list = field(default_factory=list)
    min_rounds: int = 1                # rounds a run makes even past its seconds


def _in_range(ck, key, lo, hi, faults):
    if key in ck and not lo <= float(ck[key]) <= hi:
        faults.append(f"{key}={ck[key]} outside [{lo}, {hi}]")


def _check_train(variant, out):
    def check(state, text, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        faults = []
        try:
            state["load_checkpoint"](out)
        except Exception as exc:  # any failure to load is the fault reported
            faults.append(f"checkpoint does not load: {exc}")
        ck = checks.read_keyvalue(out)
        for key in ("a", "b"):
            _in_range(ck, key, 0.0, 1.0, faults)
        _in_range(ck, "alpha", -1.0, 1.0, faults)
        lam_max = float(ck["lambda_max"])
        for key in ("lam", "lam_pos", "lam_neg"):
            _in_range(ck, key, 0.0, lam_max, faults)
        labels, raw = checks.read_csv(TRAIN_CSV)
        if variant == "da":
            p = float((labels == 1).mean())
            total = p * float(ck["eps_pos"]) + (1.0 - p) * float(ck["eps_neg"])
            if abs(total - EPS) > 1e-12:
                faults.append(f"p*eps_pos + (1-p)*eps_neg = {total!r}, not {EPS}")
        else:
            if float(ck["lam"]) != LAMBDA0:
                faults.append(f"aucm multiplier moved: lam={ck['lam']}")
        if ck["scaler_min"] != ",".join(format(v, ".17g") for v in raw.min(axis=0)) \
                or ck["scaler_max"] != ",".join(format(v, ".17g") for v in raw.max(axis=0)):
            faults.append("checkpoint scaler is not the training file's range")
        own = checks.checkpoint_auc(ck, TRAIN_CSV)
        reported = float(checks.read_keyvalue(out + ".report", {"final_nominal_auc"})
                         ["final_nominal_auc"])
        if abs(reported - own) > 1e-12:
            faults.append(f"final_nominal_auc {reported!r} != pairwise count {own!r}")
        if f"final_nominal_auc={own:.6g}" not in text.splitlines():
            faults.append("printed final_nominal_auc differs from the pairwise count")
        if own < AUC_FLOOR:
            faults.append(f"training AUC {own} below {AUC_FLOOR}")
        with open(out, "rb") as fh:
            blob = fh.read()
        if state.setdefault("ckpt_bytes", blob) != blob:
            faults.append("checkpoint bytes differ between runs of one seed")
        return faults
    return check


def _parse_lines(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _eval_auc(state, csv_path):
    """Independent AUC of the set-up checkpoint on a held-out file, once a run."""
    if csv_path not in state:
        state[csv_path] = checks.checkpoint_auc(checks.read_keyvalue(EVAL_CKPT), csv_path)
    return state[csv_path]


def _check_eval_binding(state, text, rc):
    if rc != 0:
        return [f"exit code {rc}"]
    faults = []
    out = _parse_lines(text)
    own = _eval_auc(state, HELDOUT)
    if abs(float(out["nominal_auc"]) - own) > 1e-12:
        faults.append(f"nominal_auc {out['nominal_auc']} != pairwise count {own!r}")
    for key in ("corrupted_auc_0", "robust_auc_0"):
        if out.get(key) != out["nominal_auc"]:
            faults.append(f"{key}={out.get(key)} differs from nominal_auc")
    expected = [f"robust_auc_{e:g}" for e in map(float, BUDGETS.split(","))] \
        + [f"corrupted_auc_{s:g}" for s in map(float, SIGMAS.split(","))]
    for key in expected:
        if key not in out or not 0.0 <= float(out[key]) <= 1.0:
            faults.append(f"{key}={out.get(key)} missing or outside [0, 1]")
    if state.setdefault("eval_text", text) != text:
        faults.append("eval output differs between rounds")
    return faults


def _check_eval_raw(state, text, rc):
    """Evaluation must normalise by the checkpoint's training scaler."""
    if rc != 0:
        return [f"exit code {rc}"]
    own = _eval_auc(state, RAW_COPY)
    got = float(_parse_lines(text)["nominal_auc"])
    if abs(got - own) > 1e-12:
        return [f"raw-unit nominal_auc {got!r} != {own!r} under the checkpoint's scaler"]
    return []


def _check_verify(state, text, rc):
    lines = [ln for ln in text.splitlines() if ln.startswith("[")]
    faults = [ln for ln in lines if not ln.startswith("[PASS] ")]
    if rc != 0:
        faults.append(f"exit code {rc}")
    if not lines or f"{len(lines)}/{len(lines)} checks passed" not in text:
        faults.append("check summary missing or not all passed")
    return faults


def _derive_heldout(workdir):
    """Held-out copies in the training file's raw units.

    heldout.csv stretches the held-out rows onto the training file's range,
    so normalising by the file's own range and by the training scaler agree.
    heldout_raw.csv maps the held-out rows back through the training scaler,
    as raw data from the training source would arrive.
    """
    _, train_raw = checks.read_csv(os.path.join(workdir, TRAIN_CSV))
    lo, hi = train_raw.min(axis=0), train_raw.max(axis=0)
    labels, h = checks.read_csv(os.path.join(workdir, HELDOUT_SRC))
    unit = (h - h.min(axis=0)) / (h.max(axis=0) - h.min(axis=0))
    checks.write_csv(os.path.join(workdir, HELDOUT), labels, lo + unit * (hi - lo))
    checks.write_csv(os.path.join(workdir, RAW_COPY), labels, lo + h * (hi - lo))


def get(name, seed):
    if name == "train-da-ref":
        return Workload(name, [gen_train(seed)], min_rounds=2,
                        ops=[Op(train_argv("da", 2000, seed, "model.ckpt"),
                                _check_train("da", "model.ckpt"))])
    if name == "train-aucm-long":
        return Workload(name, [gen_train(seed)], min_rounds=2,
                        ops=[Op(train_argv("aucm", 10000, seed, "model.ckpt"),
                                _check_train("aucm", "model.ckpt"))])
    if name == "eval-binding":
        return Workload(
            name,
            [gen_train(seed),
             ["gen-data", "--out", HELDOUT_SRC, "--n", "20000", "--d", "2",
              "--ratio", "0.1", "--seed", str(HELDOUT_SEED)]],
            derive=_derive_heldout,
            setup_train=train_argv("da", 2000, seed, EVAL_CKPT), min_rounds=2,
            ops=[Op(["eval", "--ckpt", EVAL_CKPT, "--data", HELDOUT, "--sigmas", SIGMAS,
                     "--eps", BUDGETS, "--seed", str(seed)], _check_eval_binding),
                 Op(["eval", "--ckpt", EVAL_CKPT, "--data", RAW_COPY, "--sigmas", "",
                     "--eps", ""], _check_eval_raw, known_fault=True)])
    if name == "verify-full":
        return Workload(name, [], ops=[Op(["verify"], _check_verify)])
    raise KeyError(name)


NAMES = ["train-da-ref", "train-aucm-long", "eval-binding", "verify-full"]
