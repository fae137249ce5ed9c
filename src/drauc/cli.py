"""Command-line entry point.

Subcommands: gen-data, train, eval, attack-oracle, verify, grad-check.
Exit codes: 0 success, 1 validation failure, 2 usage or I/O error.

Settings resolve as: command-line flags, then a key=value --config file,
then built-in defaults.  The DRAUC_SEED environment variable is the
fallback seed when neither a flag nor the config file provides one.
Config keys are the flag names with dashes replaced by underscores
(eta-z -> eta_z, steps-K -> steps_K).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .checkpoint import Checkpoint, format_report, load_checkpoint, save_checkpoint
from .data import corrupt, gen_synthetic, load_csv, make_long_tailed, save_csv
from .errors import ConfigError, DraucError
from .gradcheck import grad_check
from .losses import AuxParams, auc_mann_whitney
from .model import init_model, score, ScoringModel
from .robust import (AttackConfig, barycenter_attack, brute_force_worst_case,
                     estimate_robust_auc, min_cost_flip_search)
from .training import TrainConfig, train
from .verification import run_all

_VARIANT_ALIASES = {"df": "df", "da": "da", "aucm": "aucm-baseline",
                    "aucm-baseline": "aucm-baseline"}

# Config keys (and so flags) of the TrainConfig fields whose names differ.
_RENAMED = {"iters": "iters_T", "steps": "steps_K", "batch_size": "batch", "k_split": "k"}

# Every train setting, config key -> (type, default): the TrainConfig fields,
# then the data, model and output settings.  gen-data takes a subset.
TRAIN_KNOBS = {
    **{_RENAMED.get(f.name, f.name): (type(f.default), f.default)
       for f in fields(TrainConfig)},
    "arch": (str, "mlp1-tanh-sigmoid(8)"),
    "n": (int, 2000),
    "d": (int, 2),
    "mu_pos": (float, 0.65),
    "mu_neg": (float, 0.35),
    "sigma": (float, 0.15),
    "ratio": (float, None),
    "data": (str, None),
    "out": (str, "checkpoint.txt"),
    "report": (str, None),
    "report_sigmas": (str, "0.2"),
    "report_eps": (str, "0.1"),
}
GEN_DATA_KNOBS = {**{key: TRAIN_KNOBS[key] for key in
                     ("n", "d", "mu_pos", "mu_neg", "sigma", "ratio", "seed")},
                  "out": (str, "data.csv")}
_HELP = {"data": "training CSV; omit for synthetic"}


def _read_config_file(path):
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _resolve(args, knobs):
    file_cfg = _read_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(knobs)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (kind, default) in knobs.items():
        value = getattr(args, key)
        if value is None and key in file_cfg:
            value = kind(file_cfg[key])
        if value is None and key == "seed" and os.environ.get("DRAUC_SEED"):
            value = int(os.environ["DRAUC_SEED"])
        out[key] = default if value is None else value
    return out


def _float_list(text: str):
    return [float(p) for p in text.split(",") if p.strip() != ""]


def _auc_metrics(ck: Checkpoint, dataset, nominal_key: str, sigmas: str, eps: str,
                 attack: AttackConfig, seed: int) -> dict:
    """The AUCs of `drauc train`'s report and of `drauc eval`: nominal AUC
    under ``nominal_key``, corrupted AUC per sigma, robust AUC per budget."""
    def auc(ds):
        scores = score(ck.model, ds.features)
        return auc_mann_whitney(scores[ds.labels == 1], scores[ds.labels == 0])

    metrics = {nominal_key: auc(dataset)}
    for sig in _float_list(sigmas):
        metrics[f"corrupted_auc_{sig:g}"] = auc(corrupt(dataset, sig, seed))
    for radius in _float_list(eps):
        metrics[f"robust_auc_{radius:g}"] = estimate_robust_auc(
            ck.model, dataset, radius, ck.aux, attack, lambda_max=ck.dual.lambda_max)
    return metrics


def _emit(lines, out_path=None):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ----------------------------------------------------------- subcommands

def _cmd_gen_data(args) -> int:
    resolved = _resolve(args, GEN_DATA_KNOBS)
    ds = gen_synthetic(resolved["n"], resolved["d"], resolved["mu_pos"],
                       resolved["mu_neg"], resolved["sigma"], resolved["seed"])
    if resolved["ratio"] is not None:
        ds = make_long_tailed(ds, resolved["ratio"], resolved["seed"])
    save_csv(ds, resolved["out"])
    print(f"wrote {resolved['out']}: n={ds.n} d={ds.d} p_hat={ds.p_hat:.6g}")
    return 0


def _cmd_train(args) -> int:
    resolved = _resolve(args, TRAIN_KNOBS)
    if resolved["variant"] not in _VARIANT_ALIASES:
        raise ConfigError(f"unknown variant {resolved['variant']!r}")
    cfg = TrainConfig(**{f.name: resolved[_RENAMED.get(f.name, f.name)]
                         for f in fields(TrainConfig)
                         if f.name != "variant"},
                      variant=_VARIANT_ALIASES[resolved["variant"]])
    started = time.perf_counter()
    if resolved["data"]:
        dataset = load_csv(resolved["data"])
    else:
        dataset = gen_synthetic(resolved["n"], resolved["d"], resolved["mu_pos"],
                                resolved["mu_neg"], resolved["sigma"],
                                resolved["seed"])
    if resolved["ratio"] is not None:
        dataset = make_long_tailed(dataset, resolved["ratio"], resolved["seed"])
    model = init_model(resolved["arch"], dataset.d, resolved["seed"])
    state = train(dataset, cfg, model)

    ck = Checkpoint(
        model=state.model, aux=state.aux, variant=cfg.variant, dual=state.dual,
        scaler_min=dataset.scaler_min, scaler_max=dataset.scaler_max,
        seed=resolved["seed"], iteration=state.iteration,
        cfg={k: str(v) for k, v in sorted(resolved.items())
             if k not in ("out", "report", "data")},
    )
    save_checkpoint(ck, resolved["out"])

    metrics = _auc_metrics(ck, dataset, "final_nominal_auc", resolved["report_sigmas"],
                           resolved["report_eps"],
                           AttackConfig(steps=cfg.steps, step_size=max(cfg.eta_z, 1e-3)),
                           resolved["seed"])
    metrics["wall_clock_seconds"] = time.perf_counter() - started

    report_path = resolved["report"] or resolved["out"] + ".report"
    config_snapshot = {k: v for k, v in resolved.items() if v is not None}
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_report(config_snapshot, metrics, state.history))
    print(f"checkpoint={resolved['out']}")
    print(f"report={report_path}")
    for key, value in metrics.items():
        print(f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}")
    return 0


def _cmd_eval(args) -> int:
    ck = load_checkpoint(args.ckpt)
    dataset = load_csv(args.data, (ck.scaler_min, ck.scaler_max))
    metrics = _auc_metrics(ck, dataset, "nominal_auc", args.sigmas, args.eps,
                           AttackConfig(steps=args.attack_steps,
                                        step_size=args.attack_step_size), args.seed)
    _emit([f"clipped_values={dataset.clipped}"]
          + [f"{key}={value:.17g}" for key, value in metrics.items()], args.out)
    return 0


def _cmd_attack_oracle(args) -> int:
    lines = []
    if args.preset == "two-point":
        from .data import Dataset
        ds = Dataset.from_arrays(np.array([[0.0], [1.0]]), np.array([0, 0]))
        scorer = ScoringModel("linear-identity-clamped", np.array([1.0, 0.0]), 1)
        sup, positions = brute_force_worst_case(
            ds, args.eps if args.eps is not None else 0.125, args.grid,
            AuxParams(0.0, 0.0, 0.0), 0.5, scorer)
        lines.append(f"worst_case_mean_loss={sup!r}")
        lines.append("worst_positions=" + ",".join(repr(p) for p in positions))
    else:
        if args.preset == "example1":
            x_pos, x_neg, n_pos, n_neg = 0.99, 0.01, 1, 99
        else:
            if None in (args.x_pos, args.x_neg, args.n_pos, args.n_neg):
                raise ConfigError(
                    "custom instance needs --x-pos, --x-neg, --n-pos, --n-neg")
            x_pos, x_neg, n_pos, n_neg = args.x_pos, args.x_neg, args.n_pos, args.n_neg
        atk = barycenter_attack(x_pos, x_neg, n_pos, n_neg)
        min_cost, t_pos, t_neg = min_cost_flip_search(
            x_pos, x_neg, n_pos, n_neg, args.grid)
        strict = auc_mann_whitney([atk.target] * n_pos, [atk.target] * n_neg, "strict")
        lines += [
            f"target={atk.target!r}",
            f"cost={atk.cost!r}",
            f"bound={atk.bound!r}",
            f"min_grid_cost={min_cost!r}",
            f"grid_destinations={t_pos!r},{t_neg!r}",
            f"strict_auc_after_attack={strict!r}",
        ]
        if args.preset == "example1":
            lines.append(
                "note=a commonly quoted distance for this instance, 0.009702, "
                "matches the unsquared displacement p*(1-p)*|x_pos-x_neg|; the "
                f"squared-transport cost computed here is {atk.cost:.6g}")
    _emit(lines, args.out)
    return 0


def _cmd_verify(args) -> int:
    results = run_all("quick" if args.quick else "full")
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail} ({res.seconds:.2f} s)")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_grad_check(args) -> int:
    rep = grad_check(args.arch, trials=args.trials, h=args.h, tol=args.tol,
                     input_dim=args.input_dim, seed=args.seed)
    print(f"arch={rep.arch}")
    print(f"trials={rep.trials}")
    print(f"max_rel_err={rep.max_rel_err:.6g}")
    print(f"tol={rep.tol:g}")
    print(f"worst={rep.worst}")
    print(f"passed={rep.passed}")
    return 0 if rep.passed else 1


# ----------------------------------------------------------------- parser

def _add_knobs(p, knobs):
    """One flag per knob (config key with dashes), plus --config."""
    for key, (kind, _) in knobs.items():
        choices = sorted(_VARIANT_ALIASES) if key == "variant" else None
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                       choices=choices, default=None, help=_HELP.get(key))
    p.add_argument("--config", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drauc",
        description="Distributionally robust AUC training and verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic CSV dataset")
    _add_knobs(p, GEN_DATA_KNOBS)
    p.set_defaults(handler=_cmd_gen_data)

    p = sub.add_parser("train", help="train a variant, write checkpoint and report")
    _add_knobs(p, TRAIN_KNOBS)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="score a CSV with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sigmas", default="0.1,0.2")
    p.add_argument("--eps", default="0.05,0.1")
    p.add_argument("--attack-steps", type=int, default=10)
    p.add_argument("--attack-step-size", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("attack-oracle",
                       help="closed-form and brute-force attacks on tiny instances")
    p.add_argument("--preset", choices=["example1", "two-point", "custom"],
                   default="example1")
    p.add_argument("--x-pos", type=float, default=None)
    p.add_argument("--x-neg", type=float, default=None)
    p.add_argument("--n-pos", type=int, default=None)
    p.add_argument("--n-neg", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--grid", type=int, default=1001)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_attack_oracle)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--quick", action="store_true",
                   help="smaller sample sizes, same checks")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("grad-check", help="finite-difference gradient validation")
    p.add_argument("--arch", default="mlp1-tanh-sigmoid(8)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--input-dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_grad_check)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (DraucError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
