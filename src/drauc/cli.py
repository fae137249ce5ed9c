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
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint, write_report
from .data import (Dataset, check_real, gen_synthetic, load_csv, make_long_tailed, save_csv,
                   seeded_rng)
from .errors import ConfigError, DraucError
from .gradcheck import grad_check
from .losses import AuxParams, auc_mann_whitney
from .model import init_model, parse_arch, ScoringModel
from .robust import (AttackConfig, barycenter_attack, brute_force_worst_case, evaluate,
                     min_cost_flip_search)
from .training import VARIANTS, TrainConfig, train
from .verification import run_all

_VARIANT_ALIASES = {"aucm": "aucm-baseline"}

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
_SYNTHETIC = ("n", "d", "mu_pos", "mu_neg", "sigma", "seed")  # gen_synthetic's settings
GEN_DATA_KNOBS = {**{key: TRAIN_KNOBS[key] for key in (*_SYNTHETIC, "ratio")},
                  "out": (str, "data.csv")}
_HELP = {"data": "training CSV; omit for synthetic"}


def _read_config_file(path):
    """A --config file's settings, key -> (value, line number)."""
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in cfg:
                raise ConfigError(f"{path}: line {lineno}: key {key!r} repeats "
                                  f"line {cfg[key][1]}")
            cfg[key] = (value, lineno)
    return cfg


def _parse(kind, text, source):
    """text as a ``kind``, or a ConfigError naming its ``source``."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{source}: expected {kind.__name__}, got {text!r}") from None


def _resolve(args, knobs):
    """(settings, sources): each knob's value and its flag, file line, variable or None."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    for key, (_, lineno) in file_cfg.items():
        if key not in knobs:
            raise ConfigError(f"{args.config}: line {lineno}: unknown key {key!r}")
    out, sources = {}, {}
    for key, (kind, default) in knobs.items():
        value, source = getattr(args, key), "--" + key.replace("_", "-")
        if value is None and key in file_cfg:
            text, lineno = file_cfg[key]
            source = f"{args.config}: line {lineno}: {key}"
            value = _parse(kind, text, source)
        if value is None and key == "seed" and os.environ.get("DRAUC_SEED"):
            source = "environment variable DRAUC_SEED"
            value = _parse(int, os.environ["DRAUC_SEED"], source)
        out[key], sources[key] = (default, None) if value is None else (value, source)
    return out, sources


def _float_list(text: str, source: str, name: str):
    """The comma-separated values of ``text``, each a finite ``name`` >= 0,
    or a ConfigError naming the setting ``source``."""
    values = [_parse(float, p, source) for p in text.split(",") if p.strip() != ""]
    try:
        for value in values:
            check_real(name, value, 0)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return values


def _emit(lines, out_path=None):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ----------------------------------------------------------- subcommands

def _cmd_gen_data(resolved, _) -> int:
    ds = gen_synthetic(**{key: resolved[key] for key in _SYNTHETIC})
    if resolved["ratio"] is not None:
        ds = make_long_tailed(ds, resolved["ratio"], resolved["seed"])
    save_csv(ds, resolved["out"])
    print(f"wrote {resolved['out']}: n={ds.n} d={ds.d} p_hat={ds.p_hat:.6g}")
    return 0


def _cmd_train(resolved, sources) -> int:
    cfg = TrainConfig(**{f.name: resolved[_RENAMED.get(f.name, f.name)]
                         for f in fields(TrainConfig) if f.name != "variant"},
                      variant=_VARIANT_ALIASES.get(resolved["variant"], resolved["variant"]))
    parse_arch(resolved["arch"])  # an unknown arch fails before the data is made
    sigmas = _float_list(resolved["report_sigmas"], sources["report_sigmas"], "sigma")
    radii = _float_list(resolved["report_eps"], sources["report_eps"], "eps")
    started = time.perf_counter()
    if resolved["data"]:
        dataset = load_csv(resolved["data"])
    else:
        dataset = gen_synthetic(**{key: resolved[key] for key in _SYNTHETIC})
    if resolved["ratio"] is not None:
        dataset = make_long_tailed(dataset, resolved["ratio"], resolved["seed"])
    state = train(dataset, cfg, init_model(resolved["arch"], dataset.d, resolved["seed"]))

    save_checkpoint(Checkpoint(
        model=state.model, aux=state.aux, variant=cfg.variant, dual=state.dual,
        scaler_min=dataset.scaler_min, scaler_max=dataset.scaler_max,
        seed=resolved["seed"], iteration=cfg.iters,
        cfg={k: str(v) for k, v in sorted(resolved.items())
             if k not in ("out", "report", "data")},
    ), resolved["out"])

    metrics = {"final_" + key if key == "nominal_auc" else key: value
               for key, value in evaluate(state.model, state.aux, dataset, sigmas=sigmas,
                                          eps=radii, seed=resolved["seed"]).items()}
    metrics["wall_clock_seconds"] = time.perf_counter() - started

    report_path = resolved["report"] or resolved["out"] + ".report"
    config_snapshot = {k: v for k, v in resolved.items() if v is not None}
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        write_report(fh, config_snapshot, metrics, state.history)
    print(f"checkpoint={resolved['out']}")
    print(f"report={report_path}")
    for key, value in metrics.items():
        print(f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}")
    return 0


def _cmd_eval(args) -> int:
    seeded_rng(args.seed)  # a bad seed fails before either file is read
    sigmas = _float_list(args.sigmas, "--sigmas", "sigma")
    radii = _float_list(args.eps, "--eps", "eps")
    attack = AttackConfig(steps=args.attack_steps, step_size=args.attack_step_size)
    ck = load_checkpoint(args.ckpt)
    dataset = load_csv(args.data, (ck.scaler_min, ck.scaler_max))
    metrics = evaluate(ck.model, ck.aux, dataset, sigmas=sigmas, eps=radii, attack=attack,
                       seed=args.seed)
    _emit([f"clipped_values={dataset.clipped}"]
          + [f"{key}={value:.17g}" for key, value in metrics.items()], args.out)
    return 0


def _cmd_attack_oracle(args) -> int:
    lines = []
    if args.preset == "two-point":
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
                raise ConfigError("custom instance needs --x-pos, --x-neg, --n-pos, --n-neg")
            x_pos, x_neg, n_pos, n_neg = args.x_pos, args.x_neg, args.n_pos, args.n_neg
        atk = barycenter_attack(x_pos, x_neg, n_pos, n_neg)
        min_cost, t_pos, t_neg = min_cost_flip_search(x_pos, x_neg, n_pos, n_neg, args.grid)
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
    print(f"checked={rep.checked}")
    print(f"max_rel_err={rep.max_rel_err:.6g}")
    print(f"tol={rep.tol:g}")
    print(f"worst={rep.worst}")
    print(f"passed={rep.passed}")
    return 0 if rep.passed else 1


# ----------------------------------------------------------------- parser

def _add_knobs(p, knobs):
    """One flag per knob (config key with dashes), plus --config."""
    for key, (kind, _) in knobs.items():
        choices = sorted([*VARIANTS, *_VARIANT_ALIASES]) if key == "variant" else None
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                       choices=choices, default=None, help=_HELP.get(key))
    p.add_argument("--config", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drauc",
        description="Distributionally robust AUC training and verification.")
    parser.add_argument("--version", action="version", version=__version__)
    # knobs: the settings _resolve reads.  renamed: library name -> setting,
    # for the settings whose checks name them otherwise than their flags.
    parser.set_defaults(knobs=None, renamed={})
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic CSV dataset")
    _add_knobs(p, GEN_DATA_KNOBS)
    p.set_defaults(handler=_cmd_gen_data, knobs=GEN_DATA_KNOBS)

    p = sub.add_parser("train", help="train a variant, write checkpoint and report")
    _add_knobs(p, TRAIN_KNOBS)
    p.set_defaults(handler=_cmd_train, knobs=TRAIN_KNOBS, renamed=_RENAMED)

    p = sub.add_parser("eval", help="score a CSV with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sigmas", default="0.1,0.2")
    p.add_argument("--eps", default="0.05,0.1")
    p.add_argument("--attack-steps", type=int, default=AttackConfig.steps)
    p.add_argument("--attack-step-size", type=float, default=AttackConfig.step_size)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_eval,
                   renamed={"steps": "attack_steps", "step_size": "attack_step_size"})

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
    p.set_defaults(handler=_cmd_attack_oracle, renamed={"grid_resolution": "grid"})

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
    sources = {}  # _resolve's own errors name their sources
    try:
        if args.knobs is None:
            sources = {key: "--" + key.replace("_", "-") for key in vars(args)}
            return args.handler(args)
        settings, sources = _resolve(args, args.knobs)
        return args.handler(settings, sources)
    except (DraucError, OSError, ValueError) as exc:
        # A library check's message starts with the name of the setting it
        # refuses: name that setting's flag, config file and line, or variable.
        name = str(exc).split(" ", 1)[0]
        source = sources.get(args.renamed.get(name, name))
        print(f"error: {source}: {exc}" if source else f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
