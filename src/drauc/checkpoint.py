"""Text checkpoints and run reports.

Both formats are line-oriented ``key=value`` text (UTF-8, LF).  Floats are
written with 17 significant digits, which parse back to the identical
float64, so save followed by load is a bitwise identity.  Vector fields
are comma-joined.  Checkpoint keys are written in a fixed order and config
snapshot keys are sorted, so identical states produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, DataFormatError
from .model import ScoringModel, param_count, parse_arch
from .losses import AuxParams
from .robust import GROUP_SUFFIXES, DualState

CHECKPOINT_VERSION = 1


def _dual_keys(n_groups: int) -> list:
    """On-disk keys of the multipliers, then the radii, of n_groups groups."""
    return [name + s for name in ("lam", "eps") for s in GROUP_SUFFIXES[n_groups]]


@dataclass
class Checkpoint:
    format_version: int
    arch: str                   # descriptor, e.g. "mlp1-tanh-sigmoid(8)"
    input_dim: int
    theta: np.ndarray
    a: float
    b: float
    alpha: float
    variant: str
    dual: DualState
    scaler_min: np.ndarray
    scaler_max: np.ndarray
    seed: int
    iteration: int
    cfg: dict = field(default_factory=dict)

    def model(self) -> ScoringModel:
        name, width = parse_arch(self.arch)
        return ScoringModel(name, self.theta, self.input_dim, width)

    def aux(self) -> AuxParams:
        return AuxParams(self.a, self.b, self.alpha)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: np.ndarray) -> str:
    return ",".join(_fmt(x) for x in v)


def _parse_vec(s: str, key: str) -> np.ndarray:
    if s == "":
        return np.empty(0)
    try:
        return np.array([float(p) for p in s.split(",")])
    except ValueError:
        raise CheckpointError(f"field {key!r} contains a non-numeric entry") from None


def save_checkpoint(ck: Checkpoint, path) -> None:
    lines = [
        f"format_version={ck.format_version}",
        f"arch={ck.arch}",
        f"input_dim={ck.input_dim}",
        f"theta={_fmt_vec(ck.theta)}",
        f"a={_fmt(ck.a)}",
        f"b={_fmt(ck.b)}",
        f"alpha={_fmt(ck.alpha)}",
        f"variant={ck.variant}",
        f"lambda_max={_fmt(ck.dual.lambda_max)}",
    ]
    dual = ck.dual
    keys = _dual_keys(len(dual.lam))
    lines += [f"{key}={_fmt(v)}" for key, v in zip(keys, dual.lam + dual.eps)]
    lines += [
        f"scaler_min={_fmt_vec(ck.scaler_min)}",
        f"scaler_max={_fmt_vec(ck.scaler_max)}",
        f"seed={ck.seed}",
        f"iteration={ck.iteration}",
    ]
    for key in sorted(ck.cfg):
        lines.append(f"cfg.{key}={ck.cfg[key]}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read().split("\n")
    fields: dict[str, str] = {}
    cfg: dict[str, str] = {}
    for line in raw:
        if not line:
            continue
        if "=" not in line:
            raise CheckpointError(f"malformed line {line!r}")
        key, value = line.split("=", 1)
        if key.startswith("cfg."):
            cfg[key[4:]] = value
        else:
            fields[key] = value

    def need(key: str) -> str:
        if key not in fields:
            raise CheckpointError(f"missing required field {key!r}")
        return fields[key]

    def need_int(key: str) -> int:
        try:
            return int(need(key))
        except ValueError:
            raise CheckpointError(f"field {key!r} is not an integer") from None

    def need_float(key: str) -> float:
        try:
            return float(need(key))
        except ValueError:
            raise CheckpointError(f"field {key!r} is not a number") from None

    version = need_int("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"format_version {version} does not match supported "
            f"version {CHECKPOINT_VERSION}")

    arch = need("arch")
    input_dim = need_int("input_dim")
    theta = _parse_vec(need("theta"), "theta")
    name, width = parse_arch(arch)
    expected = param_count(name, input_dim, width)
    if theta.shape != (expected,):
        raise CheckpointError(
            f"field 'theta' has length {theta.size}, expected {expected} "
            f"for {arch} with input_dim={input_dim}")
    scaler_min = _parse_vec(need("scaler_min"), "scaler_min")
    scaler_max = _parse_vec(need("scaler_max"), "scaler_max")
    if scaler_min.size != input_dim or scaler_max.size != input_dim:
        raise CheckpointError("scaler length does not match input_dim")

    # Any per-class key selects the two-group layout, which must then be
    # complete and free of single-budget keys.
    n_groups = 2 if any(key in fields for key in _dual_keys(2)) else 1
    values = [need_float(key) for key in _dual_keys(n_groups)]
    for key in _dual_keys(3 - n_groups):
        if key in fields:
            raise CheckpointError(f"field {key!r} mixes single-budget and per-class keys")
    try:
        dual = DualState(lambda_max=need_float("lambda_max"),
                         lam=tuple(values[:n_groups]), eps=tuple(values[n_groups:]))
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None

    return Checkpoint(
        format_version=version,
        arch=arch,
        input_dim=input_dim,
        theta=theta,
        a=need_float("a"),
        b=need_float("b"),
        alpha=need_float("alpha"),
        variant=need("variant"),
        dual=dual,
        scaler_min=scaler_min,
        scaler_max=scaler_max,
        seed=need_int("seed"),
        iteration=need_int("iteration"),
        cfg=cfg,
    )


def format_report(config: dict, metrics: dict, history=None) -> str:
    """Machine-readable run report: one metric=value per line.

    ``config`` keys are prefixed with "config.", history records become
    "history.<iteration>.<field>" lines.
    """
    lines = []
    for key in sorted(config):
        lines.append(f"config.{key}={config[key]}")
    for key, value in metrics.items():
        lines.append(f"{key}={_fmt(value) if isinstance(value, float) else value}")
    for rec in history or []:
        t = rec["iteration"]
        for key, value in rec.items():
            if key in ("iteration", "theta"):
                continue
            if value is None:
                continue
            v = _fmt(value) if isinstance(value, float) else value
            lines.append(f"history.{t}.{key}={v}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataFormatError(f"no '=' in report line {line!r}", line=lineno)
        out[key] = value
    return out
