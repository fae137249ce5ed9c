"""Text checkpoints and run reports.

A ``Checkpoint`` holds the trained ``ScoringModel``, its ``AuxParams`` and
``DualState``, the data scaler, the seed, the iteration and a config
snapshot.  Both formats are line-oriented ``key=value`` text (UTF-8, LF).
Floats are written with 17 significant digits, which parse back to the
identical float64, so save followed by load is a bitwise identity.  Vector
fields are comma-joined.  Checkpoint keys are written in a fixed order and
config snapshot keys are sorted, so identical states produce identical
bytes.  Loading rebuilds the three objects, so their own validation runs,
and also rejects non-finite vector entries and a scaler with min > max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ConfigError, DataFormatError
from .model import ScoringModel, parse_arch
from .losses import AuxParams
from .robust import GROUP_SUFFIXES, DualState

CHECKPOINT_VERSION = 1


def _dual_keys(n_groups: int) -> list:
    """On-disk keys of the multipliers, then the radii, of n_groups groups."""
    return [name + s for name in ("lam", "eps") for s in GROUP_SUFFIXES[n_groups]]


@dataclass
class Checkpoint:
    model: ScoringModel
    aux: AuxParams
    variant: str
    dual: DualState
    scaler_min: np.ndarray
    scaler_max: np.ndarray
    seed: int
    iteration: int
    cfg: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: np.ndarray) -> str:
    return ",".join(_fmt(x) for x in v)


def _parse_vec(s: str, key: str) -> np.ndarray:
    if s == "":
        return np.empty(0)
    try:
        v = np.array([float(p) for p in s.split(",")])
    except ValueError:
        raise CheckpointError(f"field {key!r} contains a non-numeric entry") from None
    if not np.isfinite(v).all():
        raise CheckpointError(f"field {key!r} contains a non-finite entry")
    return v


def _build(what: str, make, *args, **kwargs):
    """make(*args, **kwargs), its validation errors raised as CheckpointError."""
    try:
        return make(*args, **kwargs)
    except (ConfigError, ValueError) as exc:
        raise CheckpointError(f"{what}: {exc}") from None


def save_checkpoint(ck: Checkpoint, path) -> None:
    model, aux, dual = ck.model, ck.aux, ck.dual
    lines = [
        f"format_version={CHECKPOINT_VERSION}",
        f"arch={model.arch_descriptor}",
        f"input_dim={model.input_dim}",
        f"theta={_fmt_vec(model.params)}",
        f"a={_fmt(aux.a)}",
        f"b={_fmt(aux.b)}",
        f"alpha={_fmt(aux.alpha)}",
        f"variant={ck.variant}",
        f"lambda_max={_fmt(dual.lambda_max)}",
    ]
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

    name, width = _build("field 'arch'", parse_arch, need("arch"))
    input_dim = need_int("input_dim")
    model = _build("field 'theta' does not fit 'arch' and 'input_dim'", ScoringModel,
                   name, _parse_vec(need("theta"), "theta"), input_dim, width)
    aux = _build("auxiliaries", AuxParams,
                 need_float("a"), need_float("b"), need_float("alpha"))
    scaler_min = _parse_vec(need("scaler_min"), "scaler_min")
    scaler_max = _parse_vec(need("scaler_max"), "scaler_max")
    if scaler_min.size != input_dim or scaler_max.size != input_dim:
        raise CheckpointError("scaler length does not match input_dim")
    if (scaler_min > scaler_max).any():
        raise CheckpointError("field 'scaler_min' exceeds 'scaler_max'")

    # Any per-class key selects the two-group layout, which must then be
    # complete and free of single-budget keys.
    n_groups = 2 if any(key in fields for key in _dual_keys(2)) else 1
    values = [need_float(key) for key in _dual_keys(n_groups)]
    for key in _dual_keys(3 - n_groups):
        if key in fields:
            raise CheckpointError(f"field {key!r} mixes single-budget and per-class keys")
    dual = _build("multipliers", DualState, lambda_max=need_float("lambda_max"),
                  lam=tuple(values[:n_groups]), eps=tuple(values[n_groups:]))

    return Checkpoint(
        model=model,
        aux=aux,
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
