"""Text checkpoints and run reports.

A ``Checkpoint`` holds the trained ``ScoringModel``, its ``AuxParams`` and
``DualState``, the data scaler, the seed, the iteration and a config
snapshot.  Both formats are line-oriented ``key=value`` text (UTF-8, LF).
Floats are written with 17 significant digits, which parse back to the
identical float64, so save followed by load is a bitwise identity.  Vector
fields are comma-joined.  Checkpoint keys are written in a fixed order and
config snapshot keys are sorted, so identical states produce identical
bytes.  A ``Checkpoint`` checks itself when built and saved: finite
vectors, a scaler (min, max) pair per input with min <= max, an integer
seed and an integer iteration >= 1.  Loading rebuilds it and the three
objects, so their own validation runs, and also rejects a repeated key,
an unknown variant or a multiplier key of another variant.  Saving
refuses an unknown variant or a ``DualState`` that does not fit it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import check_integer
from .errors import CheckpointError, ConfigError, DataFormatError
from .model import ScoringModel, param_count
from .losses import AuxParams
from .training import GROUP_SUFFIXES, VARIANTS, DualState

CHECKPOINT_VERSION = 1


def _dual_keys(variant: str) -> list:
    """On-disk keys of the multipliers, then the radii, of a variant's label groups."""
    if variant not in GROUP_SUFFIXES:
        raise CheckpointError(f"field 'variant' must be one of {VARIANTS}, got {variant!r}")
    return [name + s for name in ("lam", "eps") for s in GROUP_SUFFIXES[variant]]


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

    def __post_init__(self):
        """A CheckpointError naming the first field that loading would refuse."""
        for key, v in (("theta", self.model.params), ("scaler_min", self.scaler_min),
                       ("scaler_max", self.scaler_max)):
            if not np.isfinite(v).all():
                raise CheckpointError(f"field {key!r} contains a non-finite entry")
        d = (self.model.input_dim,)
        if np.shape(self.scaler_min) != d or np.shape(self.scaler_max) != d:
            raise CheckpointError("scaler length does not match input_dim")
        if (np.asarray(self.scaler_min) > self.scaler_max).any():
            raise CheckpointError("field 'scaler_min' exceeds 'scaler_max'")
        try:
            check_integer("field 'seed'", self.seed)
            check_integer("field 'iteration'", self.iteration, 1)
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None


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
    return v


def _build(what: str, make, *args, **kwargs):
    """make(*args, **kwargs), its validation errors raised as CheckpointError."""
    try:
        return make(*args, **kwargs)
    except (ConfigError, ValueError) as exc:
        raise CheckpointError(f"{what}: {exc}") from None


def save_checkpoint(ck: Checkpoint, path) -> None:
    model, aux, dual = ck.model, ck.aux, ck.dual
    ck.__post_init__()  # the fields may have changed since it was built
    keys = _dual_keys(ck.variant)
    if len(keys) != 2 * len(dual.lam) or len(dual.lam) != len(dual.eps):
        raise CheckpointError(f"field 'variant' {ck.variant!r} does not fit {len(dual.lam)} "
                              f"multipliers and {len(dual.eps)} radii")
    lines = [
        f"format_version={CHECKPOINT_VERSION}",
        f"arch={model.arch}",
        f"input_dim={model.input_dim}",
        f"theta={_fmt_vec(model.params)}",
        f"a={_fmt(aux.a)}",
        f"b={_fmt(aux.b)}",
        f"alpha={_fmt(aux.alpha)}",
        f"variant={ck.variant}",
        f"lambda_max={_fmt(dual.lambda_max)}",
    ]
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
        text = fh.read()
    try:
        entries = parse_report(text)
    except DataFormatError as exc:
        raise CheckpointError(str(exc)) from None
    fields = {key: value for key, value in entries.items() if not key.startswith("cfg.")}
    cfg = {key[4:]: value for key, value in entries.items() if key.startswith("cfg.")}

    def need(key: str, kind=str):
        if key not in fields:
            raise CheckpointError(f"missing required field {key!r}")
        try:
            return kind(fields[key])
        except ValueError:
            raise CheckpointError(f"field {key!r} is not "
                                  f"{'an integer' if kind is int else 'a number'}") from None

    version = need("format_version", int)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"format_version {version} does not match supported "
            f"version {CHECKPOINT_VERSION}")

    arch, input_dim = need("arch"), need("input_dim", int)
    _build("field 'arch'", param_count, arch, input_dim)  # an unknown arch names its field
    model = _build("field 'theta' does not fit 'arch' and 'input_dim'", ScoringModel,
                   arch, _parse_vec(need("theta"), "theta"), input_dim)
    aux = _build("auxiliaries", AuxParams,
                 need("a", float), need("b", float), need("alpha", float))
    scaler_min = _parse_vec(need("scaler_min"), "scaler_min")
    scaler_max = _parse_vec(need("scaler_max"), "scaler_max")

    variant = need("variant")
    keys = _dual_keys(variant)
    for key in (key for other in VARIANTS for key in _dual_keys(other)):
        if key in fields and key not in keys:
            raise CheckpointError(f"field {key!r} does not fit field 'variant' {variant!r}")
    values, n = [need(key, float) for key in keys], len(keys) // 2
    dual = _build("multipliers", DualState, lambda_max=need("lambda_max", float),
                  lam=tuple(values[:n]), eps=tuple(values[n:]))

    return Checkpoint(model=model, aux=aux, variant=variant, dual=dual, scaler_min=scaler_min,
                      scaler_max=scaler_max, seed=need("seed", int),
                      iteration=need("iteration", int), cfg=cfg)


def write_report(fh, config: dict, metrics: dict, history=None) -> None:
    """Write the run report to the text stream ``fh``: "config.<key>" lines,
    the metrics, then from a ``History``'s columns a "history.<t>.<field>"
    line per field of iteration t, but a NaN ``mean_cost*`` (an absent
    group's); one write per iteration, so the peak does not grow with the
    history."""
    for key in sorted(config):
        fh.write(f"config.{key}={config[key]}\n")
    for key, value in metrics.items():
        fh.write(f"{key}={_fmt(value) if isinstance(value, float) else value}\n")
    if history is None:
        return
    cost = np.array([key.startswith("mean_cost") for key in history.fields])
    for start in range(0, len(history.values), 256):  # a NumPy call per block of rows
        rows = history.values[start:start + 256]
        block = rows.astype(object)  # Python floats
        block[np.isnan(rows) & cost] = None  # absent groups' mean costs
        for t, row in enumerate(zip(*block.T.tolist()), start + 1):
            prefix = f"history.{t}."  # format() below is _fmt on a float
            fh.write("".join([f"{prefix}{key}={format(v, '.17g')}\n"
                              for key, v in zip(history.fields, row) if v is not None]))
        del block  # freed before the next block is built, so one block is held at a time


def parse_report(text: str) -> dict:
    """A report's or checkpoint's key -> value; a line without '=' or a
    repeated key is a DataFormatError naming its line."""
    out, first_line = {}, {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataFormatError(f"no '=' in line {line!r}", line=lineno)
        if key in out:
            raise DataFormatError(f"key {key!r} repeats line {first_line[key]}", line=lineno)
        out[key], first_line[key] = value, lineno
    return out
