"""Independent computations that the benchmark checks the program against.

Nothing here imports drauc: the forward pass, the pairwise AUC count, the
CSV and checkpoint readers are written from the documented formats, so a
fault in the program's own versions cannot hide itself.
"""

from __future__ import annotations

import numpy as np


def read_csv(path):
    """(labels, features) of a `y,x1,...,xd` CSV, in the file's own units."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0].astype(int), table[:, 1:]


def write_csv(path, labels, features):
    header = "y," + ",".join(f"x{j}" for j in range(1, features.shape[1] + 1))
    rows = [header]
    for label, feat in zip(labels, features):
        rows.append(f"{int(label)}," + ",".join(format(v, ".17g") for v in feat))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")


def read_keyvalue(path, wanted=None):
    """`key=value` lines of a checkpoint or report; only `wanted` keys if given."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition("=")
            if sep and (wanted is None or key in wanted):
                out[key] = value
    return out


def apply_scaler(features, scaler_min, scaler_max):
    """Training-scaler normalisation: (x - min) / (max - min), clipped to
    [0, 1]; a constant training column maps to 0.5."""
    span = scaler_max - scaler_min
    const = span == 0.0
    out = np.empty_like(features)
    out[:, const] = 0.5
    out[:, ~const] = (features[:, ~const] - scaler_min[~const]) / span[~const]
    return np.clip(out, 0.0, 1.0)


def mlp_scores(ck, features):
    """sigmoid(v . tanh(W x + c) + b) from a parsed checkpoint's theta."""
    arch = ck["arch"]
    if not (arch.startswith("mlp1-tanh-sigmoid(") and arch.endswith(")")):
        raise ValueError(f"independent forward pass covers the MLP only, got {arch}")
    h = int(arch[len("mlp1-tanh-sigmoid("):-1])
    d = int(ck["input_dim"])
    theta = np.array([float(t) for t in ck["theta"].split(",")])
    w = theta[: h * d].reshape(h, d)
    c = theta[h * d: h * d + h]
    v = theta[h * d + h: h * d + 2 * h]
    b = theta[-1]
    return 1.0 / (1.0 + np.exp(-(np.tanh(features @ w.T + c) @ v + b)))


def pairwise_auc(scores, labels):
    """Share of (positive, negative) pairs ranked correctly, ties 1/2,
    counted pair by pair in blocks."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = ties = 0
    for i in range(0, pos.size, 256):
        block = pos[i:i + 256, None]
        wins += int((block > neg[None, :]).sum())
        ties += int((block == neg[None, :]).sum())
    return (2 * wins + ties) / (2 * pos.size * neg.size)


def checkpoint_auc(ck, csv_path):
    """AUC of the checkpoint on a CSV read in raw units and normalised by the
    checkpoint's own training scaler."""
    labels, raw = read_csv(csv_path)
    smin = np.array([float(t) for t in ck["scaler_min"].split(",")])
    smax = np.array([float(t) for t in ck["scaler_max"].split(",")])
    return pairwise_auc(mlp_scores(ck, apply_scaler(raw, smin, smax)), labels)
