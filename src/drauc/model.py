"""Differentiable scoring functions on the unit box.

Three small architectures map feature vectors in [0,1]^d to a score in
[0,1]:

    linear-sigmoid            f(x) = sigmoid(w.x + b)
    mlp1-tanh-sigmoid(h)      f(x) = sigmoid(v.tanh(Wx + c) + b)
    linear-identity-clamped   f(x) = clamp(w.x + b, 0, 1)

One ``forward`` pass returns the scores and a cache that the input and
parameter vector-Jacobian products read; ``score`` wraps it for callers
that need only the scores.  Gradients are hand-written (no autodiff
framework) and checked against central finite differences in the test
suite.  The tanh hidden activation is deliberate: the inner
maximization runs gradient ascent on inputs, and a smooth activation
avoids dead input gradients during that attack.

The identity-clamped architecture exists so that exact analytic test cases
are expressible (f(x) = x on [0,1] with w=1, b=0); it is not a training
default.  At an exact clamp boundary the derivative is defined as w, i.e.
the ramp branch wins, so ascent started on the boundary of the unit box is
not artificially stuck there; finite-difference checks exclude the
boundary, where no two-sided derivative exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

LINEAR_SIGMOID = "linear-sigmoid"
MLP1_TANH_SIGMOID = "mlp1-tanh-sigmoid"
LINEAR_IDENTITY_CLAMPED = "linear-identity-clamped"

_ARCH_NAMES = (LINEAR_SIGMOID, MLP1_TANH_SIGMOID, LINEAR_IDENTITY_CLAMPED)


def parse_arch(arch: str) -> tuple[str, int]:
    """Split an architecture descriptor into (name, hidden_width).

    Accepts "linear-sigmoid", "linear-identity-clamped", and
    "mlp1-tanh-sigmoid(H)" with a positive integer H.  Width is 0 for the
    linear architectures.
    """
    arch = arch.strip()
    if arch in (LINEAR_SIGMOID, LINEAR_IDENTITY_CLAMPED):
        return arch, 0
    if arch.startswith(MLP1_TANH_SIGMOID):
        rest = arch[len(MLP1_TANH_SIGMOID):]
        if rest.startswith("(") and rest.endswith(")"):
            try:
                width = int(rest[1:-1])
            except ValueError:
                raise ConfigError(f"invalid hidden width in arch {arch!r}") from None
            if width < 1:
                raise ConfigError(f"hidden width must be >= 1, got {width}")
            return MLP1_TANH_SIGMOID, width
    raise ConfigError(f"unknown architecture {arch!r}")


def format_arch(name: str, hidden_width: int) -> str:
    if name == MLP1_TANH_SIGMOID:
        return f"{name}({hidden_width})"
    return name


def param_count(arch_name: str, input_dim: int, hidden_width: int = 0) -> int:
    """Number of parameters in the flat vector for the given shape."""
    if arch_name in (LINEAR_SIGMOID, LINEAR_IDENTITY_CLAMPED):
        return input_dim + 1
    if arch_name == MLP1_TANH_SIGMOID:
        return hidden_width * input_dim + 2 * hidden_width + 1
    raise ConfigError(f"unknown architecture {arch_name!r}")


@dataclass(frozen=True, eq=False)
class ScoringModel:
    """A scorer with a flat parameter vector.

    The parameter layout is:
      linear archs:  [w (d), b]
      mlp:           [W row-major (h*d), c (h), v (h), b]
    Instances are immutable; build variants with ``dataclasses.replace``.
    """

    arch: str
    params: np.ndarray
    input_dim: int
    hidden_width: int = 0

    def __post_init__(self):
        if self.arch not in _ARCH_NAMES:
            raise ConfigError(f"unknown architecture {self.arch!r}")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        if self.arch == MLP1_TANH_SIGMOID and self.hidden_width < 1:
            raise ConfigError("mlp architecture needs hidden_width >= 1")
        expected = param_count(self.arch, self.input_dim, self.hidden_width)
        if self.params.shape != (expected,):
            raise ConfigError(
                f"params length {self.params.shape} does not match "
                f"{self.arch} with d={self.input_dim} (expected {expected})"
            )

    @property
    def arch_descriptor(self) -> str:
        return format_arch(self.arch, self.hidden_width)


def init_model(arch: str, input_dim: int, seed: int) -> ScoringModel:
    """Seeded initialization: weights uniform on [-s, s] with s = 1/sqrt(fan_in),
    biases zero.  Bitwise deterministic for fixed (arch, input_dim, seed)."""
    name, width = parse_arch(arch)
    if input_dim < 1:
        raise ConfigError("input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    if name in (LINEAR_SIGMOID, LINEAR_IDENTITY_CLAMPED):
        s = 1.0 / np.sqrt(input_dim)
        w = rng.uniform(-s, s, size=input_dim)
        params = np.concatenate([w, [0.0]])
        return ScoringModel(name, params, input_dim)
    s_in = 1.0 / np.sqrt(input_dim)
    s_hid = 1.0 / np.sqrt(width)
    w_hidden = rng.uniform(-s_in, s_in, size=(width, input_dim))
    v = rng.uniform(-s_hid, s_hid, size=width)
    params = np.concatenate([w_hidden.ravel(), np.zeros(width), v, [0.0]])
    return ScoringModel(name, params, input_dim, width)


def _sigmoid(u):
    # Clip keeps exp finite for wildly scaled parameters; sigmoid saturates
    # to 0/1 well before the clip engages.
    return 1.0 / (1.0 + np.exp(-np.clip(u, -500.0, 500.0)))


def _unpack_linear(model: ScoringModel):
    w = model.params[: model.input_dim]
    b = model.params[model.input_dim]
    return w, b


def _unpack_mlp(model: ScoringModel):
    d, h = model.input_dim, model.hidden_width
    p = model.params
    w_hidden = p[: h * d].reshape(h, d)
    c = p[h * d : h * d + h]
    v = p[h * d + h : h * d + 2 * h]
    b = p[-1]
    return w_hidden, c, v, b


def forward(model: ScoringModel, x):
    """Scores of a batch (n, d), or of one input as a row, and the cache
    (batch, tanh layer or None, derivative of the output nonlinearity)."""
    arr = np.asarray(x, dtype=float)
    batch = arr[None, :] if arr.ndim == 1 else arr
    if batch.ndim != 2 or batch.shape[1] != model.input_dim:
        raise ValueError(f"input of shape {arr.shape} does not match "
                         f"input_dim={model.input_dim}")
    if model.arch == MLP1_TANH_SIGMOID:
        w_hidden, c, v, b = _unpack_mlp(model)
        hidden = np.tanh(batch @ w_hidden.T + c)
        f = _sigmoid(hidden @ v + b)
        return f, (batch, hidden, f * (1.0 - f))
    w, b = _unpack_linear(model)
    u = batch @ w + b
    if model.arch == LINEAR_IDENTITY_CLAMPED:
        return np.clip(u, 0.0, 1.0), (batch, None, ((u >= 0.0) & (u <= 1.0)).astype(float))
    f = _sigmoid(u)
    return f, (batch, None, f * (1.0 - f))


def _pre_activation_grad(model, hidden, slope):
    """d f / d (Wx + c) for the mlp, shape (n, h)."""
    _, _, v, _ = _unpack_mlp(model)
    return slope[:, None] * v[None, :] * (1.0 - hidden**2)


def vjp_input(model: ScoringModel, cache, d_f):
    """Rows of d_f * (d f / d x), shape (n, d): the input gradient of a loss
    whose derivative with respect to each row's score is d_f."""
    _, hidden, slope = cache
    if hidden is None:
        jac = slope[:, None] * _unpack_linear(model)[0][None, :]
    else:
        jac = _pre_activation_grad(model, hidden, slope) @ _unpack_mlp(model)[0]
    return d_f[:, None] * jac


def vjp_params(model: ScoringModel, cache, d_f):
    """Rows of d_f * (d f / d params), shape (n, P), in the flat layout."""
    batch, hidden, slope = cache
    # The output layer's weights and bias, after the mlp's hidden layer.
    blocks = [slope[:, None] * (batch if hidden is None else hidden), slope[:, None]]
    if hidden is not None:
        d_pre = _pre_activation_grad(model, hidden, slope)       # (n, h)
        d_w = d_pre[:, :, None] * batch[:, None, :]             # (n, h, d)
        blocks = [d_w.reshape(batch.shape[0], -1), d_pre] + blocks
    return d_f[:, None] * np.concatenate(blocks, axis=1)


def score(model: ScoringModel, x):
    """Score an input (shape (d,)) or a batch (shape (n, d)).

    Returns a float for a single input, an array of shape (n,) for a batch.
    Output always lies in [0, 1].
    """
    f, _ = forward(model, x)
    return float(f[0]) if np.ndim(x) == 1 else f

