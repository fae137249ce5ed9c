"""Differentiable scoring functions on the unit box.

Three small architectures map feature vectors in [0,1]^d to a score in
[0,1]:

    linear-sigmoid            f(x) = sigmoid(w.x + b)
    mlp1-tanh-sigmoid(h)      f(x) = sigmoid(v.tanh(Wx + c) + b)
    linear-identity-clamped   f(x) = clamp(w.x + b, 0, 1)

One ``forward`` pass returns the scores and a cache that the input and
parameter vector-Jacobian products read; ``score`` runs the same pass
without the cache's slope, for callers that need only the scores.  A model unpacks its parameter vector once,
when it is built, into views that these functions read (``W``, ``WT``,
``c``, ``v`` and the bias ``b``), so an in-place edit of ``params`` is
seen by the next pass.

``forward`` and ``score`` also take many models, or many batches, in one
pass.  A model's ``params`` may carry leading run axes, (..., P), and so
may a batch, (..., n, d); the two sets of leading axes broadcast as
``np.matmul`` broadcasts them, so R stacked models may score one shared
batch, one model R stacked batches, or R models R batches, and the scores
come out (..., n).  A call without run axes is the single-model call.
Each run is its own slice of every product: the stacked tanh layer is
(..., h, d) @ (..., d, n), which NumPy hands to BLAS one slice at a time,
and the output layer is ``np.matvec`` of the (..., n, h) rows with v, which
gives bitwise the ``rows @ v`` matrix-vector product for each slice.  So
every run's scores and cache are bitwise those of its own unstacked
call.  (A row's score can still change in the last bit with the other
rows of its batch, see below; a caller that needs one input's exact
score stacks it as its own n = 1 batch.)  ``vjp_input`` and
``vjp_params`` read a stacked cache the same way: their outer products
are v[..., :, None] * slope[..., None, :], and the input gradient's
product with W is a stacked ``np.matmul``, so each run's rows are bitwise
those of its own call.

The passes work feature-major: the tanh layer is the (h, n) array
W @ x.T, and the products return (d, n) and (P, n) arrays, so each
elementwise pass runs along the batch, not along h or d.  Two layouts
decide rounding and stay row-major.  NumPy hands a product with a vector
(``hidden @ v``, a linear scorer's ``x @ w``, and at d = 1 the input
gradient's product with W) to a BLAS matrix-vector kernel that rounds by
its matrix's layout and blocks its rows, so these run on row-major
copies.  And ``vjp_params`` returns a row-major (n, P) array, on which a
mean over rows sums in sequence.  So every output is bitwise what
row-major passes give.

``forward``, ``score`` and ``vjp_input`` check their inputs, then run
the passes of a ``_Passes`` bound to the model for that one call, and
return arrays of their own.  A caller that makes many passes over
batches of one shape, as the inner ascent does, binds them once instead:
the parameter views in pass shape, and one buffer for each array a pass
writes, which the first pass allocates and every later pass overwrites.
``scores`` writes the tanh layer (h, n), its row-major copy, u and f;
``output_slope`` the slope; ``input_grad`` d f / d (Wx + c) (h, n) and
the (d, n) gradient, and it forms the outer product of v and the slope
(h, n) in the row-major copy's memory, which no later step of the pass
reads.  Such a caller must not hold f, the slope, the tanh layer or the
gradient across passes: the next pass overwrites them.

Gradients are hand-written (no autodiff framework) and checked against
central finite differences in the test suite.  The tanh hidden activation
is deliberate: the inner maximization runs gradient ascent on inputs, and
a smooth activation avoids dead input gradients during that attack.

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
    """A scorer with a flat parameter vector, or a stack of them.

    The parameter layout is:
      linear archs:  [w (d), b]
      mlp:           [W row-major (h*d), c (h), v (h), b]
    ``params`` is (P,) for one model or (..., P) for stacked runs, each
    run one row.  Instances are immutable; build variants with
    ``dataclasses.replace``, which unpacks the new parameters afresh.
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
        if self.params.shape[-1:] != (expected,):
            raise ConfigError(
                f"params length {self.params.shape} does not match "
                f"{self.arch} with d={self.input_dim} (expected {expected})"
            )
        # Views of params that every pass reads, each with the run axes in
        # front: the mlp's hidden weights W (..., h, d), WT and biases c
        # (empty for the linear archs), the output weights v (w for the
        # linear archs) and the bias b = params[..., -1:].
        d, p = self.input_dim, self.params
        h = self.hidden_width if self.arch == MLP1_TANH_SIGMOID else 0
        w_hidden = p[..., : h * d].reshape(*p.shape[:-1], h, d)
        for name, view in (("W", w_hidden), ("WT", w_hidden.mT),
                           ("c", p[..., h * d : h * d + h]),
                           ("v", p[..., h * d + h : -1]), ("b", p[..., -1:])):
            object.__setattr__(self, name, view)

    @property
    def arch_descriptor(self) -> str:
        return format_arch(self.arch, self.hidden_width)


def init_model(arch: str, input_dim: int, seed: int) -> ScoringModel:
    """Seeded initialization: weights uniform on [-s, s] with s = 1/sqrt(fan_in),
    biases zero.  Bitwise deterministic for fixed (arch, input_dim, seed)."""
    name, width = parse_arch(arch)
    if input_dim < 1:
        raise ConfigError("input_dim must be >= 1")
    params = _init_params(name, input_dim, width, np.random.default_rng(seed))
    return ScoringModel(name, params, input_dim, width)


def _init_params(name: str, input_dim: int, width: int, rng: np.random.Generator):
    """``init_model``'s parameter vector for a parsed arch, drawn from rng."""
    if name in (LINEAR_SIGMOID, LINEAR_IDENTITY_CLAMPED):
        s = 1.0 / np.sqrt(input_dim)
        return np.concatenate([rng.uniform(-s, s, size=input_dim), [0.0]])
    s_in = 1.0 / np.sqrt(input_dim)
    s_hid = 1.0 / np.sqrt(width)
    w_hidden = rng.uniform(-s_in, s_in, size=(width, input_dim))
    v = rng.uniform(-s_hid, s_hid, size=width)
    return np.concatenate([w_hidden.ravel(), np.zeros(width), v, [0.0]])


def _row_major(a, out=None):
    """A row-major copy of a, for a matrix-vector product; written to out
    if given, else to a new array (never a itself, which later passes
    would overwrite)."""
    if out is None:
        return np.array(a, order="C")
    np.copyto(out, a)
    return out


class _Passes:
    """A model's passes over batches of one shape, (..., n, d), bound once:
    the parameter views in pass shape (W, WT, c as (h, 1), v, v as (h, 1),
    b) and one buffer for every array a pass writes.  The first pass
    allocates each buffer (as its ufunc's ``out``, which starts as None)
    and every later pass writes into it (module docstring)."""

    __slots__ = ("W", "WT", "c", "v", "v_col", "b", "mlp", "clamped", "hidden", "rows",
                 "u", "f", "slope", "d_pre", "outer", "jac")

    def __init__(self, model: ScoringModel):
        self.W, self.WT, self.c, self.v, self.b = (model.W, model.WT, model.c[..., None],
                                                   model.v, model.b)
        self.v_col = model.v[..., :, None]
        self.mlp = model.arch == MLP1_TANH_SIGMOID
        self.clamped = model.arch == LINEAR_IDENTITY_CLAMPED
        self.hidden = self.rows = self.u = self.f = self.slope = None
        self.d_pre = self.outer = self.jac = None

    def scores(self, xT):
        """Scores f (..., n) of the feature-major batch xT (..., d, n)."""
        if self.mlp:
            xT = self.hidden = np.matmul(self.W, xT, out=self.hidden)
            xT += self.c
            np.tanh(xT, out=xT)
        rows = self.rows = _row_major(xT.mT, self.rows)
        u = self.u = np.matvec(rows, self.v, out=self.u)
        u += self.b
        if self.clamped:
            f = self.f = np.maximum(0.0, u, out=self.f)
            return np.minimum(f, 1.0, out=f)
        # The clamp keeps exp finite for wildly scaled parameters; sigmoid
        # saturates to 0/1 well before it engages.  np.maximum(lo, .) then
        # np.minimum(., hi) give np.clip's values, NaN and -0.0 included,
        # without its wrapper's cost.
        f = self.f = np.maximum(-500.0, u, out=self.f)
        np.minimum(f, 500.0, out=f)
        np.negative(f, out=f)
        np.exp(f, out=f)
        f += 1.0
        return np.divide(1.0, f, out=f)

    def output_slope(self):
        """d f / d u at the last scores: f * (1 - f), or for the clamp 1.0
        on its ramp, ends included, where f == u exactly, and 0.0 off it."""
        if self.clamped:
            if self.slope is None:
                self.slope = np.empty_like(self.f)
            return np.equal(self.f, self.u, out=self.slope)
        slope = self.slope = np.subtract(1.0, self.f, out=self.slope)
        slope *= self.f
        return slope

    def input_grad(self, d_f, hidden, slope):
        """d_f * (d f / d x) as a (..., d, n) array, from one pass's tanh
        layer ``hidden`` (..., h, n) (None for the linear archs) and slope."""
        if hidden is None:
            jac = self.jac = np.multiply(self.v_col, slope[..., None, :], out=self.jac)
        else:
            if self.outer is None and self.rows is not None:
                self.outer = self.rows.reshape(hidden.shape)  # free by now
            d_pre = self.d_pre = _pre_activation_grad(self.v_col, hidden, slope,
                                                      self.d_pre, self.outer)
            if self.WT.shape[-2] > 1:
                jac = self.jac = np.matmul(self.WT, d_pre, out=self.jac)
            else:  # d = 1: a matrix-vector product
                rows = self.rows = _row_major(d_pre.mT, self.rows)
                self.jac = np.matmul(rows, self.W, out=self.jac)
                jac = self.jac.mT
        jac *= d_f[..., None, :]
        return jac


def _batch(model: ScoringModel, x):
    """x as a batch (..., n, d), one input as a row."""
    arr = np.asarray(x, dtype=float)
    batch = arr[None, :] if arr.ndim == 1 else arr
    if batch.ndim < 2 or batch.shape[-1] != model.input_dim:
        raise ValueError(f"input of shape {arr.shape} does not match "
                         f"input_dim={model.input_dim}")
    runs = model.params.shape[:-1]
    if runs and runs != batch.shape[:-2]:  # run axes that do not broadcast raise
        np.broadcast_shapes(runs, batch.shape[:-2])
    return batch


def forward(model: ScoringModel, x):
    """Scores of a batch (..., n, d), or of one input as a row, and the
    cache (batch, tanh layer (..., n, h) or None, derivative of the output
    nonlinearity); the tanh layer is a transposed view of (..., h, n)
    memory.  Run axes of params and batch broadcast (module docstring)."""
    batch = _batch(model, x)
    passes = _Passes(model)
    f = passes.scores(batch.mT)
    hidden = None if passes.hidden is None else passes.hidden.mT
    return f, (batch, hidden, passes.output_slope())


def _pre_activation_grad(v_col, hidden, slope, out=None, outer=None):
    """d f / d (Wx + c) for the mlp as (..., h, n), from the tanh layer
    hidden (..., h, n) and v as a column (..., h, 1); written to ``out``,
    and the outer product of v and slope it is made from to ``outer``, if
    given."""
    d_pre = np.square(hidden, out=out)
    np.subtract(1.0, d_pre, out=d_pre)
    d_pre *= np.multiply(v_col, slope[..., None, :], out=outer)
    return d_pre


def vjp_input(model: ScoringModel, cache, d_f):
    """Rows of d_f * (d f / d x), shape (..., n, d): the input gradient of
    a loss whose derivative with respect to each row's score is d_f.  A
    transposed view of (..., d, n) memory."""
    _, hidden, slope = cache
    return _Passes(model).input_grad(d_f, None if hidden is None else hidden.mT, slope).mT


def vjp_params(model: ScoringModel, cache, d_f):
    """Rows of d_f * (d f / d params), shape (..., n, P), in the flat
    layout; a row-major copy of (..., P, n) rows."""
    batch, hidden, slope = cache
    h, d = model.W.shape[-2:]  # h = 0 for the linear archs
    *runs, n = slope.shape  # the run axes of params and batch, broadcast
    grad = np.empty((*runs, model.params.shape[-1], n))
    if hidden is not None:
        d_pre = _pre_activation_grad(model.v[..., :, None], hidden.mT, slope,
                                     grad[..., h * d : h * d + h, :])
        np.multiply(d_pre[..., :, None, :], batch.mT[..., None, :, :],
                    out=grad[..., : h * d, :].reshape(*runs, h, d, n))
    # The output layer's weights and bias, after the mlp's hidden layer.
    np.multiply(batch.mT if hidden is None else hidden.mT, slope[..., None, :],
                out=grad[..., h * d + h : -1, :])
    grad[..., -1, :] = slope
    grad *= d_f[..., None, :]
    return np.ascontiguousarray(grad.mT)


def score(model: ScoringModel, x):
    """Score an input (shape (d,)) or a batch (shape (..., n, d)).

    Returns a float for a single input to one model, an array of shape
    (...,) for one input to stacked models, and an array of shape (..., n)
    for a batch.  Output always lies in [0, 1].
    """
    batch = _batch(model, x)
    f = _Passes(model).scores(batch.mT)
    if np.ndim(x) != 1:
        return f
    f = f[..., 0]
    return float(f) if f.ndim == 0 else f

