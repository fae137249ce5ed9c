"""Differentiable scoring functions on the unit box.

Three small architectures map feature vectors in [0,1]^d to a score in
[0,1]:

    linear-sigmoid            f(x) = sigmoid(w.x + b)
    mlp1-tanh-sigmoid(h)      f(x) = sigmoid(v.tanh(Wx + c) + b)
    linear-identity-clamped   f(x) = clamp(w.x + b, 0, 1)

One ``forward`` pass returns the scores and a cache that the input and
parameter vector-Jacobian products read; ``score`` runs the same pass
without the cache's slope, for callers that need only the scores.  A
model unpacks its parameter vector once, when it is built, into views that
these functions read (``W``, ``WT``, ``c``, ``v`` and the bias ``b``), so
an in-place edit of ``params`` is seen by the next pass.

These functions also take many models, or many batches, in one call.  A
model's ``params`` may carry leading run axes, (..., P), and so may a
batch, (..., n, d); the two sets of leading axes broadcast as
``np.matmul`` broadcasts them, so R stacked models may score one shared
batch, one model R stacked batches, or R models R batches, and the scores
come out (..., n).  A call without run axes is the single-model call.
Every run's outputs are bitwise those of its own unstacked call (see
``_Passes`` for the layout that makes them so).  A row's score can still
change in the last bit with the other rows of its batch; a caller that
needs one input's exact score stacks it as its own n = 1 batch.

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

import re
from dataclasses import dataclass

import numpy as np

from .data import seeded_rng
from .errors import ConfigError

MLP1_TANH_SIGMOID = "mlp1-tanh-sigmoid"
LINEAR_IDENTITY_CLAMPED = "linear-identity-clamped"
# At most nine width digits: a wider layer could not be held in memory, and
# int() refuses more than 4,300 digits without naming the arch.
_ARCH = r"linear-sigmoid|linear-identity-clamped|mlp1-tanh-sigmoid\(([0-9]{1,9})\)"


def parse_arch(arch: str) -> tuple[str, int]:
    """Split an architecture descriptor into (name, hidden width).

    Accepts "linear-sigmoid", "linear-identity-clamped", and
    "mlp1-tanh-sigmoid(H)" with H >= 1 in one to nine ASCII digits.  Width
    is 0 for the linear architectures.
    """
    arch = arch.strip()
    match = re.fullmatch(_ARCH, arch)
    if match is None:
        raise ConfigError(f"arch {arch!r} names an unknown architecture")
    if match[1] is None:
        return arch, 0
    width = int(match[1])
    if width < 1:
        raise ConfigError(f"arch {arch!r} needs a hidden width >= 1, got {width}")
    return MLP1_TANH_SIGMOID, width


def param_count(arch: str, input_dim: int) -> int:
    """Number of parameters in the flat vector for the given shape."""
    _, width = parse_arch(arch)
    return width * input_dim + 2 * width + 1 if width else input_dim + 1


@dataclass(frozen=True, eq=False)
class ScoringModel:
    """A scorer with a flat parameter vector, or a stack of them.

    ``arch`` is a descriptor that ``parse_arch`` reads, stored normalized
    (``" mlp1-tanh-sigmoid(08) "`` becomes ``"mlp1-tanh-sigmoid(8)"``).
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

    def __post_init__(self):
        name, h = parse_arch(self.arch)
        object.__setattr__(self, "arch", f"{name}({h})" if h else name)
        if self.input_dim < 1:
            raise ConfigError("input_dim must be >= 1")
        expected = param_count(self.arch, self.input_dim)
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
        w_hidden = p[..., : h * d].reshape(*p.shape[:-1], h, d)
        for name, view in (("W", w_hidden), ("WT", w_hidden.mT),
                           ("c", p[..., h * d : h * d + h]),
                           ("v", p[..., h * d + h : -1]), ("b", p[..., -1:])):
            object.__setattr__(self, name, view)


def init_model(arch: str, input_dim: int, seed: int) -> ScoringModel:
    """Seeded initialization: weights uniform on [-s, s] with s = 1/sqrt(fan_in),
    biases zero.  Bitwise deterministic for fixed (arch, input_dim, seed)."""
    params = _init_params(arch, input_dim, seeded_rng(seed))
    return ScoringModel(arch, params, input_dim)


def _init_params(arch: str, input_dim: int, rng: np.random.Generator):
    """``init_model``'s parameter vector for an arch descriptor, drawn from rng."""
    _, width = parse_arch(arch)
    if input_dim < 1:
        raise ConfigError("input_dim must be >= 1")
    if not width:
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
    """A model's passes over batches of one shape, (..., n, d), bound once.

    The passes work feature-major: the tanh layer is the (h, n) array
    W @ x.T and the gradients are (d, n) and (P, n) arrays, so each
    elementwise pass runs along the batch.  Two layouts decide rounding
    and stay row-major.  NumPy hands a product with a vector (``hidden @
    v``, a linear scorer's ``x @ w``, and at d = 1 the input gradient's
    product with W) to a BLAS matrix-vector kernel that rounds by its
    matrix's layout and blocks its rows, so these run on row-major copies.
    And ``vjp_params`` returns a row-major (n, P) array, on which a mean
    over rows sums in sequence.  Stacked runs are slices of every product:
    the tanh layer is (..., h, d) @ (..., d, n), which NumPy hands to BLAS
    one slice at a time, the output layer ``np.matvec`` of the (..., n, h)
    rows with v, bitwise each slice's ``rows @ v``, and the outer products
    v[..., :, None] * slope[..., None, :] broadcast per run.

    The parameter views are bound in pass shape (W, WT, c as (h, 1), v, v as
    (h, 1), b), with one buffer for every array a pass writes, which the
    first pass allocates (as its ufunc's ``out``, first None) and every
    later pass overwrites: ``scores`` the tanh layer (h, n), its row-major
    copy, u and f; ``output_slope`` the slope; ``input_grad`` the outer
    product of v and the slope (h, n), in the row-major copy's memory,
    d f / d (Wx + c) over the tanh layer, and the (d, n) gradient.  So a
    caller that makes many passes, as the inner ascent does, must not hold
    f, the slope, the tanh layer or the gradient across them.
    """

    __slots__ = ("W", "WT", "c", "v", "v_col", "b", "mlp", "clamped", "hidden", "rows",
                 "u", "f", "slope", "outer", "jac")

    def __init__(self, model: ScoringModel):
        self.W, self.WT, self.c, self.v, self.b = (model.W, model.WT, model.c[..., None],
                                                   model.v, model.b)
        self.v_col = model.v[..., :, None]
        self.mlp = model.W.shape[-2] > 0
        self.clamped = model.arch == LINEAR_IDENTITY_CLAMPED
        self.hidden = self.rows = self.u = self.f = self.slope = self.outer = self.jac = None

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

    def input_grad(self, d_f, slope):
        """d_f * (d f / d x) as a (..., d, n) array, from the last pass's
        slope and tanh layer (..., h, n; none for the linear archs), which
        this overwrites."""
        if not self.mlp:
            jac = self.jac = np.multiply(self.v_col, slope[..., None, :], out=self.jac)
        else:
            if self.outer is None:
                self.outer = self.rows.reshape(self.hidden.shape)  # free by now
            d_pre = _pre_activation_grad(self.v_col, self.hidden, slope, self.hidden, self.outer)
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
    transposed view of (..., d, n) memory.  It reruns the cache's batch
    through the pass the attack's ascent takes."""
    passes = _Passes(model)
    passes.scores(cache[0].mT)
    return passes.input_grad(d_f, passes.output_slope()).mT


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

