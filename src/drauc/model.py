"""Differentiable scoring functions on the unit box.

Three small architectures map feature vectors in [0,1]^d to a score in
[0,1]:

    linear-sigmoid            f(x) = sigmoid(w.x + b)
    mlp1-tanh-sigmoid(h)      f(x) = sigmoid(v.tanh(Wx + c) + b)
    linear-identity-clamped   f(x) = clamp(w.x + b, 0, 1)

``forward`` returns the scores and a cache that the input and parameter
vector-Jacobian products read; ``score`` returns only the scores.  A
model's views of its parameter vector (``W``, ``WT``, ``c``, ``v`` and the
bias ``b``) are made when it is built, so an in-place edit of ``params``
shows in the next pass.

A model's ``params`` may carry leading run axes, (..., P), and so may a
batch, (..., n, d); the two broadcast as ``np.matmul`` broadcasts them, so
R stacked models may score one batch, one model R batches, or R models R
batches, and the scores come out (..., n).  Every run's outputs are bitwise
those of its own unstacked call (``_Passes``).  A row's score can still
change in the last bit with the other rows of its batch; a caller that
needs one input's exact score stacks it as its own n = 1 batch.

Gradients are hand-written and checked against central finite differences
in the test suite.  The tanh is smooth, so the inner ascent on inputs meets
no dead input gradients.  The identity-clamped architecture makes exact
analytic test cases (f(x) = x on [0,1] with w=1, b=0); at a clamp boundary
its derivative is w (the ramp wins), so ascent started on the box's
boundary is not stuck there, and finite-difference checks exclude the
boundary, where no two-sided derivative exists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .data import check_integer, seeded_rng
from .errors import ConfigError

MLP1_TANH_SIGMOID = "mlp1-tanh-sigmoid"
LINEAR_IDENTITY_CLAMPED = "linear-identity-clamped"
# At most nine width digits: a wider layer could not be held in memory, and
# int() refuses more than 4,300 digits without naming the arch.
_ARCH = r"linear-sigmoid|linear-identity-clamped|mlp1-tanh-sigmoid\(([0-9]{1,9})\)"
# The passes' and the ascent's literals (the box [0, 1], the sigmoid's clamp)
# as read-only 0-d float64 arrays: a cheaper ufunc operand than a Python float.
ZERO, ONE, _EXP_LO, _EXP_HI = _LITERALS = tuple(map(np.array, (0.0, 1.0, -500.0, 500.0)))
for _literal in _LITERALS:
    _literal.flags.writeable = False


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
        check_integer("input_dim", self.input_dim, 1)
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
    check_integer("input_dim", input_dim, 1)
    if not width:
        s = 1.0 / np.sqrt(input_dim)
        return np.concatenate([rng.uniform(-s, s, size=input_dim), [0.0]])
    s_in = 1.0 / np.sqrt(input_dim)
    s_hid = 1.0 / np.sqrt(width)
    w_hidden = rng.uniform(-s_in, s_in, size=(width, input_dim))
    v = rng.uniform(-s_hid, s_hid, size=width)
    return np.concatenate([w_hidden.ravel(), np.zeros(width), v, [0.0]])


def _row_major(a, out=None):
    """A row-major copy of a, for a matrix-vector product, in out if given
    (never a itself, which later passes would overwrite)."""
    if out is None:
        return np.array(a, order="C")
    np.copyto(out, a)
    return out


class _Passes:
    """A model's passes over batches of one shape, (..., n, d), bound once.

    The passes work feature-major: the tanh layer is the (h, n) array
    W @ x.T and the gradients are (d, n) and (P, n) arrays, so each
    elementwise pass runs along the batch.  Two layouts decide rounding and
    stay row-major: a product with a vector (``hidden @ v``, a linear
    scorer's ``x @ w``, and at d = 1 the input gradient's product with W),
    which BLAS rounds by its matrix's layout, runs on a row-major copy; and
    ``vjp_params`` returns row-major (n, P) rows, whose mean sums in
    sequence.  Stacked runs are slices of every product: NumPy hands
    (..., h, d) @ (..., d, n) to BLAS a slice at a time, ``np.matvec`` of the
    (..., n, h) rows with v is bitwise each slice's ``rows @ v``, and the
    outer products of v and the slope broadcast per run.

    Bound once: the parameter views in pass shape (W, WT, c as (h, 1), v, v
    as (h, 1), and b, a 0-d view of one model's bias or stacked runs'
    (..., 1) column), the (..., 1, n) row views of the slope and of d_f,
    and a buffer for each array a pass writes, which the first pass
    allocates and every later pass overwrites: ``scores`` the tanh layer,
    its row-major copy, u and f; ``output_slope`` (which ``input_grad``
    calls) the slope; ``input_grad`` v's outer product with the slope (in
    the copy's memory), d f / d (Wx + c) (over the tanh layer) and the
    gradient; ``vjp_params`` the (..., P, n) rows and their row-major copy.
    A caller that makes many passes (the ascent, the training loop) must not
    hold any of these across them; an in-place edit of ``params`` shows next.
    """

    __slots__ = ("W", "WT", "c", "v", "v_col", "b", "mlp", "clamped", "hidden", "rows",
                 "u", "f", "slope", "slope_row", "d_f", "d_f_row", "outer", "jac", "n_params",
                 "grad", "grad_rows")

    def __init__(self, model: ScoringModel):
        self.W, self.WT, self.c, self.v = model.W, model.WT, model.c[..., None], model.v
        self.b = model.b[..., 0] if model.params.ndim == 1 else model.b
        self.v_col = model.v[..., :, None]
        self.mlp = model.W.shape[-2] > 0
        self.clamped = model.arch == LINEAR_IDENTITY_CLAMPED
        self.hidden = self.rows = self.u = self.f = self.slope = self.slope_row = None
        self.d_f = self.d_f_row = self.outer = self.jac = self.grad = self.grad_rows = None
        self.n_params = model.params.shape[-1]

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
            f = self.f = np.maximum(ZERO, u, out=self.f)
            return np.minimum(f, ONE, out=f)
        # The clamp keeps exp finite for wildly scaled parameters; sigmoid
        # saturates to 0/1 well before it engages.  maximum then minimum give
        # np.clip's values, NaN and -0.0 included, without its wrapper's cost.
        f = self.f = np.maximum(_EXP_LO, u, out=self.f)
        np.minimum(f, _EXP_HI, out=f)
        np.negative(f, out=f)
        np.exp(f, out=f)
        f += ONE
        return np.divide(ONE, f, out=f)

    def forward(self, batch):
        """``forward``'s scores and cache of a float batch, in these buffers."""
        self.scores(batch.mT)
        return self.scored(batch)

    def scored(self, batch):
        """``forward`` of the batch the last pass scored, from that pass's buffers."""
        return self.f, (batch, None if self.hidden is None else self.hidden.mT,
                        self.output_slope())

    def output_slope(self):
        """d f / d u at the last scores: f * (1 - f), or for the clamp 1.0
        on its ramp, ends included, where f == u exactly, and 0.0 off it."""
        if self.slope is None:
            self.slope = np.empty_like(self.f)
            self.slope_row = self.slope[..., None, :]
        if self.clamped:
            return np.equal(self.f, self.u, out=self.slope)
        slope = np.subtract(ONE, self.f, out=self.slope)
        slope *= self.f
        return slope

    def input_grad(self, d_f):
        """d_f * (d f / d x) as a (..., d, n) array at the last pass, from
        its slope and its tanh layer (..., h, n; none for the linear archs),
        which this overwrites."""
        self.output_slope()
        if d_f is not self.d_f:  # a new d_f buffer: bind its row view
            self.d_f, self.d_f_row = d_f, d_f[..., None, :]
        if not self.mlp:
            jac = self.jac = np.multiply(self.v_col, self.slope_row, out=self.jac)
        else:
            if self.outer is None:
                self.outer = self.rows.reshape(self.hidden.shape)  # free by now
            d_pre = _pre_activation_grad(self.v_col, self.hidden, self.slope_row,
                                         self.hidden, self.outer)
            if self.WT.shape[-2] > 1:
                jac = self.jac = np.matmul(self.WT, d_pre, out=self.jac)
            else:  # d = 1: a matrix-vector product
                rows = self.rows = _row_major(d_pre.mT, self.rows)
                self.jac = np.matmul(rows, self.W, out=self.jac)
                jac = self.jac.mT
        jac *= self.d_f_row
        return jac

    def vjp_params(self, cache, d_f):
        """``vjp_params`` of a cache of this shape, in this binding's buffers."""
        batch, hidden, slope = cache
        h, d = self.W.shape[-2:]  # h = 0 for the linear archs
        *runs, n = slope.shape  # the run axes of params and batch, broadcast
        if self.grad is None:
            self.grad = np.empty((*runs, self.n_params, n))
        grad, slope_row = self.grad, slope[..., None, :]
        if hidden is not None:
            d_pre = _pre_activation_grad(self.v_col, hidden.mT, slope_row,
                                         grad[..., h * d : h * d + h, :])
            np.multiply(d_pre[..., :, None, :], batch.mT[..., None, :, :],
                        out=grad[..., : h * d, :].reshape(*runs, h, d, n))
        # The output layer's weights and bias, after the mlp's hidden layer.
        np.multiply(batch.mT if hidden is None else hidden.mT, slope_row,
                    out=grad[..., h * d + h : -1, :])
        grad[..., -1, :] = slope
        grad *= d_f[..., None, :]
        self.grad_rows = _row_major(grad.mT, self.grad_rows)
        return self.grad_rows


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
    return _Passes(model).forward(_batch(model, x))


def _pre_activation_grad(v_col, hidden, slope_row, out=None, outer=None):
    """d f / d (Wx + c) for the mlp as (..., h, n), in ``out`` if given,
    from the tanh layer hidden (..., h, n), v as a column (..., h, 1) and the
    slope as a row (..., 1, n), through their outer product, in ``outer``."""
    d_pre = np.square(hidden, out=out)
    np.subtract(ONE, d_pre, out=d_pre)
    d_pre *= np.multiply(v_col, slope_row, out=outer)
    return d_pre


def vjp_input(model: ScoringModel, cache, d_f):
    """Rows of d_f * (d f / d x), shape (..., n, d): the input gradient of
    a loss whose derivative with respect to each row's score is d_f.  A
    transposed view of (..., d, n) memory.  It reruns the cache's batch
    through the pass the attack's ascent takes."""
    passes = _Passes(model)
    passes.scores(cache[0].mT)
    return passes.input_grad(d_f).mT


def vjp_params(model: ScoringModel, cache, d_f):
    """Rows of d_f * (d f / d params), shape (..., n, P), in the flat
    layout; a row-major copy of (..., P, n) rows."""
    return _Passes(model).vjp_params(cache, d_f)


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

