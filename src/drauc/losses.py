"""Instance-wise minimax AUC surrogate and ranking metrics.

The pairwise square-loss AUC risk over positive scores f+ and negative
scores f-,

    R = E[(1 - (f+ - f-))^2],

admits an instance-wise decomposition with auxiliary variables (a, b,
alpha).  For an imbalance ratio p in (0, 1) and a scored example (f, y):

    g(a, b, alpha; p, f, y) =
          (1-p) * (f - a)^2          if y = 1
        + p     * (f - b)^2          if y = 0
        + 2 * (1 + alpha) * (p * f * [y=0] - (1-p) * f * [y=1])
        - p * (1-p) * alpha^2

The quadratic penalty on alpha sits outside the 2*(1+alpha) factor; this
is the placement under which the closed-form saddle

    a* = mean(f+),  b* = mean(f-),  alpha* = b* - a*

is exact, and it yields the identity (enforced by the test suite)

    min_{a,b} max_alpha E[g] = p * (1-p) * (R - 1).

With scores in [0, 1], the optimizers live in a, b in [0, 1] and
alpha in [-1, 1], so those boxes are the domains enforced here.
For fixed labels g and dg/df take a per-row coefficient form
(``_FixedLabelLoss``), built once per training iteration or ascent call;
its ``value`` and ``d_f`` can write into a caller's buffers and share one
f - c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AuxParams:
    """Auxiliary saddle variables; a, b in [0, 1], alpha in [-1, 1]."""

    a: float
    b: float
    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0 and 0.0 <= self.b <= 1.0):
            raise ValueError(f"a, b must lie in [0, 1], got a={self.a}, b={self.b}")
        if not -1.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [-1, 1], got {self.alpha}")

    def __iter__(self):  # unpacks as the (a, b, alpha) triple
        return iter((self.a, self.b, self.alpha))


def _run_terms(aux, p):
    """One run's scalar terms of ``_FixedLabelLoss``, from its (a, b, alpha)
    and p, as floats: the class weights 1-p and p, a, b, -(1-p), k, c0,
    and the coefficients of dg/da, dg/db and dg/dalpha."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p_hat must lie in (0, 1), got {p}")
    a, b, alpha = aux
    return (1.0 - p, p, a, b, -(1.0 - p), 2.0 * (1.0 + alpha), p * (1.0 - p) * alpha**2,
            -2.0 * (1.0 - p), -2.0 * p, 2.0 * p * (1.0 - p) * alpha)


class _FixedLabelLoss:
    """g = w*(f - c)**2 + k*(l*f) - c0 and dg/df = 2w*(f - c) + k*l for fixed
    labels: (w, c, l) is (1-p, a, -(1-p)) on positives and (p, b, p) on
    negatives, k = 2(1+alpha) and c0 = p(1-p)alpha^2.  Picking each row's
    terms up front performs the same IEEE operations, in the same order, as
    masking both classes' terms with 0/1 and summing them.

    ``aux`` is one (a, b, alpha) triple, an AuxParams or a tuple, and ``p``
    one float; or, for R stacked runs with labels (R, n), a sequence of R
    triples and one of R floats.  Each run's scalar terms are worked out in
    floats and stacked as (R, 1) columns, so every run's arrays are bitwise
    those of its own call."""

    __slots__ = ("a", "b", "dcoefs", "pos", "w", "c", "l", "k", "c0", "_d_f_terms")

    def __init__(self, aux, p, y):
        if isinstance(p, float) or np.ndim(p) == 0:  # one run: floats
            terms = _run_terms(aux, p)
        else:  # one (R, 1) column per term
            terms = np.array([_run_terms(run, p_r) for run, p_r in zip(aux, p)]).T[..., None]
        w_pos, p, self.a, self.b, l_pos, self.k, self.c0, *self.dcoefs = terms
        self.pos = pos = np.asarray(y) == 1
        self.w = np.where(pos, w_pos, p)
        self.c = np.where(pos, self.a, self.b)
        self.l = np.where(pos, l_pos, p)
        self._d_f_terms = None

    def _value(self, f_c, lf, out=None):
        """g from f - c and l*f, which it scales by k in place."""
        g = np.square(f_c, out=out)
        g *= self.w
        lf *= self.k
        g += lf
        g -= self.c0
        return g

    def value(self, f, out=None, f_c=None, lf=None):
        """g at scores f.  Given buffers, g goes to ``out``, f - c (which
        ``d_f`` reads) to ``f_c`` and k*(l*f) to ``lf``."""
        return self._value(np.subtract(f, self.c, out=f_c), np.multiply(self.l, f, out=lf), out)

    def d_f(self, f_c, out=None):
        """dg/df from f - c, as ``value`` leaves it in ``f_c``."""
        if self._d_f_terms is None:  # 2w and k*l, once per object
            self._d_f_terms = (2.0 * self.w, self.k * self.l)
        two_w, kl = self._d_f_terms
        d_f = np.multiply(two_w, f_c, out=out)
        d_f += kl
        return d_f

    def value_and_grads(self, f):
        """(g, dg/df, dg/da, dg/db, dg/dalpha) at scores f, all from one
        f - c and one l*f.  dg/da and dg/db take f - a and f - b, whose sign
        sets that of the 0.0 on the other class's rows."""
        da, db, dalpha = self.dcoefs  # -2(1-p), -2p and 2p(1-p)alpha
        f_c, lf = f - self.c, self.l * f
        d_a = da * (f - self.a) * self.pos
        d_b = db * (f - self.b) * (~self.pos)
        # + 0.0 * f broadcasts to the input shape and turns -0.0 into 0.0.
        d_alpha = 2.0 * lf - dalpha + 0.0 * f
        return self._value(f_c, lf), self.d_f(f_c), d_a, d_b, d_alpha


def surrogate_loss(aux: AuxParams, p_hat: float, f, y):
    """Evaluate g at a scored example; f and y may be scalars or arrays.
    For R stacked runs, ``aux`` and ``p_hat`` hold one triple and one float
    per run and f and y are (R, n)."""
    val = _FixedLabelLoss(aux, p_hat, y).value(np.asarray(f, dtype=float))
    return float(val) if val.ndim == 0 else val


def surrogate_loss_grads(aux: AuxParams, p_hat: float, f, y):
    """Partials of g: (d/df, d/da, d/db, d/dalpha), shapes matching f."""
    _, *grads = _FixedLabelLoss(aux, p_hat, y).value_and_grads(np.asarray(f, dtype=float))
    if np.asarray(f).ndim == 0 and np.asarray(y).ndim == 0:
        return tuple(float(g) for g in grads)
    return tuple(grads)


def closed_form_aux(pos_scores, neg_scores) -> AuxParams:
    """Optimal (a, b, alpha) for fixed scores: class means and their gap.

    With scores in [0, 1] the result is automatically inside the domains.
    """
    pos = np.asarray(pos_scores, dtype=float)
    neg = np.asarray(neg_scores, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes must be non-empty")
    a = float(pos.mean())
    b = float(neg.mean())
    return AuxParams(a, b, b - a)


def pairwise_sq_risk(pos_scores, neg_scores) -> float:
    """Mean over all (pos, neg) pairs of (1 - (f+ - f-))^2."""
    pos = np.asarray(pos_scores, dtype=float)
    neg = np.asarray(neg_scores, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes must be non-empty")
    margins = pos[:, None] - neg[None, :]
    return float(np.mean((1.0 - margins) ** 2))


def saddle_value(scores, labels) -> float:
    """min over (a, b) / max over alpha of the empirical mean of g.

    ``scores`` in [0, 1] and binary ``labels`` are matching 1-D arrays; the
    imbalance ratio is computed from the labels.  Equals
    p*(1-p)*(pairwise_sq_risk - 1).
    """
    fs = np.asarray(scores, dtype=float)
    ys = np.asarray(labels, dtype=int)
    if fs.shape != ys.shape:
        raise ValueError(f"scores {fs.shape} and labels {ys.shape} differ in shape")
    n_pos = int((ys == 1).sum())
    n_neg = int((ys == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    p_hat = n_pos / (n_pos + n_neg)
    aux = closed_form_aux(fs[ys == 1], fs[ys == 0])
    return float(np.mean(surrogate_loss(aux, p_hat, fs, ys)))


def auc_mann_whitney(pos_scores, neg_scores, tie_policy: str = "half") -> float:
    """Fraction of (pos, neg) pairs ranked correctly.

    Ties count 1/2 under "half" and 0 under "strict".
    """
    if tie_policy not in ("half", "strict"):
        raise ValueError(f"tie_policy must be 'half' or 'strict', got {tie_policy!r}")
    pos = np.array(pos_scores, dtype=float)  # a copy, sorted in place
    pos.sort()
    neg = np.asarray(neg_scores, dtype=float)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes must be non-empty")
    n_le = pos.searchsorted(neg, side="right")  # pos <= neg_j
    wins = (pos.size - n_le).astype(float)      # pos >  neg_j
    if tie_policy == "half":
        n_lt = pos.searchsorted(neg, side="left")
        wins += 0.5 * (n_le - n_lt)
    return float(np.add.reduce(wins) / (pos.size * neg.size))
