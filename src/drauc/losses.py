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

With scores in [0, 1], the optimizers live in a, b in [0, 1] and alpha in
[-1, 1], the domains enforced here.  For fixed labels g and its partials
take a per-row coefficient form (``_FixedLabelLoss``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_real


@dataclass(frozen=True)
class AuxParams:
    """Auxiliary saddle variables; a, b in [0, 1], alpha in [-1, 1]."""

    a: float
    b: float
    alpha: float

    def __post_init__(self):
        for name, least in (("a", 0), ("b", 0), ("alpha", -1)):
            check_real(name, getattr(self, name), least, 1)

    def __iter__(self):  # unpacks as the (a, b, alpha) triple
        return iter((self.a, self.b, self.alpha))


def _run_terms(aux, p):
    """One run's ``_FixedLabelLoss`` floats: a, b, k, c0, dg/da, dg/db, dg/dalpha coefficients."""
    a, b, alpha = aux
    return (a, b, 2.0 * (1.0 + alpha), p * (1.0 - p) * alpha**2,
            -2.0 * (1.0 - p), -2.0 * p, 2.0 * p * (1.0 - p) * alpha)


def label_rows(p, y):
    """The rows of ``_FixedLabelLoss`` that only labels y and p (one float,
    or an (R, 1) column) set: pos = (y == 1), w, l and 2w."""
    pos = np.asarray(y) == 1
    w = np.where(pos, 1.0 - p, p)
    return pos, w, np.where(pos, -(1.0 - p), p), 2.0 * w


class _FixedLabelLoss:
    """g = w*(f - c)**2 + k*(l*f) - c0 and dg/df = 2w*(f - c) + k*l for fixed
    labels: (w, c, l) is (1-p, a, -(1-p)) on positives and (p, b, p) on
    negatives, k = 2(1+alpha) and c0 = p(1-p)alpha^2; picking each row's
    terms performs the IEEE operations, in order, of masking both classes'
    terms with 0/1 and summing them.

    ``aux`` is one (a, b, alpha) triple and ``p`` one float; or, for R
    stacked runs with labels (R, n), R triples and R floats.  A lone run's
    scalar terms are 0-d arrays, stacked runs' (R, 1) columns, so every
    run's arrays are bitwise its own call's.  Given ``rows``, which is
    ``label_rows(p, y)``, y is not read.  Bound once per stack, p checked
    once, it takes each batch's aux (in place) and label rows by ``rebind``."""

    __slots__ = ("p", "terms", "a", "b", "dcoefs", "pos", "w", "c", "l", "k", "c0", "two_w", "kl")

    def __init__(self, aux, p, y=None, rows=None):
        lone = isinstance(p, float) or np.ndim(p) == 0
        self.p = [p] if lone else list(p)
        for p_r in self.p:
            check_real("p_hat", p_r, 0, 1, strict=True)
        self.terms = np.empty((len(self.p), 7))  # one row of _run_terms per run
        columns = self.terms.T[:, 0] if lone else self.terms.T[..., None]
        self.a, self.b, self.k, self.c0, *self.dcoefs = [columns[i, ...] for i in range(7)]
        if rows is None:
            rows = label_rows(p if lone else np.array(p, dtype=np.float64)[:, None], y)
        self.rebind([aux] if lone else aux, rows)

    def rebind(self, aux, rows):
        """Take each run's (a, b, alpha) and new ``label_rows`` of the bound shape."""
        self.pos, self.w, self.l, self.two_w = rows
        self.terms[...] = [_run_terms(run, p) for run, p in zip(aux, self.p)]
        self.c = np.where(self.pos, self.a, self.b)
        self.kl = self.k * self.l

    def value(self, f, out=None, f_c=None, lf=None):
        """g at scores f.  Given buffers, g goes to ``out``, f - c (which
        ``d_f`` reads) to ``f_c`` and k*(l*f) to ``lf``."""
        g = np.square(np.subtract(f, self.c, out=f_c), out=out)
        g *= self.w
        g += np.multiply(np.multiply(self.l, f, out=lf), self.k, out=lf)  # k*(l*f), in lf
        g -= self.c0
        return g

    def d_f(self, f_c, out=None):
        """dg/df from f - c, as ``value`` leaves it in ``f_c``."""
        d_f = np.multiply(self.two_w, f_c, out=out)
        d_f += self.kl
        return d_f

    def value_and_grads(self, f, out=None):
        """(g, dg/df, dg/da, dg/db, dg/dalpha) at scores f; f - a and f - b set
        the sign of the other class's 0.0 rows.  Given ``out``, a (5, ...) buffer,
        they go to its rows 0, 4, 1, 2 and 3, so one reduce of rows :4 takes means."""
        if out is None:
            out = np.empty((5, *np.broadcast_shapes(np.shape(f), self.c.shape)))
        g, d_a, d_b, d_alpha, d_f = [out[i, ...] for i in range(5)]
        da, db, dalpha = self.dcoefs  # -2(1-p), -2p and 2p(1-p)alpha
        # + 0.0 * f broadcasts to the input shape and turns -0.0 into 0.0.
        np.multiply(self.l, f, out=d_alpha)
        d_alpha *= 2.0
        d_alpha -= dalpha
        d_alpha += np.multiply(0.0, f, out=d_b)
        self.value(f, g, d_f, d_a)
        np.multiply(da, np.subtract(f, self.a, out=d_a), out=d_a)
        d_a *= self.pos
        np.multiply(db, np.subtract(f, self.b, out=d_b), out=d_b)
        d_b *= ~self.pos
        return g, self.d_f(d_f, d_f), d_a, d_b, d_alpha


def _check_labels(y):
    """y as an array; a label other than 0 or 1 is a ValueError."""
    labels = np.asarray(y)
    bad = labels[(labels != 0) & (labels != 1)]
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, got {np.unique(bad)}")
    return labels


def surrogate_loss(aux: AuxParams, p_hat: float, f, y):
    """Evaluate g at a scored example; f and y may be scalars or arrays.
    For R stacked runs, ``aux`` and ``p_hat`` hold one triple and one float
    per run and f and y are (R, n).  Every label must be 0 or 1."""
    val = _FixedLabelLoss(aux, p_hat, _check_labels(y)).value(np.asarray(f, dtype=float))
    return float(val) if val.ndim == 0 else val


def surrogate_loss_grads(aux: AuxParams, p_hat: float, f, y):
    """Partials of g: (d/df, d/da, d/db, d/dalpha), shapes matching f."""
    labels = _check_labels(y)
    _, *grads = _FixedLabelLoss(aux, p_hat, labels).value_and_grads(np.asarray(f, dtype=float))
    if np.asarray(f).ndim == 0 and labels.ndim == 0:
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


def auc_rows(scores, pos):
    """Each row's ``auc_mann_whitney(f[pos], f[~pos])`` for (m, n) scores
    and positive masks, bitwise, from one stacked sort; 0.5 for a row with
    one class.  A row's twice-U, 2 * (sum of its positives' mid-ranks) -
    n_pos * (n_pos + 1), is an integer, so U is exact as the per-call sum
    of half-integer wins is.  As ``searchsorted`` orders them, -0.0 ties
    0.0 and NaN ties NaN and ranks above every number."""
    f = np.asarray(scores, dtype=float)
    order = np.argsort(f, axis=-1)  # NaN last
    s = np.take_along_axis(f, order, axis=-1)
    tied = (s[:, 1:] == s[:, :-1]) | (np.isnan(s[:, 1:]) & np.isnan(s[:, :-1]))
    m, n = f.shape
    at, first, last = np.arange(n), np.ones((m, n), bool), np.ones((m, n), bool)
    first[:, 1:] = last[:, :-1] = ~tied
    # Each sorted element's tie group spans positions lo..hi (0-based), so
    # twice its 1-based mid-rank is lo + hi + 2.
    lo = np.maximum.accumulate(np.where(first, at, 0), axis=-1)
    hi = np.minimum.accumulate(np.where(last, at, n)[:, ::-1], axis=-1)[:, ::-1]
    pos_sorted = np.take_along_axis(np.asarray(pos, dtype=bool), order, axis=-1)
    n_pos = np.count_nonzero(pos_sorted, axis=-1)
    u2 = np.add.reduce(np.where(pos_sorted, lo + hi + 2, 0), axis=-1) - n_pos * (n_pos + 1)
    pairs = n_pos * (n - n_pos)
    return np.divide(u2 * 0.5, pairs, out=np.full(m, 0.5), where=pairs > 0)
