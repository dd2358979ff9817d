"""The classifier families behind one train / predict_proba contract.
``VARIANTS`` is the one variant list; ``train_<variant>`` fits each, into a
``TrainedModel`` that carries what prediction and the next fold need.

All variants are deterministic given (X, y, spec), and need numpy only.
Elastic net is solved to a KKT tolerance by orthant-projected Newton steps
over a growing working set of columns, the SVM's dual to a gap tolerance by
SMO, and its Platt link to a gradient tolerance by Newton steps; each
raises ConvergenceError short of its tolerance.  Neural models use
hand-derived backpropagation with AdamW and validation-based early
stopping; no autodiff dependency.  They train and predict in float32; the
other families work in float64.  ``fit_folds`` fits all the folds of one
dataset in one call.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dsp
from .dataio import ConfigError, DataError, check_numbers, check_size


class ConvergenceError(RuntimeError):
    """A numeric solver that did not converge: exit code 4."""


VARIANTS = ("elastic_net", "lda", "svm_rbf", "ffn", "cnn")
ALLOWED_HIDDEN_SIZES = ((), (1024,), (2048, 1024))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = field(default=1e-4, metadata={"gt": 0})
    weight_decay: float = field(default=1e-3, metadata={"ge": 0})
    max_epochs: int = field(default=500, metadata={"ge": 1})
    patience: int = field(default=10, metadata={"ge": 1})
    val_fraction: float = field(default=0.1, metadata={"gt": 0, "lt": 1})
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        check_numbers(self, ConfigError)


@dataclass(frozen=True)
class ModelSpec:
    variant: str
    # elastic net
    alpha: float = field(default=1e-2, metadata={"gt": 0})
    l1_ratio: float = field(default=0.5, metadata={"ge": 0, "le": 1})
    # svm_rbf
    C: float = field(default=1.0, metadata={"gt": 0})
    # None = 1 / (p * var(X))
    gamma: float | None = field(default=None, metadata={"gt": 0})
    # lda
    shrinkage: float = field(default=0.5, metadata={"ge": 0, "le": 1})
    # ffn
    hidden_sizes: tuple = ()
    # cnn
    kernel: int = field(default=10, metadata={"ge": 1})
    stride: int = field(default=10, metadata={"ge": 1})
    filters_per_channel: int = field(default=8, metadata={"ge": 1})
    train: TrainConfig = field(default_factory=TrainConfig)
    name: str = ""      # its rows' label; "" = the variant, or ffn_l<layers>

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown model variant {self.variant!r}")
        check_numbers(self, ConfigError)
        # checked for every variant, so a config echo never holds a bad one,
        # and as ints: 1024.0 == 1024, but cannot shape a weight matrix
        if (not isinstance(self.hidden_sizes, (list, tuple))
                or tuple(self.hidden_sizes) not in ALLOWED_HIDDEN_SIZES
                or any(type(h) is not int for h in self.hidden_sizes)):
            raise ConfigError(
                f"hidden_sizes must be one of {ALLOWED_HIDDEN_SIZES}")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if self.name == "":
            object.__setattr__(self, "name", self.variant if self.variant != "ffn"
                               else f"ffn_l{len(self.hidden_sizes) + 1}")


@dataclass
class TrainedModel:
    predictor: Callable              # (params, X) -> class probabilities
    params: dict                     # name -> np.ndarray or scalar
    n_features: int
    meta: dict = field(default_factory=dict)   # what the solver did; JSON
    training_log: list = field(default_factory=list)
    val_log: list = field(default_factory=list)
    start: object = None     # where the next fold of the dataset begins
    zscore: tuple | None = None  # (mean, std) to z-score scored rows with

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-row class probabilities, shape [n, 2], rows summing to 1."""
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.n_features:
            raise DataError(f"feature dimension {X.shape[1]} != trained "
                            f"{self.n_features}")
        if self.zscore is not None:
            X = dsp.apply_zscore(X, self.zscore)
        return self.predictor(self.params, X)


def _check_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("X must be a nonempty 2-D matrix")
    if len(y) != X.shape[0]:
        raise DataError("X and y length mismatch")
    if not set(np.unique(y)) <= {0, 1}:
        raise DataError("labels must be binary 0/1")
    return X, y.astype(int)


def _two_col(p1: np.ndarray) -> np.ndarray:
    p1 = np.clip(p1, 0.0, 1.0)
    return np.column_stack([1.0 - p1, p1])


class FoldSplit:
    """The per-row fold indices ``folds`` of a dataset X, and the column
    (mean, std) of each fold's training rows, the rows of the other folds,
    for every variant.

    Each fold's row count, column means and centred column sums of squares
    are taken once, at the first ``stats`` call; ``stats(k)`` combines those
    of every fold but k pairwise (Chan, Golub & LeVeque 1983), so the
    training rows are never gathered into one matrix.  It equals numpy's
    mean and floored std of those rows up to rounding."""

    def __init__(self, X, folds):
        self.X, self.folds = X, folds
        self._parts = None

    def stats(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if self._parts is None:
            self._parts = {}
            for f in np.unique(self.folds).tolist():
                rows = self.X[self.folds == f]
                mean = rows.mean(axis=0)
                rows -= mean
                rows *= rows
                self._parts[f] = len(rows), mean, rows.sum(axis=0)
        parts = [part for f, part in self._parts.items() if f != k]
        n = sum(part[0] for part in parts)
        if n < 2:
            raise DataError(
                "need a 2-D matrix with at least 2 rows for z-score stats")
        n, mean, m2 = parts[0]
        for nb, mean_b, m2_b in parts[1:]:
            delta = mean_b - mean
            mean = mean + delta * (nb / (n + nb))
            m2 = m2 + m2_b + delta * delta * (n * nb / (n + nb))
            n += nb
        return mean, np.maximum(np.sqrt(m2 / n), dsp.STD_FLOOR)


class Fold(NamedTuple):
    """What a fit trains on: ``rows``, the indices of its training rows in
    X, and ``stats``, their column (mean, std), which standardise those rows
    and the rows its model scores."""
    rows: np.ndarray
    stats: tuple


def _standardised(X, rows, cols, stats):
    """``X[:, cols][rows]``, its one copy, standardised in place with the
    (mean, std) ``stats``; ``rows`` or ``cols``, not both, may be a slice."""
    mean, std = stats
    Z = X[:, cols][rows]
    Z -= mean[cols]
    Z /= std[cols]
    return Z


def _zscored_rows(X, y, fold):
    """The training rows of ``fold`` in (X, y), standardised, and the fold's
    statistics, to z-score scored rows."""
    rows, stats = fold
    return _standardised(X, rows, slice(None), stats), y[rows], stats


# ---------------------------------------------------------------------------
# Elastic net logistic regression (working-set Newton, KKT stopping rule)
# ---------------------------------------------------------------------------

EN_KKT_TOL = 1e-6
EN_MAX_ITER = 10000     # Newton steps summed over all rounds
EN_MAX_ROUNDS = 50
EN_MIN_WORKING_SET = 256
EN_MIN_RIDGE = 1e-4     # least ridge of the Newton metric, for pure lasso
EN_ARMIJO = 1e-4
EN_MAX_HALVINGS = 50


def _sigmoid(z):
    """1 / (1 + exp(-z)); exp(-z) overflows to inf for z < -709, and
    1 / inf is the right limit, 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _penalised_loss(margin, w, alpha, l1):
    # softplus(-margin), numerically stable
    loss = np.mean(np.logaddexp(0.0, -margin))
    return loss + alpha * (l1 * np.abs(w).sum() + 0.5 * (1 - l1) * w @ w)


def _score_grad(ypm, margin):
    """sigmoid(-margin), and the gradient of the mean loss in each row's
    score."""
    s = _sigmoid(-margin)
    return s, -ypm * s / len(ypm)


def _smooth_grad(X, ypm, margin, w, alpha, l1):
    """sigmoid(-margin), and the gradient in w and in b of the loss plus
    L2 term."""
    s, gz = _score_grad(ypm, margin)
    return s, X.T @ gz + alpha * (1 - l1) * w, gz.sum()


def _pseudo_grad(g, w, lam):
    """The gradient of the objective on the sign orthant that descent
    would take w into; its absolute value is the KKT violation."""
    return np.where(w != 0, g + lam * np.sign(w),
                    np.sign(g) * np.maximum(np.abs(g) - lam, 0.0))


def _newton_step(Xf, d, ridge, gw, gb, at_zero):
    """Solve (A^T diag(d) A + diag(ridge, ..., ridge, 0)) [dw; db] =
    -[gw; gb] for A = [Xf, 1]; returns (dw, db).

    The intercept is eliminated by its Schur complement, which leaves two
    solves with P = (Xf^T diag(d) Xf + ridge I)^-1.  P is applied in the
    column space, (ridge I + B^T B)^-1 with B = diag(sqrt d) Xf, when Xf has
    at most n columns, and otherwise in the row space by Woodbury:
    P r = (r - B^T (ridge I + B B^T)^-1 B r) / ridge.
    A column marked ``at_zero`` whose step has the sign of its gradient
    would leave 0 uphill: it is held at 0 (dw = 0), and the system is
    solved again without it, from the same k x k or downdated n x n
    matrix, until no such column is left."""
    n, k = Xf.shape
    c = Xf.T @ d
    R = np.column_stack([gw, c])
    B = Xf * np.sqrt(d)[:, None]
    wide = k > n
    M = B @ B.T if wide else B.T @ B
    M.flat[::len(M) + 1] += ridge
    keep = np.ones(k, dtype=bool)
    dw = np.zeros(k)
    while True:
        Rk, ck = R[keep], c[keep]
        if wide:
            Bk = B[:, keep]
            U = (Rk - Bk.T @ np.linalg.solve(M, Bk @ Rk)) / ridge
        else:
            U = np.linalg.solve(M[np.ix_(keep, keep)], Rk)
        db = (ck @ U[:, 0] - gb) / (d.sum() - ck @ U[:, 1])
        dw[keep] = -U[:, 0] - db * U[:, 1]
        stuck = at_zero & (dw * gw > 0)
        if not stuck.any():
            return dw, db
        dw[stuck] = 0.0
        keep &= ~stuck
        if wide:
            M -= B[:, stuck] @ B[:, stuck].T


def _solve_working_set(Xs, ypm, w, b, alpha, l1, maxiter):
    """Newton steps on the free coordinates of w and on b, each projected
    onto the sign orthant of the current point (the orthant rule of OWL-QN,
    Andrew & Gao 2007) and backtracked to an Armijo decrease; returns
    (w, b, steps).

    A coordinate is free unless it is 0 with |gradient| <= alpha*l1.  The
    metric is the exact weighted Hessian of the loss (glmnet's IRLS step)
    with ridge max(alpha*(1-l1), EN_MIN_RIDGE), so that pure lasso has a
    step; the fixed point, where the pseudo-gradient is 0, does not depend
    on it.  Stops when the pseudo-gradient is within 0.3*EN_KKT_TOL, after
    ``maxiter`` steps, or when no step length gives a decrease."""
    lam, ridge = alpha * l1, max(alpha * (1 - l1), EN_MIN_RIDGE)
    margin = ypm * (Xs @ w + b)
    f = _penalised_loss(margin, w, alpha, l1)
    for step in range(maxiter):
        s, g, gb = _smooth_grad(Xs, ypm, margin, w, alpha, l1)
        pg = _pseudo_grad(g, w, lam)
        if max(np.abs(pg).max(initial=0.0), abs(gb)) <= 0.3 * EN_KKT_TOL:
            return w, b, step
        # the weights off the free set are 0 and stay 0
        free = np.flatnonzero((w != 0) | (pg != 0))
        Xf, wf, pgf = Xs[:, free], w[free], pg[free]
        dw, db = _newton_step(Xf, s * (1 - s) / len(ypm), ridge, pgf, gb,
                              (wf == 0) & (lam > 0))
        orthant = np.where(wf != 0, np.sign(wf), -np.sign(pgf))
        t = 1.0
        for _ in range(EN_MAX_HALVINGS):
            wt = wf + t * dw
            if lam > 0:
                wt[wt * orthant < 0] = 0.0
            bt = b + t * db
            mt = ypm * (Xf @ wt + bt)
            f_new = _penalised_loss(mt, wt, alpha, l1)
            if f_new <= f + EN_ARMIJO * (pgf @ (wt - wf) + gb * (bt - b)):
                break
            t *= 0.5
        else:
            return w, b, step + 1
        w = np.zeros_like(w)
        w[free] = wt
        b, margin, f = bt, mt, f_new
    return w, b, maxiter


def _working_set(score, size):
    """The ascending indices of the positive scores among the ``size`` <=
    len(score) highest, ties to the lowest index as in a stable sort."""
    cut = np.partition(score, len(score) - size)[len(score) - size]
    top = score > cut
    top[np.flatnonzero(score == cut)[:size - np.count_nonzero(top)]] = True
    return np.flatnonzero(top & (score > 0))


def train_elastic_net(X, y, spec: ModelSpec, fold, start=None,
                      *_) -> TrainedModel:
    """Minimise mean logistic loss + alpha*(l1*|w|_1 + (1-l1)/2*|w|^2) over
    the training rows of ``fold`` standardised as (x - mean) / std with
    their column (mean, std), ``fold.stats``.

    Starts at ``start``, a (w, b) pair, or at w = 0, b = 0.  Each round
    takes the full gradient once and warm-starts Newton steps
    (``_solve_working_set``) on the nonzero weights plus the zero ones that
    break the KKT conditions worst: at least EN_MIN_WORKING_SET columns (or
    p) and twice the nonzero count.  Stops when the largest KKT violation,
    intercept included, is at most EN_KKT_TOL; raises ConvergenceError once
    EN_MAX_ITER Newton steps or EN_MAX_ROUNDS rounds are spent.

    X is neither copied nor standardised whole: the full-width gradient is
    (X^T g - mean * sum(g)) / std, with g 0 off the training rows, and only
    the working-set columns of the training rows are standardised.  The
    model keeps (mean, std) in its params and standardises the support
    columns of the rows it scores the same way.

    For l1 < 1 the ridge term makes the objective strictly convex, so its
    minimiser is unique and the start moves only where inside the KKT
    tolerance the fit stops; for l1 = 1 the minimiser is unique only for
    X in general position.  The model's ``start`` is a copy of its (w, b)."""
    n, p = X.shape
    rows, stats = fold
    mean, std = stats
    ypm = 2.0 * y[rows] - 1.0
    alpha, l1 = spec.alpha, spec.l1_ratio
    w, b = (np.zeros(p), 0.0) if start is None else start
    # standardised columns that hold every nonzero weight, and their weights
    cols = np.flatnonzero(w)
    Z, w_cols = _standardised(X, rows, cols, stats), w[cols]
    g_rows = np.zeros(n)
    size, n_iter = min(EN_MIN_WORKING_SET, p), 0
    for rounds in range(EN_MAX_ROUNDS + 1):
        _, gz = _score_grad(ypm, ypm * (Z @ w_cols + b))
        gb = gz.sum()
        g_rows[rows] = gz
        g = (X.T @ g_rows - mean * gb) / std + alpha * (1 - l1) * w
        viol = np.abs(_pseudo_grad(g, w, alpha * l1))
        kkt = float(max(viol.max(), abs(gb)))
        if kkt <= EN_KKT_TOL:
            break
        if rounds == EN_MAX_ROUNDS or n_iter >= EN_MAX_ITER:
            raise ConvergenceError(
                f"elastic net KKT violation {kkt:.2e} > {EN_KKT_TOL} after "
                f"{rounds} working-set rounds and {n_iter} Newton steps "
                f"(limits {EN_MAX_ROUNDS} and {EN_MAX_ITER})")
        size = min(p, max(size, 2 * np.count_nonzero(w)))
        # nonzero weights first, then zero ones by violation
        score = np.where(w != 0, np.inf, viol)
        cols = _working_set(score, size)
        Z = _standardised(X, rows, cols, stats)
        w_cols, b, it = _solve_working_set(Z, ypm, w[cols], b, alpha, l1,
                                           EN_MAX_ITER - n_iter)
        n_iter += it
        w = np.zeros(p)
        w[cols] = w_cols
    return TrainedModel(
        _predict_standardised, {"w": w, "b": b, "mean": mean, "std": std}, p,
        meta={"n_iter": n_iter, "kkt_violation": kkt,
              "nnz": int(np.count_nonzero(w))},
        start=(w.copy(), b))


def _predict_linear_logistic(params, X):
    return _two_col(_sigmoid(X @ params["w"] + params["b"]))


def _predict_standardised(params, X):
    """``_predict_linear_logistic`` of X standardised with the fit's
    (mean, std), on the support columns, the only ones it reads."""
    nz = np.flatnonzero(params["w"])
    Z = _standardised(X, slice(None), nz, (params["mean"], params["std"]))
    return _two_col(_sigmoid(Z @ params["w"][nz] + params["b"]))


# ---------------------------------------------------------------------------
# Linear discriminant analysis with shrunk pooled covariance
# ---------------------------------------------------------------------------

def train_lda(X, y, spec: ModelSpec, fold, *_) -> TrainedModel:
    X, y, stats = _zscored_rows(X, y, fold)
    n, p = X.shape
    n0, n1 = int(np.sum(y == 0)), int(np.sum(y == 1))
    if n0 < 2 or n1 < 2:
        raise DataError("each class needs at least 2 samples for LDA")
    s = spec.shrinkage
    mu0 = X[y == 0].mean(axis=0)
    mu1 = X[y == 1].mean(axis=0)
    Xc = X.copy()
    Xc[y == 0] -= mu0
    Xc[y == 1] -= mu1
    dof = n - 2
    trace_s = float(np.sum(Xc * Xc)) / dof
    diff = mu1 - mu0
    if s == 0:
        if p > dof:
            raise DataError(
                "pooled covariance is singular (p > n - 2); use shrinkage > 0"
            )
        cov = Xc.T @ Xc / dof
        try:
            w = np.linalg.solve(cov, diff)
        except np.linalg.LinAlgError as exc:
            raise DataError(
                f"singular pooled covariance ({exc}); use shrinkage > 0"
            ) from exc
    elif s == 1:
        tau = trace_s / p
        w = diff / tau
    else:
        tau = s * trace_s / p
        c = (1 - s) / dof
        # Woodbury solve of ((1-s) Sigma + tau I) w = diff without forming
        # the p x p covariance
        M = (tau / c) * np.eye(n) + Xc @ Xc.T
        w = (diff - Xc.T @ np.linalg.solve(M, Xc @ diff)) / tau
    b = -0.5 * w @ (mu0 + mu1) + np.log(n1 / n0)
    return TrainedModel(_predict_linear_logistic, {"w": w, "b": b}, p,
                        zscore=stats)


# ---------------------------------------------------------------------------
# C-SVC with RBF kernel, solved by SMO
# ---------------------------------------------------------------------------

SVM_TOL = 1e-3          # dual optimality gap m(alpha) - M(alpha)
SVM_MAX_ITER = 100000
SVM_TAU = 1e-12         # least curvature of a pair step
PLATT_TOL = 1e-5        # largest gradient entry of the link's log loss
PLATT_MAX_ITER = 100
PLATT_MIN_STEP = 1e-10


def _rbf_kernel(A, B, gamma):
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    d2 = np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * d2)


def _fit_platt(f, y):
    """Platt's (1999) link p = sigmoid(a*f + c) on decision values f, fitted
    to the smoothed targets (N+ + 1)/(N+ + 2) and 1/(N- + 2), whose optimum
    is finite even when f separates the classes, by Newton steps with
    backtracking (Lin, Lin & Weng 2007).  Returns (a, c, steps taken), or
    raises ConvergenceError short of PLATT_TOL within PLATT_MAX_ITER steps."""
    n1 = int(y.sum())
    n0 = len(y) - n1
    t = np.where(y == 1, (n1 + 1) / (n1 + 2), 1 / (n0 + 2))
    F = np.column_stack([f, np.ones_like(f)])

    def loss(theta):
        z = F @ theta
        return np.sum(np.logaddexp(0.0, z) - t * z)

    theta = np.array([0.0, np.log((n1 + 1) / (n0 + 1))])
    for n_iter in range(PLATT_MAX_ITER + 1):
        value, p = loss(theta), _sigmoid(F @ theta)
        g = F.T @ (p - t)
        if np.abs(g).max() <= PLATT_TOL:
            return float(theta[0]), float(theta[1]), n_iter
        if n_iter == PLATT_MAX_ITER:
            break
        d = -np.linalg.solve((F.T * (p * (1 - p))) @ F + 1e-12 * np.eye(2), g)
        step = 1.0
        # halve until Armijo's sufficient decrease holds
        while loss(theta + step * d) > value + 1e-4 * step * (g @ d):
            step /= 2
            if step < PLATT_MIN_STEP:
                break
        if step < PLATT_MIN_STEP:
            break
        theta = theta + step * d
    raise ConvergenceError(
        f"Platt link gradient {np.abs(g).max():.2e} > {PLATT_TOL} after "
        f"{n_iter} Newton steps (limit {PLATT_MAX_ITER})")


def train_svm_rbf(X, y, spec: ModelSpec, fold, *_) -> TrainedModel:
    """C-SVC with the RBF kernel exp(-gamma |x - x'|^2), gamma = 1 / (p *
    var(X)) unless set, and a Platt link fitted to its training decision
    values.  The dual, min 1/2 a'Qa - sum(a), 0 <= a <= C, y'a = 0, is
    solved by SMO with Fan, Chen & Lin's (2005) second-order working-set
    rule on s = -y * gradient: i = argmax s over I_up, j the I_low row with
    s_j < s_i of largest gain, a_i += y_i t and a_j -= y_j t clipped exactly
    to the box.  It stops when max s over I_up - min s over I_low <= SVM_TOL
    and raises ConvergenceError after SVM_MAX_ITER steps.  b is the mean of
    s over the free support vectors, else the midpoint of the two bounds."""
    X, y, stats = _zscored_rows(X, y, fold)
    if np.unique(y).size < 2:
        raise DataError("svm_rbf needs rows of both classes")
    n, p = X.shape
    ypm = 2.0 * y - 1.0
    gamma = spec.gamma
    if gamma is None:
        v = X.var()
        gamma = 1.0 / (p * v) if v > 0 else 1.0
    C = spec.C
    K = _rbf_kernel(X, X, gamma)
    diag = K.diagonal()
    alphas, s = np.zeros(n), ypm.copy()
    for n_iter in range(SVM_MAX_ITER + 1):
        up = np.where(ypm > 0, alphas < C, alphas > 0)
        low = np.where(ypm > 0, alphas > 0, alphas < C)
        i = int(np.argmax(np.where(up, s, -np.inf)))
        top, bottom = s[i], np.min(s[low])
        if top - bottom <= SVM_TOL:
            break
        if n_iter == SVM_MAX_ITER:
            raise ConvergenceError(
                f"SMO dual gap {top - bottom:.2e} > {SVM_TOL} after "
                f"{SVM_MAX_ITER} iterations")
        diff = top - s
        curv = np.maximum(diag[i] + diag - 2.0 * K[i], SVM_TAU)
        j = int(np.argmax(np.where(low & (diff > 0), diff * diff / curv, -1.0)))
        # the bound each of a_i, a_j moves towards, and its distance
        to_i, to_j = C * (ypm[i] > 0), C * (ypm[j] < 0)
        room_i, room_j = abs(to_i - alphas[i]), abs(to_j - alphas[j])
        t = min(diff[j] / curv[j], room_i, room_j)
        alphas[i] = to_i if t == room_i else alphas[i] + ypm[i] * t
        alphas[j] = to_j if t == room_j else alphas[j] - ypm[j] * t
        s -= t * (K[i] - K[j])
    free = (alphas > 0) & (alphas < C)
    b = float(s[free].mean() if free.any() else 0.5 * (top + bottom))
    a_link, c_link, platt_iter = _fit_platt(ypm - s + b, y)
    sv = alphas > 0
    return TrainedModel(_predict_svm, {
        "support_vectors": X[sv],
        "dual_coef": (alphas * ypm)[sv],
        "b": b,
        "gamma": gamma,
        "link_a": a_link,
        "link_c": c_link,
        "alphas": alphas,   # the dual solution, one per training row
    }, p, meta={"n_support": int(sv.sum()), "smo_iter": n_iter,
                "platt_iter": platt_iter}, zscore=stats)


def svm_decision(params: dict, X: np.ndarray) -> np.ndarray:
    K = _rbf_kernel(np.asarray(X, dtype=float), params["support_vectors"],
                    params["gamma"])
    return K @ params["dual_coef"] + params["b"]


def _predict_svm(params, X):
    f = svm_decision(params, X)
    return _two_col(_sigmoid(params["link_a"] * f + params["link_c"]))


# ---------------------------------------------------------------------------
# Neural models: FFN (0/1/2 hidden ReLU layers) and depthwise-conv CNN
# ---------------------------------------------------------------------------

def _softmax(logits):
    ez = np.exp(logits - logits.max(axis=1, keepdims=True))
    return ez / ez.sum(axis=1, keepdims=True)


def _softmax_ce(logits, y):
    """Mean cross-entropy and d(loss)/d(logits).

    The loss is a float64 log-sum-exp of the logits, finite even where a
    float32 probability underflows to 0; the gradient keeps their dtype."""
    n = len(y)
    z = logits.astype(np.float64)
    loss = np.mean(np.logaddexp.reduce(z, axis=1) - z[np.arange(n), y])
    probs = _softmax(logits)
    probs[np.arange(n), y] -= 1.0
    return loss, probs / n


def _row_blocks(n_rows, n_cols):
    """Row slices of an [n_rows, n_cols] weight gradient: blocks of
    GRAD_BLOCK elements, in a multiple of 64 rows, the last also taking the
    remaining rows.  So every block is a GEMM of at least 64 rows, whose
    sums BLAS rounds as in the whole product; a 1-row block would go to gemv
    and round differently.  A layer below two blocks is one block."""
    step = max(64, GRAD_BLOCK // n_cols // 64 * 64)
    bounds = [i * step for i in range(max(n_rows // step, 1))] + [n_rows]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _Net:
    """What FfnNet and CnnNet share: inputs as given, and prediction."""

    def prepare(self, X):
        return X

    def predict(self, params, X):
        """Class probabilities in float64, from a pass in the params' dtype."""
        dtype = next(iter(params.values())).dtype
        logits, _ = self.forward(params, X.astype(dtype, copy=False))
        return _softmax(logits.astype(np.float64))


class FfnNet(_Net):
    """Fully connected net: input -> hidden ReLU layers -> 2 logits.

    ``backward`` yields each weight gradient in ``_row_blocks``, so a
    trainer that updates each block as it arrives never holds a layer's
    whole gradient (W0's is 52 MB in float32 at 6,324 inputs)."""

    def __init__(self, n_features: int, hidden_sizes: tuple):
        self.sizes = [n_features, *hidden_sizes, 2]

    def init_params(self, rng: np.random.Generator) -> dict:
        params = {}
        for i, (fan_in, fan_out) in enumerate(zip(self.sizes, self.sizes[1:])):
            params[f"W{i}"] = rng.standard_normal((fan_in, fan_out)) * np.sqrt(
                2.0 / fan_in
            )
            params[f"b{i}"] = np.zeros(fan_out)
        return params

    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def forward(self, params, X):
        h = X
        acts = [h]
        for i in range(self.n_layers()):
            z = h @ params[f"W{i}"] + params[f"b{i}"]
            h = np.maximum(z, 0.0) if i < self.n_layers() - 1 else z
            acts.append(h)
        return h, acts

    def backward(self, params, acts, dlogits):
        """(name, rows, gradient block) of every parameter, from the last
        layer to the first, given the forward's activations ``acts`` and the
        gradient in the logits.  The delta below layer i is taken from W_i
        before any block of W_i is yielded, so a caller may update each
        block in place as it arrives.  W_i comes in ``_row_blocks`` of
        h_in^T delta, b_i whole."""
        delta = dlogits
        for i in reversed(range(self.n_layers())):
            h_in, W = acts[i], params[f"W{i}"]
            yield f"b{i}", slice(None), delta.sum(axis=0)
            below = (delta @ W.T) * (h_in > 0) if i > 0 else None
            for rows in _row_blocks(*W.shape):
                yield f"W{i}", rows, h_in[:, rows].T @ delta
            delta = below

    def weight_names(self):
        return [f"W{i}" for i in range(self.n_layers())]


class CnnNet(_Net):
    """Depthwise 1-D convolution shared across channels, then linear.

    Kernel/stride 10 with no padding maps each channel's time axis from T
    samples to P = (T - kernel) // stride + 1 positions; the [channel,
    position, filter] activations feed a linear layer with 2 outputs.
    ``backward`` yields each gradient whole; the largest, the linear
    layer's, is [C*P*F, 2].
    """

    def __init__(self, n_channels, n_times, kernel=10, stride=10, filters=8):
        if n_times < kernel:
            raise DataError(f"epoch length {n_times} is below kernel {kernel}")
        self.C, self.T = n_channels, n_times
        self.k, self.s, self.F = kernel, stride, filters
        self.P = (n_times - kernel) // stride + 1
        check_size(self.C * self.P * self.F, 2, "the cnn linear layer",
                   DataError)

    def init_params(self, rng: np.random.Generator) -> dict:
        return {
            "Wc": rng.standard_normal((self.F, self.k)) * np.sqrt(2.0 / self.k),
            "bc": np.zeros(self.F),
            "Wl": rng.standard_normal((self.C * self.P * self.F, 2))
            * np.sqrt(2.0 / (self.C * self.P * self.F)),
            "bl": np.zeros(2),
        }

    def _windows(self, X):
        """[n, C, P, k] windows, C-contiguous, so that the conv and its
        weight gradient read them as one [n*C*P, k] matrix."""
        x = X.reshape(-1, self.C, self.T)
        return np.ascontiguousarray(
            sliding_window_view(x, self.k, axis=2)[:, :, ::self.s])

    def prepare(self, X):
        """The windows of the rows X, built once per fit."""
        return self._windows(X)

    def forward(self, params, X):
        """Logits, and (windows, conv activations), of rows X [n, C*T] or
        of their windows from ``prepare``."""
        Xw = X if X.ndim == 4 else self._windows(X)
        if self.P > 1 and self.F > 1:
            # one GEMM over all n*C*P windows; numpy would run one per
            # (n, c), and both sum each window in the same order
            conv = Xw.reshape(-1, self.k) @ params["Wc"].T + params["bc"]
        else:
            # numpy sends 1-row or 1-column products to gemv, whose sums
            # round differently from the one GEMM's
            conv = Xw @ params["Wc"].T + params["bc"]      # [n, C, P, F]
        h = conv.reshape(len(Xw), -1)                      # order: C, P, F
        return h @ params["Wl"] + params["bl"], (Xw, h)

    def backward(self, params, cache, dlogits):
        """(name, rows, gradient) of every parameter, each whole, given the
        forward's (windows, conv activations) and the gradient in the
        logits; the conv's delta is taken before Wl is yielded."""
        Xw, h = cache
        dh = (dlogits @ params["Wl"].T).reshape(len(h), self.C, self.P, self.F)
        yield "Wl", slice(None), h.T @ dlogits
        yield "bl", slice(None), dlogits.sum(axis=0)
        yield "bc", slice(None), dh.sum(axis=(0, 1, 2))
        yield "Wc", slice(None), (dh.reshape(-1, self.F).T
                                  @ Xw.reshape(-1, self.k))

    def weight_names(self):
        return ["Wc", "Wl"]


def _stratified_holdout(y, val_fraction, rng):
    val_idx = []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        n_val = max(1, int(round(val_fraction * len(idx))))
        if n_val >= len(idx):
            raise DataError(f"val_fraction {val_fraction} leaves no "
                            f"training row of class {cls} ({len(idx)} rows)")
        val_idx.extend(idx[:n_val])
    val_mask = np.zeros(len(y), dtype=bool)
    val_mask[val_idx] = True
    return ~val_mask, val_mask


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per AdamW block: the p, g, m and v blocks and two scratch blocks
# (6 x 128 KiB in float32) stay in a 1 MiB L2 cache between the ufuncs of
# one block.
ADAMW_BLOCK = 1 << 15
# Elements per block of a weight gradient (``_row_blocks``), 1 MiB in
# float32, so that no layer's gradient is held whole.
GRAD_BLOCK = 1 << 18


def _adamw_step(p, g, m, v, scratch, t, lr, decay=None):
    """AdamW step number ``t`` (from 1), in place on ``p``, ``m`` and ``v``.

    Runs the out-of-place update

        m = beta1*m + (1-beta1)*g
        v = beta2*v + (1-beta2)*g*g
        p = p - lr*(m/(1-beta1**t)) / (sqrt(v/(1-beta2**t)) + eps)
        p = p - decay*p                     # weights only; decay = lr*wd

    with the same operations in the same order (a scalar times an array
    commutes exactly), so it is bitwise equal, and allocates nothing.
    ``p``, ``g``, ``m`` and ``v`` must be C-contiguous, so that their flat
    reshapes are views (a copy would take the update and drop it); each is
    walked in ADAMW_BLOCK pieces.  ``scratch`` is [2, >= min(p.size,
    ADAMW_BLOCK)].
    """
    if not all(a.flags.c_contiguous for a in (p, g, m, v)):
        raise DataError("_adamw_step needs C-contiguous p, g, m and v")
    c1, c2 = 1 - ADAM_BETA1 ** t, 1 - ADAM_BETA2 ** t
    pf, gf, mf, vf = (a.reshape(-1) for a in (p, g, m, v))
    for lo in range(0, pf.size, ADAMW_BLOCK):
        blk = slice(lo, lo + ADAMW_BLOCK)
        pb, gb, mb, vb = pf[blk], gf[blk], mf[blk], vf[blk]
        a, b = scratch[0, :len(pb)], scratch[1, :len(pb)]
        mb *= ADAM_BETA1
        np.multiply(gb, 1 - ADAM_BETA1, out=a)
        mb += a
        vb *= ADAM_BETA2
        np.multiply(gb, 1 - ADAM_BETA2, out=a)
        a *= gb
        vb += a
        np.divide(mb, c1, out=a)
        a *= lr
        np.divide(vb, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        pb -= a
        if decay is not None:
            np.multiply(pb, decay, out=a)
            pb -= a


class NetStart:
    """A net's initial float32 weights and its generator just after drawing
    them.  The first ``take`` draws them from ``default_rng(seed)``; each
    ``take`` returns a copy of both.  So fits that share one start, the
    folds of one dataset (one net shape, one seed), begin exactly as fits
    that each drew their own, and the weights are drawn once."""

    def __init__(self):
        self.params = self.rng = None

    def take(self, net, seed):
        if self.params is None:
            self.rng = np.random.default_rng(seed)
            # drawn in float64 and then cast, so a seed gives the same draws
            # in either precision
            self.params = {k: p.astype(np.float32)
                           for k, p in net.init_params(self.rng).items()}
        return ({k: p.copy() for k, p in self.params.items()},
                copy.deepcopy(self.rng))


# a fit that overflows ends at its first non-finite loss, with one error and
# no numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _train_neural(net, X, y, spec: ModelSpec, fold, start=None):
    """Full-batch AdamW in float32 on the training split; keeps the
    parameters of the epoch with the lowest validation loss and stops after
    ``patience`` epochs without improvement.  A non-finite training or
    validation loss raises ConvergenceError naming its epoch; the training
    loss is checked before any weight moves.

    The initial weights and the generator of the validation split come from
    ``start``, a NetStart shared with the other folds of the dataset, or
    from a new one.  The net's inputs (the CNN's windows) are built once.
    Each gradient block from ``net.backward`` goes through ``_adamw_step``
    as it arrives, so no layer's gradient is ever held whole: a fit holds
    the NetStart's weights, the weights, m, v, the best weights and one
    block.  Allocates nothing per epoch outside the forward and backward
    passes: the moments, two scratch blocks for ``_adamw_step`` and the best
    parameters (refreshed with ``np.copyto``, first at epoch 1) are
    allocated once.  The model keeps the NetStart; its meta holds the best
    epoch, epochs run and what stopped it.  It fits the z-scored training
    rows of ``fold``."""
    X, y, stats = _zscored_rows(X, y, fold)
    if len(y) < 10:
        raise DataError("need at least 10 samples to hold out a validation set")
    cfg, start = spec.train, start or NetStart()
    params, rng = start.take(net, cfg.seed)
    train_mask, val_mask = _stratified_holdout(y, cfg.val_fraction, rng)
    X = X.astype(np.float32)
    Xt, yt = net.prepare(X[train_mask]), y[train_mask]
    Xv, yv = net.prepare(X[val_mask]), y[val_mask]
    decay = {k: cfg.learning_rate * cfg.weight_decay
             for k in net.weight_names()}

    # np.zeros maps zero pages; np.zeros_like would write every one of them
    m = {k: np.zeros(p.shape, p.dtype) for k, p in params.items()}
    v = {k: np.zeros(p.shape, p.dtype) for k, p in params.items()}
    scratch = np.empty(
        (2, min(ADAMW_BLOCK, max(p.size for p in params.values()))),
        dtype=np.float32)

    train_log, val_log = [], []
    best_loss = np.inf
    # a finite first validation loss is below inf, so epoch 1 fills it
    best_params = {k: np.empty_like(p) for k, p in params.items()}
    best_epoch = 0
    since_best = 0
    stopped_by = "max_epochs"

    def check_finite(loss, which, epoch):
        if not np.isfinite(loss):
            raise ConvergenceError(f"{spec.variant} diverged: {which} loss is "
                                   f"{loss} at epoch {epoch}")

    for epoch in range(1, cfg.max_epochs + 1):
        logits, cache = net.forward(params, Xt)
        loss, dlogits = _softmax_ce(logits, yt)
        check_finite(loss, "training", epoch)
        train_log.append(float(loss))
        for k, rows, g in net.backward(params, cache, dlogits):
            _adamw_step(params[k][rows], g, m[k][rows], v[k][rows], scratch,
                        epoch, cfg.learning_rate, decay.get(k))
            del g  # freed before the next block is computed
        vlogits, _ = net.forward(params, Xv)
        vloss, _ = _softmax_ce(vlogits, yv)
        check_finite(vloss, "validation", epoch)
        val_log.append(float(vloss))
        if vloss < best_loss - 1e-12:
            best_loss = float(vloss)
            for k, p in params.items():
                np.copyto(best_params[k], p)
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                stopped_by = "patience"
                break
    return TrainedModel(
        net.predict, best_params, X.shape[1],
        meta={"best_epoch": best_epoch, "epochs": len(train_log),
              "stopped_by": stopped_by},
        training_log=train_log, val_log=val_log, start=start, zscore=stats)


def train_ffn(X, y, spec: ModelSpec, fold, start=None, *_) -> TrainedModel:
    return _train_neural(FfnNet(X.shape[1], spec.hidden_sizes), X, y, spec,
                         fold, start)


def train_cnn(X, y, spec: ModelSpec, fold, start=None, n_channels=None,
              n_times=None) -> TrainedModel:
    if None in (n_channels, n_times) or n_channels * n_times != X.shape[1]:
        raise DataError(f"cnn needs X width {X.shape[1]} = n_channels*n_times"
                         f", got {n_channels}*{n_times}")
    net = CnnNet(n_channels, n_times, spec.kernel, spec.stride,
                 spec.filters_per_channel)
    return _train_neural(net, X, y, spec, fold, start)


def train(spec: ModelSpec, X, y, n_channels, n_times, start,
          fold: Fold) -> TrainedModel:
    """Check X and y once, then fit them with ``train_<variant>``.  Every
    trainer takes (X, y, spec, fold, start, n_channels, n_times): it fits
    the training rows of the :class:`Fold` standardised with ``fold.stats``,
    and its model standardises the rows it scores the same way.  ``start``,
    the previous fold's model's ``start`` or None (a cold start), is where
    the fit begins; only ``cnn`` reads each row's [n_channels, n_times]."""
    X, y = _check_xy(X, y)
    # Looked up by name at each call, not from a table built at import, so
    # that a wrapper bound to the attribute later (perfbench's tracer) sees
    # every fit.
    return globals()[f"train_{spec.variant}"](X, y, spec, fold, start,
                                              n_channels, n_times)


def fit_folds(spec: ModelSpec, X, y, folds, n_channels=None,
              n_times=None) -> list[tuple[np.ndarray, dict]]:
    """Fit and score every fold of the per-row fold indices ``folds``: one
    (class-1 scores of the test rows, ``TrainedModel.meta``) pair per fold.

    Every fold is fitted through :func:`train` on the raw X with its
    :class:`Fold`, so each trainer standardises the fold's training rows
    with their own statistics (no test row leaks into the fit) and its model
    standardises the raw test rows the same way; every variant takes those
    statistics from per-fold sums shared by the folds, without copying X.
    Each fold starts from the previous fold's ``TrainedModel.start`` after
    fold 0.  So the nets of all folds share one NetStart, drawn once per
    call, and the elastic net starts from a copy of the previous fold's
    (w, b), taken as it is, in its standardised units: any two of k folds
    share (k - 2)/(k - 1) of their training rows, so that start is near the
    optimum.  The previous fit has seen this fold's test rows, but they set
    only where the solver starts, not the optimum it converges to (see
    :func:`train_elastic_net`).  A fold's model, its weights included, is
    dropped once it has scored its test rows, before the next fold trains.
    A fit or predict error, a fold's statistics included, is raised again
    with a ``fold N: `` prefix."""
    X, y = _check_xy(X, y)
    if len(folds) != len(y):
        raise DataError("fold split does not match dataset size")
    split, start, out = FoldSplit(X, folds), None, []
    for index in range(folds.max() + 1):
        try:
            fold = Fold(np.flatnonzero(folds != index), split.stats(index))
            model = train(spec, X, y, n_channels, n_times, start, fold)
            out.append((model.predict_proba(X[folds == index])[:, 1],
                        model.meta))
        except (DataError, ConvergenceError) as exc:
            raise type(exc)(f"fold {index}: {exc}") from exc
        start = model.start
        del model
    return out
