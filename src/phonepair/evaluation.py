"""Fixed cross-validation splits, classification metrics, and the Wilcoxon
signed-rank test (exact enumeration distribution for small n, tie-corrected
normal approximation otherwise)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .dataio import DataError
from .epochs import PairDataset


EXACT_WILCOXON_MAX_N = 25


@dataclass(frozen=True)
class TestResult:
    W: float
    p: float
    n_effective: int
    method: str  # "exact" | "normal_approx"


def kfold(y, k: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment: the fold index in [0, k)
    of each row.

    Rows of each class, in ascending class order, are shuffled with the
    seed and dealt round-robin, the count running on across classes, so
    overall fold sizes are within 1.
    """
    y = np.asarray(y)
    n = len(y)
    if n < k:
        raise DataError(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed)
    order = np.concatenate([idx[rng.permutation(len(idx))] for idx in
                            (np.flatnonzero(y == c) for c in np.unique(y))])
    assignments = np.empty(n, dtype=int)
    assignments[order] = np.arange(n) % k
    return assignments


def _rankdata(v: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties share the mean rank: the last rank of
    a run of c equal values, less (c - 1) / 2."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def auc_score(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based AUC: probability a positive outranks a negative, ties 1/2."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y_true == 1))
    n_neg = int(np.sum(y_true == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC is undefined for single-class y_true")
    ranks = _rankdata(scores)
    r_pos = ranks[y_true == 1].sum()
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _binary_f1(y_true, y_pred, positive):
    tp = np.sum((y_pred == positive) & (y_true == positive))
    fp = np.sum((y_pred == positive) & (y_true != positive))
    fn = np.sum((y_pred != positive) & (y_true == positive))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


def metrics(y_true, scores) -> dict:
    """Accuracy, macro-averaged F1 and rank AUC from class-1 scores, as
    ``{"accuracy", "f1", "auc"}``; a score of 0.5 or more predicts 1."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    if len(y_true) != len(scores):
        raise DataError("y_true and scores length mismatch")
    y_pred = (scores >= 0.5).astype(int)
    accuracy = float(np.mean(y_pred == y_true))
    f1 = 0.5 * (_binary_f1(y_true, y_pred, 0) + _binary_f1(y_true, y_pred, 1))
    return {"accuracy": accuracy, "f1": float(f1),
            "auc": float(auc_score(y_true, scores))}


def _exact_signed_rank_p(ranks: np.ndarray, w: float) -> float:
    """Two-sided p over all sign assignments of the given |d| ranks.

    Ranks are half-integers at worst (tie averaging), so doubling gives an
    integer-valued sum distribution computed by dynamic programming; this
    equals full 2^n enumeration.
    """
    doubled = np.round(2 * ranks).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    w2 = int(round(2 * w))
    n_low = counts[: w2 + 1].sum()
    n_high = counts[total - w2:].sum()
    p = (n_low + n_high) / counts.sum()
    return min(p, 1.0)


def wilcoxon(a, b) -> TestResult:
    """Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; W is the smaller of the positive- and
    negative-rank sums.  p is exact (sign-flip enumeration distribution)
    for n_eff <= 25, otherwise a tie-corrected normal approximation with
    continuity correction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise DataError("wilcoxon needs two equal-length 1-D samples")
    d = a - b
    d = d[d != 0]
    n = len(d)
    if n == 0:
        raise DataError("no nonzero differences")
    ranks = _rankdata(np.abs(d))
    r_pos = ranks[d > 0].sum()
    r_neg = ranks[d < 0].sum()
    W = min(r_pos, r_neg)
    if n <= EXACT_WILCOXON_MAX_N:
        return TestResult(W=float(W), p=_exact_signed_rank_p(ranks, W),
                          n_effective=n, method="exact")
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= np.sum(tie_counts ** 3 - tie_counts) / 48.0
    if var <= 0:
        raise DataError("zero variance in signed-rank distribution")
    z = (W - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return TestResult(W=float(W), p=p, n_effective=n, method="normal_approx")


def evaluate(spec: models.ModelSpec, ds: PairDataset,
             folds: np.ndarray) -> list[dict]:
    """One :func:`metrics` dict per fold of the per-row fold indices
    ``folds``.  :func:`models.fit_folds` fits and scores all the folds in
    one call, each standardised with its training rows' statistics
    (``models.FoldSplit``) inside the fit (no test-row leakage); the solver
    state it returns per fold is left out of the metrics.  A metric error is
    raised again with a ``fold N: `` prefix, as a fit error is."""
    if len(folds) != len(ds.y):
        raise DataError("fold split does not match dataset size")
    fits = models.fit_folds(spec, ds.X, ds.y, folds, ds.n_channels,
                            ds.n_times)
    out = []
    for fold, (scores, _) in enumerate(fits):
        try:
            out.append(metrics(ds.y[folds == fold], scores))
        except DataError as exc:
            raise DataError(f"fold {fold}: {exc}") from exc
    return out
