"""Fixed cross-validation splits, classification metrics, and the Wilcoxon
signed-rank test (exact enumeration distribution for small n, tie-corrected
normal approximation otherwise)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dsp, models
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

    Rows of each class are shuffled with the seed and dealt round-robin;
    a running counter across classes keeps overall fold sizes within 1.
    """
    y = np.asarray(y)
    n = len(y)
    if n < k:
        raise DataError(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty(n, dtype=int)
    counter = 0
    for cls in sorted(np.unique(y).tolist()):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        for i in idx:
            assignments[i] = counter % k
            counter += 1
    return assignments


def _rankdata(v: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties share the mean rank."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=float)
    sv = v[order]
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


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


def metrics(y_true, scores, threshold: float = 0.5) -> dict:
    """Accuracy, macro-averaged F1 and rank AUC from class-1 scores, as
    ``{"accuracy", "f1", "auc"}``."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    if len(y_true) != len(scores):
        raise DataError("y_true and scores length mismatch")
    y_pred = (scores >= threshold).astype(int)
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
    ``folds``, with fold-local z-scoring (no test-row leakage)."""
    if len(folds) != len(ds.y):
        raise DataError("fold split does not match dataset size")
    per_fold = []
    for fold in range(folds.max() + 1):
        test_mask = folds == fold
        train_mask = ~test_mask
        X_train, y_train = ds.X[train_mask], ds.y[train_mask]
        X_test, y_test = ds.X[test_mask], ds.y[test_mask]
        stats = dsp.compute_zscore_stats(X_train)
        X_train = dsp.apply_zscore(X_train, stats)
        X_test = dsp.apply_zscore(X_test, stats)
        try:
            model = models.train(
                spec, X_train, y_train,
                n_channels=ds.n_channels, n_times=ds.n_times,
            )
            scores = model.predict_proba(X_test)[:, 1]
        except (DataError, models.ConvergenceError) as exc:
            raise type(exc)(f"fold {fold}: {exc}") from exc
        per_fold.append(metrics(y_test, scores))
    return per_fold
