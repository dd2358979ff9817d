import itertools

import numpy as np
import pytest

from phonepair import evaluation
from phonepair.dataio import DataError
from phonepair.epochs import PairDataset
from phonepair.evaluation import (
    auc_score,
    evaluate,
    kfold,
    metrics,
    wilcoxon,
)
from phonepair.models import ModelSpec


class TestKfold:
    def test_sizes_balanced(self):
        y = np.array([0] * 23 + [1] * 27)
        folds = kfold(y, k=5, seed=0)
        sizes = np.bincount(folds, minlength=5)
        assert sizes.sum() == 50
        assert sizes.max() - sizes.min() <= 1

    def test_stratified(self):
        y = np.array([0] * 25 + [1] * 25)
        folds = kfold(y, k=5, seed=3)
        for fold in range(5):
            fold_y = y[folds == fold]
            assert np.sum(fold_y == 0) == 5
            assert np.sum(fold_y == 1) == 5

    def test_deterministic(self):
        y = np.array([0, 1] * 20)
        s1 = kfold(y, k=4, seed=7)
        s2 = kfold(y, k=4, seed=7)
        assert np.array_equal(s1, s2)
        s3 = kfold(y, k=4, seed=8)
        assert not np.array_equal(s1, s3)

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="folds"):
            kfold(np.array([0, 1]), k=5, seed=0)


class TestAuc:
    def test_textbook_case(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.4, 0.35, 0.8])
        assert auc_score(y, s) == pytest.approx(0.75)

    def test_perfect_and_inverted(self):
        y = np.array([0, 0, 1, 1])
        assert auc_score(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
        assert auc_score(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_ties_half(self):
        y = np.array([0, 1, 0, 1])
        assert auc_score(y, np.full(4, 0.5)) == pytest.approx(0.5)

    def test_complement_symmetry(self, rng):
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        s = rng.random(30)
        assert auc_score(y, s) + auc_score(y, 1 - s) == pytest.approx(1.0)

    def test_pairwise_count_oracle(self, rng):
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        s = rng.choice([0.1, 0.3, 0.5, 0.7], size=40)  # force ties
        pos, neg = s[y == 1], s[y == 0]
        wins = sum(
            1.0 if p > q else (0.5 if p == q else 0.0)
            for p in pos for q in neg
        )
        assert auc_score(y, s) == pytest.approx(wins / (len(pos) * len(neg)))

    def test_single_class_raises(self):
        with pytest.raises(DataError, match="single-class"):
            auc_score(np.ones(4), np.random.rand(4))


class TestMetrics:
    def test_perfect(self):
        y = np.array([0, 0, 1, 1])
        m = metrics(y, np.array([0.1, 0.2, 0.8, 0.9]))
        assert m == {"accuracy": 1.0, "f1": 1.0, "auc": 1.0}

    def test_macro_f1(self):
        y = np.array([0, 0, 0, 1])
        s = np.array([0.1, 0.1, 0.9, 0.9])
        m = metrics(y, s)
        # class 0: tp 2 fp 0 fn 1 -> 0.8; class 1: tp 1 fp 1 fn 0 -> 2/3
        assert m["f1"] == pytest.approx(0.5 * (0.8 + 2.0 / 3.0))
        assert m["accuracy"] == pytest.approx(0.75)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            metrics(np.array([0, 1]), np.array([0.5]))


def wilcoxon_p_bruteforce(d):
    """Full 2^n sign-flip enumeration of the signed-rank distribution."""
    d = np.asarray(d, dtype=float)
    d = d[d != 0]
    ranks = evaluation._rankdata(np.abs(d))
    w_obs = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    total = ranks.sum()
    count = 0
    for signs in itertools.product([0, 1], repeat=len(d)):
        s = sum(r for r, sg in zip(ranks, signs) if sg)
        if s <= w_obs + 1e-9 or s >= total - w_obs - 1e-9:
            count += 1
    return min(1.0, count / 2 ** len(d))


class TestWilcoxon:
    def test_one_sided_extreme(self):
        res = wilcoxon(np.arange(1.0, 6.0), np.zeros(5))
        assert res.W == 0.0
        assert res.p == pytest.approx(2 / 32)
        assert res.method == "exact"
        assert res.n_effective == 5

    def test_zeros_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 5.0, 5.0])
        b = np.array([0.0, 1.0, 2.0, 5.0, 5.0])
        res = wilcoxon(a, b)
        assert res.n_effective == 3

    def test_all_equal_raises(self):
        with pytest.raises(DataError, match="nonzero"):
            wilcoxon(np.ones(5), np.ones(5))

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        a = rng.standard_normal(n)
        b = a + rng.choice([-0.5, 0.25, 0.5, 1.0], size=n)
        res = wilcoxon(a, b)
        assert res.method == "exact"
        assert res.p == pytest.approx(wilcoxon_p_bruteforce(a - b))

    def test_exact_with_ties_matches_enumeration(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        b = a - np.array([0.5, 0.5, -0.5, 1.0, 1.0, -1.0, 2.0])
        res = wilcoxon(a, b)
        assert res.p == pytest.approx(wilcoxon_p_bruteforce(a - b))

    def test_normal_approx_close_to_exact_at_boundary(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(25)
        b = a + rng.standard_normal(25) * 0.8 + 0.3
        exact = wilcoxon(a, b)
        assert exact.method == "exact"
        big_a = np.concatenate([a, a[:1] + 100.0])
        big_b = np.concatenate([b, a[:1]])
        # adding one pair pushes n to 26 and the normal branch engages
        approx = wilcoxon(big_a, big_b)
        assert approx.method == "normal_approx"
        d = a - b
        ranks = evaluation._rankdata(np.abs(d))
        w = min(ranks[d > 0].sum(), ranks[d < 0].sum())
        n = len(d)
        mean = n * (n + 1) / 4
        var = n * (n + 1) * (2 * n + 1) / 24
        import math
        z = (w - mean + 0.5) / math.sqrt(var)
        p_norm = min(1.0, math.erfc(-z / math.sqrt(2)))
        assert abs(exact.p - p_norm) <= 0.01

    def test_shape_validation(self):
        with pytest.raises(DataError, match="equal-length"):
            wilcoxon(np.ones(3), np.ones(4))


def planted_dataset(rng, n_per=60, p=12, sep=2.0, pair=("a", "e")):
    X0 = rng.standard_normal((n_per, p))
    X1 = rng.standard_normal((n_per, p))
    X1[:, :3] += sep
    X = np.vstack([X0, X1])
    y = np.r_[np.zeros(n_per, int), np.ones(n_per, int)]
    return PairDataset(X=X, y=y, pair=pair, n_channels=p, n_times=1)


class TestEvaluate:
    def test_planted_signal_decodes(self, rng):
        ds = planted_dataset(rng)
        folds = kfold(ds.y, k=5, seed=0)
        per_fold = evaluate(ModelSpec("elastic_net"), ds, folds)
        assert len(per_fold) == 5
        assert np.mean([m["accuracy"] for m in per_fold]) >= 0.9
        assert np.mean([m["auc"] for m in per_fold]) >= 0.9

    def test_shuffled_labels_near_chance(self, rng):
        ds = planted_dataset(rng)
        y = ds.y.copy()
        np.random.default_rng(1).shuffle(y)
        ds_null = PairDataset(X=ds.X, y=y, pair=ds.pair,
                              n_channels=ds.n_channels, n_times=ds.n_times)
        folds = kfold(ds_null.y, k=5, seed=0)
        per_fold = evaluate(ModelSpec("elastic_net"), ds_null, folds)
        assert abs(np.mean([m["accuracy"] for m in per_fold]) - 0.5) < 0.15

    def test_deterministic(self, rng):
        ds = planted_dataset(rng)
        folds = kfold(ds.y, k=5, seed=2)
        r1 = evaluate(ModelSpec("lda"), ds, folds)
        r2 = evaluate(ModelSpec("lda"), ds, folds)
        assert r1 == r2

    def test_split_size_mismatch(self, rng):
        ds = planted_dataset(rng)
        folds = kfold(np.r_[ds.y, 0], k=5, seed=0)
        with pytest.raises(DataError, match="size"):
            evaluate(ModelSpec("lda"), ds, folds)
