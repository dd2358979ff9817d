import importlib
import itertools
import json
import pathlib
import weakref

import numpy as np
import pytest

from phonepair import dsp, evaluation, models
from phonepair.dataio import DataError
from phonepair.epochs import PairDataset
from phonepair.evaluation import (
    auc_score,
    evaluate,
    kfold,
    metrics,
    wilcoxon,
)
from phonepair.models import ConvergenceError, ModelSpec, TrainConfig

from helpers import elastic_net_objective, predict


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


class TestRankdata:
    def test_matches_scipy(self):
        """Ranks of vectors with many ties, infinities and signed zeros
        included, equal scipy's average ranks byte for byte."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from scipy.stats import rankdata

        tied = st.integers(-3, 3).map(lambda i: i / 2)

        @settings(max_examples=300, deadline=None)
        @given(st.lists(tied | st.floats(allow_nan=False), max_size=40))
        def check(values):
            v = np.array(values, dtype=float)
            assert (evaluation._rankdata(v).tobytes()
                    == rankdata(v).astype(float).tobytes())

        check()


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


# ---------------------------------------------------------------------------
# the fold call: models.fit_folds against one train per fold
# ---------------------------------------------------------------------------

C, T = 2, 10    # cnn rows: 2 channels x 10 samples
NETS = TrainConfig(learning_rate=1e-2, max_epochs=8, patience=3, seed=3)
SPECS = {
    "elastic_net": ModelSpec("elastic_net"),
    "lda": ModelSpec("lda"),
    "svm_rbf": ModelSpec("svm_rbf"),
    "ffn_l1": ModelSpec("ffn", train=NETS),
    "ffn_l3": ModelSpec("ffn", hidden_sizes=(2048, 1024),
                        train=TrainConfig(learning_rate=1e-2, max_epochs=3,
                                          patience=3)),
    "cnn": ModelSpec("cnn", kernel=5, stride=5, filters_per_channel=3,
                     train=NETS),
}


def tiny_dataset(seed=0):
    ds = planted_dataset(np.random.default_rng(seed), n_per=20, p=C * T)
    return PairDataset(X=ds.X, y=ds.y, pair=ds.pair, n_channels=C,
                       n_times=T)


def zscored_folds(ds, folds):
    """Each fold's (training X, training y, test X, test y), z-scored with
    its training rows' statistics.  They are ``models.FoldSplit``'s, which
    ``TestElasticNetOnRawX.test_fold_statistics_match_numpy`` bounds against
    numpy's: the SVM's SMO stops at a dual-gap tolerance, so a rounding-level
    change of its inputs can move which pairs it updates and its scores."""
    split = models.FoldSplit(ds.X, folds)
    for fold in range(folds.max() + 1):
        test = folds == fold
        stats = split.stats(fold)
        yield (dsp.apply_zscore(ds.X[~test], stats), ds.y[~test],
               dsp.apply_zscore(ds.X[test], stats), ds.y[test])


def assert_same_scores(spec, got, want):
    """Bytes for every variant but the elastic net, which fits the raw X
    and so rounds differently from the z-scored oracle."""
    if spec.variant == "elastic_net":
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert got.tobytes() == want.tobytes()


def fold_by_fold(spec, ds, folds):
    """The oracle: fit each z-scored fold with its own ``models.train`` and
    score its test rows; yields each fold's (model, scores, metrics).  An
    elastic-net fold starts from the previous fold's (w, b), every other
    fit cold."""
    start = None
    for X_train, y_train, X_test, y_test in zscored_folds(ds, folds):
        model = models.train(spec, X_train, y_train, n_channels=ds.n_channels,
                             n_times=ds.n_times, start=start)
        if spec.variant == "elastic_net":
            start = (model.params["w"], model.params["b"])
        scores = model.predict_proba(X_test)
        yield model, scores[:, 1], metrics(y_test, scores[:, 1])


class TestFitFolds:
    @pytest.mark.parametrize("name", SPECS)
    def test_equals_one_train_per_fold(self, name):
        spec, ds = SPECS[name], tiny_dataset()
        folds = kfold(ds.y, k=5, seed=0)
        want = [(scores, m) for _, scores, m in fold_by_fold(spec, ds, folds)]
        assert evaluate(spec, ds, folds) == [m for _, m in want]
        fits = models.fit_folds(spec, ds.X, ds.y, folds, C, T)
        assert len(fits) == 5
        for (got, _), (scores, _) in zip(fits, want):
            assert_same_scores(spec, got, scores)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_every_variant_takes_its_fold_statistics_from_the_split(
            self, monkeypatch, variant):
        def forbidden(*args):
            raise AssertionError("fold statistics outside FoldSplit")

        monkeypatch.setattr(dsp, "compute_zscore_stats", forbidden)
        spec = next(s for s in SPECS.values() if s.variant == variant)
        ds = tiny_dataset()
        fits = models.fit_folds(spec, ds.X, ds.y, kfold(ds.y, k=5, seed=0),
                                C, T)
        assert len(fits) == 5

    @pytest.mark.parametrize("spec,n_times,error,match", [
        (ModelSpec("cnn", kernel=5, stride=5,
                   train=TrainConfig(learning_rate=1e30, max_epochs=5)),
         T, ConvergenceError, r"^fold 0: cnn diverged: .* at epoch 1$"),
        (ModelSpec("cnn"), T + 1, DataError,
         r"^fold 0: cnn needs X width 20 = n_channels\*n_times")])
    def test_a_failing_fit_names_its_fold(self, spec, n_times, error, match):
        ds = tiny_dataset()
        ds = PairDataset(X=ds.X, y=ds.y, pair=ds.pair, n_channels=C,
                         n_times=n_times)
        with pytest.raises(error, match=match):
            evaluate(spec, ds, kfold(ds.y, k=5, seed=0))

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_each_variant_is_registered_and_returns_its_solver_state(
            self, monkeypatch, variant):
        ModelSpec(variant)
        assert callable(getattr(models, f"train_{variant}"))
        # read only: a trainer that perfbench's tracer does not wrap goes
        # untimed
        monkeypatch.syspath_prepend(
            str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
        targets = importlib.import_module("layers").TARGETS
        assert ("models", f"train_{variant}") in targets
        ds = tiny_dataset()
        folds = kfold(ds.y, k=5, seed=0)
        patient = ModelSpec("ffn", train=TrainConfig(
            learning_rate=0.5, max_epochs=100, patience=2, seed=1))
        budget = ModelSpec("cnn", kernel=5, stride=5, train=TrainConfig(
            learning_rate=0.05, max_epochs=4, patience=4))
        specs = [spec for spec in (*SPECS.values(), patient, budget)
                 if spec.variant == variant]
        assert specs
        for spec in specs:
            fits = models.fit_folds(spec, ds.X, ds.y, folds, C, T)
            oracle = fold_by_fold(spec, ds, folds)
            for (_, state), (model, _, _) in zip(fits, oracle, strict=True):
                # ready for a diagnostics file as it is
                assert json.loads(json.dumps(state)) == state
                if variant == "elastic_net":
                    # the same steps; the violation left rounds differently
                    assert set(state) == {"n_iter", "kkt_violation", "nnz"}
                    assert state["n_iter"] == model.meta["n_iter"]
                    assert state["nnz"] == model.meta["nnz"]
                    assert state["nnz"] == np.count_nonzero(model.params["w"])
                    assert 0 < state["nnz"] <= C * T
                    assert state["kkt_violation"] <= models.EN_KKT_TOL
                    continue
                assert state == model.meta
                if variant == "svm_rbf":
                    assert set(state) == {"n_support", "smo_iter",
                                          "platt_iter"}
                    assert 0 < state["n_support"] <= len(
                        model.params["alphas"])
                    assert 0 < state["smo_iter"] < models.SVM_MAX_ITER
                    assert 0 <= state["platt_iter"] < models.PLATT_MAX_ITER
                elif variant == "lda":
                    assert state == {}
                else:
                    cfg = spec.train
                    epochs = len(model.training_log)
                    stop = ("patience" if epochs < cfg.max_epochs
                            else "max_epochs")
                    assert set(state) == {"best_epoch", "epochs",
                                          "stopped_by"}
                    assert (state["epochs"], state["stopped_by"]) == (epochs,
                                                                      stop)
                    assert 1 <= state["best_epoch"] <= epochs
                    if stop == "patience":
                        assert epochs - state["best_epoch"] == cfg.patience
            if spec is patient:
                assert {s["stopped_by"] for _, s in fits} == {"patience"}
            if spec is budget:
                assert {(s["epochs"], s["stopped_by"]) for _, s in fits} == {
                    (4, "max_epochs")}

    @pytest.mark.parametrize("name,net", [("ffn_l3", models.FfnNet),
                                          ("cnn", models.CnnNet)])
    def test_a_net_draws_its_start_once_per_dataset(self, monkeypatch, name,
                                                    net):
        calls = []
        init_params = net.init_params

        def counted(self, rng):
            calls.append(1)
            return init_params(self, rng)

        monkeypatch.setattr(net, "init_params", counted)
        ds = tiny_dataset()
        evaluate(SPECS[name], ds, kfold(ds.y, k=5, seed=0))
        assert len(calls) == 1

    @pytest.mark.parametrize("name", SPECS)
    def test_a_fold_model_is_released_before_the_next_fold_trains(
            self, monkeypatch, name):
        spec = SPECS[name]
        trainer = getattr(models, f"train_{spec.variant}")
        refs, alive_at_start = [], []

        def watched(X, y, spec, *args, **kwargs):
            alive_at_start.append([r() is not None for r in refs])
            model = trainer(X, y, spec, *args, **kwargs)
            refs.append(weakref.ref(model))
            refs.append(weakref.ref(next(iter(model.params.values()))))
            return model

        monkeypatch.setattr(models, f"train_{spec.variant}", watched)
        ds = tiny_dataset()
        evaluate(spec, ds, kfold(ds.y, k=5, seed=0))
        assert len(alive_at_start) == 5
        assert not any(any(alive) for alive in alive_at_start)


class TestElasticNetChain:
    """fit_folds starts each elastic-net fold after the first at the
    previous fold's (w, b); the optimum it converges to is the cold one."""

    @pytest.mark.parametrize("l1", [0.0, 0.5, 1.0])
    def test_warm_folds_agree_with_cold_fits(self, monkeypatch, rng, l1):
        ds = planted_dataset(rng, n_per=40, p=300)
        folds = kfold(ds.y, k=5, seed=0)
        spec = ModelSpec("elastic_net", l1_ratio=l1)
        trainer, warm = models.train_elastic_net, []

        def recorded(X, y, spec, fold, start=None, *layout):
            warm.append((start, trainer(X, y, spec, fold, start, *layout)))
            return warm[-1][1]

        monkeypatch.setattr(models, "train_elastic_net", recorded)
        models.fit_folds(spec, ds.X, ds.y, folds)
        monkeypatch.undo()
        assert [start is None for start, _ in warm] == [True] + [False] * 4
        for fold, ((X, y, X_test, _), (_, model)) in enumerate(zip(
                zscored_folds(ds, folds), warm, strict=True)):
            cold = models.train(spec, X, y)
            assert model.meta["kkt_violation"] <= models.EN_KKT_TOL
            f_warm, f_cold = (elastic_net_objective(
                X, 2.0 * y - 1.0, m.params["w"], m.params["b"], spec.alpha,
                l1) for m in (model, cold))
            assert abs(f_warm - f_cold) <= 1e-9 * f_cold
            # the fold's model scores raw rows
            assert np.array_equal(predict(model, ds.X[folds == fold]),
                                  predict(cold, X_test))

    def test_the_chain_takes_fewer_newton_steps(self, rng):
        ds = planted_dataset(rng, n_per=40, p=300)
        folds = kfold(ds.y, k=5, seed=0)
        spec = ModelSpec("elastic_net")
        warm = sum(state["n_iter"] for _, state
                   in models.fit_folds(spec, ds.X, ds.y, folds))
        cold = sum(models.train(spec, X, y).meta["n_iter"]
                   for X, y, _, _ in zscored_folds(ds, folds))
        assert warm < cold


class TestElasticNetOnRawX:
    """fit_folds hands the elastic net the raw X: it standardises only the
    columns it needs, with each fold's statistics from per-fold sums."""

    @staticmethod
    def hard_dataset(folds=None):
        """A planted dataset and its folds, with a column constant on fold
        0's training rows (its std floored) and a column offset by 1e3 of
        its std."""
        ds = planted_dataset(np.random.default_rng(5), n_per=30, p=40)
        if folds is None:
            folds = kfold(ds.y, k=5, seed=0)
        X = ds.X.copy()
        X[folds != 0, 5] = 3.0
        X[:, 6] += 1e3 * X[:, 6].std()
        return PairDataset(X=X, y=ds.y, pair=ds.pair, n_channels=40,
                           n_times=1), folds

    def test_fold_statistics_match_numpy(self, monkeypatch):
        folds = np.repeat([0, 1, 2, 3], [7, 23, 11, 19])
        np.random.default_rng(1).shuffle(folds)
        ds, _ = self.hard_dataset(folds)
        split = models.FoldSplit(ds.X, folds)
        for fold in range(4):
            train = ds.X[folds != fold]
            mean, std = split.stats(fold)
            np.testing.assert_allclose(mean, np.mean(train, axis=0),
                                       rtol=1e-12)
            np.testing.assert_allclose(
                std, np.maximum(np.std(train, axis=0), dsp.STD_FLOOR),
                rtol=1e-12)
            assert (std[5] == dsp.STD_FLOOR) == (fold == 0)
        # each fit gets its fold's training rows and those bytes, and every
        # dense model z-scores the rows it scores with them
        trainer, fitted = models.train, []

        def recorded(*args):
            model = trainer(*args)
            fitted.append((args[-1], model.zscore))
            return model

        monkeypatch.setattr(models, "train", recorded)
        for spec in (ModelSpec("lda"), ModelSpec("svm_rbf"),
                     ModelSpec("ffn", train=NETS),
                     ModelSpec("cnn", kernel=1, stride=1, train=NETS)):
            fitted.clear()
            models.fit_folds(spec, ds.X, ds.y, folds, ds.n_channels,
                             ds.n_times)
            assert len(fitted) == 4
            for k, ((rows, stats), zscore) in enumerate(fitted):
                assert rows.tobytes() == np.flatnonzero(folds != k).tobytes()
                want = [a.tobytes() for a in split.stats(k)]
                assert [a.tobytes() for a in stats] == want
                assert [a.tobytes() for a in zscore] == want

    @pytest.mark.parametrize("l1", [0.0, 0.5, 1.0])
    def test_scores_match_the_z_scored_oracle(self, l1):
        ds, folds = self.hard_dataset()
        spec = ModelSpec("elastic_net", l1_ratio=l1)
        fits = models.fit_folds(spec, ds.X, ds.y, folds)
        for (got, state), (model, scores, _) in zip(
                fits, fold_by_fold(spec, ds, folds), strict=True):
            np.testing.assert_allclose(got, scores, rtol=0, atol=1e-12)
            assert state["kkt_violation"] <= models.EN_KKT_TOL
            assert state["n_iter"] == model.meta["n_iter"]

    def test_no_matrix_is_z_scored(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("z-scored a matrix")

        monkeypatch.setattr(dsp, "compute_zscore_stats", forbidden)
        monkeypatch.setattr(dsp, "apply_zscore", forbidden)
        ds, folds = self.hard_dataset()
        fits = models.fit_folds(ModelSpec("elastic_net"), ds.X, ds.y, folds)
        assert len(fits) == 5
        with pytest.raises(AssertionError, match="z-scored a matrix"):
            models.fit_folds(ModelSpec("lda"), ds.X, ds.y, folds)


class TestFoldErrors:
    def test_x_and_y_of_different_lengths(self):
        ds = tiny_dataset()
        with pytest.raises(DataError, match="^X and y length mismatch$"):
            models.fit_folds(ModelSpec("lda"), ds.X[:-1], ds.y,
                             kfold(ds.y, k=5, seed=0))

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_too_few_training_rows_names_the_fold(self, variant):
        ds = tiny_dataset()
        ds = PairDataset(X=ds.X[[0, -1]], y=ds.y[[0, -1]], pair=ds.pair,
                         n_channels=C, n_times=T)
        with pytest.raises(DataError,
                           match=r"^fold 0: need a 2-D matrix with at least"
                                 r" 2 rows for z-score stats$"):
            evaluate(ModelSpec(variant), ds, kfold(ds.y, k=2, seed=0))

    def test_a_single_class_test_fold_names_the_fold(self):
        ds = tiny_dataset()
        folds = kfold(ds.y, k=5, seed=0)
        folds[(folds == 2) & (ds.y == 1)] = 3
        with pytest.raises(DataError, match=r"^fold 2: AUC is undefined"):
            evaluate(ModelSpec("lda"), ds, folds)
