import warnings

import numpy as np
import pytest
from scipy import optimize
from scipy.special import expit

from phonepair import models
from phonepair.dataio import ConfigError, DataError
from phonepair.models import (
    EN_KKT_TOL,
    EN_MAX_ITER,
    SVM_TOL,
    VARIANTS,
    CnnNet,
    ConvergenceError,
    FfnNet,
    ModelSpec,
    TrainConfig,
    TrainedModel,
    svm_decision,
)

from helpers import (
    adamw_out_of_place,
    elastic_net_objective,
    fit_with_whole_gradients,
    loss_and_grads,
    predict,
    traced_peak,
    train_all_rows,
    whole_gradients,
)


def two_blobs(rng, n_per=30, p=4, sep=3.0):
    X0 = rng.standard_normal((n_per, p))
    X1 = rng.standard_normal((n_per, p))
    X1[:, 0] += sep
    X = np.vstack([X0, X1])
    y = np.r_[np.zeros(n_per, int), np.ones(n_per, int)]
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


# ---------------------------------------------------------------------------
# elastic net
# ---------------------------------------------------------------------------

def en_coordinate_descent(X, y, alpha, l1, n_sweeps=20000, tol=1e-12):
    """Independent reference solver: cyclic proximal coordinate descent."""
    n, p = X.shape
    ypm = 2.0 * y - 1.0
    w = np.zeros(p)
    b = 0.0
    Lj = (X * X).sum(axis=0) / (4.0 * n) + alpha * (1 - l1)
    Lb = 1.0 / 4.0
    obj = elastic_net_objective(X, ypm, w, b, alpha, l1)
    for _ in range(n_sweeps):
        for j in range(p):
            margin = ypm * (X @ w + b)
            g = (-ypm * (1.0 / (1.0 + np.exp(margin)))) @ X[:, j] / n
            g += alpha * (1 - l1) * w[j]
            z = w[j] - g / Lj[j]
            t = alpha * l1 / Lj[j]
            w[j] = np.sign(z) * max(abs(z) - t, 0.0)
        margin = ypm * (X @ w + b)
        gb = np.mean(-ypm * (1.0 / (1.0 + np.exp(margin))))
        b -= gb / Lb
        new = elastic_net_objective(X, ypm, w, b, alpha, l1)
        if abs(obj - new) < tol * max(1.0, abs(new)):
            break
        obj = new
    return w, b, new


class TestElasticNet:
    def test_separable_accuracy(self, rng):
        X, y = two_blobs(rng, sep=4.0)
        model = train_all_rows(ModelSpec("elastic_net", alpha=1e-3), X, y)
        assert np.mean(predict(model, X) == y) >= 0.95

    def test_huge_alpha_zeroes_weights(self, rng):
        X, y = two_blobs(rng)
        model = train_all_rows(
            ModelSpec("elastic_net", alpha=1e4, l1_ratio=1.0), X, y)
        assert np.allclose(model.params["w"], 0.0)
        # predictions then come from the bias alone
        proba = model.predict_proba(X)[:, 1]
        assert np.allclose(proba, proba[0])

    def test_matches_coordinate_descent_oracle(self, rng):
        X, y = two_blobs(rng, n_per=25, p=6, sep=2.0)
        alpha, l1 = 0.05, 0.5
        model = train_all_rows(
            ModelSpec("elastic_net", alpha=alpha, l1_ratio=l1), X, y)
        w_cd, b_cd, obj_cd = en_coordinate_descent(X, y, alpha, l1)
        ypm = 2.0 * y - 1.0
        obj = elastic_net_objective(
            X, ypm, model.params["w"], model.params["b"], alpha, l1
        )
        assert abs(obj - obj_cd) <= 1e-6
        # objective gap g bounds the weight gap via strong convexity:
        # ||dw||^2 <= 2 g / (alpha (1 - l1))
        bound = np.sqrt(2e-6 / (alpha * (1 - l1)))
        assert np.max(np.abs(model.params["w"] - w_cd)) <= bound
        assert abs(model.params["b"] - b_cd) <= 1e-2

    def test_subgradient_optimality(self, rng):
        X, y = two_blobs(rng, n_per=20, p=8, sep=1.5)
        alpha, l1 = 0.02, 0.7
        model = train_all_rows(
            ModelSpec("elastic_net", alpha=alpha, l1_ratio=l1), X, y)
        w, b = model.params["w"], model.params["b"]
        n = len(y)
        ypm = 2.0 * y - 1.0
        margin = ypm * (X @ w + b)
        gz = -ypm / (1.0 + np.exp(margin)) / n
        grad = X.T @ gz + alpha * (1 - l1) * w
        tol = 1e-4
        for j in range(len(w)):
            if w[j] != 0:
                assert abs(grad[j] + alpha * l1 * np.sign(w[j])) <= tol
            else:
                assert abs(grad[j]) <= alpha * l1 + tol
        assert abs(gz.sum()) <= tol

    def test_sparsity_monotone_in_alpha(self, rng):
        X, y = two_blobs(rng, n_per=40, p=10, sep=1.0)
        nnz = []
        for alpha in (1e-3, 1e-2, 1e-1, 1.0):
            m = train_all_rows(
                ModelSpec("elastic_net", alpha=alpha, l1_ratio=1.0), X, y)
            nnz.append(int(np.sum(np.abs(m.params["w"]) > 1e-10)))
        assert nnz == sorted(nnz, reverse=True)
        assert nnz[-1] < nnz[0]

    def test_label_flip_antisymmetry(self, rng):
        X, y = two_blobs(rng, n_per=20, p=5)
        spec = ModelSpec("elastic_net", alpha=0.01, l1_ratio=0.3)
        m1 = train_all_rows(spec, X, y)
        m2 = train_all_rows(spec, X, 1 - y)
        assert np.allclose(m1.params["w"], -m2.params["w"], atol=1e-4)
        assert abs(m1.params["b"] + m2.params["b"]) <= 1e-4

    def test_bad_spec(self):
        with pytest.raises(ConfigError, match="alpha must be"):
            ModelSpec("elastic_net", alpha=0.0)
        with pytest.raises(ConfigError, match="l1_ratio must be"):
            ModelSpec("elastic_net", l1_ratio=1.5)


def en_kkt_violation(X, y, w, b, alpha, l1):
    """Largest full-width KKT violation of an elastic-net fit, intercept
    included."""
    n = len(y)
    ypm = 2.0 * y - 1.0
    gz = -ypm / (1.0 + np.exp(ypm * (X @ w + b))) / n
    g = X.T @ gz + alpha * (1 - l1) * w
    viol = np.where(w != 0, np.abs(g + alpha * l1 * np.sign(w)),
                    np.maximum(np.abs(g) - alpha * l1, 0.0))
    return max(viol.max(), abs(gz.sum()))


def wide_sparse(rng, n=100, p=3000, k=5):
    X = rng.standard_normal((n, p))
    y = (X[:, :k].sum(axis=1) + rng.standard_normal(n) > 0).astype(int)
    return (X - X.mean(axis=0)) / X.std(axis=0), y


class TestElasticNetSolver:
    def test_wide_sparse_meets_kkt(self, rng):
        X, y = wide_sparse(rng)
        alpha, l1 = 1e-2, 0.5
        model = train_all_rows(
            ModelSpec("elastic_net", alpha=alpha, l1_ratio=l1), X, y)
        w, b = model.params["w"], model.params["b"]
        assert en_kkt_violation(X, y, w, b, alpha, l1) <= EN_KKT_TOL
        assert model.meta["kkt_violation"] <= EN_KKT_TOL
        assert 0 < np.count_nonzero(w) < 0.1 * X.shape[1]
        assert model.meta["n_iter"] < EN_MAX_ITER

    @pytest.mark.parametrize("l1", [0.0, 1.0])
    def test_ridge_and_lasso_converge(self, rng, l1):
        X, y = wide_sparse(rng, n=80, p=600)
        alpha = 1e-2
        model = train_all_rows(
            ModelSpec("elastic_net", alpha=alpha, l1_ratio=l1), X, y)
        w, b = model.params["w"], model.params["b"]
        assert en_kkt_violation(X, y, w, b, alpha, l1) <= EN_KKT_TOL
        assert model.meta["n_iter"] < EN_MAX_ITER
        if l1 == 0.0:
            assert np.count_nonzero(w) == X.shape[1]

    def test_huge_alpha_fits_intercept_only(self, rng):
        X, y = wide_sparse(rng, n=90, p=300)
        y[:20] = 1
        model = train_all_rows(ModelSpec("elastic_net", alpha=1e4), X, y)
        assert not np.any(model.params["w"])
        n1 = y.sum()
        assert model.params["b"] == pytest.approx(np.log(n1 / (len(y) - n1)),
                                                  abs=1e-4)

    @pytest.mark.parametrize("l1", [0.0, 0.5, 1.0])
    def test_a_start_at_the_optimum_takes_no_step(self, rng, l1):
        X, y = wide_sparse(rng, n=80, p=600)
        spec = ModelSpec("elastic_net", l1_ratio=l1)
        fit = train_all_rows(spec, X, y)
        again = train_all_rows(spec, X, y,
                               start=(fit.params["w"], fit.params["b"]))
        assert again.meta["n_iter"] == 0
        assert again.params["w"].tobytes() == fit.params["w"].tobytes()
        assert again.params["b"] == fit.params["b"]

    def test_working_set_is_the_stable_sorts(self, rng):
        """Scores with many ties, positive ones at the boundary included,
        zeros, and some infinite (nonzero weights): the partial selection
        picks the set a stable descending sort would."""
        score = rng.integers(0, 4, 300).astype(float)
        score[[3, 50, 77]] = np.inf
        cases = [(score, size) for size in (1, 3, 4, 10, 57, 150, 299, 300)]
        cases.append((np.array([0.5, 2.0, 0.5, 0.5, 2.0, 0.0, 0.5]), 3))
        cases.append((np.array([0.0, 1.0, 0.0, 0.0]), 3))
        for score, size in cases:
            want = np.sort(np.argsort(-score, kind="stable")[:size])
            assert np.array_equal(models._working_set(score, size),
                                  want[score[want] > 0])

    def test_budget_exhausted_raises(self, rng, monkeypatch):
        X, y = wide_sparse(rng, n=60, p=200)
        monkeypatch.setattr(models, "EN_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="KKT"):
            train_all_rows(ModelSpec("elastic_net"), X, y)


def lbfgsb_working_set(Xs, ypm, w, b, alpha, l1, maxiter):
    """Oracle for ``models._solve_working_set``: L-BFGS-B over w = u - v
    (u, v >= 0) and b, the solver the Newton steps replaced."""
    k, n = Xs.shape[1], len(ypm)

    def fun(z):
        wz = z[:k] - z[k:-1]
        margin = ypm * (Xs @ wz + z[-1])
        gz = -ypm * expit(-margin) / n
        gw = Xs.T @ gz + alpha * (1 - l1) * wz
        f = (np.mean(np.logaddexp(0.0, -margin))
             + alpha * (l1 * z[:-1].sum() + 0.5 * (1 - l1) * wz @ wz))
        return f, np.concatenate([gw + alpha * l1, alpha * l1 - gw,
                                  [gz.sum()]])

    z0 = np.concatenate([np.maximum(w, 0.0), np.maximum(-w, 0.0), [b]])
    res = optimize.minimize(
        fun, z0, jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * k) + [(None, None)],
        options={"maxiter": maxiter, "gtol": 0.3 * EN_KKT_TOL, "ftol": 0.0})
    return res.x[:k] - res.x[k:-1], float(res.x[-1]), int(res.nit)


class TestNewtonAgainstLbfgsb:
    @pytest.mark.parametrize("l1", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n,p", [(150, 40), (80, 1200)],
                             ids=["p<n", "p>n"])
    def test_same_optimum_as_lbfgsb(self, rng, monkeypatch, n, p, l1):
        X, y = wide_sparse(rng, n=n, p=p)
        alpha = 1e-2
        spec = ModelSpec("elastic_net", alpha=alpha, l1_ratio=l1)
        newton = train_all_rows(spec, X, y)
        monkeypatch.setattr(models, "_solve_working_set", lbfgsb_working_set)
        oracle = train_all_rows(spec, X, y)
        ypm = 2.0 * y - 1.0
        f_newton, f_oracle = (
            elastic_net_objective(X, ypm, m.params["w"], m.params["b"],
                                  alpha, l1) for m in (newton, oracle))
        w, b = newton.params["w"], newton.params["b"]
        assert en_kkt_violation(X, y, w, b, alpha, l1) <= EN_KKT_TOL
        assert abs(f_newton - f_oracle) <= 1e-8 * f_oracle
        assert newton.meta["n_iter"] < EN_MAX_ITER

    @staticmethod
    def newton_system(rng, k, n=60):
        """(Xf, d, ridge, gw, gb): a random Newton system of k columns."""
        return (rng.standard_normal((n, k)), rng.uniform(1e-4, 0.25, n) / n,
                1e-3, rng.standard_normal(k), 0.3)

    @pytest.mark.parametrize("k", [30, 200], ids=["k<n", "k>n"])
    def test_newton_step_solves_the_bordered_system(self, rng, k):
        Xf, d, ridge, gw, gb = self.newton_system(rng, k)
        dw, db = models._newton_step(Xf, d, ridge, gw, gb,
                                     np.zeros(k, dtype=bool))
        A = np.column_stack([Xf, np.ones(len(d))])
        H = A.T @ (A * d[:, None]) + np.diag([ridge] * k + [0.0])
        want = np.linalg.solve(H, -np.r_[gw, gb])
        assert np.allclose(np.r_[dw, db], want, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("k", [30, 200], ids=["k<n", "k>n"])
    def test_newton_step_holds_uphill_zero_weights(self, rng, k):
        """A zero weight whose step has its gradient's sign stays at 0, and
        the rest solve the system without its column."""
        Xf, d, ridge, gw, gb = self.newton_system(rng, k)
        at_zero = np.arange(k) % 2 == 0
        dw, db = models._newton_step(Xf, d, ridge, gw, gb, at_zero)
        held = at_zero & (dw == 0)
        assert held.any()
        assert not np.any(at_zero & (dw * gw > 0))
        keep = ~held
        want = models._newton_step(Xf[:, keep], d, ridge, gw[keep], gb,
                                   np.zeros(keep.sum(), dtype=bool))
        assert np.allclose(dw[keep], want[0], rtol=1e-8, atol=1e-12)
        assert db == pytest.approx(want[1], rel=1e-8)


def test_sigmoid_matches_expit_without_warnings():
    z = np.concatenate([np.linspace(-800.0, 800.0, 400_001),
                        [-np.inf, -745.2, -709.8, 0.0, 36.8, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = models._sigmoid(z)
    # relative where expit is a normal float, absolute below that
    np.testing.assert_allclose(got, expit(z), rtol=1e-15,
                               atol=np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# LDA
# ---------------------------------------------------------------------------

class TestLda:
    def test_full_shrinkage_analytic(self, rng):
        X, y = two_blobs(rng, n_per=50, p=3, sep=2.0)
        model = train_all_rows(ModelSpec("lda", shrinkage=1.0), X, y)
        # with s = 1 the covariance is (trace/p) I, so w is the scaled
        # class-mean difference
        mu0, mu1 = X[y == 0].mean(axis=0), X[y == 1].mean(axis=0)
        Xc = X.copy()
        Xc[y == 0] -= mu0
        Xc[y == 1] -= mu1
        tau = np.sum(Xc * Xc) / (len(y) - 2) / X.shape[1]
        assert np.allclose(model.params["w"], (mu1 - mu0) / tau, atol=1e-10)

    def test_woodbury_solves_shrunk_system(self, rng):
        n, p, s = 40, 500, 0.5
        X = rng.standard_normal((n, p))
        y = np.r_[np.zeros(n // 2, int), np.ones(n // 2, int)]
        X[y == 1, :5] += 1.0
        model = train_all_rows(ModelSpec("lda", shrinkage=s), X, y)
        mu0, mu1 = X[y == 0].mean(axis=0), X[y == 1].mean(axis=0)
        Xc = X.copy()
        Xc[y == 0] -= mu0
        Xc[y == 1] -= mu1
        cov = Xc.T @ Xc / (n - 2)
        shrunk = (1 - s) * cov + s * (np.trace(cov) / p) * np.eye(p)
        resid = shrunk @ model.params["w"] - (mu1 - mu0)
        assert np.max(np.abs(resid)) <= 1e-8

    def test_zero_shrinkage_matches_dense_solve(self, rng):
        X, y = two_blobs(rng, n_per=40, p=6, sep=2.0)
        model = train_all_rows(ModelSpec("lda", shrinkage=0.0), X, y)
        mu0, mu1 = X[y == 0].mean(axis=0), X[y == 1].mean(axis=0)
        Xc = X.copy()
        Xc[y == 0] -= mu0
        Xc[y == 1] -= mu1
        cov = Xc.T @ Xc / (len(y) - 2)
        w = np.linalg.solve(cov, mu1 - mu0)
        assert np.allclose(model.params["w"], w, atol=1e-10)

    def test_zero_shrinkage_singular_raises(self, rng):
        X = rng.standard_normal((10, 50))
        y = np.r_[np.zeros(5, int), np.ones(5, int)]
        with pytest.raises(DataError, match="shrinkage"):
            train_all_rows(ModelSpec("lda", shrinkage=0.0), X, y)

    def test_separable_accuracy(self, rng):
        X, y = two_blobs(rng, sep=4.0)
        model = train_all_rows(ModelSpec("lda"), X, y)
        assert np.mean(predict(model, X) == y) >= 0.95

    def test_class_size_minimum(self, rng):
        X = rng.standard_normal((3, 2))
        with pytest.raises(DataError, match="at least 2"):
            train_all_rows(ModelSpec("lda"), X, np.array([0, 1, 1]))


# ---------------------------------------------------------------------------
# SVM with RBF kernel
# ---------------------------------------------------------------------------

def rbf_gram(X, gamma):
    aa = np.sum(X * X, axis=1)
    return np.exp(-gamma * np.maximum(
        aa[:, None] + aa[None, :] - 2 * X @ X.T, 0.0))


def svm_gap(model, X, y, C):
    """The dual optimality gap m(alpha) - M(alpha) of a fit of (X, y): the
    largest s = y - K (alpha * y) over the rows that may move up along y,
    minus the least over those that may move down."""
    alphas, ypm = model.params["alphas"], 2.0 * y - 1.0
    s = ypm - rbf_gram(X, model.params["gamma"]) @ (alphas * ypm)
    up = np.where(ypm > 0, alphas < C, alphas > 0)
    low = np.where(ypm > 0, alphas > 0, alphas < C)
    return s[up].max() - s[low].min()


def platt_targets(y):
    n1 = y.sum()
    return np.where(y == 1, (n1 + 1) / (n1 + 2), 1 / (len(y) - n1 + 2))


def platt_gradient(f, y, a, c):
    """The gradient in (a, c) of the log loss of sigmoid(a*f + c) against
    Platt's smoothed targets."""
    r = expit(a * f + c) - platt_targets(y)
    return np.array([f @ r, r.sum()])


# decision values that separate their classes: the unsmoothed link's
# maximum-likelihood slope is infinite
SEPARABLE_F = np.array([-2.0, -1.5, -1.2, -0.8, 0.3, 0.7, 1.1, 1.6, 2.2])
SEPARABLE_Y = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])


def svm_dual_objective(alphas, K, ypm):
    Q = (ypm[:, None] * ypm[None, :]) * K
    return alphas.sum() - 0.5 * alphas @ Q @ alphas


def svm_dual_oracle(K, ypm, C):
    """Reference solve of the dual QP with a general-purpose NLP solver."""
    n = len(ypm)
    Q = (ypm[:, None] * ypm[None, :]) * K

    def neg_obj(a):
        return 0.5 * a @ Q @ a - a.sum()

    def neg_grad(a):
        return Q @ a - 1.0

    res = optimize.minimize(
        neg_obj, np.zeros(n), jac=neg_grad, method="SLSQP",
        bounds=[(0.0, C)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a @ ypm,
                      "jac": lambda a: ypm}],
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert res.success, res.message
    return res.x


class TestSvmRbf:
    def test_xor(self, rng):
        X = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]] * 4)
        X = X + 0.05 * rng.standard_normal(X.shape)
        y = (np.round(X[:, 0]) != np.round(X[:, 1])).astype(int)
        model = train_all_rows(ModelSpec("svm_rbf", C=10.0, gamma=2.0),
                               X, y)
        assert np.mean(predict(model, X) == y) == 1.0

    def test_kkt_feasibility(self, rng):
        X, y = two_blobs(rng, n_per=20, p=3, sep=1.5)
        model = train_all_rows(ModelSpec("svm_rbf", C=1.0), X, y)
        alphas = model.params["alphas"]
        ypm = 2.0 * y - 1.0
        assert np.all(alphas >= -1e-9)
        assert np.all(alphas <= 1.0 + 1e-9)
        assert abs(alphas @ ypm) <= 1e-6

    def test_kkt_stationarity(self, rng):
        X, y = two_blobs(rng, n_per=15, p=2, sep=2.0)
        C = 1.0
        model = train_all_rows(ModelSpec("svm_rbf", C=C, gamma=0.5), X, y)
        alphas = model.params["alphas"]
        ypm = 2.0 * y - 1.0
        margins = ypm * svm_decision(model.params, X)
        # a dual gap of at most SVM_TOL bounds every row's violation by it
        tol = SVM_TOL + 1e-9
        for i in range(len(y)):
            if alphas[i] < 1e-9:
                assert margins[i] >= 1.0 - tol
            elif alphas[i] > C - 1e-9:
                assert margins[i] <= 1.0 + tol
            else:
                assert abs(margins[i] - 1.0) <= tol

    def test_dual_objective_near_oracle(self, rng):
        X, y = two_blobs(rng, n_per=12, p=2, sep=1.0)
        C, gamma = 1.0, 0.8
        model = train_all_rows(ModelSpec("svm_rbf", C=C, gamma=gamma), X, y)
        ypm = 2.0 * y - 1.0
        K = rbf_gram(X, gamma)
        obj_smo = svm_dual_objective(model.params["alphas"], K, ypm)
        a_star = svm_dual_oracle(K, ypm, C)
        obj_star = svm_dual_objective(a_star, K, ypm)
        assert obj_smo >= obj_star - 1e-3 * max(1.0, abs(obj_star))

    def test_default_gamma(self, rng):
        X, y = two_blobs(rng, n_per=15, p=5, sep=3.0)
        model = train_all_rows(ModelSpec("svm_rbf"), X, y)
        assert model.params["gamma"] == pytest.approx(1.0 / (5 * X.var()))

    def test_probabilities_ordered_by_decision(self, rng):
        X, y = two_blobs(rng, n_per=20, p=3, sep=2.0)
        model = train_all_rows(ModelSpec("svm_rbf", C=1.0), X, y)
        f = svm_decision(model.params, X)
        p1 = model.predict_proba(X)[:, 1]
        order = np.argsort(f)
        diffs = np.diff(p1[order])
        # Platt link is monotone, so probabilities follow the decision order
        assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

    def test_returns_within_the_dual_gap(self, rng):
        for n_per, p, sep in [(12, 2, 1.0), (20, 3, 1.5), (30, 4, 3.0),
                              (40, 6, 2.0)]:
            X, y = two_blobs(rng, n_per, p, sep)
            model = train_all_rows(ModelSpec("svm_rbf"), X, y)
            assert svm_gap(model, X, y, 1.0) <= SVM_TOL + 1e-9
            assert 0 < model.meta["smo_iter"] < models.SVM_MAX_ITER

    def test_the_train_seed_moves_no_byte(self, rng):
        X, y = two_blobs(rng, n_per=20, p=3, sep=1.5)
        a, b = (train_all_rows(
            ModelSpec("svm_rbf", train=TrainConfig(seed=seed)), X, y)
            for seed in (0, 7))
        assert a.params.keys() == b.params.keys()
        for key, value in a.params.items():
            assert (np.asarray(value).tobytes()
                    == np.asarray(b.params[key]).tobytes()), key

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_is_a_data_error(self, rng, label):
        X = rng.standard_normal((10, 3))
        with pytest.raises(DataError, match="both classes"):
            train_all_rows(ModelSpec("svm_rbf"), X, np.full(10, label))

    def test_platt_link_on_separable_values_is_the_smoothed_optimum(self):
        """The smoothed targets make the optimum finite; an oracle finds it
        from the loss alone."""
        f, y = SEPARABLE_F, SEPARABLE_Y
        a, c = models._fit_platt(f, y)[:2]
        t = platt_targets(y)

        def loss(theta):
            z = theta[0] * f + theta[1]
            return np.sum(np.logaddexp(0.0, z) - t * z)

        res = optimize.minimize(
            loss, np.zeros(2), method="BFGS",
            jac=lambda theta: platt_gradient(f, y, *theta),
            options={"gtol": 1e-9})
        assert np.abs(res.jac).max() <= 1e-8, res.message
        np.testing.assert_allclose([a, c], res.x, rtol=0, atol=1e-4)
        assert np.abs(platt_gradient(f, y, a, c)).max() <= models.PLATT_TOL


def en_solver(rng):
    X, y = wide_sparse(rng, n=60, p=200)
    model = train_all_rows(ModelSpec("elastic_net"), X, y)
    return en_kkt_violation(X, y, model.params["w"], model.params["b"],
                            1e-2, 0.5)


def smo_solver(rng):
    X, y = two_blobs(rng)
    return svm_gap(train_all_rows(ModelSpec("svm_rbf"), X, y), X, y, 1.0)


def platt_solver(rng):
    a, c, _ = models._fit_platt(SEPARABLE_F, SEPARABLE_Y)
    return np.abs(platt_gradient(SEPARABLE_F, SEPARABLE_Y, a, c)).max()


# every iterative solver in models.py: (its tolerance, its iteration cap,
# a fit that returns the violation the tolerance bounds, recomputed here)
SOLVERS = [("EN_KKT_TOL", "EN_MAX_ITER", en_solver),
           ("SVM_TOL", "SVM_MAX_ITER", smo_solver),
           ("PLATT_TOL", "PLATT_MAX_ITER", platt_solver)]


class TestEverySolver:
    def test_the_list_names_every_tolerance(self):
        assert (sorted(name for name in vars(models) if name.endswith("_TOL"))
                == sorted(tol for tol, _, _ in SOLVERS))

    @pytest.mark.parametrize("tol,cap,solve", SOLVERS,
                             ids=[cap for _, cap, _ in SOLVERS])
    def test_meets_its_tolerance_or_raises(self, monkeypatch, tol, cap,
                                           solve):
        assert solve(np.random.default_rng(0)) <= getattr(models, tol) + 1e-9
        monkeypatch.setattr(models, cap, 0)
        with pytest.raises(ConvergenceError):
            solve(np.random.default_rng(0))


# ---------------------------------------------------------------------------
# neural nets: finite-difference gradient checks and training behavior
# ---------------------------------------------------------------------------

def fd_check(net, params, X, y, rng, tol=1e-4, max_entries=150, eps=1e-6):
    _, grads = loss_and_grads(net, params, X, y)
    worst = 0.0
    for name in sorted(grads):
        flat = params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        if flat.size <= max_entries:
            idxs = np.arange(flat.size)
        else:
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_and_grads(net, params, X, y)
            flat[i] = orig - eps
            lm, _ = loss_and_grads(net, params, X, y)
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            err = abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i]))
            worst = max(worst, err)
    assert worst <= tol
    return worst


class TestNeuralGradients:
    @pytest.mark.parametrize("hidden", [(), (7,), (9, 5)])
    def test_ffn_gradients(self, rng, hidden):
        net = FfnNet(6, hidden)
        params = net.init_params(rng)
        X = rng.standard_normal((12, 6))
        y = rng.integers(0, 2, size=12)
        fd_check(net, params, X, y, rng)

    def test_ffn_wide_layer_gradients_sampled(self, rng):
        net = FfnNet(20, (1024,))
        params = net.init_params(rng)
        X = rng.standard_normal((8, 20))
        y = rng.integers(0, 2, size=8)
        fd_check(net, params, X, y, rng, max_entries=100)

    def test_cnn_gradients(self, rng):
        net = CnnNet(n_channels=3, n_times=31, kernel=10, stride=10, filters=4)
        params = net.init_params(rng)
        X = rng.standard_normal((10, 3 * 31))
        y = rng.integers(0, 2, size=10)
        fd_check(net, params, X, y, rng)


class TestNeuralTraining:
    def test_cnn_position_count(self):
        net = CnnNet(n_channels=204, n_times=31, kernel=10, stride=10, filters=8)
        assert net.P == 3
        rng = np.random.default_rng(0)
        params = net.init_params(rng)
        assert params["Wl"].shape == (204 * 3 * 8, 2)
        logits, (Xw, h) = net.forward(params, rng.standard_normal((5, 204 * 31)))
        assert logits.shape == (5, 2)
        assert Xw.shape == (5, 204, 3, 10)

    def test_cnn_rejects_short_epochs(self):
        with pytest.raises(DataError, match="kernel"):
            CnnNet(n_channels=4, n_times=8, kernel=10, stride=10, filters=2)

    def test_cnn_rejects_a_linear_layer_beyond_memory(self):
        # checked before init_params, which numpy could not allocate
        with pytest.raises(DataError, match="linear layer"):
            CnnNet(n_channels=4, n_times=30, kernel=10, stride=10,
                   filters=10**30)

    def test_ffn_hidden_size_whitelist(self):
        ModelSpec("ffn", hidden_sizes=())
        ModelSpec("ffn", hidden_sizes=(1024,))
        ModelSpec("ffn", hidden_sizes=(2048, 1024))
        with pytest.raises(ConfigError, match="hidden_sizes"):
            ModelSpec("ffn", hidden_sizes=(512,))

    def test_default_name(self):
        assert ModelSpec("ffn", hidden_sizes=(1024,)).name == "ffn_l2"
        assert ModelSpec("ffn").name == "ffn_l1"
        assert ModelSpec("elastic_net").name == "elastic_net"
        assert ModelSpec("lda", name="mine").name == "mine"

    def test_ffn_learns_separable(self, rng):
        X, y = two_blobs(rng, n_per=30, p=4, sep=4.0)
        cfg = TrainConfig(learning_rate=0.05, max_epochs=300, seed=1)
        model = train_all_rows(ModelSpec("ffn", hidden_sizes=(), train=cfg),
                               X, y)
        assert np.mean(predict(model, X) == y) >= 0.9

    def test_cnn_learns_separable(self, rng):
        n_per, C, T = 30, 2, 20
        X0 = rng.standard_normal((n_per, C * T))
        X1 = rng.standard_normal((n_per, C * T)) + 2.0
        X = np.vstack([X0, X1])
        y = np.r_[np.zeros(n_per, int), np.ones(n_per, int)]
        cfg = TrainConfig(learning_rate=0.05, max_epochs=300, seed=1)
        spec = ModelSpec("cnn", kernel=10, stride=10, filters_per_channel=4,
                         train=cfg)
        model = train_all_rows(spec, X, y, n_channels=C, n_times=T)
        assert np.mean(predict(model, X) == y) >= 0.9

    def test_early_stopping_invariants(self, rng):
        X, y = two_blobs(rng, n_per=25, p=4, sep=2.0)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=120, patience=5, seed=2)
        model = train_all_rows(ModelSpec("ffn", hidden_sizes=(), train=cfg),
                               X, y)
        assert len(model.val_log) <= cfg.max_epochs
        assert len(model.training_log) == len(model.val_log)
        assert model.meta["best_epoch"] == int(np.argmin(model.val_log)) + 1

    def test_needs_ten_samples(self, rng):
        X = rng.standard_normal((8, 4))
        y = np.array([0, 1] * 4)
        with pytest.raises(DataError, match="10 samples"):
            train_all_rows(ModelSpec("ffn"), X, y)

    def test_deterministic(self, rng):
        X, y = two_blobs(rng, n_per=15, p=4)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=40, seed=7)
        spec = ModelSpec("ffn", hidden_sizes=(), train=cfg)
        m1, m2 = train_all_rows(spec, X, y), train_all_rows(spec, X, y)
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])

    def test_cnn_requires_shape(self, rng):
        X, y = two_blobs(rng, n_per=10, p=20)
        with pytest.raises(DataError, match="n_channels"):
            train_all_rows(ModelSpec("cnn"), X, y)

    @pytest.mark.parametrize("variant", ["ffn", "cnn"])
    def test_trains_in_float32_and_predicts_float64(self, rng, variant):
        X, y = two_blobs(rng, n_per=15, p=20)
        spec = ModelSpec(variant, train=TrainConfig(max_epochs=5))
        model = train_all_rows(spec, X, y, n_channels=2, n_times=10)
        assert {p.dtype for p in model.params.values()} == {
            np.dtype(np.float32)}
        proba = model.predict_proba(X)
        assert proba.dtype == np.float64
        assert np.allclose(proba.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_loss_stays_finite_where_float32_probabilities_underflow(self):
        # a logit gap of 200: the true class's float32 probability is 0
        logits = np.array([[200.0, 0.0], [0.0, 1.0]])
        y = np.array([1, 0])
        want, want_grad = models._softmax_ce(logits, y)
        loss, grad = models._softmax_ce(logits.astype(np.float32), y)
        assert models._softmax(logits.astype(np.float32))[0, 1] == 0.0
        assert np.isfinite(loss) and loss == pytest.approx(want, rel=1e-6)
        assert want == pytest.approx((200.0 + np.log1p(np.exp(-200.0))
                                      + 1.0 + np.log1p(np.exp(-1.0))) / 2)
        assert grad.dtype == np.float32
        assert np.allclose(grad, want_grad, atol=1e-7)

    @pytest.mark.parametrize("variant", ["ffn", "cnn"])
    def test_divergence_is_a_convergence_error(self, rng, variant):
        X, y = two_blobs(rng, n_per=15, p=20)
        cfg = TrainConfig(learning_rate=1e30, max_epochs=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError,
                               match=f"{variant} diverged: .* at epoch 1$"):
                train_all_rows(ModelSpec(variant, kernel=5, stride=5,
                                         train=cfg), X, y,
                               n_channels=2, n_times=10)

    def test_a_class_with_no_training_row_is_a_data_error(self):
        y = np.array([0] * 48 + [1] * 48)
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="class 0"):
            models._stratified_holdout(y, 0.99, rng)
        train_mask, _ = models._stratified_holdout(y, 0.98, rng)
        assert np.all(np.bincount(y[train_mask]) == 1)


class TestInPlaceUpdate:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("is_weight", [True, False])
    def test_adamw_step_is_bitwise_the_out_of_place_update(self, rng,
                                                           is_weight, dtype):
        # two full blocks and a tail block
        shape = (3, (2 * models.ADAMW_BLOCK + 1234) // 3)
        assert np.prod(shape) % models.ADAMW_BLOCK != 0
        lr, wd = 3e-3, 1e-2
        p = rng.standard_normal(shape).astype(dtype)
        m, v = np.zeros(shape, dtype), np.zeros(shape, dtype)
        rp, rm, rv = p.copy(), m.copy(), v.copy()
        scratch = np.empty((2, models.ADAMW_BLOCK), dtype)
        for t in (1, 2, 3):
            g = (rng.standard_normal(shape)
                 * 10.0 ** rng.integers(-6, 2)).astype(dtype)
            models._adamw_step(p, g, m, v, scratch, t, lr,
                               lr * wd if is_weight else None)
            rp, rm, rv = adamw_out_of_place(rp, g, rm, rv, t, lr, wd,
                                            is_weight)
            for got, want in zip((p, m, v), (rp, rm, rv)):
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()

    def test_adamw_step_refuses_arrays_that_are_not_c_contiguous(self):
        # a flat reshape of a column slice is a copy: the update would be
        # written there and lost
        scratch = np.empty((2, 12), np.float32)
        for i in range(4):
            arrays = [np.ones((4, 3), np.float32) for _ in range(4)]
            arrays[i] = np.ones((4, 6), np.float32)[:, :3]
            before = [a.copy() for a in arrays]
            with pytest.raises(DataError, match="C-contiguous"):
                models._adamw_step(*arrays, scratch, 1, 1e-3, 1e-6)
            for a, b in zip(arrays, before):
                assert np.array_equal(a, b)

    def test_early_stopped_params_are_not_touched_by_later_epochs(self, rng):
        X, y = two_blobs(rng, n_per=25, p=4, sep=2.0)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=120, patience=5,
                          seed=2)
        spec = ModelSpec("ffn", hidden_sizes=(1024,), train=cfg)
        full = train_all_rows(spec, X, y)
        best = full.meta["best_epoch"]
        assert best < len(full.val_log)  # patience fired
        cut = train_all_rows(ModelSpec(
            "ffn", hidden_sizes=(1024,), train=TrainConfig(
                learning_rate=0.01, max_epochs=best, patience=5, seed=2)),
            X, y)
        assert cut.meta["best_epoch"] == best
        assert full.params.keys() == cut.params.keys()
        for k in full.params:
            assert full.params[k].tobytes() == cut.params[k].tobytes()

    @pytest.mark.parametrize("T,kernel,stride", [
        (31, 10, 10),    # kernel == stride, T % kernel != 0
        (30, 10, 10),    # kernel == stride, no tail
        (31, 5, 3),      # overlapping windows
        (31, 3, 5)])     # gaps between windows
    def test_windows_equal_stacked_slices(self, rng, T, kernel, stride):
        C, n = 3, 4
        net = CnnNet(C, T, kernel=kernel, stride=stride, filters=2)
        X = rng.standard_normal((n, C * T))
        x = X.reshape(n, C, T)
        want = np.stack([x[:, :, p * stride: p * stride + kernel]
                         for p in range(net.P)], axis=2)
        got = net._windows(X)
        assert got.flags.c_contiguous
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("T,filters", [(31, 8), (15, 8), (31, 1)])
    def test_cnn_conv_equals_per_window_products(self, rng, T, filters):
        # the conv must sum each window as numpy's batched matmul does,
        # whichever BLAS call it makes
        net = CnnNet(5, T, kernel=10, stride=10, filters=filters)
        params = net.init_params(rng)
        params["bc"] = rng.standard_normal(filters)
        X = rng.standard_normal((7, 5 * T))
        _, (Xw, h) = net.forward(params, X)
        want = (Xw @ params["Wc"].T + params["bc"]).reshape(7, -1)
        assert h.tobytes() == want.tobytes()

    def test_cnn_weight_gradient_gemm_equals_einsum(self, rng):
        net = CnnNet(n_channels=5, n_times=31, kernel=10, stride=10, filters=8)
        params = net.init_params(rng)
        X = rng.standard_normal((9, 5 * 31))
        y = rng.integers(0, 2, size=9)
        _, grads = loss_and_grads(net, params, X, y)
        logits, (Xw, h) = net.forward(params, X)
        _, dlogits = models._softmax_ce(logits, y)
        dh = (dlogits @ params["Wl"].T).reshape(9, 5, net.P, 8)
        want = np.einsum("ncpf,ncpk->fk", dh, Xw)
        assert grads["Wc"].dtype == np.float64
        err = np.max(np.abs(grads["Wc"] - want))
        assert err <= 1e-12 * np.max(np.abs(want))

    def test_ffn_memory_peak_stays_below_five_and_a_half_parameter_copies(
            self, rng):
        X, y = two_blobs(rng, n_per=30, p=400)
        spec = ModelSpec("ffn", hidden_sizes=(2048, 1024), train=TrainConfig(
            learning_rate=1e-3, max_epochs=5, patience=5))
        model, peak = traced_peak(train_all_rows, spec, X, y)
        assert len(model.val_log) == 5
        param_bytes = sum(p.nbytes for p in model.params.values())
        # the start's weights, the weights, m, v and the best copy make 5;
        # a whole set of gradients would make 6
        assert peak < 5.5 * param_bytes


class TestBlockwiseBackward:
    @pytest.mark.parametrize("n_features,hidden,n", [
        (300, (2048, 1024), 12),        # W0 in 128 and 128 + 44 rows
        # a 1-row remainder, which numpy alone would send to gemv
        (257, (2048,), 86),
        (1, (1024,), 12),               # a 1-column input, one block
        (2 * 131072 + 37, (), 12)])     # the 2-logit layer in 2 blocks
    def test_blocks_are_the_whole_products_bytes(self, rng, n_features,
                                                 hidden, n):
        net = FfnNet(n_features, hidden)
        params = {k: p.astype(np.float32)
                  for k, p in net.init_params(rng).items()}
        X = rng.standard_normal((n, n_features), dtype=np.float32)
        y = np.arange(n) % 2
        _, want = whole_gradients(net, params, X, y)
        logits, acts = net.forward(params, X)
        _, dlogits = models._softmax_ce(logits, y)
        rows_seen = {k: [] for k in params}
        for k, rows, g in net.backward(params, acts, dlogits):
            assert g.tobytes() == want[k][rows].tobytes(), (k, rows)
            rows_seen[k].append(rows)
            # a block updated as it arrives must not reach a later block
            params[k][rows] = np.nan
        for k in net.weight_names():
            seen = rows_seen[k]
            stops = [0] + [r.stop for r in seen]
            assert [r.start for r in seen] == stops[:-1]
            assert stops[-1] == len(params[k])
            assert all((r.stop - r.start) % 64 == 0 for r in seen[:-1])
        assert len(rows_seen["W0"]) == (2 if n_features > 1 else 1)

    def test_loss_and_grads_gathers_the_blocks(self, rng):
        net = FfnNet(300, (2048, 1024))
        params = net.init_params(rng)
        X = rng.standard_normal((10, 300))
        y = np.arange(10) % 2
        loss, grads = loss_and_grads(net, params, X, y)
        want_loss, want = whole_gradients(net, params, X, y)
        assert loss == want_loss and grads.keys() == want.keys()
        for k in grads:
            assert grads[k].tobytes() == want[k].tobytes(), k

    @pytest.mark.parametrize("variant", ["ffn", "cnn"])
    def test_fit_equals_the_whole_gradient_oracle(self, rng, variant):
        X, y = two_blobs(rng, n_per=25, p=300)
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=12, patience=4,
                          seed=3)
        if variant == "ffn":
            spec = ModelSpec("ffn", hidden_sizes=(2048, 1024), train=cfg)
            net = FfnNet(300, (2048, 1024))
        else:
            spec = ModelSpec("cnn", kernel=10, stride=10,
                             filters_per_channel=4, train=cfg)
            net = CnnNet(10, 30, kernel=10, stride=10, filters=4)
        model = train_all_rows(spec, X, y, n_channels=10, n_times=30)
        want = fit_with_whole_gradients(net, X, y, cfg)
        assert model.params.keys() == want.keys()
        for k in want:
            assert model.params[k].tobytes() == want[k].tobytes(), k


# ---------------------------------------------------------------------------
# shared prediction contract and serialization
# ---------------------------------------------------------------------------

def fit_every_variant(rng):
    """(X, model) for a short fit of each variant; each row of X is laid out
    as 2 channels x 10 samples, the smallest the default CNN kernel takes."""
    X, y = two_blobs(rng, n_per=15, p=20)
    for variant in VARIANTS:
        spec = ModelSpec(variant, train=TrainConfig(max_epochs=20))
        yield X, train_all_rows(spec, X, y, n_channels=2, n_times=10)


class TestPredictContract:
    def test_zero_weights_give_half(self):
        model = TrainedModel(models._predict_linear_logistic,
                             {"w": np.zeros(3), "b": 0.0}, 3)
        proba = model.predict_proba(np.ones((4, 3)))
        assert np.allclose(proba, 0.5)

    def test_rows_sum_to_one(self, rng):
        for X, model in fit_every_variant(rng):
            proba = model.predict_proba(X)
            assert proba.shape == (len(X), 2)
            assert np.allclose(proba.sum(axis=1), 1.0)
            assert np.all((proba >= 0) & (proba <= 1))

    def test_predict_thresholds_proba(self, rng):
        X, y = two_blobs(rng, n_per=15, p=3)
        model = train_all_rows(ModelSpec("lda"), X, y)
        proba = model.predict_proba(X)[:, 1]
        assert np.array_equal(predict(model, X), (proba >= 0.5).astype(int))

    def test_stateless_prediction(self, rng):
        X, y = two_blobs(rng, n_per=15, p=3)
        model = train_all_rows(ModelSpec("elastic_net"), X, y)
        Xq = rng.standard_normal((6, 3))
        before = Xq.copy()
        p1 = model.predict_proba(Xq)
        p2 = model.predict_proba(Xq)
        assert np.array_equal(p1, p2)
        assert np.array_equal(Xq, before)

    def test_dimension_mismatch(self, rng):
        for X, model in fit_every_variant(rng):
            with pytest.raises(DataError, match="dimension"):
                model.predict_proba(np.zeros((2, X.shape[1] + 1)))

    def test_train_checks_labels_for_every_variant(self, rng):
        X, y = two_blobs(rng, n_per=15, p=20)
        y[0] = 2
        for variant in VARIANTS:
            with pytest.raises(DataError, match="binary"):
                train_all_rows(ModelSpec(variant), X, y, n_channels=2,
                               n_times=10)

    def test_train_calls_the_module_trainer(self, rng, monkeypatch):
        # a wrapper bound to models.train_<variant> after import must see
        # the fit; tracing relies on it
        X, y = two_blobs(rng, n_per=15, p=3)
        seen = []
        real = models.train_lda

        def spy(*args):
            seen.append(args[2])
            return real(*args)

        monkeypatch.setattr(models, "train_lda", spy)
        spec = ModelSpec("lda")
        assert (train_all_rows(spec, X, y).predictor
                is models._predict_linear_logistic)
        assert seen == [spec]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_trainer_gets_a_fold(self, rng, monkeypatch, variant):
        """A raw fit is the Fold of every row with (mean, std) (0, 1), and
        a fit of fit_folds the Fold of its training rows."""
        X, y = two_blobs(rng, n_per=15, p=20)
        real, seen = getattr(models, f"train_{variant}"), []

        def spy(*args):
            seen.append(args[3])
            return real(*args)

        monkeypatch.setattr(models, f"train_{variant}", spy)
        spec = ModelSpec(variant, train=TrainConfig(max_epochs=3))
        folds = np.arange(len(y)) % 3
        train_all_rows(spec, X, y, n_channels=2, n_times=10)
        models.fit_folds(spec, X, y, folds, 2, 10)
        assert all(isinstance(fold, models.Fold) for fold in seen)
        assert [fold.rows.tolist() for fold in seen] == [
            list(range(len(y))),
            *(np.flatnonzero(folds != k).tolist() for k in range(3))]
        mean, std = seen[0].stats
        assert mean.tolist() == [0.0] * 20 and std.tolist() == [1.0] * 20
