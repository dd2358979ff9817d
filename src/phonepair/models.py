"""The six classifier families behind a uniform train / predict_proba
contract.

All variants are deterministic given (X, y, spec).  Elastic net is solved
to a KKT tolerance by L-BFGS-B over a growing working set of columns.
Neural models use hand-derived backpropagation with AdamW and
validation-based early stopping; no autodiff dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.special import expit


class ModelError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


ALLOWED_HIDDEN_SIZES = ((), (1024,), (2048, 1024))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-3
    max_epochs: int = 500
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0


@dataclass(frozen=True)
class ModelSpec:
    variant: str
    # elastic net
    alpha: float = 1e-2
    l1_ratio: float = 0.5
    # svm_rbf
    C: float = 1.0
    gamma: float | None = None  # None = 1 / (p * var(X))
    # lda
    shrinkage: float = 0.5
    # ffn
    hidden_sizes: tuple = ()
    # cnn
    kernel: int = 10
    stride: int = 10
    filters_per_channel: int = 8
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.variant not in ("elastic_net", "svm_rbf", "lda", "ffn", "cnn"):
            raise ModelError(f"unknown model variant {self.variant!r}")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if self.variant == "ffn" and self.hidden_sizes not in ALLOWED_HIDDEN_SIZES:
            raise ModelError(
                f"ffn hidden_sizes must be one of {ALLOWED_HIDDEN_SIZES}"
            )
        if self.variant == "elastic_net":
            if self.alpha <= 0 or not (0 <= self.l1_ratio <= 1):
                raise ModelError("need alpha > 0 and l1_ratio in [0, 1]")
        if self.variant == "svm_rbf" and self.C <= 0:
            raise ModelError("C must be positive")
        if self.variant == "lda" and not (0 <= self.shrinkage <= 1):
            raise ModelError("shrinkage must be in [0, 1]")


@dataclass
class TrainedModel:
    variant: str
    params: dict                     # name -> np.ndarray or scalar
    meta: dict = field(default_factory=dict)
    training_log: list = field(default_factory=list)
    val_log: list = field(default_factory=list)
    best_epoch: int | None = None

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-row class probabilities, shape [n, 2], rows summing to 1."""
        return _PREDICTORS[self.variant](self, np.asarray(X, dtype=float))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(int)


def _check_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ModelError("X must be a nonempty 2-D matrix")
    if len(y) != X.shape[0]:
        raise ModelError("X and y length mismatch")
    if not set(np.unique(y)) <= {0, 1}:
        raise ModelError("labels must be binary 0/1")
    return X, y.astype(int)


def _check_dim(model: TrainedModel, X: np.ndarray):
    p = model.meta.get("n_features")
    if p is not None and X.shape[1] != p:
        raise ModelError(f"feature dimension {X.shape[1]} != trained {p}")


def _two_col(p1: np.ndarray) -> np.ndarray:
    p1 = np.clip(p1, 0.0, 1.0)
    return np.column_stack([1.0 - p1, p1])


# ---------------------------------------------------------------------------
# Elastic net logistic regression (working-set L-BFGS-B, KKT stopping rule)
# ---------------------------------------------------------------------------

EN_KKT_TOL = 1e-6
EN_MAX_ITER = 10000     # L-BFGS-B iterations summed over all rounds
EN_MAX_ROUNDS = 50
EN_MIN_WORKING_SET = 256


def elastic_net_objective(X, ypm, w, b, alpha, l1_ratio):
    margin = ypm * (X @ w + b)
    # softplus(-margin), numerically stable
    loss = np.mean(np.logaddexp(0.0, -margin))
    pen = alpha * (l1_ratio * np.abs(w).sum() + 0.5 * (1 - l1_ratio) * w @ w)
    return loss + pen


def _smooth_grad(X, ypm, w, b, alpha, l1):
    """Margins, and the gradient in w and in b of the loss plus L2 term."""
    margin = ypm * (X @ w + b)
    gz = -ypm * expit(-margin) / len(ypm)
    return margin, X.T @ gz + alpha * (1 - l1) * w, gz.sum()


def _solve_working_set(Xs, ypm, w, b, alpha, l1, maxiter):
    """L-BFGS-B over w = u - v (u, v >= 0) and b; returns (w, b, iters)."""
    k = Xs.shape[1]

    def fun(z):
        wz = z[:k] - z[k:-1]
        margin, gw, gb = _smooth_grad(Xs, ypm, wz, z[-1], alpha, l1)
        f = (np.mean(np.logaddexp(0.0, -margin))
             + alpha * (l1 * z[:-1].sum() + 0.5 * (1 - l1) * wz @ wz))
        return f, np.concatenate([gw + alpha * l1, alpha * l1 - gw, [gb]])

    z0 = np.concatenate([np.maximum(w, 0.0), np.maximum(-w, 0.0), [b]])
    res = optimize.minimize(
        fun, z0, jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * k) + [(None, None)],
        options={"maxiter": maxiter, "gtol": 0.3 * EN_KKT_TOL, "ftol": 0.0})
    return res.x[:k] - res.x[k:-1], float(res.x[-1]), int(res.nit)


def train_elastic_net(X, y, spec: ModelSpec) -> TrainedModel:
    """Minimise mean logistic loss + alpha*(l1*|w|_1 + (1-l1)/2*|w|^2).

    Each round takes the full gradient once and warm-starts L-BFGS-B on the
    nonzero weights plus the zero ones that break the KKT conditions worst:
    at least EN_MIN_WORKING_SET columns (or p) and twice the nonzero count.
    Stops when the largest KKT violation, intercept included, is at most
    EN_KKT_TOL; raises ConvergenceError once EN_MAX_ITER iterations or
    EN_MAX_ROUNDS rounds are spent."""
    X, y = _check_xy(X, y)
    p = X.shape[1]
    ypm = 2.0 * y - 1.0
    alpha, l1 = spec.alpha, spec.l1_ratio
    w, b = np.zeros(p), 0.0
    size, n_iter = min(EN_MIN_WORKING_SET, p), 0
    for rounds in range(EN_MAX_ROUNDS + 1):
        _, g, gb = _smooth_grad(X, ypm, w, b, alpha, l1)
        viol = np.where(w != 0, np.abs(g + alpha * l1 * np.sign(w)),
                        np.maximum(np.abs(g) - alpha * l1, 0.0))
        kkt = float(max(viol.max(), abs(gb)))
        if kkt <= EN_KKT_TOL:
            break
        if rounds == EN_MAX_ROUNDS or n_iter >= EN_MAX_ITER:
            raise ConvergenceError(
                f"elastic net KKT violation {kkt:.2e} > {EN_KKT_TOL} after "
                f"{rounds} working-set rounds and {n_iter} L-BFGS-B "
                f"iterations (limits {EN_MAX_ROUNDS} and {EN_MAX_ITER})")
        size = min(p, max(size, 2 * np.count_nonzero(w)))
        # nonzero weights first, then zero ones by violation
        score = np.where(w != 0, np.inf, viol)
        ws = np.sort(np.argsort(-score, kind="stable")[:size])
        ws = ws[score[ws] > 0]
        w_ws, b, it = _solve_working_set(
            X[:, ws], ypm, w[ws], b, alpha, l1, EN_MAX_ITER - n_iter)
        n_iter += it
        w = np.zeros(p)
        w[ws] = w_ws
    return TrainedModel(
        variant="elastic_net",
        params={"w": w, "b": b},
        meta={"n_features": p, "alpha": alpha, "l1_ratio": l1,
              "n_iter": n_iter, "kkt_violation": kkt,
              "objective": elastic_net_objective(X, ypm, w, b, alpha, l1)},
    )


def _predict_linear_logistic(model, X):
    _check_dim(model, X)
    z = X @ model.params["w"] + model.params["b"]
    return _two_col(expit(z))


# ---------------------------------------------------------------------------
# Linear discriminant analysis with shrunk pooled covariance
# ---------------------------------------------------------------------------

def train_lda(X, y, spec: ModelSpec) -> TrainedModel:
    X, y = _check_xy(X, y)
    n, p = X.shape
    n0, n1 = int(np.sum(y == 0)), int(np.sum(y == 1))
    if n0 < 2 or n1 < 2:
        raise ModelError("each class needs at least 2 samples for LDA")
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
            raise ModelError(
                "pooled covariance is singular (p > n - 2); use shrinkage > 0"
            )
        cov = Xc.T @ Xc / dof
        try:
            w = np.linalg.solve(cov, diff)
        except np.linalg.LinAlgError as exc:
            raise ModelError(
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
    return TrainedModel(
        variant="lda",
        params={"w": w, "b": b},
        meta={"n_features": p, "shrinkage": s},
    )


# ---------------------------------------------------------------------------
# C-SVC with RBF kernel, solved by SMO
# ---------------------------------------------------------------------------

SVM_TOL = 1e-3
SVM_MAX_PASSES = 200


def _rbf_kernel(A, B, gamma):
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    d2 = np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * d2)


def _fit_platt(decision, y, iters=100):
    """Two-parameter logistic link p = sigmoid(a*f + c), Newton iterations."""
    a, c = 1.0, 0.0
    f = decision
    for _ in range(iters):
        z = a * f + c
        p = expit(z)
        g = p - y
        ga, gc = f @ g, g.sum()
        wgt = np.maximum(p * (1 - p), 1e-12)
        haa = (wgt * f) @ f + 1e-9
        hac = wgt @ f
        hcc = wgt.sum() + 1e-9
        det = haa * hcc - hac * hac
        da = (hcc * ga - hac * gc) / det
        dc = (haa * gc - hac * ga) / det
        a, c = a - da, c - dc
        if max(abs(da), abs(dc)) < 1e-10:
            break
    return a, c


def train_svm_rbf(X, y, spec: ModelSpec) -> TrainedModel:
    X, y = _check_xy(X, y)
    n, p = X.shape
    ypm = 2.0 * y - 1.0
    gamma = spec.gamma
    if gamma is None:
        v = X.var()
        gamma = 1.0 / (p * v) if v > 0 else 1.0
    C = spec.C
    K = _rbf_kernel(X, X, gamma)
    alphas = np.zeros(n)
    b = 0.0
    rng = np.random.default_rng(spec.train.seed)

    def f_all():
        return (alphas * ypm) @ K + b

    def take_step(i, j, E):
        nonlocal b
        if i == j:
            return False
        ai, aj = alphas[i], alphas[j]
        yi, yj = ypm[i], ypm[j]
        if yi != yj:
            L, H = max(0.0, aj - ai), min(C, C + aj - ai)
        else:
            L, H = max(0.0, ai + aj - C), min(C, ai + aj)
        if H - L < 1e-12:
            return False
        eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
        if eta >= 0:
            return False
        aj_new = aj - yj * (E[i] - E[j]) / eta
        aj_new = min(max(aj_new, L), H)
        if abs(aj_new - aj) < 1e-12 * (aj_new + aj + 1e-12):
            return False
        ai_new = ai + yi * yj * (aj - aj_new)
        b1 = b - E[i] - yi * (ai_new - ai) * K[i, i] - yj * (aj_new - aj) * K[i, j]
        b2 = b - E[j] - yi * (ai_new - ai) * K[i, j] - yj * (aj_new - aj) * K[j, j]
        if 0 < ai_new < C:
            b = b1
        elif 0 < aj_new < C:
            b = b2
        else:
            b = 0.5 * (b1 + b2)
        alphas[i], alphas[j] = ai_new, aj_new
        return True

    passes = 0
    while passes < SVM_MAX_PASSES:
        E = f_all() - ypm
        changed = 0
        for i in range(n):
            r = E[i] * ypm[i]
            if (r < -SVM_TOL and alphas[i] < C) or (r > SVM_TOL and alphas[i] > 0):
                j = int(np.argmax(np.abs(E - E[i])))
                if not take_step(i, j, E):
                    j = int(rng.integers(n))
                    if not take_step(i, j, E):
                        continue
                changed += 1
                E = f_all() - ypm
        if changed == 0:
            break
        passes += 1
    else:
        raise ConvergenceError(
            f"SMO did not satisfy KKT tolerance {SVM_TOL} in {SVM_MAX_PASSES} passes"
        )

    decision = f_all()
    a_link, c_link = _fit_platt(decision, y.astype(float))
    sv = alphas > 1e-12
    return TrainedModel(
        variant="svm_rbf",
        params={
            "support_vectors": X[sv],
            "dual_coef": (alphas * ypm)[sv],
            "b": b,
            "gamma": gamma,
            "link_a": a_link,
            "link_c": c_link,
        },
        meta={"n_features": p, "C": C, "n_support": int(sv.sum()),
              "alphas": alphas, "ypm": ypm},
    )


def svm_decision(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    P = model.params
    K = _rbf_kernel(np.asarray(X, dtype=float), P["support_vectors"], P["gamma"])
    return K @ P["dual_coef"] + P["b"]


def _predict_svm(model, X):
    _check_dim(model, X)
    f = svm_decision(model, X)
    return _two_col(expit(model.params["link_a"] * f + model.params["link_c"]))


# ---------------------------------------------------------------------------
# Neural models: FFN (0/1/2 hidden ReLU layers) and depthwise-conv CNN
# ---------------------------------------------------------------------------

def _softmax(logits):
    ez = np.exp(logits - logits.max(axis=1, keepdims=True))
    return ez / ez.sum(axis=1, keepdims=True)


def _softmax_ce(logits, y):
    """Mean cross-entropy and d(loss)/d(logits)."""
    probs = _softmax(logits)
    n = len(y)
    loss = -np.mean(np.log(probs[np.arange(n), y] + 1e-300))
    probs[np.arange(n), y] -= 1.0
    return loss, probs / n


class FfnNet:
    """Fully connected net: input -> hidden ReLU layers -> 2 logits."""

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

    def loss_and_grads(self, params, X, y):
        logits, acts = self.forward(params, X)
        loss, dlogits = _softmax_ce(logits, y)
        grads = {}
        delta = dlogits
        for i in reversed(range(self.n_layers())):
            h_in = acts[i]
            grads[f"W{i}"] = h_in.T @ delta
            grads[f"b{i}"] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ params[f"W{i}"].T) * (acts[i] > 0)
        return loss, grads

    def weight_names(self):
        return [f"W{i}" for i in range(self.n_layers())]


class CnnNet:
    """Depthwise 1-D convolution shared across channels, then linear.

    Kernel/stride 10 with no padding maps each channel's time axis from T
    samples to P = (T - kernel) // stride + 1 positions; the [channel,
    position, filter] activations feed a linear layer with 2 outputs.
    """

    def __init__(self, n_channels, n_times, kernel=10, stride=10, filters=8):
        if n_times < kernel:
            raise ModelError(f"epoch length {n_times} is below kernel {kernel}")
        self.C, self.T = n_channels, n_times
        self.k, self.s, self.F = kernel, stride, filters
        self.P = (n_times - kernel) // stride + 1

    def init_params(self, rng: np.random.Generator) -> dict:
        return {
            "Wc": rng.standard_normal((self.F, self.k)) * np.sqrt(2.0 / self.k),
            "bc": np.zeros(self.F),
            "Wl": rng.standard_normal((self.C * self.P * self.F, 2))
            * np.sqrt(2.0 / (self.C * self.P * self.F)),
            "bl": np.zeros(2),
        }

    def _windows(self, X):
        x = X.reshape(-1, self.C, self.T)
        return np.stack(
            [x[:, :, p * self.s: p * self.s + self.k] for p in range(self.P)], axis=2
        )  # [n, C, P, k]

    def forward(self, params, X):
        Xw = self._windows(X)
        conv = Xw @ params["Wc"].T + params["bc"]          # [n, C, P, F]
        h = conv.reshape(len(conv), -1)                    # order: C, P, F
        return h @ params["Wl"] + params["bl"], (Xw, h)

    def loss_and_grads(self, params, X, y):
        logits, (Xw, h) = self.forward(params, X)
        loss, dlogits = _softmax_ce(logits, y)
        grads = {
            "Wl": h.T @ dlogits,
            "bl": dlogits.sum(axis=0),
        }
        dh = (dlogits @ params["Wl"].T).reshape(len(h), self.C, self.P, self.F)
        grads["bc"] = dh.sum(axis=(0, 1, 2))
        grads["Wc"] = np.einsum("ncpf,ncpk->fk", dh, Xw)
        return loss, grads

    def weight_names(self):
        return ["Wc", "Wl"]


def _stratified_holdout(y, val_fraction, rng):
    val_idx = []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        n_val = max(1, int(round(val_fraction * len(idx))))
        val_idx.extend(idx[:n_val])
    val_mask = np.zeros(len(y), dtype=bool)
    val_mask[val_idx] = True
    return ~val_mask, val_mask


def _train_neural(net, X, y, cfg: TrainConfig, variant, meta):
    if len(y) < 10:
        raise ModelError("need at least 10 samples to hold out a validation set")
    rng = np.random.default_rng(cfg.seed)
    params = net.init_params(rng)
    train_mask, val_mask = _stratified_holdout(y, cfg.val_fraction, rng)
    Xt, yt = X[train_mask], y[train_mask]
    Xv, yv = X[val_mask], y[val_mask]
    weight_names = set(net.weight_names())

    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr, wd = cfg.learning_rate, cfg.weight_decay

    train_log, val_log = [], []
    best_loss = np.inf
    best_params = {k: p.copy() for k, p in params.items()}
    best_epoch = 0
    since_best = 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss, grads = net.loss_and_grads(params, Xt, yt)
        train_log.append(float(loss))
        for k in params:
            g = grads[k]
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            mhat = m[k] / (1 - beta1 ** epoch)
            vhat = v[k] / (1 - beta2 ** epoch)
            params[k] = params[k] - lr * mhat / (np.sqrt(vhat) + eps)
            if k in weight_names:
                params[k] = params[k] - lr * wd * params[k]
        vlogits, _ = net.forward(params, Xv)
        vloss, _ = _softmax_ce(vlogits, yv)
        val_log.append(float(vloss))
        if vloss < best_loss - 1e-12:
            best_loss = float(vloss)
            best_params = {k: p.copy() for k, p in params.items()}
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return TrainedModel(
        variant=variant,
        params=best_params,
        meta=meta,
        training_log=train_log,
        val_log=val_log,
        best_epoch=best_epoch,
    )


def train_ffn(X, y, spec: ModelSpec) -> TrainedModel:
    X, y = _check_xy(X, y)
    net = FfnNet(X.shape[1], spec.hidden_sizes)
    meta = {"n_features": X.shape[1], "hidden_sizes": tuple(spec.hidden_sizes)}
    return _train_neural(net, X, y, spec.train, "ffn", meta)


def train_cnn(X, y, spec: ModelSpec, n_channels: int, n_times: int) -> TrainedModel:
    X, y = _check_xy(X, y)
    if n_channels * n_times != X.shape[1]:
        raise ModelError(
            f"X width {X.shape[1]} is not n_channels*n_times = "
            f"{n_channels}*{n_times}"
        )
    net = CnnNet(n_channels, n_times, spec.kernel, spec.stride,
                 spec.filters_per_channel)
    meta = {
        "n_features": X.shape[1], "n_channels": n_channels, "n_times": n_times,
        "kernel": spec.kernel, "stride": spec.stride,
        "filters_per_channel": spec.filters_per_channel,
    }
    return _train_neural(net, X, y, spec.train, "cnn", meta)


def _predict_ffn(model, X):
    _check_dim(model, X)
    net = FfnNet(model.meta["n_features"], tuple(model.meta["hidden_sizes"]))
    logits, _ = net.forward(model.params, X)
    return _softmax(logits)


def _predict_cnn(model, X):
    _check_dim(model, X)
    net = CnnNet(
        model.meta["n_channels"], model.meta["n_times"], model.meta["kernel"],
        model.meta["stride"], model.meta["filters_per_channel"],
    )
    logits, _ = net.forward(model.params, X)
    return _softmax(logits)


_PREDICTORS = {
    "elastic_net": _predict_linear_logistic,
    "lda": _predict_linear_logistic,
    "svm_rbf": _predict_svm,
    "ffn": _predict_ffn,
    "cnn": _predict_cnn,
}


def train(spec: ModelSpec, X, y, n_channels=None, n_times=None) -> TrainedModel:
    """Dispatch to the variant's trainer."""
    if spec.variant == "elastic_net":
        return train_elastic_net(X, y, spec)
    if spec.variant == "lda":
        return train_lda(X, y, spec)
    if spec.variant == "svm_rbf":
        return train_svm_rbf(X, y, spec)
    if spec.variant == "ffn":
        return train_ffn(X, y, spec)
    if spec.variant == "cnn":
        if n_channels is None or n_times is None:
            raise ModelError("cnn requires n_channels and n_times")
        return train_cnn(X, y, spec, n_channels, n_times)
    raise ModelError(f"unknown variant {spec.variant!r}")
