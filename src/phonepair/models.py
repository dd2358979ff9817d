"""The classifier families behind one train / predict_proba contract.
``_PREDICTORS`` is the one variant table; the module function
``train_<variant>`` fits each variant.

All variants are deterministic given (X, y, spec).  Elastic net is solved
to a KKT tolerance by L-BFGS-B over a growing working set of columns.
Neural models use hand-derived backpropagation with AdamW and
validation-based early stopping; no autodiff dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import optimize
from scipy.special import expit

from .dataio import ConfigError, DataError, check_numbers, check_size


class ConvergenceError(RuntimeError):
    """A numeric solver that did not converge: exit code 4."""


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

    def __post_init__(self):
        if self.variant not in _PREDICTORS:
            raise ConfigError(f"unknown model variant {self.variant!r}")
        check_numbers(self, ConfigError)
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if self.variant == "ffn" and self.hidden_sizes not in ALLOWED_HIDDEN_SIZES:
            raise ConfigError(
                f"ffn hidden_sizes must be one of {ALLOWED_HIDDEN_SIZES}"
            )


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
        X = np.asarray(X, dtype=float)
        p = self.meta.get("n_features")
        if p is not None and X.shape[1] != p:
            raise DataError(f"feature dimension {X.shape[1]} != trained {p}")
        return _PREDICTORS[self.variant](self, X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(int)


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
    z = X @ model.params["w"] + model.params["b"]
    return _two_col(expit(z))


# ---------------------------------------------------------------------------
# Linear discriminant analysis with shrunk pooled covariance
# ---------------------------------------------------------------------------

def train_lda(X, y, spec: ModelSpec) -> TrainedModel:
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
        """[n, C, P, k] windows, C-contiguous (the einsum weight gradient
        runs several times slower on a strided view)."""
        x = X.reshape(-1, self.C, self.T)
        return np.ascontiguousarray(
            sliding_window_view(x, self.k, axis=2)[:, :, ::self.s])

    def forward(self, params, X):
        Xw = self._windows(X)
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


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per AdamW block: the p, g, m and v blocks and two scratch blocks
# (6 x 256 KiB) stay in a 2 MiB L2 cache between the ufuncs of one block.
ADAMW_BLOCK = 1 << 15


def _adamw_step(p, g, m, v, scratch, t, lr, decay=None):
    """AdamW step number ``t`` (from 1), in place on ``p``, ``m`` and ``v``.

    Runs the out-of-place update

        m = beta1*m + (1-beta1)*g
        v = beta2*v + (1-beta2)*g*g
        p = p - lr*(m/(1-beta1**t)) / (sqrt(v/(1-beta2**t)) + eps)
        p = p - decay*p                     # weights only; decay = lr*wd

    with the same operations in the same order (a scalar times an array
    commutes exactly), so it is bitwise equal, and allocates nothing.
    ``p``, ``m`` and ``v`` are C-contiguous, so their flat reshapes are
    views; each is walked in ADAMW_BLOCK pieces.  ``scratch`` is [2, >=
    min(p.size, ADAMW_BLOCK)].
    """
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


def _train_neural(net, X, y, cfg: TrainConfig, variant, meta):
    """Full-batch AdamW on the training split; keeps the parameters of the
    epoch with the lowest validation loss and stops after ``patience``
    epochs without improvement.

    Allocates nothing per epoch outside the forward and backward passes:
    the moments, two scratch blocks for ``_adamw_step`` and the best
    parameters (refreshed with ``np.copyto``) are allocated once."""
    if len(y) < 10:
        raise DataError("need at least 10 samples to hold out a validation set")
    rng = np.random.default_rng(cfg.seed)
    params = net.init_params(rng)
    train_mask, val_mask = _stratified_holdout(y, cfg.val_fraction, rng)
    Xt, yt = X[train_mask], y[train_mask]
    Xv, yv = X[val_mask], y[val_mask]
    decay = {k: cfg.learning_rate * cfg.weight_decay
             for k in net.weight_names()}

    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    scratch = np.empty(
        (2, min(ADAMW_BLOCK, max(p.size for p in params.values()))))

    train_log, val_log = [], []
    best_loss = np.inf
    best_params = {k: p.copy() for k, p in params.items()}
    best_epoch = 0
    since_best = 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss, grads = net.loss_and_grads(params, Xt, yt)
        train_log.append(float(loss))
        for k, p in params.items():
            _adamw_step(p, grads[k], m[k], v[k], scratch, epoch,
                        cfg.learning_rate, decay.get(k))
        del grads  # so the next epoch's gradients do not coexist with them
        vlogits, _ = net.forward(params, Xv)
        vloss, _ = _softmax_ce(vlogits, yv)
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
    net = FfnNet(X.shape[1], spec.hidden_sizes)
    meta = {"n_features": X.shape[1], "hidden_sizes": tuple(spec.hidden_sizes)}
    return _train_neural(net, X, y, spec.train, "ffn", meta)


def train_cnn(X, y, spec: ModelSpec, n_channels=None,
              n_times=None) -> TrainedModel:
    if None in (n_channels, n_times) or n_channels * n_times != X.shape[1]:
        raise DataError(f"cnn needs X width {X.shape[1]} = n_channels*n_times"
                         f", got {n_channels}*{n_times}")
    net = CnnNet(n_channels, n_times, spec.kernel, spec.stride,
                 spec.filters_per_channel)
    meta = {
        "n_features": X.shape[1], "n_channels": n_channels, "n_times": n_times,
        "kernel": spec.kernel, "stride": spec.stride,
        "filters_per_channel": spec.filters_per_channel,
    }
    return _train_neural(net, X, y, spec.train, "cnn", meta)


def _predict_neural(model, X):
    m = model.meta
    if model.variant == "ffn":
        net = FfnNet(m["n_features"], tuple(m["hidden_sizes"]))
    else:
        net = CnnNet(m["n_channels"], m["n_times"], m["kernel"], m["stride"],
                     m["filters_per_channel"])
    logits, _ = net.forward(model.params, X)
    return _softmax(logits)


_PREDICTORS = {
    "elastic_net": _predict_linear_logistic,
    "lda": _predict_linear_logistic,
    "svm_rbf": _predict_svm,
    "ffn": _predict_neural,
    "cnn": _predict_neural,
}


def train(spec: ModelSpec, X, y, n_channels=None, n_times=None) -> TrainedModel:
    """Check X and y once, then fit them with ``train_<variant>``; only
    ``cnn`` reads the [n_channels, n_times] layout of each row."""
    X, y = _check_xy(X, y)
    # Looked up by name at each call, not from a table built at import, so
    # that a wrapper bound to the attribute later (perfbench's tracer) sees
    # every fit.
    trainer = globals()[f"train_{spec.variant}"]
    if spec.variant == "cnn":
        return trainer(X, y, spec, n_channels, n_times)
    return trainer(X, y, spec)
