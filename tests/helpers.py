"""Plain helpers shared by test modules.

They live outside ``conftest.py``: when ``tests`` and ``perfbench/tests``
are collected in one run, the module name ``conftest`` refers to the last
one loaded, so ``from conftest import ...`` is not reliable."""

import contextlib
import hashlib
import io
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from phonepair import dataio, dsp, epochs, evaluation, models, pipeline
from phonepair.cli import EXIT_OK, main
from phonepair.dataio import ChannelInfo, Recording


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory that tracemalloc traced
    while it ran, in bytes, as (result, peak)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def train_all_rows(spec, X, y, n_channels=None, n_times=None, start=None):
    """``models.train`` on every row of X with the identity Fold, whose
    (mean, std) is (0, 1) in each column, so the fit sees X as given."""
    shape = np.shape(X)
    fold = models.Fold(np.arange(shape[0]),
                       (np.zeros(shape[1:]), np.ones(shape[1:])))
    return models.train(spec, X, y, n_channels, n_times, start, fold)


def predict(model, X):
    """The class, 0 or 1, of each row of X: 1 where the model's class-1
    probability is at least 0.5."""
    return (model.predict_proba(X)[:, 1] >= 0.5).astype(int)


def elastic_net_objective(X, ypm, w, b, alpha, l1_ratio):
    """Mean logistic loss of the margins ypm * (X w + b), plus
    alpha * (l1_ratio * |w|_1 + (1 - l1_ratio) / 2 * |w|^2)."""
    loss = np.mean(np.logaddexp(0.0, -ypm * (X @ w + b)))
    return loss + alpha * (l1_ratio * np.abs(w).sum()
                           + 0.5 * (1 - l1_ratio) * w @ w)


def adamw_out_of_place(p, g, m, v, t, lr, wd, is_weight):
    """The AdamW update written with whole-array temporaries."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    mhat = m / (1 - beta1 ** t)
    vhat = v / (1 - beta2 ** t)
    p = p - lr * mhat / (np.sqrt(vhat) + eps)
    if is_weight:
        p = p - lr * wd * p
    return p, m, v


def loss_and_grads(net, params, X, y):
    """The mean cross-entropy of an FfnNet or CnnNet and its whole gradient
    in each parameter, gathered from the blocks of ``net.backward``."""
    logits, cache = net.forward(params, X)
    loss, dlogits = models._softmax_ce(logits, y)
    grads = {k: np.empty_like(p) for k, p in params.items()}
    for k, rows, g in net.backward(params, cache, dlogits):
        grads[k][rows] = g
    return loss, grads


def whole_gradients(net, params, X, y):
    """The mean cross-entropy of an FfnNet or CnnNet and its gradient in
    each parameter, each taken whole: one product per weight matrix, all
    from the parameters as given."""
    logits, cache = net.forward(params, X)
    loss, delta = models._softmax_ce(logits, y)
    if isinstance(net, models.CnnNet):
        Xw, h = cache
        dh = (delta @ params["Wl"].T).reshape(len(h), net.C, net.P, net.F)
        return loss, {"Wl": h.T @ delta, "bl": delta.sum(axis=0),
                      "bc": dh.sum(axis=(0, 1, 2)),
                      "Wc": dh.reshape(-1, net.F).T @ Xw.reshape(-1, net.k)}
    grads = {}
    for i in reversed(range(net.n_layers())):
        grads[f"W{i}"] = cache[i].T @ delta
        grads[f"b{i}"] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params[f"W{i}"].T) * (cache[i] > 0)
    return loss, grads


def fit_with_whole_gradients(net, X, y, cfg):
    """The best parameters of a net fit to every row of X as given, as
    ``train_all_rows`` fits them (same start, split, early
    stopping), but from ``whole_gradients`` and ``adamw_out_of_place``:
    the oracle for the trainer's block-by-block update."""
    params, rng = models.NetStart().take(net, cfg.seed)
    train, val = models._stratified_holdout(y, cfg.val_fraction, rng)
    X = X.astype(np.float32)
    Xt, Xv = net.prepare(X[train]), net.prepare(X[val])
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    best, best_loss, since_best = None, np.inf, 0
    for t in range(1, cfg.max_epochs + 1):
        _, grads = whole_gradients(net, params, Xt, y[train])
        for k in params:
            params[k], m[k], v[k] = adamw_out_of_place(
                params[k], grads[k], m[k], v[k], t, cfg.learning_rate,
                cfg.weight_decay, k in net.weight_names())
        vloss, _ = models._softmax_ce(net.forward(params, Xv)[0], y[val])
        if vloss < best_loss - 1e-12:
            best, best_loss, since_best = dict(params), vloss, 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return best


def noise_by_rows(rng, data, fs):
    """``synth._one_over_f_noise`` made one row at a time, each with its own
    draw, FFT pair and std: the oracle for its row blocks."""
    n = data.shape[1]
    for row in data:
        white = rng.standard_normal(n)
        scale = 1.0 / np.maximum(np.fft.rfftfreq(n, 1.0 / fs), 0.5)
        scale[0] = 0.0
        x = np.fft.irfft(np.fft.rfft(white) * scale, n)
        row[:] = x / x.std()


@dataclass(frozen=True)
class WaveletDecomposition:
    """Full-length branch signals of the two-level split s = a2 + d2 + d1."""

    a1: np.ndarray
    d1: np.ndarray
    a2: np.ndarray
    d2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.a2 + self.d2 + self.d1


def wavelet_decompose(x):
    """Two-level db4 analysis with symmetric extension, each component
    reconstructed back to the input length, from ``dsp``'s analysis and
    synthesis branches: the oracle for ``dsp.wavelet_denoise``, its
    approximation ``a2``."""
    x = dsp._check_signal(x)
    n = len(x)
    dec_lo, rec_lo = dsp._DEC_LO, dsp._REC_LO
    dec_hi = (-1) ** np.arange(len(rec_lo)) * rec_lo
    rec_hi = dec_hi[::-1].copy()
    cA1 = dsp._analysis(x, dec_lo)
    n1 = len(cA1)
    return WaveletDecomposition(
        a1=dsp._synthesis(cA1, rec_lo, n),
        d1=dsp._synthesis(dsp._analysis(x, dec_hi), rec_hi, n),
        a2=dsp._synthesis(dsp._synthesis(dsp._analysis(cA1, dec_lo), rec_lo,
                                         n1), rec_lo, n),
        d2=dsp._synthesis(dsp._synthesis(dsp._analysis(cA1, dec_hi), rec_hi,
                                         n1), rec_lo, n),
    )


def preprocess_file(path, toggles):
    """``pipeline.preprocess(dataio.load_recording(path), toggles)``, byte
    for byte, from ``pipeline.preprocessed_groups``, copied into one whole
    output: the oracle for the ``preprocess`` command, which writes each
    group as it is made."""
    for selected, rows, part in pipeline.preprocessed_groups(path, toggles):
        if rows.start == 0:
            out = np.empty((len(selected), part.n_samples), part.data.dtype)
        out[rows] = part.data
    return Recording(part.sample_rate, selected, out)


def build_pair_dataset_by_copy(eps, phone_a, phone_b, seed):
    """``epochs.build_pair_dataset`` with X a copy of the epochs' rows,
    ``eps.data[rows]``, so the epochs never move: the oracle for X as the
    epochs reordered in place."""
    ds = epochs.build_pair_dataset(epochs.Epochs(eps.data.copy(), eps.labels),
                                   phone_a, phone_b, seed)
    return replace(ds, X=eps.data[ds.rows].reshape(len(ds.rows), -1))


def evaluate_recording_by_copies(eps, events, subject, task, runs, cv,
                                 min_count):
    """``pipeline.evaluate_recording`` with "auto" pairs, each pair's X a
    copy of its epochs' rows, so the epochs never move: the oracle for the
    pairs fitted on the epochs reordered in place."""
    pairs = pipeline._pairs_with_epochs(
        pipeline.resolve_pairs("auto", epochs.count_phones(events, min_count)),
        eps.labels, min_count, f"subject {subject} task {task}")
    rows = []
    for pair in pairs:
        ds = build_pair_dataset_by_copy(eps, *pair, seed=cv.seed)
        folds = evaluation.kfold(ds.y, k=cv.k, seed=cv.seed)
        for configuration, spec in runs:
            for fold, m in enumerate(evaluation.evaluate(spec, ds, folds)):
                rows.append({"subject": subject, "task": task,
                             "pair": "-".join(pair), "model": spec.name,
                             "configuration": configuration, "fold": fold,
                             **m})
    return rows


def make_recording(n_channels=4, n_samples=1000, fs=1000.0, kinds=None, seed=0):
    rng = np.random.default_rng(seed)
    if kinds is None:
        kinds = ["gradiometer"] * n_channels
    channels = tuple(
        ChannelInfo(f"CH{i:03d}", kind, "T/m") for i, kind in enumerate(kinds)
    )
    data = rng.standard_normal((n_channels, n_samples))
    return Recording(sample_rate=fs, channels=channels, data=data)


DIGESTS = "digests.sha256"
RECORDING = dict(duration=20, phones=[["a", 24], ["e", 24]], n_channels=12,
                 n_magnetometers=4, fs=1000, snr=2.5, active_fraction=0.25)
SESSIONS = (("s01", "production", 21), ("s02", "production", 22),
            ("s01", "listening", 23))
NETS = {"learning_rate": 1e-2, "max_epochs": 5, "patience": 3}
MODELS = [{"variant": "elastic_net"}, {"variant": "lda"},
          {"variant": "svm_rbf"}, {"variant": "ffn", "train": NETS},
          {"variant": "cnn", "kernel": 5, "stride": 5, "train": NETS}]


def run_every_subcommand(root: Path) -> dict[str, bytes]:
    """Run every subcommand on one small synthetic corpus into ``root``;
    returns {"<command>/<file>": bytes} of each text output, with ``root``
    masked as ``<run>``, and under DIGESTS the SHA-256 of each recording
    and of the float64 output on one recording of the default chain and of
    the wavelet alone (the full-rate denoiser, without decimation)."""
    root.mkdir(parents=True, exist_ok=True)

    def config(name, doc):
        path = str(root / f"{name}.config.json")
        dataio.write_json(path, doc)
        return path

    def run(cmd, cfg):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([cmd, "--config", cfg, "--out", str(root / cmd)])
        assert code == EXIT_OK, f"{cmd} exited {code}"
        assert any((root / cmd).iterdir()), f"{cmd} wrote no output"

    run("synth", config("synth", {"recordings": [
        dict(subject_id=s, task=t, seed=seed, **RECORDING)
        for s, t, seed in SESSIONS]}))
    manifests = [str(root / "synth" / f"{s}_{t}.manifest.json")
                 for s, t, _ in SESSIONS]

    # an alignment pair with a planted half-second lag
    rec = dataio.load_recording(dataio.load_manifest(manifests[0])
                                .recording_path)
    audio = np.random.default_rng(0).standard_normal(rec.n_samples)
    misc = np.roll(audio, int(0.5 * rec.sample_rate))
    ch = (dataio.ChannelInfo("MISC001", "misc", "V"),)
    for name, x in (("misc", misc), ("audio", audio)):
        dataio.save_recording(dataio.Recording(rec.sample_rate, ch, x[None]),
                              str(root / f"{name}.nrd"))
    run("align", config("align", {"misc": str(root / "misc.nrd"),
                                  "audio": str(root / "audio.nrd"),
                                  "window": 1.0}))
    run("preprocess", config("preprocess", {"manifests": manifests[:1]}))
    study = {"manifests": manifests, "cv": {"k": 3, "seed": 0},
             "min_count": 20}
    run("run-models", config("models", {**study, "models": MODELS}))
    en = config("study", {**study, "models": [{"variant": "elastic_net"}]})
    for cmd in ("run-tasks", "sweep-bands", "ablate"):
        run(cmd, en)
    run("report", config("report", {"manifests": manifests}))

    def digest(data, name):
        return f"{hashlib.sha256(data).hexdigest()}  {name}\n"

    files = {}
    digests = [digest(pipeline.preprocess(rec, toggles).data.tobytes(),
                      f"s01_production float64 {name}")
               for name, toggles in [
                   ("chain", pipeline.PreprocessingToggles()),
                   ("wavelet", pipeline.PreprocessingToggles(
                       decimation_factor=1, band_limit=None))]]
    for path in sorted(root.glob("*/*")):
        name = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if path.suffix == ".nrd":
            digests.append(digest(data, name))
        else:
            files[name] = data.replace(str(root).encode(), b"<run>")
    files[DIGESTS] = "".join(digests).encode()
    return files
