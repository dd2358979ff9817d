"""End-to-end acceptance checks for the phone-pair decoding pipeline.

Each test covers one numbered criterion and prints a single
"[acceptance] criterion NN ...: PASS/FAIL" line (visible with `pytest -s`
or in captured output).  The synthetic corpora, seeds, and tolerances are
frozen so every run is deterministic.
"""

import contextlib
import itertools
import math
import os

import numpy as np
import pytest

from phonepair import dataio, evaluation, synth
from phonepair.dsp import apply_zero_phase, design_fir
from phonepair.epochs import PairDataset, build_pair_dataset, extract_epochs
from phonepair.evaluation import auc_score, kfold, wilcoxon
from phonepair.models import CnnNet, FfnNet, ModelSpec, train
from phonepair.pipeline import CvConfig, PreprocessingToggles, preprocess
from phonepair.studies import (ABLATION_BASELINE, ExperimentConfig,
                               run_ablation, run_band_sweep)

from helpers import (elastic_net_objective, loss_and_grads,
                     run_every_subcommand, wavelet_decompose)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


# ---------------------------------------------------------------------------
# shared synthetic corpora
# ---------------------------------------------------------------------------

def planted_spec(seed, **overrides):
    kw = dict(duration=32, phones=(("a", 60), ("e", 60)), n_channels=204,
              fs=1000, snr=2.0, band="Theta", seed=seed)
    kw.update(overrides)
    return synth.SynthSpec(**kw)


def write_corpus(root, spec, subject="s01", task="production"):
    os.makedirs(root, exist_ok=True)
    rec, events = synth.generate(spec)
    stem = os.path.join(root, f"{subject}_{task}")
    dataio.save_recording(rec, stem + ".nrd")
    dataio.save_events(events, stem + ".events.tsv")
    man = dataio.Manifest(subject_id=subject, task=task,
                          recording_path=stem + ".nrd",
                          events_path=stem + ".events.tsv",
                          sample_rate=spec.fs)
    dataio.save_manifest(man, stem + ".manifest.json")
    return stem + ".manifest.json"


def baseline_dataset(spec):
    """Full default preprocessing chain down to a balanced pair dataset."""
    rec, events = synth.generate(spec)
    prec = preprocess(rec, PreprocessingToggles())
    eps, _ = extract_epochs(prec, events, -0.1, 0.2)
    return build_pair_dataset(eps, "a", "e", seed=0)


def mean_accuracy(spec_ds, model_spec=None):
    folds = kfold(spec_ds.y, k=5, seed=0)
    per_fold = evaluation.evaluate(model_spec or ModelSpec("elastic_net"),
                                   spec_ds, folds)
    return float(np.mean([m["accuracy"] for m in per_fold]))


# ---------------------------------------------------------------------------
# 1. wavelet perfect reconstruction
# ---------------------------------------------------------------------------

def test_criterion_01_wavelet_perfect_reconstruction():
    with criterion(1, "two-level wavelet split reconstructs its input"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(64, 2000))
            x = rng.standard_normal(n)
            w = wavelet_decompose(x)
            err = np.linalg.norm(w.reconstruct() - x) / np.linalg.norm(x)
            assert err <= 1e-8, f"n={n} rel err {err:.2e}"


# ---------------------------------------------------------------------------
# 2. FIR design contract
# ---------------------------------------------------------------------------

def _dtft_magnitude(h, freqs, fs):
    n = np.arange(len(h))
    ph = np.exp(-2j * np.pi * np.outer(freqs, n) / fs)
    return np.abs(ph @ h)


def test_criterion_02_fir_design_contract():
    with criterion(2, "FIR symmetry, unity DC gain, 40 dB stopband, "
                      "sub-degree passband phase"):
        cases = [  # (lo, hi, fs)
            (None, 10.0, 100.0),
            (None, 31.0, 100.0),
            (0.2, 31.0, 100.0),
            (4.0, 7.0, 100.0),
            (8.0, 13.0, 100.0),
            (14.0, 31.0, 100.0),
            (32.0, 100.0, 1000.0),
        ]
        for lo, hi, fs in cases:
            f = design_fir(lo, hi, fs)
            h = f.coefficients
            assert len(h) % 2 == 1
            assert np.allclose(h, h[::-1], atol=1e-12), "filter not symmetric"

            if lo is None:
                assert abs(h.sum() - 1.0) <= 1e-6, "low-pass DC gain off"

            nyq = fs / 2.0
            stop = list(np.linspace(min(hi + f.transition_hi, nyq),
                                    nyq, 40, endpoint=False))
            if lo is not None and lo - f.transition_lo > 0:
                stop += list(np.linspace(0.0, lo - f.transition_lo, 20))
            mags = _dtft_magnitude(h, np.array(stop), fs)
            atten = -20.0 * np.log10(np.maximum(mags, 1e-12))
            assert atten.min() >= 40.0, (
                f"({lo},{hi},{fs}): worst stopband {atten.min():.1f} dB")

            # zero-phase application leaves a passband tone unshifted
            fc = math.sqrt(lo * hi) if lo is not None else hi / 2.0
            t = np.arange(int(20 * len(h))) / fs
            x = np.cos(2 * np.pi * fc * t)
            y = apply_zero_phase(f, x)
            mid = slice(len(t) // 4, 3 * len(t) // 4)
            z = np.exp(-2j * np.pi * fc * t[mid])
            phase = np.angle(np.sum(y[mid] * z) / np.sum(x[mid] * z))
            assert abs(math.degrees(phase)) < 1.0, (
                f"({lo},{hi},{fs}): passband phase {math.degrees(phase):.3f} deg")


# ---------------------------------------------------------------------------
# 3. elastic net optimality
# ---------------------------------------------------------------------------

def test_criterion_03_elastic_net_optimality():
    with criterion(3, "elastic net solutions survive coefficient "
                      "perturbation within 1e-5"):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(20, 60))
            p = int(rng.integers(3, 15))
            X = rng.standard_normal((n, p))
            w_true = rng.standard_normal(p)
            y = (X @ w_true + 0.5 * rng.standard_normal(n) > 0).astype(int)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            alpha = float(rng.uniform(1e-3, 0.2))
            l1 = float(rng.uniform(0.0, 1.0))
            model = train(ModelSpec("elastic_net", alpha=alpha, l1_ratio=l1),
                          X, y)
            w, b = model.params["w"], model.params["b"]
            ypm = 2.0 * y - 1.0
            obj = elastic_net_objective(X, ypm, w, b, alpha, l1)
            # no single-coefficient (or bias) nudge may beat the solution
            for j in range(p):
                for delta in (1e-3, -1e-3, 1e-4, -1e-4):
                    w2 = w.copy()
                    w2[j] += delta
                    alt = elastic_net_objective(X, ypm, w2, b, alpha, l1)
                    assert alt >= obj - 1e-5, (
                        f"trial {trial}: coord {j} delta {delta} "
                        f"improves objective by {obj - alt:.2e}")
            for delta in (1e-3, -1e-3):
                alt = elastic_net_objective(X, ypm, w, b + delta, alpha, l1)
                assert alt >= obj - 1e-5

        # heavier penalties never make the solution denser
        X = rng.standard_normal((80, 12))
        y = (X @ rng.standard_normal(12) > 0).astype(int)
        nnz = []
        for alpha in (1e-3, 1e-2, 1e-1, 1.0):
            m = train(ModelSpec("elastic_net", alpha=alpha, l1_ratio=0.9), X, y)
            nnz.append(int(np.sum(np.abs(m.params["w"]) > 1e-10)))
        assert all(a >= b for a, b in zip(nnz, nnz[1:])), nnz

        # and an extreme penalty zeroes the weights entirely
        m = train(ModelSpec("elastic_net", alpha=1e4, l1_ratio=1.0), X, y)
        assert np.allclose(m.params["w"], 0.0)


# ---------------------------------------------------------------------------
# 4. neural network gradients
# ---------------------------------------------------------------------------

def _fd_gradients(net, params, X, y, rng, max_entries=120, eps=1e-6):
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
            worst = max(worst, abs(fd - gflat[i])
                        / max(1.0, abs(fd), abs(gflat[i])))
    return worst


def test_criterion_04_neural_gradients():
    with criterion(4, "analytic gradients match finite differences "
                      "for every network family"):
        rng = np.random.default_rng(3)
        nets = [
            ("ffn-linear", FfnNet(10, ()), 10),
            ("ffn-one-hidden", FfnNet(10, (1024,)), 10),
            ("ffn-two-hidden", FfnNet(10, (2048, 1024)), 10),
            ("cnn", CnnNet(n_channels=4, n_times=31, kernel=10, stride=10,
                           filters=4), 4 * 31),
        ]
        for label, net, dim in nets:
            params = net.init_params(rng)
            X = rng.standard_normal((5, dim))
            y = rng.integers(0, 2, size=5)
            worst = _fd_gradients(net, params, X, y, rng)
            assert worst <= 1e-4, f"{label}: worst rel err {worst:.2e}"


# ---------------------------------------------------------------------------
# 5. signed-rank test against enumeration
# ---------------------------------------------------------------------------

def _bruteforce_signed_rank_p(d):
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


def test_criterion_05_wilcoxon_exact_and_normal():
    with criterion(5, "exact signed-rank p equals sign-flip enumeration; "
                      "normal tail agrees at the switch point"):
        rng = np.random.default_rng(11)
        done = 0
        while done < 50:
            n = int(rng.integers(4, 13))
            a = rng.integers(0, 6, size=n).astype(float)
            b = rng.integers(0, 6, size=n).astype(float)
            if np.all(a == b):
                continue
            res = wilcoxon(a, b)
            assert res.method == "exact"
            assert res.p == pytest.approx(_bruteforce_signed_rank_p(a - b),
                                          abs=1e-12)
            done += 1

        # at n = 25 (largest exact case) the tie-corrected normal
        # approximation with continuity correction stays within 0.01
        for seed in range(5):
            r = np.random.default_rng(100 + seed)
            d = r.standard_normal(25) + 0.3
            res = wilcoxon(d, np.zeros(25))
            assert res.method == "exact"
            n = res.n_effective
            ranks = evaluation._rankdata(np.abs(d[d != 0]))
            mean = n * (n + 1) / 4.0
            var = n * (n + 1) * (2 * n + 1) / 24.0
            _, ties = np.unique(ranks, return_counts=True)
            var -= np.sum(ties ** 3 - ties) / 48.0
            z = (res.W - mean + 0.5) / math.sqrt(var)
            p_normal = min(1.0, math.erfc(-z / math.sqrt(2.0)))
            assert abs(res.p - p_normal) <= 0.01


# ---------------------------------------------------------------------------
# 6. AUC against pairwise enumeration
# ---------------------------------------------------------------------------

def _bruteforce_auc(y, scores):
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
               for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_criterion_06_auc_matches_pair_counts():
    with criterion(6, "rank AUC equals brute-force pair counting"):
        rng = np.random.default_rng(17)
        for trial in range(100):
            n = int(rng.integers(4, 201))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            if trial % 2:  # heavy ties half the time
                scores = rng.integers(0, 5, size=n).astype(float)
            else:
                scores = rng.standard_normal(n)
            assert auc_score(y, scores) == pytest.approx(
                _bruteforce_auc(y, scores), abs=1e-12)


# ---------------------------------------------------------------------------
# 7. planted signal decodes; shuffled labels sit at chance
# ---------------------------------------------------------------------------

def test_criterion_07_planted_vs_shuffled_labels():
    with criterion(7, "baseline pipeline decodes a planted pair at >=0.90 "
                      "while shuffled labels stay at 0.50 +/- 0.07"):
        ds = baseline_dataset(planted_spec(seed=0))
        assert mean_accuracy(ds) >= 0.90

        within = 0
        for shuffle_seed in range(500, 520):
            y = ds.y.copy()
            np.random.default_rng(shuffle_seed).shuffle(y)
            ds_null = PairDataset(X=ds.X, y=y, pair=ds.pair,
                                  n_channels=ds.n_channels, n_times=ds.n_times)
            acc = mean_accuracy(ds_null)
            within += abs(acc - 0.5) <= 0.07
        assert within >= 18, f"only {within}/20 shuffled runs near chance"


# ---------------------------------------------------------------------------
# 8. frequency-band sweep recovers the planted band
# ---------------------------------------------------------------------------

def test_criterion_08_band_sweep_recovers_planted_band(tmp_path):
    with criterion(8, "band sweep peaks in the planted band and stays at "
                      "chance in bands with no signal"):
        manifest = write_corpus(str(tmp_path / "sweep"), planted_spec(seed=2))
        cfg = ExperimentConfig(manifests=(manifest,),
                               models=(ModelSpec("elastic_net"),),
                               cv=CvConfig(k=5, seed=0))
        table, _ = run_band_sweep(cfg)
        acc = {r["configuration"]: r["accuracy_mean"] for r in table.rows}
        bands = {k: v for k, v in acc.items() if k != "unfiltered"}
        assert len(bands) == 6
        # the planted band must sit at the top (ties allowed: a 200 ms
        # burst necessarily leaks into the adjacent band)
        assert acc["Theta"] == max(bands.values()), bands
        # bands far from the planted one carry no decodable signal
        for empty in ("Gamma", "HGA"):
            assert abs(acc[empty] - 0.5) <= 0.07, (empty, acc[empty])


# ---------------------------------------------------------------------------
# 9. ablation grid and the value of the sparsity penalty
# ---------------------------------------------------------------------------

def test_criterion_09_ablation_and_sparsity_penalty(tmp_path):
    with criterion(9, "ablation covers the full configuration grid, the "
                      "band-limit filter is non-critical on broadband "
                      "signal, and the L1 term wins on sparse data"):
        manifest = write_corpus(
            str(tmp_path / "abl"),
            planted_spec(seed=3, n_magnetometers=102))
        cfg = ExperimentConfig(manifests=(manifest,),
                               models=(ModelSpec("elastic_net"),),
                               cv=CvConfig(k=5, seed=0))
        table, _ = run_ablation(cfg)
        acc = {r["configuration"]: r["accuracy_mean"] for r in table.rows}
        expected = [ABLATION_BASELINE, "magnetometers_only",
                    "magnetometers_and_gradiometers", "no_wavelet",
                    "no_decimation", "no_l1_ridge", "no_l2_lasso",
                    "no_beta_filter"]
        assert [r["configuration"] for r in table.rows] == expected
        assert abs(acc["no_beta_filter"] - acc[ABLATION_BASELINE]) <= 0.02

        # with few active channels and weak SNR, the sparsity-inducing
        # penalty must beat a pure ridge on every corpus draw
        for seed in range(10):
            ds = baseline_dataset(planted_spec(
                seed=seed, snr=0.3, active_fraction=0.05))
            acc_l1 = mean_accuracy(ds, ModelSpec("elastic_net", l1_ratio=0.5))
            acc_l2 = mean_accuracy(ds, ModelSpec("elastic_net", l1_ratio=0.0))
            assert acc_l1 > acc_l2, (seed, acc_l1, acc_l2)


# ---------------------------------------------------------------------------
# 10. command-line determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    with criterion(10, "every CLI subcommand reproduces its outputs "
                       "byte for byte"):
        first, second = (run_every_subcommand(tmp_path / rep)
                         for rep in ("1", "2"))
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs"
