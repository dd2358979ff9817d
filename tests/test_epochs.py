import importlib
import pathlib

import numpy as np
import pytest

from phonepair.dataio import Event, EventTable
from phonepair.dataio import DataError
from phonepair.epochs import (Epochs, build_pair_dataset, count_phones,
                              extract_epochs, rows_first)

from helpers import build_pair_dataset_by_copy, make_recording


WINDOW = (-0.1, 0.2)  # the default EpochWindow


def events_of(*rows):
    return EventTable(tuple(Event(*r) for r in rows))


class TestCountPhones:
    def test_basic_counts(self):
        selected = count_phones(events_of((0.1, 0.2, "a"), (0.3, 0.4, "a"),
                                          (0.5, 0.6, "e")), min_count=1)
        assert selected == ("a", "e")

    def test_most_frequent_first(self):
        selected = count_phones(events_of((0.1, 0.2, "e"), (0.3, 0.4, "a"),
                                          (0.5, 0.6, "e")), min_count=1)
        assert selected == ("e", "a")

    def test_min_count_filter(self):
        selected = count_phones(events_of((0.1, 0.2, "a"), (0.3, 0.4, "a"),
                                          (0.5, 0.6, "e")), min_count=2)
        assert selected == ("a",)

    def test_empty_table(self):
        assert count_phones(EventTable(()), min_count=1) == ()


class TestExtractEpochs:
    def test_window_sample_count(self):
        rec = make_recording(2, 200, fs=100.0)
        eps, skipped = extract_epochs(rec, events_of((0.5, 0.58, "a")), *WINDOW)
        assert skipped == 0
        assert eps.data[0].shape == (2, 31)

    def test_constant_channel_zeroed(self):
        rec = make_recording(1, 200, fs=100.0)
        rec = rec.with_data(np.full((1, 200), 5.0))
        eps, _ = extract_epochs(rec, events_of((0.5, 0.58, "a")), *WINDOW)
        assert np.allclose(eps.data[0], 0.0)

    def test_out_of_bounds_skipped(self):
        rec = make_recording(1, 100, fs=100.0)
        eps, skipped = extract_epochs(rec, events_of((0.05, 0.1, "a"),
                                                     (0.5, 0.58, "e")), *WINDOW)
        assert skipped == 1
        assert len(eps) == 1
        assert eps.labels[0] == "e"

    def test_baseline_invariance(self):
        rec = make_recording(3, 300, fs=100.0, seed=9)
        eps1, _ = extract_epochs(rec, events_of((1.0, 1.1, "a")), *WINDOW)
        offsets = np.array([[10.0], [-4.0], [100.0]])
        shifted = rec.with_data(rec.data + offsets)
        eps2, _ = extract_epochs(shifted, events_of((1.0, 1.1, "a")), *WINDOW)
        assert np.allclose(eps1.data[0], eps2.data[0], atol=1e-10)

    def test_baseline_of_a_window_that_ends_before_the_onset(self):
        # a ramp of the sample index: the window holds samples 480..490, the
        # baseline [onset - 0.2 s, onset) samples 480..499 with mean 489.5
        rec = make_recording(1, 1000, fs=100.0)
        rec = rec.with_data(np.arange(1000.0)[None, :].astype(np.float32))
        eps, skipped = extract_epochs(rec, events_of((5.0, 5.1, "a")), -0.2, -0.1)
        assert skipped == 0
        assert np.array_equal(eps.data[0, 0], np.arange(11) - 9.5)

    def test_event_whose_baseline_leaves_the_recording_is_skipped(self):
        # the window (samples 980..990) fits, the baseline (980..999) does not
        rec = make_recording(1, 995, fs=100.0)
        eps, skipped = extract_epochs(rec, events_of((10.0, 10.1, "a")), -0.2, -0.1)
        assert (len(eps), skipped) == (0, 1)


def _extract_epochs_loop(rec, events, tmin, tmax):
    """The per-event loop that ``extract_epochs`` replaced, kept as its
    reference: a list of (data [C, T], label) and the skip count."""
    fs = rec.sample_rate
    if not (tmax - tmin) * fs < rec.n_samples:
        return [], len(events)
    n_times = int(round((tmax - tmin) * fs)) + 1
    n_baseline = int(round(-tmin * fs))
    epochs = []
    skipped = 0
    for ev in events:
        start = int(round(min((ev.onset + tmin) * fs, rec.n_samples)))
        if start < 0 or start + max(n_times, n_baseline) > rec.n_samples:
            skipped += 1
            continue
        window = rec.data[:, start: start + n_times].astype(float)
        if n_baseline > 0:
            baseline = rec.data[:, start: start + n_baseline].astype(float)
            window = window - baseline.mean(axis=1, keepdims=True)
        epochs.append((window, ev.label))
    return epochs, skipped


# (fs, n_samples, tmin, tmax, onsets in s)
ORACLE_CASES = {
    "straddling_onset": (100.0, 1000, -0.1, 0.2, [0.5, 1.234, 3.0, 7.77]),
    # 200 baseline samples: numpy sums them pairwise in blocks
    "long_baseline": (1000.0, 3000, -0.2, 0.1, [0.3, 1.0005, 2.5, 2.9]),
    "ends_before_onset": (100.0, 1000, -0.2, -0.1,
                          [0.15, 0.3, 5.0, 9.95, 10.0, 10.05]),
    "no_baseline": (100.0, 1000, 0.05, 0.3, [0.0, 2.0, 9.7, 9.8]),
    "onset_is_window_start": (100.0, 1000, 0.0, 0.2, [0.0, 4.0, 9.8, 9.81]),
    # (onset + tmin) * fs falls on k + 0.5 exactly, k even and odd
    "half_samples": (128.0, 1024, -0.125, 0.25,
                     [(k + 0.5) / 128 for k in (20, 21, 300, 301)]),
    "recording_edges": (100.0, 1000, -0.1, 0.2,
                        [0.0, 0.09, 0.1, 0.104, 7.8, 9.8, 9.81, 9.99]),
    "window_longer_than_recording": (100.0, 500, -1.0, 4.5, [1.0, 2.0]),
    "baseline_longer_than_recording": (100.0, 500, -6.0, -5.9, [1.0, 4.5]),
}


class TestExtractEpochsMatchesTheLoop:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_same_bytes(self, case, dtype):
        fs, n_samples, tmin, tmax, onsets = ORACLE_CASES[case]
        rec = make_recording(3, n_samples, fs=fs, seed=5)
        rec = rec.with_data((100 + 10 * rec.data).astype(dtype))
        before = rec.data.copy()
        events = events_of(*[(t, t + 0.05, "ae"[i % 2])
                             for i, t in enumerate(onsets)])
        eps, skipped = extract_epochs(rec, events, tmin, tmax)
        assert np.array_equal(rec.data, before)
        expected, expected_skipped = _extract_epochs_loop(rec, events, tmin, tmax)
        assert skipped == expected_skipped
        assert len(eps) + skipped == len(events)
        assert eps.labels.tolist() == [label for _, label in expected]
        assert eps.data.dtype == np.float64
        if expected:
            assert eps.data.tobytes() == np.stack(
                [data for data, _ in expected]).tobytes()
        else:
            assert eps.data.shape[:2] == (0, 3)


def test_the_bench_counter_reads_kept_and_skipped(monkeypatch):
    # read only: perfbench's traced runs count epochs through this function
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    counter = importlib.import_module("layers").TARGETS[
        ("epochs", "extract_epochs")]
    rec = make_recording(1, 100, fs=100.0)
    args = (rec, events_of((0.05, 0.1, "a"), (0.5, 0.58, "e"),
                           (0.6, 0.65, "a")), *WINDOW)
    assert counter(args, {}, extract_epochs(*args)) == {"kept": 2, "skipped": 1}


def _fake_epochs(counts, n_channels=2, n_times=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = [label for label, count in counts.items() for _ in range(count)]
    data = rng.standard_normal((len(labels), n_channels, n_times))
    return Epochs(data, np.array(labels))


class TestBuildPairDataset:
    def test_downsampling_balances(self):
        eps = _fake_epochs({"a": 80, "e": 50})
        ds = build_pair_dataset(eps, "a", "e", seed=1)
        assert len(ds.y) == 100
        assert np.sum(ds.y == 0) == np.sum(ds.y == 1) == 50

    def test_deterministic(self):
        # each build reorders its epochs in place, so each gets its own
        d1 = build_pair_dataset(_fake_epochs({"a": 80, "e": 50}), "a", "e",
                                seed=1)
        d2 = build_pair_dataset(_fake_epochs({"a": 80, "e": 50}), "a", "e",
                                seed=1)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)

    def test_balanced_input_retained(self):
        eps = _fake_epochs({"a": 50, "e": 50})
        ds = build_pair_dataset(eps, "a", "e", seed=0)
        assert len(ds.y) == 100

    def test_lexicographic_class_assignment(self):
        eps = _fake_epochs({"b": 5, "a": 5})
        ds = build_pair_dataset(eps, "b", "a", seed=0)
        assert ds.pair == ("a", "b")

    def test_missing_class_errors(self):
        eps = _fake_epochs({"a": 5})
        with pytest.raises(DataError, match="'e'"):
            build_pair_dataset(eps, "a", "e", seed=0)

    def test_rows_are_channel_major_epochs(self):
        eps = Epochs(np.array([[[1.0, 2.0], [3.0, 4.0]],
                               [[5.0, 6.0], [7.0, 8.0]]]), np.array(["a", "e"]))
        ds = build_pair_dataset(eps, "a", "e", seed=0)
        assert (ds.n_channels, ds.n_times) == (2, 2)
        by_label = {0: [1.0, 2.0, 3.0, 4.0], 1: [5.0, 6.0, 7.0, 8.0]}
        for row, label in zip(ds.X, ds.y):
            assert row.tolist() == by_label[label]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise(self, value):
        eps = _fake_epochs({"a": 5, "e": 5, "i": 5})
        eps.data[eps.labels == "i"] = value  # only in a phone left out
        build_pair_dataset(eps, "a", "e", seed=0)
        eps = _fake_epochs({"a": 5, "e": 5, "i": 5})  # in their order again
        eps.data[np.flatnonzero(eps.labels == "e")[2], 1, 3] = value
        with pytest.raises(DataError,
                           match="pair dataset contains non-finite values"):
            build_pair_dataset(eps, "a", "e", seed=0)

    @pytest.mark.parametrize("counts", [{"a": 80, "e": 50}, {"a": 7, "e": 12},
                                        {"a": 9, "e": 9}])
    def test_rows_follow_the_seeded_draws(self, counts):
        # down-sample each class in label order, then shuffle all rows, with
        # one generator
        ds = build_pair_dataset(_fake_epochs(counts), "e", "a", seed=4)
        eps = _fake_epochs(counts)  # the same epochs, in their order
        rng = np.random.default_rng(4)
        m = min(counts.values())
        rows, labels = [], []
        for label, phone in enumerate(("a", "e")):
            group = [data.reshape(-1)
                     for data, label in zip(eps.data, eps.labels) if label == phone]
            if len(group) > m:
                group = [group[i] for i in
                         sorted(rng.choice(len(group), size=m, replace=False))]
            rows += group
            labels += [label] * m
        order = rng.permutation(2 * m)
        assert np.array_equal(ds.X, np.array(rows)[order])
        assert np.array_equal(ds.y, np.array(labels)[order])


def check_rows_first(a, rows):
    """``rows_first(a, rows)`` is ``a[rows]`` byte for byte, as a view of
    ``a``, and with ``undo`` it gives ``a`` its bytes back."""
    rows = np.array(rows, dtype=int)
    before, want = a.tobytes(), a[rows]
    view = rows_first(a, rows)
    assert view.tobytes() == want.tobytes()
    assert np.shares_memory(view, a)
    rows_first(a, rows, undo=True)
    assert a.tobytes() == before


class TestRowsFirst:
    def test_any_rows_in_any_order(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 12))
            rows = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
            return n, rows, draw(st.booleans())

        @settings(derandomize=True, database=None, max_examples=300,
                  deadline=None)
        @given(cases())
        def check(case):
            n, rows, strided = case
            a = np.random.default_rng(n).standard_normal((n, 2, 4))
            check_rows_first(a[:, :, ::2] if strided else a, rows)

        check()

    @pytest.mark.parametrize("rows", [
        [0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [3], [2, 4, 0], [1, 2, 3, 4, 0]],
        ids=["identity", "reversal", "single_row", "partial", "one_cycle"])
    def test_named_cases(self, rows):
        check_rows_first(np.arange(30.0).reshape(5, 3, 2), rows)

    def test_a_pair_in_place_is_the_copy(self):
        eps = _fake_epochs({"a": 9, "e": 7, "i": 5})
        before = eps.data.tobytes()
        want = build_pair_dataset_by_copy(eps, "a", "e", seed=3)
        got = build_pair_dataset(eps, "a", "e", seed=3)
        assert got.X.tobytes() == want.X.tobytes()
        assert np.shares_memory(got.X, eps.data)
        assert (got.y.tolist(), got.rows.tolist()) == (want.y.tolist(),
                                                       want.rows.tolist())
        rows_first(eps.data, got.rows, undo=True)
        assert eps.data.tobytes() == before
