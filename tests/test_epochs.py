import numpy as np
import pytest

from phonepair.dataio import Event, EventTable
from phonepair.dataio import DataError
from phonepair.epochs import (Epoch, build_pair_dataset,
                              count_phones, extract_epochs)

from helpers import make_recording


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
        assert eps[0].data.shape == (2, 31)

    def test_constant_channel_zeroed(self):
        rec = make_recording(1, 200, fs=100.0)
        rec = rec.with_data(np.full((1, 200), 5.0))
        eps, _ = extract_epochs(rec, events_of((0.5, 0.58, "a")), *WINDOW)
        assert np.allclose(eps[0].data, 0.0)

    def test_out_of_bounds_skipped(self):
        rec = make_recording(1, 100, fs=100.0)
        eps, skipped = extract_epochs(rec, events_of((0.05, 0.1, "a"),
                                                     (0.5, 0.58, "e")), *WINDOW)
        assert skipped == 1
        assert len(eps) == 1
        assert eps[0].label == "e"

    def test_baseline_invariance(self):
        rec = make_recording(3, 300, fs=100.0, seed=9)
        eps1, _ = extract_epochs(rec, events_of((1.0, 1.1, "a")), *WINDOW)
        offsets = np.array([[10.0], [-4.0], [100.0]])
        shifted = rec.with_data(rec.data + offsets)
        eps2, _ = extract_epochs(shifted, events_of((1.0, 1.1, "a")), *WINDOW)
        assert np.allclose(eps1[0].data, eps2[0].data, atol=1e-10)


def _fake_epochs(counts, n_channels=2, n_times=4, seed=0):
    rng = np.random.default_rng(seed)
    eps = []
    for label, count in counts.items():
        for _ in range(count):
            eps.append(Epoch(rng.standard_normal((n_channels, n_times)), label))
    return eps


class TestBuildPairDataset:
    def test_downsampling_balances(self):
        eps = _fake_epochs({"a": 80, "e": 50})
        ds = build_pair_dataset(eps, "a", "e", seed=1)
        assert len(ds.y) == 100
        assert np.sum(ds.y == 0) == np.sum(ds.y == 1) == 50

    def test_deterministic(self):
        eps = _fake_epochs({"a": 80, "e": 50})
        d1 = build_pair_dataset(eps, "a", "e", seed=1)
        d2 = build_pair_dataset(eps, "a", "e", seed=1)
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
        eps = [Epoch(np.array([[1.0, 2.0], [3.0, 4.0]]), "a"),
               Epoch(np.array([[5.0, 6.0], [7.0, 8.0]]), "e")]
        ds = build_pair_dataset(eps, "a", "e", seed=0)
        assert (ds.n_channels, ds.n_times) == (2, 2)
        by_label = {0: [1.0, 2.0, 3.0, 4.0], 1: [5.0, 6.0, 7.0, 8.0]}
        for row, label in zip(ds.X, ds.y):
            assert row.tolist() == by_label[label]

    @pytest.mark.parametrize("counts", [{"a": 80, "e": 50}, {"a": 7, "e": 12},
                                        {"a": 9, "e": 9}])
    def test_rows_follow_the_seeded_draws(self, counts):
        # down-sample each class in label order, then shuffle all rows, with
        # one generator
        eps = _fake_epochs(counts)
        ds = build_pair_dataset(eps, "e", "a", seed=4)
        rng = np.random.default_rng(4)
        m = min(counts.values())
        rows, labels = [], []
        for label, phone in enumerate(("a", "e")):
            group = [e.data.reshape(-1) for e in eps if e.label == phone]
            if len(group) > m:
                group = [group[i] for i in
                         sorted(rng.choice(len(group), size=m, replace=False))]
            rows += group
            labels += [label] * m
        order = rng.permutation(2 * m)
        assert np.array_equal(ds.X, np.array(rows)[order])
        assert np.array_equal(ds.y, np.array(labels)[order])
