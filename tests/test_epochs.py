import numpy as np
import pytest

from phonepair.dataio import Event, EventTable
from phonepair.epochs import (EpochError, build_pair_dataset, count_phones,
                              extract_epochs, flatten_epoch, unflatten_epoch)

from helpers import make_recording


def events_of(*rows):
    return EventTable(tuple(Event(*r) for r in rows))


class TestCountPhones:
    def test_basic_counts(self):
        inv = count_phones(events_of((0.1, 0.2, "a"), (0.3, 0.4, "a"),
                                     (0.5, 0.6, "e")), min_count=1)
        assert inv.counts == {"a": 2, "e": 1}
        assert inv.selected == ("a", "e")

    def test_min_count_filter(self):
        inv = count_phones(events_of((0.1, 0.2, "a"), (0.3, 0.4, "a"),
                                     (0.5, 0.6, "e")), min_count=2)
        assert inv.selected == ("a",)

    def test_empty_table(self):
        inv = count_phones(EventTable(()))
        assert inv.counts == {}
        assert inv.selected == ()


class TestExtractEpochs:
    def test_window_sample_count(self):
        rec = make_recording(2, 200, fs=100.0)
        eps, skipped = extract_epochs(rec, events_of((0.5, 0.58, "a")))
        assert skipped == 0
        assert eps[0].data.shape == (2, 31)

    def test_constant_channel_zeroed(self):
        rec = make_recording(1, 200, fs=100.0)
        rec = rec.with_data(np.full((1, 200), 5.0))
        eps, _ = extract_epochs(rec, events_of((0.5, 0.58, "a")))
        assert np.allclose(eps[0].data, 0.0)

    def test_out_of_bounds_skipped(self):
        rec = make_recording(1, 100, fs=100.0)
        eps, skipped = extract_epochs(rec, events_of((0.05, 0.1, "a"),
                                                     (0.5, 0.58, "e")))
        assert skipped == 1
        assert len(eps) == 1
        assert eps[0].label == "e"

    def test_baseline_invariance(self):
        rec = make_recording(3, 300, fs=100.0, seed=9)
        eps1, _ = extract_epochs(rec, events_of((1.0, 1.1, "a")))
        offsets = np.array([[10.0], [-4.0], [100.0]])
        shifted = rec.with_data(rec.data + offsets)
        eps2, _ = extract_epochs(shifted, events_of((1.0, 1.1, "a")))
        assert np.allclose(eps1[0].data, eps2[0].data, atol=1e-10)

    def test_invalid_window(self):
        rec = make_recording(1, 100, fs=100.0)
        with pytest.raises(EpochError):
            extract_epochs(rec, EventTable(()), tmin=0.2, tmax=0.1)


class TestFlatten:
    def test_bijective(self):
        rng = np.random.default_rng(0)
        for shape in [(1, 5), (3, 31), (204, 31)]:
            e = rng.standard_normal(shape)
            assert np.array_equal(unflatten_epoch(flatten_epoch(e), *shape), e)

    def test_channel_major_order(self):
        e = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(flatten_epoch(e), [1.0, 2.0, 3.0, 4.0])


def _fake_epochs(counts, n_channels=2, n_times=4, seed=0):
    from phonepair.epochs import Epoch
    rng = np.random.default_rng(seed)
    eps = []
    for label, count in counts.items():
        for i in range(count):
            eps.append(Epoch(rng.standard_normal((n_channels, n_times)),
                             label, onset=0.1 * i))
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
        with pytest.raises(EpochError, match="'e'"):
            build_pair_dataset(eps, "a", "e", seed=0)
