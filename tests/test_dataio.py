import os

import numpy as np
import pytest

from phonepair import dataio
from phonepair.dataio import (ChannelInfo, DataError, Event, EventTable,
                              Recording, load_events, load_recording,
                              save_events, save_recording, select_channels)

from helpers import make_recording


class TestRecordingRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        rec = make_recording(3, 50)
        path = str(tmp_path / "rec.nrd")
        save_recording(rec, path)
        loaded = load_recording(path)
        assert loaded.sample_rate == rec.sample_rate
        assert loaded.channels == rec.channels
        # payload is float32 on disk; a second round trip is bit-exact
        save_recording(loaded, str(tmp_path / "rec2.nrd"))
        reloaded = load_recording(str(tmp_path / "rec2.nrd"))
        assert np.array_equal(reloaded.data, loaded.data)

    def test_handcrafted_file(self, tmp_path):
        # 2 channels x 10 samples, values 0..19, channel-major
        path = str(tmp_path / "hand.nrd")
        np.arange(20, dtype="<f4").tofile(path)
        import json
        header = {
            "sample_rate": 100.0,
            "n_samples": 10,
            "channels": [
                {"name": "A", "kind": "gradiometer", "unit": "T/m"},
                {"name": "B", "kind": "gradiometer", "unit": "T/m"},
            ],
        }
        with open(path + ".json", "w") as f:
            json.dump(header, f)
        rec = load_recording(path)
        assert np.array_equal(rec.data[0], np.arange(10))
        assert np.array_equal(rec.data[1], np.arange(10, 20))

    def test_sample_count_mismatch(self, tmp_path):
        path = str(tmp_path / "bad.nrd")
        np.arange(9, dtype="<f4").tofile(path)
        import json
        header = {
            "sample_rate": 100.0,
            "n_samples": 10,
            "channels": [{"name": "A", "kind": "gradiometer", "unit": ""}],
        }
        with open(path + ".json", "w") as f:
            json.dump(header, f)
        with pytest.raises(DataError, match="sample-count mismatch"):
            load_recording(path)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            Recording(
                sample_rate=100.0,
                channels=(ChannelInfo("A", "gradiometer"),),
                data=np.array([[1.0, np.nan]]),
            )

    def test_row_count_mismatch(self):
        with pytest.raises(DataError):
            Recording(
                sample_rate=100.0,
                channels=(ChannelInfo("A", "gradiometer"),),
                data=np.zeros((2, 5)),
            )

    @pytest.mark.parametrize("sign", [1, -1])
    def test_samples_beyond_float32_not_written(self, tmp_path, sign):
        # checked before the cast, which would write inf
        rec = make_recording(2, 50)
        rec = rec.with_data(rec.data * np.r_[1.0, sign * 1e39][:, None])
        path = str(tmp_path / "big.nrd")
        with pytest.raises(DataError, match="float32 range"):
            save_recording(rec, path)
        assert not os.path.exists(path)


class TestEvents:
    def test_load_and_sort(self, tmp_path):
        path = str(tmp_path / "ev.tsv")
        with open(path, "w") as f:
            f.write("onset\toffset\tlabel\n0.18\t0.25\te\n0.10\t0.18\ta\n")
        table = load_events(path)
        assert len(table) == 2
        assert table.labels() == ["a", "e"]
        assert table.events[0].onset == 0.10

    def test_invalid_interval_reports_line(self, tmp_path):
        path = str(tmp_path / "ev.tsv")
        with open(path, "w") as f:
            f.write("onset\toffset\tlabel\n0.30\t0.20\ta\n")
        with pytest.raises(DataError, match=":2"):
            load_events(path)

    def test_unparsable_row(self, tmp_path):
        path = str(tmp_path / "ev.tsv")
        with open(path, "w") as f:
            f.write("0.1\tnope\ta\n")
        with pytest.raises(DataError, match=":1"):
            load_events(path)

    def test_round_trip(self, tmp_path):
        table = EventTable((Event(0.1, 0.2, "a"), Event(0.25, 0.4, "e")))
        path = str(tmp_path / "ev.tsv")
        save_events(table, path)
        assert load_events(path) == table


class TestSelectChannels:
    def test_gradiometer_selection(self):
        kinds = ["gradiometer"] * 204 + ["magnetometer"] * 102
        rec = make_recording(306, 20, kinds=kinds)
        out = select_channels(rec, {"gradiometer"})
        assert out.n_channels == 204
        assert all(c.kind == "gradiometer" for c in out.channels)

    def test_all_kinds_identity(self):
        rec = make_recording(5, 20, kinds=["gradiometer", "magnetometer",
                                           "misc", "audio", "gradiometer"])
        out = select_channels(rec, set(dataio.CHANNEL_KINDS))
        assert out.channels == rec.channels
        assert np.array_equal(out.data, rec.data)

    def test_empty_selection_errors(self):
        rec = make_recording(3, 20)
        with pytest.raises(DataError, match="no channels"):
            select_channels(rec, {"magnetometer"})

    def test_idempotent(self):
        kinds = ["gradiometer", "magnetometer", "gradiometer"]
        rec = make_recording(3, 20, kinds=kinds)
        once = select_channels(rec, {"gradiometer"})
        twice = select_channels(once, {"gradiometer"})
        assert once.channels == twice.channels
        assert np.array_equal(once.data, twice.data)


class TestManifest:
    def test_round_trip_and_validation(self, tmp_path):
        rec = make_recording(2, 30, fs=250.0)
        rec_path = str(tmp_path / "r.nrd")
        ev_path = str(tmp_path / "r.events.tsv")
        save_recording(rec, rec_path)
        save_events(EventTable((Event(0.01, 0.02, "a"),)), ev_path)
        m = dataio.Manifest("s01", "production", rec_path, ev_path, 250.0)
        man_path = str(tmp_path / "m.json")
        dataio.save_manifest(m, man_path)
        loaded = dataio.load_manifest(man_path)
        assert loaded == m

    def test_sample_rate_mismatch(self, tmp_path):
        rec = make_recording(2, 30, fs=250.0)
        rec_path = str(tmp_path / "r.nrd")
        ev_path = str(tmp_path / "r.events.tsv")
        save_recording(rec, rec_path)
        save_events(EventTable((Event(0.01, 0.02, "a"),)), ev_path)
        m = dataio.Manifest("s01", "production", rec_path, ev_path, 1000.0)
        man_path = str(tmp_path / "m.json")
        dataio.save_manifest(m, man_path)
        with pytest.raises(DataError, match="sample_rate"):
            dataio.load_manifest(man_path)

    def test_unknown_task(self):
        with pytest.raises(DataError, match="task"):
            dataio.Manifest("s01", "sleeping", "a", "b", 100.0)
