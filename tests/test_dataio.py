import os
import warnings

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

    def test_groups_written_one_at_a_time_are_the_whole_recording(
            self, tmp_path):
        rec = make_recording(11, 37, kinds=["gradiometer", "magnetometer"] * 5
                             + ["misc"])
        whole, grouped = str(tmp_path / "whole.nrd"), str(tmp_path / "g.nrd")
        save_recording(rec, whole)
        header = dataio.write_recording(
            (Recording(rec.sample_rate, rec.channels[c: c + 4],
                       rec.data[c: c + 4]) for c in range(0, 11, 4)), grouped)
        assert header == dataio.read_header(grouped)
        assert header == (rec.sample_rate, 37, rec.channels)
        for suffix in ("", ".json"):
            with open(whole + suffix, "rb") as a, open(grouped + suffix,
                                                       "rb") as b:
                assert a.read() == b.read()
        assert sorted(os.listdir(tmp_path)) == [
            "g.nrd", "g.nrd.json", "whole.nrd", "whole.nrd.json"]

    @pytest.mark.parametrize("fault,message", [
        ("raise", "non-finite"), ("overflow", "float32 range")])
    def test_a_recording_that_fails_part_way_leaves_no_files(
            self, tmp_path, fault, message):
        rec = make_recording(2, 20)

        def groups():
            yield Recording(rec.sample_rate, rec.channels[:1], rec.data[:1])
            if fault == "raise":
                raise DataError("recording contains non-finite samples")
            yield Recording(rec.sample_rate, rec.channels[1:],
                            np.full((1, 20), 1e39))

        with pytest.raises(DataError, match=message):
            dataio.write_recording(groups(), str(tmp_path / "r.nrd"))
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize("extra", [1, 2, 3, 4, -4, -1])
    def test_a_payload_not_of_the_header_size_is_refused(self, tmp_path,
                                                         monkeypatch, extra):
        # np.fromfile alone would drop 1-3 stray trailing bytes
        rec = make_recording(1, 10)
        path = str(tmp_path / "r.nrd")
        save_recording(rec, path)
        with open(path, "r+b") as f:
            f.truncate(40 + extra)

        def no_read(*args, **kw):
            raise AssertionError("a sample was read")

        monkeypatch.setattr(np, "fromfile", no_read)
        with pytest.raises(DataError, match="sample-count mismatch: header "
                           f"implies 10 values, payload holds {40 + extra} "
                           "bytes"):
            load_recording(path)

    def test_a_row_range(self, tmp_path):
        rec = make_recording(5, 30)
        path = str(tmp_path / "r.nrd")
        save_recording(rec, path)
        whole = load_recording(path)
        for rows in (slice(1, 4), slice(4, 5), slice(0, 5), slice(3, None)):
            part = load_recording(path, rows, dataio.read_header(path))
            assert part.channels == whole.channels[rows]
            assert part.data.tobytes() == whole.data[rows].tobytes()
        with pytest.raises(DataError, match="at least one channel"):
            load_recording(path, slice(3, 3))

    def test_a_range_that_reads_back_short(self, tmp_path, monkeypatch):
        rec = make_recording(3, 10)
        path = str(tmp_path / "r.nrd")
        save_recording(rec, path)
        real = np.fromfile

        def fromfile_after_shrink(file, dtype, count):
            os.truncate(path, 116)  # after the size check
            return real(file, dtype=dtype, count=count)

        monkeypatch.setattr(np, "fromfile", fromfile_after_shrink)
        # the last value is lost: the first two rows still read back whole
        assert load_recording(path, slice(0, 2)).n_channels == 2
        save_recording(rec, path)
        with pytest.raises(DataError, match="sample-count mismatch: header "
                           "implies 30 values, payload holds 116 bytes"):
            load_recording(path, slice(1, 3))

    def test_non_finite_rejected(self, tmp_path):
        # loading is the one finiteness scan: a row range that holds a NaN
        # or an infinity is refused, and the rows around it still load
        path = str(tmp_path / "r.nrd")
        save_recording(make_recording(3, 10), path)
        finite = np.fromfile(path, "<f4").reshape(3, 10)
        for bad in (np.nan, np.inf, -np.inf):
            data = finite.copy()
            data[1, 4] = bad
            data.tofile(path)
            for rows in (slice(None), slice(1, 2), slice(0, 2)):
                with pytest.raises(DataError, match="non-finite"):
                    load_recording(path, rows)
            for rows in (slice(0, 1), slice(2, 3)):
                assert load_recording(path, rows).n_channels == 1

    def test_row_count_mismatch(self):
        with pytest.raises(DataError):
            Recording(
                sample_rate=100.0,
                channels=(ChannelInfo("A", "gradiometer"),),
                data=np.zeros((2, 5)),
            )

    @pytest.mark.parametrize("sign", [1, -1])
    def test_samples_beyond_float32_not_written(self, tmp_path, sign):
        # checked before the cast, which would write inf and warn
        rec = make_recording(2, 50)
        rec = rec.with_data(rec.data * np.r_[1.0, sign * 1e39][:, None])
        path = str(tmp_path / "big.nrd")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="float32 range"):
                save_recording(rec, path)
        assert not os.path.exists(path)

    @pytest.mark.parametrize("layout", [
        lambda x: x, np.asfortranarray, lambda x: x[:, 3:41:2],
        lambda x: x.astype(np.float32)],
        ids=["c_order", "fortran_order", "column_slice", "float32"])
    def test_payload_is_the_little_endian_float32_bytes(self, tmp_path,
                                                        layout):
        data = layout(make_recording(3, 60).data)
        rec = Recording(1000.0, make_recording(3, 1).channels, data)
        path = tmp_path / "rec.nrd"
        save_recording(rec, str(path))
        expected = np.ascontiguousarray(data, "<f4").tobytes()
        assert path.read_bytes() == expected
        assert load_recording(str(path)).data.tobytes() == expected


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
        # every channel kept: the loaded samples, not a copy of them
        assert np.shares_memory(out.data, rec.data)

    @pytest.mark.parametrize("kinds", [{"gradiometer"}, {"magnetometer"},
                                       {"gradiometer", "misc"}])
    def test_a_subset_is_a_copy(self, kinds):
        rec = make_recording(4, 20, kinds=["gradiometer", "magnetometer",
                                           "misc", "gradiometer"])
        out = select_channels(rec, kinds)
        assert out.n_channels < rec.n_channels
        assert not np.shares_memory(out.data, rec.data)

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
