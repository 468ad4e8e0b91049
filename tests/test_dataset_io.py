"""Dataset file round-trips and malformed-input reporting."""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forceknn.classifier import Label
from forceknn.dataset_io import DatasetFormatError, read_dataset, write_dataset
from forceknn.datagen import gen_dataset
from forceknn.online import LabeledTrial
from forceknn.signal import ForceTrace


def awkward_trials():
    values = np.array([1e-17, -3.123456789012345, 0.1, 7e300, -0.0])
    return [
        LabeledTrial("a", ForceTrace(values, 12.5), Label.POSITIVE),
        LabeledTrial("b", ForceTrace(values * np.pi, 12.5), Label.NEGATIVE),
    ]


class TestRoundTrip:
    def test_bit_exact_values(self, tmp_path):
        path = tmp_path / "data.csv"
        trials = awkward_trials()
        write_dataset(path, trials)
        loaded = read_dataset(path)
        assert [t.id for t in loaded] == ["a", "b"]
        assert [t.truth for t in loaded] == [Label.POSITIVE, Label.NEGATIVE]
        for original, parsed in zip(trials, loaded):
            np.testing.assert_array_equal(parsed.trace.samples, original.trace.samples)
            assert parsed.trace.sample_rate == original.trace.sample_rate

    def test_generated_dataset_round_trips(self, tmp_path):
        path = tmp_path / "gen.csv"
        trials = gen_dataset(4, 6, rng_seed=0)
        write_dataset(path, trials)
        loaded = read_dataset(path)
        assert len(loaded) == 10
        for original, parsed in zip(trials, loaded):
            np.testing.assert_array_equal(parsed.trace.samples, original.trace.samples)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset(path, [], n_samples=1000, sample_rate=500.0)
        assert path.read_text(encoding="utf-8") == "id,label,1000,500.0\n"
        assert read_dataset(path) == []

    @pytest.mark.parametrize("n_samples, sample_rate", [(-1, 500.0), (3, 0.0), (3, np.inf)])
    def test_unreadable_empty_header_rejected(self, tmp_path, n_samples, sample_rate):
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="empty dataset"):
            write_dataset(path, [], n_samples=n_samples, sample_rate=sample_rate)
        assert not path.exists()

    def test_lf_line_endings_and_layout(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(path, awkward_trials())
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "id,label,5,12.5"
        assert lines[1].startswith("a,pos,1e-17,")
        assert lines[2].startswith("b,neg,")


@st.composite
def datasets(draw):
    """Trials with unique, readable ids and arbitrary finite samples of one length."""
    ids = draw(
        st.lists(
            st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"), max_size=8),
            max_size=6,
            unique=True,
        )
    )
    n_samples = draw(st.integers(1, 12))
    sample_rate = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    samples = st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=n_samples, max_size=n_samples
    )
    return [
        LabeledTrial(
            trial_id,
            ForceTrace(np.array(draw(samples)), sample_rate),
            draw(st.sampled_from([Label.POSITIVE, Label.NEGATIVE])),
        )
        for trial_id in ids
    ]


@settings(deadline=None)
@given(trials=datasets())
def test_write_read_round_trip_property(trials):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write_dataset(path, trials)
        loaded = read_dataset(path)
    assert [t.id for t in loaded] == [t.id for t in trials]
    assert [t.truth for t in loaded] == [t.truth for t in trials]
    for original, parsed in zip(trials, loaded):
        assert parsed.trace.samples.tobytes() == original.trace.samples.tobytes()
        assert parsed.trace.sample_rate == original.trace.sample_rate


class TestOverwriteGuard:
    def test_refuses_to_overwrite(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(path, awkward_trials())
        with pytest.raises(FileExistsError):
            write_dataset(path, awkward_trials())
        write_dataset(path, awkward_trials(), overwrite=True)

    def test_failed_overwrite_keeps_old_file(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(path, awkward_trials())
        before = path.read_bytes()
        # A lone surrogate cannot be encoded as UTF-8, so the write fails midway.
        unencodable = [LabeledTrial("a\ud800", ForceTrace(np.ones(5), 12.5), Label.POSITIVE)]
        with pytest.raises(UnicodeEncodeError):
            write_dataset(path, unencodable, overwrite=True)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]

    def test_overwrite_through_symlink_replaces_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        write_dataset(target, [], n_samples=3)
        link.symlink_to(target)
        write_dataset(link, awkward_trials(), overwrite=True)
        assert link.is_symlink()
        assert len(read_dataset(target)) == 2

    def test_mixed_shapes_rejected(self, tmp_path):
        trials = [
            LabeledTrial("a", ForceTrace(np.ones(4), 10.0), Label.POSITIVE),
            LabeledTrial("b", ForceTrace(np.ones(5), 10.0), Label.NEGATIVE),
        ]
        with pytest.raises(ValueError, match="share"):
            write_dataset(tmp_path / "bad.csv", trials)


class TestTrialIds:
    @pytest.mark.parametrize("bad_id", ["a,b", "a\nb", "a\rb"])
    def test_unreadable_ids_rejected_before_writing(self, tmp_path, bad_id):
        trials = [LabeledTrial(bad_id, ForceTrace(np.ones(3), 10.0), Label.POSITIVE)]
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=re.escape(repr(bad_id))):
            write_dataset(path, trials)
        assert not path.exists()

    def test_ids_with_spaces_quotes_and_non_ascii_round_trip(self, tmp_path):
        ids = ["trial 1", 'say "hi"', "it's", "größe-Ω", " padded "]
        trials = [LabeledTrial(i, ForceTrace(np.ones(3), 10.0), Label.NEGATIVE) for i in ids]
        path = tmp_path / "data.csv"
        write_dataset(path, trials)
        assert [t.id for t in read_dataset(path)] == ids


class TestMalformedFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "broken.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_dataset(tmp_path / "absent.csv")

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "identifier,label,3,500.0\nx,pos,1,2,3\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(path)

    def test_bad_header_metadata(self, tmp_path):
        path = self.write(tmp_path, "id,label,three,500.0\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "header, field",
        [
            ("id,label,3,-5", "sample_rate"),
            ("id,label,3,0", "sample_rate"),
            ("id,label,3,nan", "sample_rate"),
            ("id,label,3,inf", "sample_rate"),
            ("id,label,-1,500.0", "n_samples"),
        ],
    )
    def test_header_defects_reported_on_line_1(self, tmp_path, header, field):
        path = self.write(tmp_path, f"{header}\nx,pos,1.0,2.0,3.0\n")
        with pytest.raises(DatasetFormatError, match=f"^line 1: {field} must be"):
            read_dataset(path)

    def test_wrong_row_width(self, tmp_path):
        path = self.write(tmp_path, "id,label,3,500.0\nx,pos,1.0,2.0,3.0\ny,neg,1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(path)

    def test_bad_label(self, tmp_path):
        path = self.write(tmp_path, "id,label,2,500.0\nx,maybe,1.0,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 2.*maybe"):
            read_dataset(path)

    def test_bad_float(self, tmp_path):
        path = self.write(tmp_path, "id,label,2,500.0\nx,pos,1.0,abc\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(path)

    def test_non_finite_value(self, tmp_path):
        path = self.write(tmp_path, "id,label,2,500.0\nx,pos,1.0,nan\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(path)

    def test_duplicate_ids(self, tmp_path):
        path = self.write(tmp_path, "id,label,1,500.0\nx,pos,1.0\nx,neg,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 3.*duplicate"):
            read_dataset(path)
