"""Dataset file round-trips and malformed-input reporting."""

from __future__ import annotations

import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forceknn import dataset_io
from forceknn.classifier import Label
from forceknn.dataset_io import DatasetFormatError, read_dataset, write_dataset
from forceknn.datagen import gen_dataset
from forceknn.online import LabeledTrial
from forceknn.signal import ForceTrace


def reference_read_dataset(path):
    """The whole-file reader ``read_dataset`` replaced; its results and messages are the spec."""

    def fail(line_no, message):
        return DatasetFormatError(f"line {line_no}: {message}")

    label_of_text = {"pos": Label.POSITIVE, "neg": Label.NEGATIVE}
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise fail(1, "missing header")
    header = lines[0].split(",")
    if len(header) != 4 or header[0] != "id" or header[1] != "label":
        raise fail(1, f"expected header 'id,label,<n_samples>,<sample_rate>', got {lines[0]!r}")
    try:
        n_samples = int(header[2])
        sample_rate = float(header[3])
    except ValueError:
        raise fail(1, f"bad n_samples/sample_rate in header {lines[0]!r}") from None
    if n_samples < 0:
        raise fail(1, f"n_samples must be >= 0, got {n_samples}")
    if not 0 < sample_rate < np.inf:
        raise fail(1, f"sample_rate must be positive and finite, got {header[3]!r}")

    trials = []
    seen_ids = set()
    for offset, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2 + n_samples:
            raise fail(offset, f"expected {2 + n_samples} fields, got {len(fields)}")
        trial_id = fields[0]
        if trial_id in seen_ids:
            raise fail(offset, f"duplicate trial id {trial_id!r}")
        seen_ids.add(trial_id)
        label = label_of_text.get(fields[1])
        if label is None:
            raise fail(offset, f"label must be 'pos' or 'neg', got {fields[1]!r}")
        try:
            samples = np.array(fields[2:], dtype=float)
            trace = ForceTrace(samples, sample_rate)
        except ValueError as exc:
            raise fail(offset, str(exc)) from None
        trials.append(LabeledTrial(trial_id, trace, label))
    return trials


def read_outcome(reader, path):
    """What ``reader`` makes of ``path``: each trial's fields and sample bytes, or its error."""
    try:
        trials = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(t.id, t.truth, t.trace.samples.tobytes(), t.trace.sample_rate) for t in trials]


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


@st.composite
def dataset_texts(draw):
    """Dataset file text, mostly valid, with the defects a reader must report.

    Any line may end in LF, CRLF or a lone CR. Each header, row and ending is
    valid unless a one-in-16 draw gives it a defect: a bad header, a wrong
    field count, a bad or non-finite float, a bad label, a blank line, a
    missing final newline or an id that repeats the row before.
    """
    rarely = st.integers(0, 15).map(lambda n: n == 0)
    n_samples = draw(st.integers(1, 3))
    header = f"id,label,{n_samples},{draw(st.sampled_from(['500.0', '12.5', '1e3']))}"
    if draw(rarely):
        header = draw(st.sampled_from([
            f"identifier,label,{n_samples},500.0", f"id,label,{n_samples}", "id,label,x,500.0",
            "id,label,-1,500.0", "id,label,0,500.0", f"id,label,{n_samples},0",
            f"id,label,{n_samples},inf", "",
        ]))
    lines = [header]
    trial_id = ""
    for row in range(draw(st.integers(0, 6))):
        if not (row and draw(rarely)):
            trial_id = draw(st.text(st.sampled_from("ab é\"\x85"), max_size=3)) + str(row)
        label = draw(st.sampled_from(["maybe", ""] if draw(rarely) else ["pos", "neg"]))
        values = draw(st.lists(st.sampled_from(["0.0", "-3.5", "1e-17", "7e+300", "12", " 1.5"]),
                               min_size=n_samples, max_size=n_samples))
        if draw(rarely):
            values = draw(st.sampled_from([values[1:], values + ["1.0"], ["abc", *values[1:]],
                                           [*values[1:], "nan"], ["1e999", *values[1:]]]))
        lines.append(",".join([trial_id, label, *values]))
        if draw(rarely):
            lines.append("")
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    return text[:-1] if draw(rarely) else text


@settings(deadline=None, max_examples=300)
@given(text=dataset_texts())
@example(text="")
@example(text="\n")
@example(text="\r\n\r\n")
@example(text="id,label,0,1.0")
@example(text="id,label,1,1.0\rx,pos,2.5\r\r")
def test_reader_matches_whole_file_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = read_outcome(reference_read_dataset, path)
        assert read_outcome(read_dataset, path) == expected


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_generated_dataset_reads_bit_identically_with_any_line_ending(tmp_path, ending):
    path = tmp_path / "gen.csv"
    write_dataset(path, gen_dataset(4, 6, rng_seed=0))
    lf = read_outcome(read_dataset, path)
    path.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
    assert read_outcome(read_dataset, path) == lf
    assert read_outcome(reference_read_dataset, path) == lf


_OFF_GRAMMAR = [
    "1e5", "1.5e-3", "1.5E+3", "+1.5", " 1.5", "1.5 ", "1_0.5", "nan", "inf", "-inf",
    "١.٥", "1.", ".5", "1..5", "--1.5", "1.5-", "1-.5", "-.5", "12", "", "abc",
]
# Each pins a pitfall of reading m / 10**f through the long double.
_PITFALLS = [
    "9007199254740993.0",  # exact midpoints: ties go to even
    "4503599627370496.5",
    "12.078841991",  # the long-double quotient lands on a midpoint the true value is not on
    "-0.0", "-0.000", "0.0", "0.000",  # zero mantissas keep their sign
    "0.000000000000000000000000001",  # 27 fraction digits: the last power in the table
    "0.0000000000000000000000000001",  # 28 fraction digits
    "0.00000000000000000000000000000000000005",
    "99999999999999999999.5",  # mantissas past int64
    "-99999999999999999999.5",
    "9223372036854775808.0",
    "1844674407370955162.1",  # 2**64 + 5
    "-922337203685477580.8",  # -2**63
    "999999999999999999.0",  # 19 significant digits
    "99999999999999999.9",  # 18 significant digits
    "-0.000999999999999999999",  # 18 significant digits behind leading zeros
    "00000000000000000000000001.5",
]


def decimal_texts():
    """Fields of ``-?digits.digits``, long enough to pass int64 and the powers table."""
    digits = st.text("0123456789", min_size=1, max_size=22)
    return st.builds(
        lambda sign, whole, fraction: f"{sign}{whole}.{fraction}",
        st.sampled_from(["", "-"]), digits, st.text("0123456789", min_size=1, max_size=30),
    )


@st.composite
def decimal_rows(draw):
    """A row's fields: decimal text, shortest ``repr`` of floats, and rarely a token off the grammar."""
    field = st.one_of(
        decimal_texts(),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(_PITFALLS),
    )
    fields = draw(st.lists(field, min_size=1, max_size=8))
    if draw(st.integers(0, 7)) == 0:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_OFF_GRAMMAR))
    return fields


def fits_exact_path(field):
    _, whole, point, fraction = re.fullmatch(r"(-?)(\d*)(\.?)(\d*)", field).groups()
    digits = (whole + fraction).lstrip("0")
    return bool(whole and point and fraction) and len(digits) <= 18 and len(fraction) <= 27


@pytest.mark.skipif(
    not dataset_io._EXACT_LONG_DOUBLE, reason="the long double is not the x87 extended format"
)
class TestExactPath:
    """Rows of ``-?digits.digits`` read as integers over a power of ten give ``float()``'s bits."""

    def test_powers_of_ten_are_exact(self):
        assert [int(power) for power in dataset_io._POWERS_OF_TEN] == [10**i for i in range(28)]

    @settings(deadline=None, max_examples=300)
    @given(fields=decimal_rows())
    @example(fields=_PITFALLS)
    @example(fields=_OFF_GRAMMAR)
    @example(fields=["1.0", "-0.0", "2.5"])
    def test_same_bits_or_same_error_as_float(self, fields):
        # Row a takes the exact path, so row b follows a row that did.
        text = f"id,label,{len(fields)},500.0\na,pos,1.5{',2.5' * (len(fields) - 1)}\n"
        text += f"b,neg,{','.join(fields)}\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_text(text, encoding="utf-8")
            expected = read_outcome(reference_read_dataset, path)
            assert read_outcome(read_dataset, path) == expected

    @settings(deadline=None, max_examples=300)
    @given(fields=st.lists(st.one_of(decimal_texts(), st.sampled_from(_PITFALLS)), min_size=1))
    @example(fields=_PITFALLS)
    def test_rows_on_the_grammar_take_the_exact_path(self, fields):
        values = dataset_io._exact_values(",".join(fields), len(fields))
        if all(fits_exact_path(field) for field in fields):
            assert values is not None
            assert values.tobytes() == np.array(fields, dtype=float).tobytes()
        else:
            assert values is None

    @pytest.mark.parametrize("field", _OFF_GRAMMAR)
    def test_rows_off_the_grammar_are_refused(self, field):
        assert dataset_io._exact_values(f"1.5,{field}", 2) is None

    # Each row has as many separators as a row of n_samples fields, in another order.
    @pytest.mark.parametrize("row, n_samples", [("1.2.3.4", 2), ("1.2,3.4.5.6", 3), ("1,2", 1), ("1.5", 0)])
    def test_field_count_errors_on_rows_of_decimals(self, tmp_path, row, n_samples):
        path = tmp_path / "data.csv"
        path.write_text(f"id,label,{n_samples},500.0\nx,pos,{row}\n", encoding="utf-8")
        expected = read_outcome(reference_read_dataset, path)
        assert expected[0] is DatasetFormatError and "fields" in expected[1]
        assert read_outcome(read_dataset, path) == expected

    def test_generated_rows_take_the_exact_path_when_every_value_fits(self):
        # Shortest repr of the generator's forces: 16 and 17 significant digits, mostly.
        trials = gen_dataset(2, 2, rng_seed=0)
        rows = [",".join(repr(float(v)) for v in trial.trace.samples) for trial in trials]
        taken = [dataset_io._exact_values(row, 1000) is not None for row in rows]
        assert taken == [all(fits_exact_path(v) for v in row.split(",")) for row in rows]
        assert any(taken)


def test_read_without_an_exact_long_double_gives_the_same_bits(tmp_path, monkeypatch):
    # Where the long double is a plain double (macOS arm64, Windows) the exact
    # path must not run at all: np.array(fields, dtype=float) reads every row.
    def refuse(tail, n_samples):
        raise AssertionError("the exact path ran without an IEEE extended long double")

    path = tmp_path / "gen.csv"
    write_dataset(path, gen_dataset(3, 3, rng_seed=0))
    expected = read_outcome(reference_read_dataset, path)
    monkeypatch.setattr(dataset_io, "_EXACT_LONG_DOUBLE", False)
    monkeypatch.setattr(dataset_io, "_exact_values", refuse)
    assert read_outcome(read_dataset, path) == expected


def test_read_holds_less_memory_than_the_file(tmp_path):
    # The reader keeps one line of text at a time: its peak allocation is the
    # trials it returns plus one row, well under the size of the file itself.
    path = tmp_path / "gen.csv"
    write_dataset(path, gen_dataset(30, 30, rng_seed=0))
    size = path.stat().st_size
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        trials = read_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(trials) == 60
    assert peak - base < size, f"read peak {peak - base} B for a {size} B file"


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

    def test_repeated_id_rejected_before_writing(self, tmp_path):
        # read_dataset would refuse the file: "line 3: duplicate trial id 'trial-0000'".
        trials = gen_dataset(1, 0, rng_seed=0) + gen_dataset(1, 0, rng_seed=1)
        with pytest.raises(ValueError, match="^duplicate trial id 'trial-0000'$"):
            write_dataset(tmp_path / "data.csv", trials)
        assert not any(tmp_path.iterdir())  # neither the file nor a temporary file

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


class TestUndecodableBytes:
    """A byte that is not UTF-8 is a format error on the line that holds it."""

    @pytest.mark.parametrize(
        "raw, line_no, byte",
        [
            (b"id,label,2,500.0\nx,pos,1.0,2.0\ny\xff,neg,1.0,2.0\n", 3, 0xFF),
            (b"id,label,2,500.0\r\nx,pos,1.0,2.0\r\ny,neg,1.0,2.0\xc3\r\n", 3, 0xC3),
            (b"id,label,2,500.0\rx,pos,1.0,2.0\r\xe9,neg,1.0,2.0", 3, 0xE9),
            (b"id,label,\x80,500.0\n", 1, 0x80),
        ],
        ids=["lf", "crlf-truncated-sequence", "lone-cr", "header"],
    )
    def test_reported_on_its_line(self, tmp_path, raw, line_no, byte):
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with pytest.raises(DatasetFormatError, match=f"^line {line_no}: byte 0x{byte:02x} "):
            read_dataset(path)

    def test_first_byte_after_a_full_length_row(self, tmp_path):
        # The bad byte opens line 3, after a 1000-sample row: the decoder meets it
        # while line 2 is still being read, and it must still be blamed on line 3.
        path = tmp_path / "bad.csv"
        write_dataset(path, gen_dataset(2, 0, rng_seed=0))
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([*lines[:2], b"\xff" + lines[2], *lines[3:]]))
        with pytest.raises(DatasetFormatError, match="^line 3: byte 0xff "):
            read_dataset(path)

    def test_valid_multibyte_ids_are_not_flagged(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_bytes("id,label,1,500.0\ngröße-Ω,pos,1.0\n€,neg,2.0\n".encode("utf-8"))
        assert [t.id for t in read_dataset(path)] == ["größe-Ω", "€"]
