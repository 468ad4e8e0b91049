"""Plain-text dataset files holding labelled force traces.

Layout: one metadata header row ``id,label,<n_samples>,<sample_rate>``
(n_samples >= 0, a finite sample_rate > 0) followed by one row per trial:
id, ``pos``/``neg``, then exactly ``n_samples`` force values in newtons.
UTF-8, ``.`` decimal separator; written with LF line endings, read with LF,
CRLF or a lone CR. Values are written with shortest round-trip ``repr``, so
write-then-read reproduces traces bit for bit.

A row whose every value is ``-?digits.digits``, with at most 18 significant
and 27 fraction digits (most rows ``repr`` writes), is read as integers over
powers of ten in the long double, exactly: each value gets ``float()``'s bits.
This path needs the x87 extended long double; elsewhere, and for any other row
(e-notation, ``+``, spaces, ``nan`` and malformed text among them), the row
is read with ``np.array(fields, dtype=float)``, which words the errors.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .classifier import _LABELS, _is_positive
from .online import LabeledTrial
from .signal import ForceTrace, _check_count, _check_real

__all__ = ["DatasetFormatError", "write_dataset", "read_dataset"]

_LABEL_TEXTS = ("neg", "pos")  # indexed by a positive flag, as classifier._LABELS
_TEXT_TO_LABEL = dict(zip(_LABEL_TEXTS, _LABELS))


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message carries the offending line number."""


def _write_text_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` in order as UTF-8, replacing ``path`` atomically.

    ``chunks`` may be a generator, so a large file is streamed rather than
    joined in memory; line endings are written as given. The text goes to a
    temporary file in the same directory, which is renamed over ``path``
    only once it is complete, so a failed write (a failing generator
    included) leaves any earlier file untouched and removes the temporary
    file. A symlink at ``path`` stays in place and its target is replaced.
    When the temporary file cannot be made or renamed, the error names ``path``.
    On ext4 a rename over an existing file waits for the new file's flush (the crash guarantee),
    which about doubles a default ``online`` rerun into an existing ``--out`` (README "Limits").
    """
    target = path.resolve()
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        handle = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with handle:
                handle.writelines(chunks)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        if exc.filename == str(tmp):  # name the user's path, not the hidden temporary file
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_dataset(
    path: str | Path,
    trials: Sequence[LabeledTrial],
    *,
    overwrite: bool = False,
    n_samples: int = 0,
    sample_rate: float = 500.0,
) -> None:
    """Write trials to ``path``; refuses to replace an existing file unless asked.

    All trials must share one trace length and sample rate, every truth must be a
    ``Label``, and no id may repeat or hold a comma or a line break, which
    ``read_dataset`` would split on: each is rejected before the file is opened.
    For an empty dataset the header metadata comes from ``n_samples``/``sample_rate``.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"{path} already exists; pass overwrite/--force to replace it")
    trials = list(trials)
    positive = [_is_positive(trial.truth, trial.id) for trial in trials]
    if trials:
        n_samples = len(trials[0].trace)
        sample_rate = trials[0].trace.sample_rate
        seen_ids: set[str] = set()
        for trial in trials:
            if len(trial.trace) != n_samples or trial.trace.sample_rate != sample_rate:
                raise ValueError("all trials in a dataset file must share n_samples and sample_rate")
            if any(char in trial.id for char in ",\n\r"):
                raise ValueError(f"trial id {trial.id!r} holds a comma or a line break")
            if trial.id in seen_ids:
                raise ValueError(f"duplicate trial id {trial.id!r}")
            seen_ids.add(trial.id)
    else:
        _check_count(n_samples, "an empty dataset's n_samples", 0)
        _check_real(sample_rate, "an empty dataset's sample_rate", 0, np.inf, "()")

    def lines() -> Iterator[str]:
        yield f"id,label,{int(n_samples)},{float(sample_rate)!r}\n"
        for trial, flag in zip(trials, positive):
            values = ",".join(repr(float(v)) for v in trial.trace.samples)
            yield f"{trial.id},{_LABEL_TEXTS[flag]},{values}\n"

    _write_text_atomic(path, lines())


def _fail(line_no: int, message: str) -> DatasetFormatError:
    return DatasetFormatError(f"line {line_no}: {message}")


def _not_utf8(line: str) -> str | None:
    """Name the first byte of ``line`` that is not UTF-8, or return None if there is none.

    ``line`` was decoded with ``errors="surrogateescape"``, which turns each
    such byte into a lone surrogate that does not encode back.
    """
    if line.isascii():
        return None
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        return f"byte 0x{byte:02x} at character {exc.start + 1} is not UTF-8"
    return None


def _numbered_lines(handle: TextIO) -> Iterator[tuple[int, str]]:
    """Yield each line of a file opened with ``errors="surrogateescape"``, numbered from 1.

    The line ending is dropped. A byte that is not UTF-8 is a format error on
    the line that holds it, even when the decoder met it while still reading
    an earlier line.
    """
    for line_no, line in enumerate(handle, start=1):
        line = line.removesuffix("\n")
        problem = _not_utf8(line)
        if problem is not None:
            raise _fail(line_no, problem)
        yield line_no, line


# The exact path divides an int64 mantissa by 10**f in the x87 extended long double,
# whose 64-bit significand holds both operands exactly, so the quotient is rounded once.
# binary128 (112: aarch64 and s390x Linux) would round once too, but it divides
# in software and is unmeasured, so those hosts read every row the np.array way, with
# the same bits. IBM double-double (105) does not round once, and a plain double (52:
# macOS arm64, Windows) holds neither every mantissa nor every power exactly.
_EXACT_LONG_DOUBLE = np.finfo(np.longdouble).nmant == 63
_DIGIT, _MINUS, _POINT, _COMMA = 1, 2, 3, 4
_BYTE_KINDS = bytearray(256)  # a translate table: 0 for any byte off the exact path's grammar
_BYTE_KINDS[ord("0") : ord("9") + 1] = bytes([_DIGIT]) * 10
_BYTE_KINDS[ord("-")], _BYTE_KINDS[ord(".")], _BYTE_KINDS[ord(",")] = _MINUS, _POINT, _COMMA
_MANTISSA_LIMIT = 10**18  # at most 18 significant digits
# 10**i == 2**i * 5**i, and 5**27 < 2**63: each entry is exact in a 64-bit significand.
_POWERS_OF_TEN = np.cumprod(np.array([1] + [10] * 27, dtype=np.longdouble))


def _exact_values(tail: str, n_samples: int) -> np.ndarray | None:
    """Read ``tail``'s ``n_samples`` comma-separated fields with ``float()``'s bits, or return None.

    A row takes this path when every field is ``-?digits.digits`` with at most
    18 significant and 27 fraction digits; None sends any other row to
    ``np.array(fields, dtype=float)``, which words its errors. Each field's
    digits are read as one int64 mantissa ``m`` with ``f`` fraction digits,
    and ``m / 10**f`` is rounded once to the long double, then to float64.
    That double rounding can differ from ``float()``'s single one only when
    the long double lands on the midpoint between two doubles; such fields,
    and zero mantissas (for the sign of ``-0.0``), are read with ``float()``.
    """
    if not tail.isascii():
        return None
    row = tail.encode("ascii")
    text = b"," + row + b","
    kinds = np.frombuffer(text.translate(_BYTE_KINDS), np.uint8)
    separators = np.flatnonzero(kinds >= _POINT)
    commas, points = separators[::2], separators[1::2]
    # Commas and points alternate, a digit on each side of every point, and a minus
    # only where a field starts.
    if not (
        kinds.all()
        and separators.size == 2 * n_samples + 1
        and (kinds[commas] == _COMMA).all()
        and (kinds[points] == _POINT).all()
        and (kinds[points - 1] == _DIGIT).all()
        and (kinds[points + 1] == _DIGIT).all()
        and np.count_nonzero(kinds == _MINUS) == np.count_nonzero(kinds[commas[:-1] + 1] == _MINUS)
    ):
        return None
    fraction_digits = commas[1:] - points - 1
    # Parsing saturates a mantissa past int64 at an int64 limit (strtol's rule): it fails the bound too.
    mantissas = np.fromstring(row.replace(b".", b""), np.int64, sep=",")
    too_long = (mantissas >= _MANTISSA_LIMIT) | (mantissas <= -_MANTISSA_LIMIT)
    if too_long.any() or (fraction_digits >= _POWERS_OF_TEN.size).any():
        return None
    exact = mantissas.astype(np.longdouble) / _POWERS_OF_TEN[fraction_digits]
    values = exact.astype(np.float64)
    # ``exact`` is a midpoint when it lies off ``values`` and the mirror image of ``values``
    # about ``exact`` is a double (the other neighbour). Both steps are exact.
    offset = exact - values
    mirror = exact + offset
    midpoint = (offset != 0) & (mirror == mirror.astype(np.float64))
    for i in np.flatnonzero(midpoint | (mantissas == 0)):
        values[i] = float(text[commas[i] + 1 : commas[i + 1]])
    return values


def read_dataset(path: str | Path) -> list[LabeledTrial]:
    """Parse a dataset file; aborts with a line-numbered error on the first defect.

    The file is read one line at a time, in text mode with universal
    newlines: LF, CRLF and a lone CR each end a line.
    """
    with open(Path(path), encoding="utf-8", errors="surrogateescape") as handle:
        lines = _numbered_lines(handle)
        _, header_line = next(lines, (1, None))
        if header_line is None:
            raise _fail(1, "missing header")
        header = header_line.split(",")
        if len(header) != 4 or header[0] != "id" or header[1] != "label":
            raise _fail(
                1, f"expected header 'id,label,<n_samples>,<sample_rate>', got {header_line!r}"
            )
        try:
            n_samples = int(header[2])
            sample_rate = float(header[3])
        except ValueError:
            raise _fail(1, f"bad n_samples/sample_rate in header {header_line!r}") from None
        if n_samples < 0:
            raise _fail(1, f"n_samples must be >= 0, got {n_samples}")
        if not 0 < sample_rate < np.inf:
            raise _fail(1, f"sample_rate must be positive and finite, got {header[3]!r}")

        trials: list[LabeledTrial] = []
        seen_ids: set[str] = set()
        for offset, line in lines:
            head = line.split(",", 2)
            # A row the exact path reads has the right field count: only others are counted.
            samples = _exact_values(head[2], n_samples) if len(head) == 3 and _EXACT_LONG_DOUBLE else None
            if samples is None and line.count(",") != 1 + n_samples:
                raise _fail(offset, f"expected {2 + n_samples} fields, got {line.count(',') + 1}")
            trial_id, label_text = head[0], head[1]
            if trial_id in seen_ids:
                raise _fail(offset, f"duplicate trial id {trial_id!r}")
            seen_ids.add(trial_id)
            label = _TEXT_TO_LABEL.get(label_text)
            if label is None:
                raise _fail(offset, f"label must be 'pos' or 'neg', got {label_text!r}")
            try:
                if samples is None:
                    samples = np.array(head[2].split(",") if n_samples else [], dtype=float)
                trace = ForceTrace(samples, sample_rate)
            except ValueError as exc:
                raise _fail(offset, str(exc)) from None
            trials.append(LabeledTrial(trial_id, trace, label))
        return trials
