"""Plain-text dataset files holding labelled force traces.

Layout: one metadata header row ``id,label,<n_samples>,<sample_rate>``
(n_samples >= 0, a finite sample_rate > 0) followed by one row per trial:
id, ``pos``/``neg``, then exactly ``n_samples`` force values in newtons.
UTF-8, ``.`` decimal separator; written with LF line endings, read with LF,
CRLF or a lone CR. Values are written with shortest round-trip ``repr``, so
write-then-read reproduces traces bit for bit.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .classifier import Label
from .online import LabeledTrial
from .signal import ForceTrace, _check_count, _check_real

__all__ = ["DatasetFormatError", "write_dataset", "read_dataset"]

_LABEL_TO_TEXT = {Label.POSITIVE: "pos", Label.NEGATIVE: "neg"}
_TEXT_TO_LABEL = {text: label for label, text in _LABEL_TO_TEXT.items()}


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

    All trials must share one trace length and sample rate, and no id may
    repeat or hold a comma or a line break, which ``read_dataset`` would
    split on: each is rejected before the file is opened. For an empty
    dataset the header metadata comes from ``n_samples``/``sample_rate``.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise FileExistsError(f"{path} already exists; pass overwrite/--force to replace it")
    trials = list(trials)
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
        for trial in trials:
            values = ",".join(repr(float(v)) for v in trial.trace.samples)
            yield f"{trial.id},{_LABEL_TO_TEXT[trial.truth]},{values}\n"

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
            fields = line.split(",")
            if len(fields) != 2 + n_samples:
                raise _fail(offset, f"expected {2 + n_samples} fields, got {len(fields)}")
            trial_id = fields[0]
            if trial_id in seen_ids:
                raise _fail(offset, f"duplicate trial id {trial_id!r}")
            seen_ids.add(trial_id)
            label = _TEXT_TO_LABEL.get(fields[1])
            if label is None:
                raise _fail(offset, f"label must be 'pos' or 'neg', got {fields[1]!r}")
            try:
                samples = np.array(fields[2:], dtype=float)
                trace = ForceTrace(samples, sample_rate)
            except ValueError as exc:
                raise _fail(offset, str(exc)) from None
            trials.append(LabeledTrial(trial_id, trace, label))
        return trials
