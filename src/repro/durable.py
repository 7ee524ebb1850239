"""Durable files: atomic rewrites and append-only JSONL.

Every journal, trail and log the package keeps goes through here.

* :func:`atomic_write` writes a temp file beside the target and renames
  it over the target, so readers see the old bytes or the new ones.
* :func:`append_jsonl` appends one JSON object as one line.  A record
  is committed once its newline is written.  Before it writes, an
  appender cuts any unterminated final fragment (a writer that died
  mid-line), holding an exclusive ``fcntl.flock`` so that two
  processes on one path cannot cut each other's lines.
  :func:`locked_append` is that step for a writer that must read the
  file under the lock or keeps its own handle.
* :func:`read_jsonl` returns the committed records and the numbers of
  the lines that are not one: unparseable, not an object, or the
  unterminated fragment.  It never modifies the file; what a bad line
  means is the caller's policy.

Crash model: nothing is fsynced.  The files survive a crash of the
process at any instant, because a finished ``write`` or ``rename`` is
already in the kernel; they do not survive a power loss or a kernel
crash, which can drop writes not yet flushed to disk.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Tuple, Union

__all__ = ["atomic_write", "append_jsonl", "locked_append", "read_jsonl"]


def atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename (creating parents)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _cut_torn_tail(fd: int) -> None:
    """Truncate the file just after its last newline."""
    size = end = os.fstat(fd).st_size
    while end > 0:
        start = max(0, end - 4096)
        newline = os.pread(fd, end - start, start).rfind(b"\n")
        if newline >= 0:
            end = start + newline + 1
            break
        end = start
    if end < size:
        os.ftruncate(fd, end)


@contextlib.contextmanager
def locked_append(
    path: Union[str, Path],
) -> Iterator[Callable[[Mapping[str, Any]], None]]:
    """Hold ``path`` locked for appending, its torn tail cut.

    Yields a function that appends one record as one line.  The lock
    is held until the block exits.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as handle:  # closing releases the lock
        fcntl.flock(handle, fcntl.LOCK_EX)
        _cut_torn_tail(handle.fileno())
        yield lambda record: handle.write(
            (json.dumps(record, sort_keys=True) + "\n").encode()
        )


def append_jsonl(path: Union[str, Path], record: Mapping[str, Any]) -> None:
    """Append ``record`` as one line, after cutting any torn tail."""
    with locked_append(path) as write:
        write(record)


def read_jsonl(
    path: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], List[int]]:
    """The committed records of ``path`` and the numbers of its bad lines.

    A missing file reads as empty.  Blank lines are skipped and not
    counted, so bad line ``n`` is the ``n``-th non-blank line.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], []
    *lines, fragment = data.split(b"\n")
    lines = [line for line in lines if line.strip()]
    records: List[Dict[str, Any]] = []
    bad: List[int] = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except ValueError:  # UnicodeDecodeError included
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            bad.append(number)
    if fragment.strip():  # no newline, so never committed
        bad.append(len(lines) + 1)
    return records, bad
