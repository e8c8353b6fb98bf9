"""The one durable-log primitive: JSONL append, lenient read, digests.

Owns the byte-level decisions every artifact shares (the contract is
stated once in ``docs/observability.md``, "Durable logs"): one
sorted-key JSON object per line behind a ``meta`` header, flushed per
record so a killed writer leaves at most one torn final line
(:class:`JsonlWriter`); one scanner that classifies damage
(:func:`read_jsonl`); the canonical form every content digest hashes
(:func:`canonical_json` / :func:`sha256_hex`); and whole-file writes
that are old or new, never half-written (:func:`atomic_write`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import warnings
from typing import IO, Any, Iterator, Mapping


def canonical_json(doc: Any) -> str:
    """Canonical compact JSON: the byte form every digest hashes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def sha256_hex(doc: Any) -> str:
    """SHA-256 (hex) over the canonical JSON bytes of ``doc``."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def atomic_write(path: "str | os.PathLike[str]",
                 binary: bool = False) -> Iterator[IO[Any]]:
    """Yield ``<path>.tmp`` open for writing; on success it becomes ``path``.

    The caller fills the file object (text, UTF-8; or bytes with
    ``binary=True`` — an ``np.savez`` streams straight into it).  On a
    clean exit the file is flushed, fsynced and ``os.replace``-d over
    ``path``, so a kill or an OS crash leaves the old file or the new
    one, never a torn hybrid.  If the fill raises, the tmp file is
    removed and ``path`` is untouched.  Missing parent directories are
    created.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    try:
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class JsonlWriter:
    """Appends one sorted-key JSON line per record, flushed per record.

    A fresh file starts with a ``{"type": "meta", "schema": ...}``
    header plus the caller's ``meta`` fields.  With ``resume_at`` an
    existing log is instead cut back to its last complete line at or
    before that byte offset — never extended: a checkpoint can outlive
    the unsynced tail of its log across an OS crash.
    """

    def __init__(self, path: "str | os.PathLike[str]", schema: str,
                 meta: Mapping[str, Any] | None = None,
                 resume_at: int | None = None) -> None:
        self.path = os.fspath(path)
        if resume_at is not None and os.path.exists(self.path):
            with open(self.path, "rb+") as raw:
                head = raw.read(max(resume_at, 0))
                raw.truncate(head.rfind(b"\n") + 1)
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
        if self._fh.tell() == 0:
            self.write({"type": "meta", "schema": schema, **(meta or {})})

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._fh.closed

    def write(self, record: Mapping[str, Any]) -> None:
        """Durably append one record (raises ``ValueError`` once closed)."""
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the file (idempotent)."""
        self._fh.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(
    path: "str | os.PathLike[str]", strict: bool = False,
    warn: "type[Warning] | None" = None,
) -> tuple[list[dict[str, Any]], list[tuple[int, str]]]:
    """Scan a JSONL file into ``(records, skipped)``.

    ``records`` holds every JSON-object line in file order, ``meta``
    header included; blank lines are ignored.  Anything else — a torn
    or corrupt line, a non-object value, NUL padding — is damage:
    ``strict=True`` raises ``ValueError`` naming ``path:line``,
    otherwise it lands in ``skipped`` as ``(line number, reason)`` and
    is reported through the ``warn`` category, if one is given.
    """
    records: list[dict[str, Any]] = []
    skipped: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "\x00" in line:
                reason = "NUL-padded line"
            else:
                try:
                    record = json.loads(line)
                except ValueError:
                    reason = "invalid JSON line"
                else:
                    if isinstance(record, dict):
                        records.append(record)
                        continue
                    reason = "non-object record"
            if strict:
                raise ValueError(f"{path}:{lineno}: {reason}")
            skipped.append((lineno, reason))
            if warn is not None:
                warnings.warn(f"{path}:{lineno}: skipping {reason}",
                              warn, stacklevel=3)
    return records, skipped
