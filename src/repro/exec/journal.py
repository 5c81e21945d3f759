"""Append-only sweep checkpoints: survive anything, resume bit-identically.

A :class:`SweepJournal` is the crash-safe ledger behind
``repro sweep --checkpoint DIR --resume``: a directory holding

- ``manifest.json`` -- the identity of the sweep being checkpointed (a
  canonical digest over the base scenario, the swept parameter and its
  values, plus the shard-key list), written once when the journal is
  created.  Resume refuses a directory whose manifest names a
  *different* sweep, so a stale checkpoint can never leak foreign
  results into a run.
- ``journal.jsonl`` -- one JSON line per settled shard, appended and
  flushed as each completes (fsync batched on a short interval; a
  power cut can cost the last interval's shards, which simply re-run
  on resume).  ``{"shard": key, "result": ...}`` records
  a completed shard's full result payload; ``{"shard": key,
  "failure": ...}`` records a permanent failure (informational -- a
  failed shard is retried on resume).

Shard keys are content digests of the shard's spec (sweeps use the
variant scenario's sha256 digest), so sharding is deterministic: the
same sweep always produces the same keys, whatever order shards
complete in, whichever backend ran them, however many times the run
was killed and resumed.

Crash model: the writer may die (SIGKILL included) mid-append, leaving
a torn final line.  Loading tolerates undecodable lines by skipping
them -- the shard simply counts as not-done and is re-run -- so a
journal is never unusable, and a resumed sweep's merged results are bit
identical to an uninterrupted run's (the re-run shard is the same
deterministic function of the same spec).

Loading keeps only where each completed shard's line lies in the file:
a payload is parsed again from exactly those bytes when it is read, so
resuming a journal of large payloads (a cluster run's checkpoints) holds
one at a time.  A kill between a line's JSON and its newline leaves the
last line open; loading closes it, so the next record starts a line of
its own.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import (
    Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from repro.errors import ConfigError

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
#: Bump when the on-disk layout changes shape.
JOURNAL_SCHEMA_VERSION = 1
#: Minimum spacing between fsyncs.  Every line is *flushed* (visible to
#: other processes, and intact unless the whole machine dies), but
#: durability-fsync is batched: losing the last interval's lines to a
#: power cut just re-runs those shards on resume, while fsyncing every
#: line would dominate the journal's cost on fast sweeps.
_FSYNC_INTERVAL_S = 1.0


class _JournalPayloads(Mapping[str, Any]):
    """Shard key -> result payload of a loaded journal, read-only.

    Holds each shard's ``(start, end)`` byte range in the journal file;
    a payload is parsed from exactly those bytes each time it is read.
    ``in``, ``len`` and iteration touch no payload.
    """

    def __init__(self, path: Path, spans: Dict[str, Tuple[int, int]]) -> None:
        self._path = path
        self._spans = spans

    def __getitem__(self, key: str) -> Any:
        start, end = self._spans[key]
        with open(self._path, "rb") as fh:
            fh.seek(start)
            line = fh.read(end - start).decode("utf-8", "replace")
        return json.loads(line)["result"]

    def __contains__(self, key: object) -> bool:
        return key in self._spans

    def __iter__(self) -> Iterator[str]:
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)


class SweepJournal:
    """Checkpoint directory for one deterministic sweep.

    Create with ``resume=False`` to start a fresh ledger (refusing to
    clobber an existing non-empty one) or ``resume=True`` to load the
    completed shards of a previous run and keep appending.  Use as::

        journal = SweepJournal(ckpt_dir, sweep_digest, shard_keys,
                               resume=args.resume)
        todo = [k for k in shard_keys if k not in journal.completed]
        ...
        journal.record(key, result_payload)   # as each shard settles
        journal.close()
    """

    def __init__(
        self,
        directory: Union[str, Path],
        sweep_digest: str,
        shard_keys: Sequence[str],
        resume: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.sweep_digest = sweep_digest
        self.shard_keys = list(shard_keys)
        #: Shard key -> result payload of the shards a resume found
        #: done (resume skips these), read from the file on access.
        #: :meth:`record` only appends to the file, so neither a long
        #: run nor a resume holds every payload.
        self.completed: Mapping[str, Any] = _JournalPayloads(
            self.journal_path, {}
        )
        #: Failure payloads seen in the journal (informational only).
        self.prior_failures: List[Dict[str, Any]] = []
        #: Undecodable lines skipped while loading (torn tail writes).
        self.skipped_lines = 0
        self._fh = None
        self._last_fsync = 0.0

        self.directory.mkdir(parents=True, exist_ok=True)
        if resume:
            self._load()
        else:
            self._create()
        self._fh = open(self.journal_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    # ------------------------------------------------------------------
    # Creation / loading
    # ------------------------------------------------------------------
    def _manifest(self) -> Dict[str, Any]:
        return {
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "sweep_digest": self.sweep_digest,
            "shards": len(self.shard_keys),
        }

    def _create(self) -> None:
        if self.journal_path.exists() and self.journal_path.stat().st_size:
            raise ConfigError(
                f"checkpoint {self.directory} already holds a journal; "
                "pass --resume to continue it, or point --checkpoint at a "
                "fresh directory"
            )
        self.manifest_path.write_text(
            json.dumps(self._manifest(), indent=2) + "\n", encoding="utf-8"
        )
        # Truncate any empty leftover so appends start clean.
        self.journal_path.write_text("", encoding="utf-8")

    def _load(self) -> None:
        if not self.manifest_path.exists():
            raise ConfigError(
                f"cannot resume: {self.manifest_path} does not exist "
                "(was this sweep ever checkpointed here?)"
            )
        try:
            manifest = json.loads(
                self.manifest_path.read_text(encoding="utf-8")
            )
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"cannot resume: {self.manifest_path} is not valid JSON "
                f"({exc})"
            ) from exc
        if manifest.get("schema_version") != JOURNAL_SCHEMA_VERSION:
            raise ConfigError(
                f"cannot resume: {self.manifest_path} has schema_version "
                f"{manifest.get('schema_version')!r} "
                f"(expected {JOURNAL_SCHEMA_VERSION})"
            )
        if manifest.get("sweep_digest") != self.sweep_digest:
            raise ConfigError(
                f"cannot resume: {self.directory} checkpoints a different "
                f"sweep (manifest digest {manifest.get('sweep_digest')!r} "
                f"!= this sweep's {self.sweep_digest!r}); point "
                "--checkpoint at the matching directory"
            )
        known = set(self.shard_keys)
        spans: Dict[str, Tuple[int, int]] = {}
        open_tail = False
        if self.journal_path.exists():
            with open(self.journal_path, "rb") as fh:
                end = 0
                for raw in fh:
                    start, end = end, end + len(raw)
                    open_tail = not raw.endswith(b"\n")
                    # Decoded and the bytes dropped before the parse:
                    # one copy of one line beside its parsed entry.  A
                    # stray byte becomes U+FFFD instead of ending the
                    # resume.
                    line = raw.decode("utf-8", "replace")
                    del raw
                    if not line.isspace():
                        self._load_line(line, (start, end), known, spans)
                    del line
        if open_tail:
            with open(self.journal_path, "ab") as fh:
                fh.write(b"\n")
        self.completed = _JournalPayloads(self.journal_path, spans)

    def _load_line(
        self,
        line: str,
        span: Tuple[int, int],
        known: Set[str],
        spans: Dict[str, Tuple[int, int]],
    ) -> None:
        """Account one journal line.  The parsed entry lives only in
        this frame: a result line leaves just its byte range behind."""
        try:
            # Parsed whole, so a torn line never counts as done.
            entry = json.loads(line)
            key = entry["shard"]
        except (json.JSONDecodeError, KeyError, TypeError):
            # Torn write from a killed run: skip; the shard counts as
            # not-done and is simply re-run.
            self.skipped_lines += 1
            return
        if key not in known:
            # Same sweep digest implies the same shard set, but stay
            # defensive against hand-edited files.
            self.skipped_lines += 1
        elif "result" in entry:
            spans[key] = span
        elif "failure" in entry:
            self.prior_failures.append(entry["failure"])
        else:
            self.skipped_lines += 1

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _append(self, entry: Mapping[str, Any]) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._fh.flush()
        now = time.monotonic()
        if now - self._last_fsync >= _FSYNC_INTERVAL_S:
            os.fsync(self._fh.fileno())
            self._last_fsync = now

    def record(self, key: str, result: Any) -> None:
        """Checkpoint one completed shard's result payload."""
        self._append({"shard": key, "result": result})

    def record_failure(self, key: str, failure: Mapping[str, Any]) -> None:
        """Record a permanent failure (the shard is retried on resume)."""
        self._append({"shard": key, "failure": dict(failure)})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *_exc) -> Optional[bool]:
        self.close()
        return None
