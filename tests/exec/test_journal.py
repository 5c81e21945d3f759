"""SweepJournal: manifest guard, append-only ledger, torn-tail tolerance."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.exec import JOURNAL_SCHEMA_VERSION, SweepJournal

KEYS = ["aaa", "bbb", "ccc"]


def test_fresh_journal_writes_manifest(tmp_path):
    with SweepJournal(tmp_path, "digest-1", KEYS) as journal:
        journal.record("aaa", {"x": 1})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["schema_version"] == JOURNAL_SCHEMA_VERSION
    assert manifest["sweep_digest"] == "digest-1"
    assert manifest["shards"] == 3
    lines = (tmp_path / "journal.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"shard": "aaa", "result": {"x": 1}}


def test_resume_loads_completed_shards(tmp_path):
    with SweepJournal(tmp_path, "d", KEYS) as journal:
        journal.record("aaa", {"x": 1})
        journal.record("bbb", {"x": 2})
        journal.record_failure("ccc", {"key": "ccc", "error_type": "Boom"})
    resumed = SweepJournal(tmp_path, "d", KEYS, resume=True)
    assert resumed.completed == {"aaa": {"x": 1}, "bbb": {"x": 2}}
    assert resumed.prior_failures == [{"key": "ccc", "error_type": "Boom"}]
    assert resumed.skipped_lines == 0
    resumed.close()


def test_fresh_refuses_existing_nonempty_journal(tmp_path):
    with SweepJournal(tmp_path, "d", KEYS) as journal:
        journal.record("aaa", {"x": 1})
    with pytest.raises(ConfigError, match="--resume"):
        SweepJournal(tmp_path, "d", KEYS)


def test_resume_refuses_missing_manifest(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        SweepJournal(tmp_path, "d", KEYS, resume=True)


def test_resume_refuses_foreign_sweep(tmp_path):
    SweepJournal(tmp_path, "theirs", KEYS).close()
    with pytest.raises(ConfigError, match="different\\s+sweep"):
        SweepJournal(tmp_path, "ours", KEYS, resume=True)


def test_resume_refuses_unknown_schema(tmp_path):
    journal = SweepJournal(tmp_path, "d", KEYS)
    journal.close()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["schema_version"] = 999
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match="schema_version"):
        SweepJournal(tmp_path, "d", KEYS, resume=True)


def test_torn_tail_line_is_skipped_not_fatal(tmp_path):
    with SweepJournal(tmp_path, "d", KEYS) as journal:
        journal.record("aaa", {"x": 1})
    # Simulate a SIGKILL mid-append: a truncated JSON line at the tail.
    with open(tmp_path / "journal.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"shard": "bbb", "resu')
    resumed = SweepJournal(tmp_path, "d", KEYS, resume=True)
    assert resumed.completed == {"aaa": {"x": 1}}
    assert resumed.skipped_lines == 1  # bbb simply counts as not-done
    resumed.close()


def test_unknown_shard_keys_are_skipped(tmp_path):
    with SweepJournal(tmp_path, "d", KEYS) as journal:
        journal.record("aaa", {"x": 1})
    with open(tmp_path / "journal.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"shard": "zzz", "result": {"x": 9}}\n')
    resumed = SweepJournal(tmp_path, "d", KEYS, resume=True)
    assert "zzz" not in resumed.completed
    assert resumed.skipped_lines == 1
    resumed.close()


def test_resume_then_append_accumulates(tmp_path):
    with SweepJournal(tmp_path, "d", KEYS) as journal:
        journal.record("aaa", {"x": 1})
    with SweepJournal(tmp_path, "d", KEYS, resume=True) as journal:
        journal.record("bbb", {"x": 2})
    resumed = SweepJournal(tmp_path, "d", KEYS, resume=True)
    assert set(resumed.completed) == {"aaa", "bbb"}
    resumed.close()


def test_record_after_a_line_cut_before_its_newline(tmp_path):
    """A kill just before a line's newline leaves a whole last line: the
    resumed run reads its payload, and its next record starts a line of
    its own, so a second resume finds both."""
    with SweepJournal(tmp_path, "d", KEYS) as journal:
        journal.record("aaa", {"x": 1})
    path = tmp_path / "journal.jsonl"
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    with SweepJournal(tmp_path, "d", KEYS, resume=True) as resumed:
        resumed.record("bbb", {"x": 2})
        assert resumed.completed["aaa"] == {"x": 1}
    again = SweepJournal(tmp_path, "d", KEYS, resume=True)
    assert again.completed == {"aaa": {"x": 1}, "bbb": {"x": 2}}
    assert again.skipped_lines == 0
    again.close()


def test_record_after_a_torn_tail_keeps_its_line(tmp_path):
    with SweepJournal(tmp_path, "d", KEYS) as journal:
        journal.record("aaa", {"x": 1})
    with open(tmp_path / "journal.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"shard": "bbb", "resu')
    with SweepJournal(tmp_path, "d", KEYS, resume=True) as resumed:
        resumed.record("bbb", {"x": 2})
    again = SweepJournal(tmp_path, "d", KEYS, resume=True)
    assert again.completed == {"aaa": {"x": 1}, "bbb": {"x": 2}}
    assert again.skipped_lines == 1  # only the torn fragment
    again.close()


def test_resume_holds_one_payload_at_a_time(tmp_path):
    """Resuming keeps where each shard's line starts, not its payload:
    loading a journal of many large payloads and reading one back peaks
    at about two payloads (one line's text and its parsed value), not
    at all of them."""
    keys = [f"k{i}" for i in range(8)]
    size = 1_000_000
    with SweepJournal(tmp_path, "d", keys) as journal:
        for i, key in enumerate(keys):
            journal.record(key, {"payload": "abcdefgh"[i] * size})
    tracemalloc.start()
    try:
        resumed = SweepJournal(tmp_path, "d", keys, resume=True)
        last = resumed.completed[keys[-1]]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    resumed.close()
    assert list(resumed.completed) == keys
    assert last == {"payload": "h" * size}
    assert peak < 2.5 * size
