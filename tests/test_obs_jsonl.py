"""Contract suite for the durable-log primitive (``repro.obs.jsonl``).

One set of cases, parametrised over the three artifact species that
write through (or, for the tracer, are read back through) the
primitive: event traces, live-snapshot shards (the training log
included) and sweep shards.  The goldens are the exact bytes the
pre-primitive writers produced for the same inputs.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.experiments import pool
from repro.obs.jsonl import (
    JsonlWriter,
    atomic_write,
    canonical_json,
    read_jsonl,
    sha256_hex,
)
from repro.obs.live import LIVE_SCHEMA, SnapshotWriter, read_log
from repro.obs.trace import TRACE_SCHEMA, Tracer, TraceWarning, read_trace

QUARANTINE = pool._quarantine_record(
    pool.SweepSpec(kind="selftest", seed=7, params={"cells": 2}),
    {"i": 1}, 5, "RuntimeError", "boom", "tb", 3)


def _write_trace(path: Path) -> Any:
    tracer = Tracer(path)
    sid = tracer.begin("instance", t=3600.0, queued=2)
    tracer.event("start", job=7, nodes=128)
    tracer.end(sid)
    tracer.flush()
    return tracer


def _write_live(path: Path) -> Any:
    writer = SnapshotWriter(path, source="golden")
    writer.on_snapshot({"schema": LIVE_SCHEMA, "kind": "sim", "seq": 1,
                        "wall": 12.5, "events": 2000, "done": 10})
    return writer


def _write_sweep(path: Path) -> Any:
    writer = pool.SweepStore(path.parent.parent).open_shard(1, "abc123")
    writer.write(QUARANTINE)
    return writer


def _read_live(path: Path) -> tuple[int, int]:
    log = read_log(path)
    return sum(b["snapshots"] for b in log["kinds"].values()), log["skipped"]


def _read_sweep(path: Path) -> tuple[int, int]:
    scan = pool.SweepStore(path.parent.parent).scan()
    return len(scan.completed) + len(scan.quarantined), scan.skipped


def _reader_with_warnings(reader: Callable, category: type[Warning]):
    def read(path: Path) -> tuple[int, int]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = reader(path, strict=False)
        assert all(issubclass(w.category, category) for w in caught)
        return len(records) - 1, len(caught)  # minus the meta header
    return read


@dataclass(frozen=True)
class Species:
    """One artifact kind: how to write it, read it back, and its golden."""

    write: Callable[[Path], Any]
    #: one further write on the writer ``write`` returned
    write_more: Callable[[Any], None]
    #: lenient domain reader -> (records excluding meta, lines skipped)
    read: Callable[[Path], tuple[int, int]]
    schema: str
    n_records: int
    golden: str
    #: what a write on a closed writer does: an exception type, or None
    #: for "silently ignored"
    after_close: "type[Exception] | None"
    strict_reader: "Callable | None" = None


SPECIES = {
    "trace": Species(
        _write_trace, lambda w: w.flush(),
        _reader_with_warnings(read_trace, TraceWarning),
        TRACE_SCHEMA, 3,
        '{"type": "meta", "schema": "repro.trace/v1"}\n'
        '{"type": "begin", "name": "instance", "sid": 1, "pid": null, '
        '"wall": 1.5, "t": 3600.0, "queued": 2}\n'
        '{"type": "event", "name": "start", "pid": 1, "wall": 1.5, '
        '"job": 7, "nodes": 128}\n'
        '{"type": "end", "sid": 1, "wall": 1.5}\n',
        None, read_trace),
    "live": Species(
        _write_live, lambda w: w.on_snapshot({"kind": "sim", "seq": 2}),
        _read_live, LIVE_SCHEMA, 1,
        '{"schema": "repro.live/v1", "source": "golden", "type": "meta", '
        '"unix": 1700000000.25}\n'
        '{"done": 10, "events": 2000, "kind": "sim", '
        '"schema": "repro.live/v1", "seq": 1, "source": "golden", '
        '"type": "snapshot", "wall": 12.5}\n',
        None),
    "sweep": Species(
        _write_sweep, lambda w: w.write(QUARANTINE),
        _read_sweep, pool.SWEEP_SCHEMA, 1,
        '{"schema": "repro.sweep/v1", "sweep": "abc123", "type": "meta"}\n'
        '{"attempts": 3, "cell": {"i": 1}, "derived_seed": 5, '
        '"error": "boom", "error_tb": "tb", "error_type": "RuntimeError", '
        '"key": "{\\"i\\":1}", "schema": "repro.sweep/v1", '
        '"status": "quarantined", "type": "quarantine"}\n',
        ValueError),
}


@pytest.fixture(params=sorted(SPECIES))
def species(request) -> Species:
    return SPECIES[request.param]


@pytest.fixture
def artifact(species, tmp_path, monkeypatch):
    """``(path, open writer)`` of one freshly written species file."""
    monkeypatch.setattr(time, "time", lambda: 1700000000.25)
    monkeypatch.setattr(time, "perf_counter", lambda: 1.5)
    shards = tmp_path / "store" / "shards"  # the layout SweepStore scans
    shards.mkdir(parents=True)
    path = shards / "g0001.jsonl"
    writer = species.write(path)
    yield path, writer
    writer.close()


class TestSpeciesContract:
    def test_golden_bytes(self, species, artifact):
        path, _ = artifact
        assert path.read_text(encoding="utf-8") == species.golden

    def test_flushed_per_record(self, species, artifact):
        path, _ = artifact  # writer still open: nothing may sit in a buffer
        assert species.read(path) == (species.n_records, 0)

    def test_header_round_trip(self, species, artifact):
        path, _ = artifact
        records, skipped = read_jsonl(path)
        assert skipped == []
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == species.schema
        assert all(r["type"] != "meta" for r in records[1:])

    def test_damage_is_skipped_and_counted(self, species, artifact):
        path, writer = artifact
        writer.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write("\n   \n"                 # blank lines: not damage
                     "[1, 2]\n"                # non-object line
                     "\x00\x00\x00\x00\n"      # NUL padding
                     '{"type": "snap')         # torn final line
        assert species.read(path) == (species.n_records, 3)
        _, skipped = read_jsonl(path)
        assert [reason for _, reason in skipped] == [
            "non-object record", "NUL-padded line", "invalid JSON line"]

    def test_nul_padded_tail_without_newline(self, species, artifact):
        path, writer = artifact
        writer.close()
        with path.open("ab") as fh:
            fh.write(b"\x00" * 64)
        assert species.read(path) == (species.n_records, 1)

    def test_strict_names_the_first_damaged_line(self, species, artifact):
        path, writer = artifact
        writer.close()
        n_lines = len(path.read_text(encoding="utf-8").splitlines())
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"torn": ')
        with pytest.raises(ValueError, match=f"{path.name}:{n_lines + 1}"):
            read_jsonl(path, strict=True)
        if species.strict_reader is not None:
            with pytest.raises(ValueError, match=f":{n_lines + 1}"):
                species.strict_reader(path, strict=True)

    def test_write_after_close(self, species, artifact):
        path, writer = artifact
        writer.close()
        writer.close()  # idempotent
        before = path.read_bytes()
        if species.after_close is None:
            species.write_more(writer)  # silently ignored
        else:
            with pytest.raises(species.after_close, match="closed"):
                species.write_more(writer)
        assert path.read_bytes() == before


class TestJsonlWriter:
    def test_offset_tracks_bytes_and_resume_truncates(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlWriter(path, "s/v1", {"who": "t"}) as log:
            log.write({"n": 1})
            mark = path.stat().st_size  # flushed per record
            log.write({"n": 2})
            assert path.stat().st_size > mark
        with JsonlWriter(path, "s/v1", resume_at=mark) as log:
            assert path.stat().st_size == mark
            log.write({"n": 3})
        records, skipped = read_jsonl(path)
        assert skipped == []
        assert records == [{"type": "meta", "schema": "s/v1", "who": "t"},
                           {"n": 1}, {"n": 3}]

    def test_resume_mid_line_clamps_to_last_complete_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlWriter(path, "s/v1") as log:
            log.write({"n": 1})
            mark = path.stat().st_size
            log.write({"n": 2})
        with JsonlWriter(path, "s/v1", resume_at=mark + 3) as log:
            assert path.stat().st_size == mark
            log.write({"n": 3})
        assert [r.get("n") for r in read_jsonl(path, strict=True)[0]] == [
            None, 1, 3]

    def test_resume_past_eof_never_extends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlWriter(path, "s/v1") as log:
            log.write({"n": 1})
        size = path.stat().st_size
        with JsonlWriter(path, "s/v1", resume_at=size + 50) as log:
            assert path.stat().st_size == size
            log.write({"n": 2})
        assert b"\x00" not in path.read_bytes()
        assert len(read_jsonl(path, strict=True)[0]) == 3

    def test_resume_at_zero_rewrites_the_header(self, tmp_path):
        path = tmp_path / "log.jsonl"
        JsonlWriter(path, "s/v1").close()
        with JsonlWriter(path, "s/v1", {"run": 2}, resume_at=0) as log:
            log.write({"n": 1})
        assert read_jsonl(path, strict=True)[0] == [
            {"type": "meta", "schema": "s/v1", "run": 2}, {"n": 1}]

    def test_resume_without_a_file_starts_fresh(self, tmp_path):
        path = tmp_path / "log.jsonl"
        JsonlWriter(path, "s/v1", resume_at=123).close()
        assert read_jsonl(path)[0] == [{"type": "meta", "schema": "s/v1"}]

    def test_write_after_close_raises(self, tmp_path):
        log = JsonlWriter(tmp_path / "log.jsonl", "s/v1")
        log.close()
        log.close()
        assert log.closed
        with pytest.raises(ValueError, match="closed"):
            log.write({"n": 1})


class TestLiveShardResume:
    def test_resume_past_eof_loses_no_episode(self, tmp_path):
        # an OS crash can leave the flushed training log shorter than
        # the fsynced checkpoint: it holds two episodes, the log one
        path = tmp_path / "train.jsonl"
        with SnapshotWriter(path, source="train") as writer:
            writer.append({"kind": "train", "seq": 1, "episode": 0})
        with SnapshotWriter(path, source="train",
                            resume_after=2) as writer:
            writer.append({"kind": "train", "seq": 3, "episode": 2})
        log = read_log(path)
        assert log["skipped"] == 0
        assert [r["episode"] for r in log["train"]] == [0, 2]
        assert len(read_jsonl(path, strict=True)[0]) == 3  # one meta header
        assert b"\x00" not in path.read_bytes()


class TestReadJsonl:
    def test_warns_through_the_given_category_at_the_caller(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n', encoding="utf-8")
        with pytest.warns(TraceWarning, match="t.jsonl:2") as caught:
            read_trace(path, strict=False)
        assert caught[0].filename == __file__

    def test_lenient_without_category_is_silent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_jsonl(path) == ([], [(1, "invalid JSON line")])


class TestDigestAndAtomicWrite:
    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": [1, 2.5], "a": {"d": None, "c": "x"}}) \
            == '{"a":{"c":"x","d":null},"b":[1,2.5]}'

    def test_sha256_hex_matches_seed_digests(self):
        # digests computed by the pre-primitive code for the same inputs
        spec = pool.SweepSpec(kind="selftest", seed=7, params={"cells": 2})
        assert spec.digest() == ("df39ea7b1b985f152b3092b38be03c15"
                                 "71bcfb45fe867098973221bca37df12f")
        assert sha256_hex(spec.identity()) == spec.digest()

    def test_atomic_write_replaces_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "doc.json"
        _write(path, "old\n")
        _write(path, "new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_document_artifacts_all_go_through_it(self, tmp_path, monkeypatch):
        from repro.obs import jsonl
        from repro.obs.manifest import RunManifest

        replaced = []
        real_replace = jsonl.os.replace
        monkeypatch.setattr(jsonl.os, "replace", lambda src, dst: (
            replaced.append(Path(dst).name), real_replace(src, dst)))
        RunManifest.create(kind="t", timestamp=False, sha="-").write(
            tmp_path / "manifest.json")
        spec = pool.SweepSpec(kind="selftest", params={"cells": 1})
        store = pool.SweepStore(tmp_path / "store")
        store.initialise(spec, resume=False)
        pool.write_rollup(store, pool.merge_store(store, total=1))
        assert replaced == ["manifest.json", "spec.json", "rollup.json"]
        assert RunManifest.read(tmp_path / "manifest.json").kind == "t"

    def test_failed_write_keeps_the_previous_document(self, tmp_path):
        path = tmp_path / "doc.json"
        _write(path, "old\n")
        with pytest.raises(TypeError):
            _write(path, b"not text")  # type: ignore[arg-type]
        assert path.read_text(encoding="utf-8") == "old\n"

    def test_failed_fill_leaves_the_old_file_and_no_tmp(self, tmp_path):
        path = tmp_path / "doc.json"
        _write(path, "old\n")
        with pytest.raises(RuntimeError, match="mid-fill"):
            with atomic_write(path) as fh:
                fh.write("half of the new")
                raise RuntimeError("mid-fill")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]

    def test_manifest_write_is_fsynced_before_the_rename(self, tmp_path,
                                                         monkeypatch):
        from repro.obs import jsonl
        from repro.obs.manifest import RunManifest

        calls = []
        real_fsync, real_replace = jsonl.os.fsync, jsonl.os.replace
        monkeypatch.setattr(jsonl.os, "fsync", lambda fd: (
            calls.append("fsync"), real_fsync(fd)))
        monkeypatch.setattr(jsonl.os, "replace", lambda src, dst: (
            calls.append("replace"), real_replace(src, dst)))
        RunManifest.create(kind="t", timestamp=False, sha="-").write(
            tmp_path / "manifest.json")
        assert calls == ["fsync", "replace"]


def _write(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)
