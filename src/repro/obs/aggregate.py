"""Merge per-process live-snapshot JSONL shards into one rollup.

A multi-process experiment (a faultsweep fan-out, parallel seeds, a
training run next to a simulation) leaves one JSONL shard per process,
each a ``repro.live/v1`` shard written by
:class:`~repro.obs.live.SnapshotWriter` — a training log included: its
per-episode records are ``kind="train"`` snapshots.  This module folds
any set of them into a single deterministic rollup (``repro live
summarize`` on the CLI).

Reading is **lenient** by design: shards from killed processes may end
in a truncated line, and that prefix is still data.  Unparseable lines
are skipped (counted in the per-shard ``skipped`` field), never fatal.

Merging is **order-independent**: shards are keyed and processed by
their sorted basename, every per-kind reduction is commutative
(min/max/sum/last-by-``seq``), and the output dict has sorted keys —
the same set of shards produces byte-identical rollup JSON regardless
of argument order or filesystem enumeration order.
"""

from __future__ import annotations

import math
import os
from typing import Any, Iterable, Mapping

from repro.obs.jsonl import read_jsonl
from repro.obs.live import LIVE_SCHEMA

#: schema tag stamped on the merged rollup document
ROLLUP_SCHEMA = "repro.live-rollup/v1"


def read_snapshots(path: "str | os.PathLike[str]") -> dict[str, Any]:
    """Leniently read one ``repro.live/v1`` JSONL shard.

    Returns ``{"path", "source", "schema", "records", "skipped"}``.
    ``records`` holds every well-formed JSON-object line except the
    ``meta`` header (which supplies ``source``/``schema``); lines that
    fail to parse — typically one truncated tail line after a crash or
    ``kill -9`` — are counted in ``skipped`` and dropped.
    """
    path = os.fspath(path)
    docs, damaged = read_jsonl(path)
    header = {key: value for doc in docs if doc.get("type") == "meta"
              for key, value in doc.items()}
    source = header.get("source")
    return {"path": path,
            "source": source if source is not None else os.path.basename(path),
            "schema": header.get("schema"),
            "records": [doc for doc in docs if doc.get("type") != "meta"],
            "skipped": len(damaged)}


def _orders(value: Any) -> bool:
    """Whether an ordering field (``seq``) is a finite number."""
    return isinstance(value, (int, float)) and math.isfinite(value)


def _snapshot_rows(
    shard: Mapping[str, Any],
) -> tuple[list[dict[str, Any]], int]:
    """One shard's ``(snapshot rows, invalid)``.

    A well-formed line that cannot be ordered — its ``seq`` is not a
    finite number — is corrupt data, not a crash: it is dropped and
    counted in ``invalid``.
    """
    rows: list[dict[str, Any]] = []
    invalid = 0
    for record in shard["records"]:
        if record.get("type") != "snapshot" \
                and record.get("schema") != LIVE_SCHEMA:
            continue
        if _orders(record.get("seq", 0)):
            rows.append(record)
        else:
            invalid += 1
    return rows, invalid


_NUMERIC_SUMMARY_FIELDS = (
    "t", "events", "queue_depth", "running", "utilization", "done", "total",
    "faults", "requeues", "episode", "loss", "grad_norm", "train_reward",
    "validation_reward", "updates_done", "cell",
)


def merge_shards(paths: Iterable["str | os.PathLike[str]"]) -> dict[str, Any]:
    """Fold snapshot shards into one deterministic rollup.

    The rollup carries, per snapshot ``kind`` (``sim``/``train``/…):
    the number of snapshots and contributing sources, the latest
    snapshot of every source (highest ``seq``; source-name ties broken
    deterministically), and min/max/last summaries for the well-known
    numeric fields.  Shard *order does not matter*: inputs are sorted
    by basename and every reduction is commutative, so any enumeration
    of the same files yields byte-identical JSON.
    """
    shards = [read_snapshots(p) for p in paths]
    shards.sort(key=lambda s: (os.path.basename(s["path"]), s["path"]))
    kinds: dict[str, dict[str, Any]] = {}
    for shard in shards:
        rows, invalid = _snapshot_rows(shard)
        shard["skipped"] += invalid
        for row in rows:
            kind = str(row.get("kind", "?"))
            bucket = kinds.setdefault(kind, {"snapshots": 0, "sources": {},
                                             "fields": {}})
            bucket["snapshots"] += 1
            source = str(row.get("source", shard["source"]))
            latest = bucket["sources"].get(source)
            if latest is None or row.get("seq", 0) >= latest.get("seq", 0):
                bucket["sources"][source] = row
            for field in _NUMERIC_SUMMARY_FIELDS:
                value = row.get(field)
                if not isinstance(value, (int, float)):
                    continue
                stats = bucket["fields"].get(field)
                if stats is None:
                    bucket["fields"][field] = {"min": value, "max": value}
                else:
                    if value < stats["min"]:
                        stats["min"] = value
                    if value > stats["max"]:
                        stats["max"] = value
    rollup_kinds: dict[str, Any] = {}
    for kind in sorted(kinds):
        bucket = kinds[kind]
        sources = bucket["sources"]
        last_rows = [sources[name] for name in sorted(sources)]
        rollup_kinds[kind] = {
            "snapshots": bucket["snapshots"],
            "sources": sorted(sources),
            "last": {name: sources[name] for name in sorted(sources)},
            "fields": {f: bucket["fields"][f]
                       for f in sorted(bucket["fields"])},
            "done": sum(r["done"] for r in last_rows
                        if isinstance(r.get("done"), (int, float))),
            "total": sum(r["total"] for r in last_rows
                         if isinstance(r.get("total"), (int, float))),
        }
    return {
        "schema": ROLLUP_SCHEMA,
        "shards": [{"path": os.path.basename(s["path"]),
                    "source": s["source"], "schema": s["schema"],
                    "records": len(s["records"]), "skipped": s["skipped"]}
                   for s in shards],
        "skipped": sum(s["skipped"] for s in shards),
        "kinds": rollup_kinds,
    }


def format_rollup(rollup: Mapping[str, Any]) -> str:
    """Human-oriented multi-line summary of a :func:`merge_shards` rollup."""
    lines = [f"live rollup ({rollup['schema']}): "
             f"{len(rollup['shards'])} shard(s), "
             f"{rollup['skipped']} skipped line(s)"]
    for shard in rollup["shards"]:
        lines.append(f"  shard {shard['path']}: source={shard['source']} "
                     f"schema={shard['schema']} records={shard['records']} "
                     f"skipped={shard['skipped']}")
    for kind, bucket in rollup["kinds"].items():
        lines.append(f"  [{kind}] {bucket['snapshots']} snapshot(s) from "
                     f"{len(bucket['sources'])} source(s), "
                     f"done {bucket['done']:g}/{bucket['total']:g}")
        for field, stats in bucket["fields"].items():
            lines.append(f"    {field}: min={stats['min']:g} "
                         f"max={stats['max']:g}")
    return "\n".join(lines) + "\n"
