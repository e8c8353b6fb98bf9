"""Finding serialization: JSON, SARIF 2.1.0 and the ratchet baseline.

Shared by the ``python -m repro check`` driver and
``scripts/check_ratchet.py`` so the two never disagree about formats.

Baseline semantics
------------------
A baseline is a *multiset* of finding keys.  Keys deliberately omit
line and column numbers (``path::rule::message``) so unrelated edits
that shift code around do not churn the baseline; two identical
findings in one file are two entries.  The ratchet direction is
one-way: a finding not in the baseline fails the build, while baseline
entries that no longer fire are *stale* and the baseline may only ever
shrink.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from repro.check.lint import Violation

BASELINE_VERSION = 1
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def finding_dict(violation: Violation) -> dict:
    """One finding as a plain JSON-ready dict."""
    return {
        "path": str(violation.path),
        "line": violation.line,
        "col": violation.col,
        "rule": violation.rule_id,
        "slug": violation.slug,
        "message": violation.message,
    }


def to_json(violations: Sequence[Violation], paths: Sequence[str]) -> str:
    """The ``--json`` document for one check run."""
    return json.dumps(
        {
            "version": 1,
            "tool": "repro.check",
            "paths": [str(p) for p in paths],
            "count": len(violations),
            "findings": [finding_dict(v) for v in violations],
        },
        indent=2,
    ) + "\n"


def to_sarif(violations: Sequence[Violation],
             rules: Iterable[tuple[str, str, str]]) -> dict:
    """A SARIF 2.1.0 log for one check run.

    ``rules`` is ``(id, slug, rationale)`` triples for the driver's
    full rule catalogue, so viewers can show rule help even for rules
    with no results.
    """
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.check",
                    "informationUri": "docs/static-analysis.md",
                    "rules": [
                        {
                            "id": rule_id,
                            "name": slug,
                            "shortDescription": {"text": slug},
                            "fullDescription": {"text": rationale},
                        }
                        for rule_id, slug, rationale in sorted(rules)
                    ],
                },
            },
            "results": [
                {
                    "ruleId": v.rule_id,
                    "level": "error",
                    "message": {"text": f"[{v.slug}] {v.message}"},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {"uri": str(v.path)},
                            "region": {
                                "startLine": v.line,
                                "startColumn": max(1, v.col),
                            },
                        },
                    }],
                }
                for v in violations
            ],
        }],
    }


# -- baseline / ratchet ----------------------------------------------------

def baseline_key(violation: Violation) -> str:
    """Line-number-free identity of one finding."""
    return f"{violation.path}::{violation.rule_id}::{violation.message}"


def load_baseline(path: str | Path) -> Counter[str]:
    """Read a baseline file into a key multiset.

    Raises :class:`ValueError` on a malformed or wrong-version file —
    the driver maps that to a usage error (exit code 2).
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has unsupported structure/version "
            f"(want version={BASELINE_VERSION})"
        )
    findings = payload.get("findings", {})
    if not isinstance(findings, dict) or not all(
        isinstance(k, str) and isinstance(c, int) and c > 0
        for k, c in findings.items()
    ):
        raise ValueError(f"baseline {path}: findings must map keys to counts")
    return Counter(findings)


def save_baseline(path: str | Path, violations: Sequence[Violation]) -> None:
    """Write the baseline for the given findings (sorted, stable)."""
    counts = Counter(baseline_key(v) for v in violations)
    payload = {
        "version": BASELINE_VERSION,
        "findings": {key: counts[key] for key in sorted(counts)},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def diff_baseline(
    violations: Sequence[Violation], baseline: Counter[str]
) -> tuple[list[Violation], Counter[str]]:
    """Split current findings against a baseline.

    Returns ``(new, stale)``: findings not covered by the baseline, and
    baseline entries that no longer fire (candidates for shrinking).
    """
    remaining = Counter(baseline)
    new: list[Violation] = []
    for violation in violations:
        key = baseline_key(violation)
        if remaining[key] > 0:
            remaining[key] -= 1
        else:
            new.append(violation)
    stale = Counter({k: c for k, c in remaining.items() if c > 0})
    return new, stale
