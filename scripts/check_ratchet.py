#!/usr/bin/env python3
"""Ratchet gate for the repro.check static analyzer.

Compares the current strict findings over ``src/repro`` against the
committed baseline (``check_baseline.json`` at the repo root) and
enforces the one-way ratchet:

* a finding **not** in the baseline fails the build (exit 1) — new
  debt is never admitted;
* baseline entries that no longer fire are reported as *stale*; run
  with ``--update`` to shrink the baseline.  ``--update`` refuses to
  *grow* the baseline — fixing or explicitly suppressing the finding
  (``# repro: noqa[slug]``) is the only way forward.

Usage::

    python scripts/check_ratchet.py            # gate (CI)
    python scripts/check_ratchet.py --update   # shrink a stale baseline

Exit codes: 0 — at or below baseline; 1 — new findings (or an --update
that would grow the baseline); 2 — configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.check import RULES, lint_paths  # noqa: E402
from repro.check.report import (  # noqa: E402
    baseline_key,
    diff_baseline,
    load_baseline,
    save_baseline,
)

SOURCE_ROOT = REPO_ROOT / "src" / "repro"
BASELINE_PATH = REPO_ROOT / "check_baseline.json"

#: rule IDs the ratchet *requires* to be registered.  A refactor that
#: silently drops a rule would otherwise pass the gate with the
#: dropped rule checking nothing; adding or retiring a rule means
#: editing this set.
EXPECTED_RULE_IDS = frozenset({
    # RPR1xx determinism & correctness (per file)
    "RPR101", "RPR102", "RPR103", "RPR104", "RPR105", "RPR106", "RPR107",
    # RPR4xx API contracts
    "RPR401", "RPR402", "RPR403", "RPR404",
})


def missing_rules() -> list[str]:
    """Expected rule IDs that failed to register (empty when healthy)."""
    registered = {rule.id for rule in RULES.values()}
    return sorted(EXPECTED_RULE_IDS - registered)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline when it can shrink")
    parser.add_argument("--baseline", default=str(BASELINE_PATH),
                        help="baseline path (default: repo-root "
                             "check_baseline.json)")
    args = parser.parse_args(argv)

    dropped = missing_rules()
    if dropped:
        print("expected rule(s) not registered — the ratchet would gate "
              f"nothing for them: {', '.join(dropped)}", file=sys.stderr)
        return 2

    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        print(f"baseline {args.baseline} does not exist; create it with "
              "--update after reviewing the findings", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    violations = lint_paths([SOURCE_ROOT], strict=True)
    new, stale = diff_baseline(violations, baseline)

    if new:
        print(f"{len(new)} new finding(s) beyond the baseline:", file=sys.stderr)
        for violation in new:
            print(f"  {violation.format()}", file=sys.stderr)
        print("fix them or suppress with `# repro: noqa[slug]`; the baseline "
              "only ratchets down", file=sys.stderr)
        return 1

    if stale:
        print(f"{sum(stale.values())} stale baseline entr(ies) no longer fire:")
        for key, count in sorted(stale.items()):
            print(f"  {key} (x{count})")
        if args.update:
            current_keys = {baseline_key(v) for v in violations}
            grown = current_keys - set(baseline)
            if grown:  # unreachable when `new` is empty, but stay defensive
                print("refusing to grow the baseline", file=sys.stderr)
                return 1
            save_baseline(args.baseline, violations)
            print(f"baseline shrunk to {len(violations)} finding(s)")
        else:
            print("run with --update to shrink the baseline")
        return 0

    print(f"ratchet OK: {len(violations)} finding(s), all baselined"
          if violations else "ratchet OK: no findings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
