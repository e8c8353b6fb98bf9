"""``run.py --compare A.json B.json``: do two result files agree?

One row per workload and end-to-end metric: both medians with the
minimum and maximum over their repetitions, the change of B relative to
A, the metric's bound from BENCHMARK.json and a verdict; then whether
each workload's ``sim_digest`` matches.
"""

from __future__ import annotations

import json
from statistics import quantiles
from typing import Any


def load_untraced(path: str) -> dict[str, dict[str, Any]]:
    """The untraced records of a result file, by workload name."""
    with open(path) as handle:
        records = json.load(handle)["records"]
    return {record["workload"]: record for record in records
            if record["mode"] == "untraced"}


def relative_spread(entry: dict[str, Any]) -> float:
    """Interquartile range of a metric's repetitions over their median."""
    samples = entry.get("samples", [])
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = quantiles(samples, n=4)
    return (q3 - q1) / entry["value"]


def as_costs(entry: dict[str, Any], sign: float) -> tuple[float, float, float]:
    """``(median, best, worst)`` of a metric with higher meaning worse."""
    best, worst = sorted((sign * entry["min"], sign * entry["max"]))
    return sign * entry["value"], best, worst


def verdict(a: dict[str, Any], b: dict[str, Any], better: str,
            bound: float) -> str:
    """``same`` / ``better`` / ``worse`` / ``unresolved`` of B against A.

    B is worse when its median is worse than A's by more than ``bound``
    of A's.  Where either side's own repetitions spread wider than the
    bound the pair is ``unresolved``, not ``same`` — unless every
    repetition of one side beats every repetition of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    a_mid, a_best, a_worst = as_costs(a, sign)
    b_mid, b_best, b_worst = as_costs(b, sign)
    if max(relative_spread(a), relative_spread(b)) > bound:
        if b_worst < a_best:
            return "better"
        if b_best > a_worst:
            return "worse"
        return "unresolved"
    worse_by = (b_mid - a_mid) / abs(a_mid)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def cell(entry: dict[str, Any]) -> str:
    return f"{entry['value']:.5g} [{entry['min']:.5g}, {entry['max']:.5g}]"


def compare_files(path_a: str, path_b: str, benchmark: dict[str, Any]) -> int:
    """Print the comparison; 0 when nothing is worse and digests match."""
    a_records, b_records = load_untraced(path_a), load_untraced(path_b)
    for label, records in (("A", a_records), ("B", b_records)):
        env = next(iter(records.values()))["env"] if records else {}
        print(f"{label}: {env}")
    status = 0
    header = (f"{'workload':<18} {'metric':<16} {'A median [min, max]':>34} "
              f"{'B median [min, max]':>34} {'B vs A':>8} {'bound':>6}  verdict")
    print(header)
    for name in a_records:
        if name not in b_records:
            continue
        for spec in benchmark["end_to_end"]:
            a = a_records[name]["metrics"][spec["name"]]
            b = b_records[name]["metrics"][spec["name"]]
            word = verdict(a, b, spec["better"], spec["bound"])
            if word == "worse":
                status = 1
            change = (b["value"] - a["value"]) / a["value"]
            print(f"{name:<18} {spec['name']:<16} {cell(a):>34} {cell(b):>34} "
                  f"{change:>+8.1%} {spec['bound']:>6.0%}  {word}")
    print()
    for name in a_records:
        if name not in b_records:
            continue
        same = a_records[name]["sim_digest"] == b_records[name]["sim_digest"]
        seeds = (a_records[name]["seed"], b_records[name]["seed"])
        print(f"{name:<18} sim_digest {'matches' if same else 'DIFFERS'} "
              f"(seeds {seeds[0]}, {seeds[1]})")
        if not same and seeds[0] == seeds[1]:
            status = 1
    return status
