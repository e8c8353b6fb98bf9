"""EXPERIMENTS.md quotes the committed reference, cell for cell.

``benchmarks/reference/`` is the one producer of the numbers
EXPERIMENTS.md quotes.  Each covered table of EXPERIMENTS.md is read
cell by cell and compared with the cell in the same row of the
reference's ``report.txt``: every number a quoted cell holds must equal
the reference's number at the quoted precision (``26.8`` quotes any
value in [26.75, 26.85]).  The rollup digest EXPERIMENTS.md names must
be the committed ``rollup.json``'s.  So a regenerated reference that
moves a quoted number fails here until EXPERIMENTS.md is updated.

Covered, 120 quoted cells, read as 132 (cell, reference row) pairs
holding 167 numbers: Table II's measured nodes, jobs and
offered load; Table III's paper and measured parameter counts; Fig 4;
Fig 5's static methods; Fig 6's Theta raw metrics; Fig 7's starvation
table; Table IV (its ``others`` row against each reservation-less
method); Fig 8; Fig 9's wait columns.

Left out, and why:

* Fig 5's ranges for the trained agents (``613–634``, ``~289``): a
  span of a learning curve, not one reported number.
* The ablation table: its cells are sentences that mix the reference's
  ``[ablations]`` numbers with older reports' numbers.
* The ``tiny`` fault-sweep table: it is a ``--scale tiny`` run, not part
  of the ``default`` reference.
* Parent-side historic values: the left-hand side of a ``parent → now``
  cell (only the right-hand side is checked) and numbers of reports
  committed before the reference.
* The §V-E timings: wall-clock measurements that the report prints,
  so they differ on every run.
* Table II's paper columns and its max job length (a bound, ``≤ 7
  days``), and Fig 9's load column (``fig9.SURGE_PROFILE``, an input
  the report does not print).
* Numbers in prose, and the before/after table of the retired NN
  benchmark suite.
"""

import functools
import itertools
import json
import re
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.experiments.pool import rollup_digest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "benchmarks" / "reference"
RULE = "-" * 64
NUMBER = re.compile(r"\d[\d,]*(?:\.\d+)?")

Grid = dict[tuple[str, str], str]


class Table(NamedTuple):
    """One EXPERIMENTS.md table and the reference table it quotes."""

    #: the EXPERIMENTS.md ``## `` heading the table sits under
    heading: str
    #: the reference report's section and table title
    section: str
    title: str
    #: quoted column -> the reference columns it quotes, in order
    columns: dict[str, tuple[str, ...]]
    #: quoted row -> the reference rows it quotes, each checked (by
    #: default the row of the same name)
    rows: dict[str, tuple[str, ...]] = {}
    #: the quoted rows checked (by default every row)
    only: tuple[str, ...] = ()
    #: the quoted table has the reference's rows as columns
    transposed: bool = False


COVERED = (
    Table("Table II", "table2",
          "Table II: workload summaries (generated traces vs paper "
          "reference)",
          {"nodes": ("nodes",), "jobs": ("jobs",),
           "offered load": ("offered load",)},
          rows={"measured (theta-256)": ("theta",),
                "measured (cori-384)": ("cori",)},
          only=("measured (theta-256)", "measured (cori-384)"),
          transposed=True),
    Table("Table III", "table3",
          "Table III: DRAS network configurations for Theta and Cori",
          {"paper params": ("paper",), "measured params": ("ours",)},
          rows={"Theta DRAS-PG": ("theta-pg",),
                "Theta DRAS-DQL": ("theta-dql",),
                "Cori DRAS-PG": ("cori-pg",),
                "Cori DRAS-DQL": ("cori-dql",)}),
    Table("Fig 4", "fig4",
          "Fig 4: DRAS-PG convergence under different jobset orderings",
          {"converged at": ("converged at",), "best val reward": ("best",),
           "final val reward": ("final val reward",)},
          rows={"sampled → real → synthetic":
                ("sampled -> real -> synthetic",),
                "real → sampled → synthetic":
                ("real -> sampled -> synthetic",),
                "synthetic → sampled → real":
                ("synthetic -> sampled -> real",)}),
    Table("Fig 5", "fig5", "Fig 5: total reward on the Theta validation set",
          {"total validation reward": ("final validation reward",)},
          only=("FCFS", "BinPacking", "Random", "Optimization")),
    Table("Fig 6", "fig6", "raw metrics, theta",
          {column: (column,) for column in
           ("avg wait (h)", "max wait (d)", "avg slowdown", "utilization")}),
    Table("Fig 7", "fig7",
          "Fig 7: starvation (large job = at least half the system)",
          {column: (column,) for column in
           ("max wait (d)", "large-job wait (h)", "small-job wait (h)",
            "large/small")}),
    Table("Table IV", "table4",
          "Table IV: job distributions across execution modes (Theta)",
          {"backfilled": ("backfilled jobs", "backfilled ch"),
           "ready": ("ready jobs", "ready ch"),
           "reserved": ("reserved jobs", "reserved ch"),
           "paper (jobs %)": ("paper jobs% (bf/rdy/res)",)},
          rows={"others": ("BinPacking", "Random", "Optimization",
                           "Decima-PG")}),
    Table("Fig 8", "fig8",
          "Fig 8: average job wait time by execution mode (Theta)",
          {mode: (f"{mode} wait (h)",)
           for mode in ("ready", "reserved", "backfilled")}),
    Table("Fig 9", "fig9",
          "Fig 9: weekly load and average job wait during demand surges "
          "(Theta)",
          {method: (f"{method} wait (h)",) for method in
           ("FCFS", "Optimization", "DRAS-PG", "DRAS-DQL")},
          rows={"2 (surge)": ("2",), "5 (surge)": ("5",),
                "7 (after)": ("7",)}),
)


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _grid(lines: list[str]) -> Grid:
    """{(row name, column name): cell} of a table's lines, header first."""
    header, *body = map(_cells, lines)
    return {(row[0], column): cell for row in body
            for column, cell in zip(header, row)}


def report_tables(text: str) -> dict[tuple[str, str], Grid]:
    """{(section id, table title): grid} of every table of a report."""
    tables = {}
    for chunk in text.split(f"\n{RULE}\n[")[1:]:
        section, _, body = chunk.partition(f"]\n{RULE}\n")
        lines = body.splitlines()
        for i, line in enumerate(lines):
            if i >= 2 and "+" in line and not set(line) - set("-+"):
                rows = itertools.takewhile(lambda row: "|" in row,
                                           lines[i + 1:])
                tables[section, lines[i - 2]] = _grid([lines[i - 1], *rows])
    return tables


def quoted_tables(text: str) -> dict[str, Grid]:
    """{``## `` heading: grid of its first table} of EXPERIMENTS.md."""
    tables: dict[str, list[str]] = {}
    heading, rows = "", None
    for line in [*text.splitlines(), ""]:
        if line.startswith("## "):
            heading = line[3:]
        if line.startswith("|"):
            rows = [] if rows is None else rows
            if set(line) - set("|-: "):  # not the |---|---| rule
                rows.append(line)
        elif rows is not None:
            tables.setdefault(heading, rows)
            rows = None
    return {heading: _grid(rows) for heading, rows in tables.items()}


def numbers(cell: str) -> list[Decimal]:
    """The numbers of a cell, of its ``now`` side if it reads
    ``parent → now``."""
    return [Decimal(n.replace(",", ""))
            for n in NUMBER.findall(cell.split("→")[-1])]


def agrees(quoted: Decimal, reference: Decimal) -> bool:
    """``quoted`` is ``reference`` rounded to the quoted precision."""
    half_unit = Decimal(5).scaleb(quoted.as_tuple().exponent - 1)
    return abs(quoted - reference) <= half_unit


@functools.cache
def _documents() -> tuple[dict[str, Grid], dict[tuple[str, str], Grid]]:
    return (quoted_tables((ROOT / "EXPERIMENTS.md").read_text("utf-8")),
            report_tables((REFERENCE / "report.txt").read_text("utf-8")))


def checks(table: Table) -> list[tuple[str, list[Decimal], list[Decimal]]]:
    """(where, quoted numbers, reference numbers) of each checked cell."""
    quoted, reference = _documents()
    [grid] = [grid for heading, grid in quoted.items()
              if heading.startswith(f"{table.heading} —")]
    if table.transposed:
        grid = {(column, row): cell for (row, column), cell in grid.items()}
    ref = reference[table.section, table.title]
    rows = table.only or list(dict.fromkeys(row for row, _ in grid))
    out = []
    for row in rows:
        for column, ref_columns in table.columns.items():
            for ref_row in table.rows.get(row, (row,)):
                out.append((
                    f"{table.heading} [{row}, {column}] against "
                    f"[{table.section}] {ref_row}",
                    numbers(grid[row, column]),
                    [n for c in ref_columns for n in numbers(ref[ref_row, c])],
                ))
    return out


@pytest.mark.parametrize("table", COVERED, ids=lambda t: t.section)
def test_quoted_cells_are_the_references(table):
    for where, quoted, reference in checks(table):
        assert quoted and len(quoted) == len(reference), where
        for q, r in zip(quoted, reference):
            assert agrees(q, r), f"{where}: quotes {q}, the reference reads {r}"


def test_every_covered_number_is_checked():
    cells = [check for table in COVERED for check in checks(table)]
    assert (len(cells), sum(len(q) for _, q, _ in cells)) == (132, 167)


def test_quoted_rollup_digest_is_the_committed_rollups():
    text = (ROOT / "EXPERIMENTS.md").read_text("utf-8")
    [quoted] = re.findall(r"rollup digest is\s+`([0-9a-f]{64})`", text)
    rollup = json.loads((REFERENCE / "rollup.json").read_text("utf-8"))
    assert quoted == rollup_digest(rollup)
