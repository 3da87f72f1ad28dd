"""Diff two bench reports value by value, with ``==``.

``python -m repro bench --compare old.json new.json`` prints every
(scenario, value) that differs -- a value or a whole scenario present
on one side only included -- and exits 1 on any difference.  The model
clock is deterministic, so there is no tolerance: the same code gives
the same bits, and a change that moves a number is a reviewed re-pin of
``benchmarks/results/baseline.json``, with this diff as its record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..eval.report import render_table
from .schema import BenchReport

__all__ = ["ABSENT", "Difference", "ComparisonReport", "compare_reports"]


class _Absent:
    def __repr__(self) -> str:
        return "-"


#: Stands for a value (or a whole scenario row) one side does not have.
ABSENT = _Absent()

#: The key a whole missing scenario row is reported under.
ROW = "(row)"


@dataclass
class Difference:
    """One (scenario, value) that is not the same on both sides."""

    scenario: str
    key: str
    old: object
    new: object


@dataclass
class ComparisonReport:
    """Everything the compare CLI prints and exits on."""

    differences: List[Difference] = field(default_factory=list)
    #: Values found on both sides and compared with ``==``.
    compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.differences

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        """The differing rows as a table (full ``repr`` digits), then a
        one-line count."""
        lines: List[str] = []
        if self.differences:
            lines.append(render_table(
                ["scenario", "value", "old", "new"],
                [[d.scenario, d.key, repr(d.old), repr(d.new)]
                 for d in self.differences],
            ))
        lines.append(f"{len(self.differences)} difference(s); "
                     f"{self.compared} value(s) compared with ==")
        return "\n".join(lines)


def compare_reports(old: BenchReport, new: BenchReport) -> ComparisonReport:
    """Every difference between ``old`` and ``new``, in scenario order."""
    if old.schema != new.schema:
        raise ValueError(
            f"schema mismatch: old={old.schema!r} new={new.schema!r} "
            "(regenerate the older report before comparing)"
        )
    report = ComparisonReport()
    old_rows = {row.name: row for row in old.scenarios}
    new_rows = {row.name: row for row in new.scenarios}
    names =list(old_rows) + [name for name in new_rows if name not in old_rows]
    for name in names:
        if name not in new_rows or name not in old_rows:
            report.differences.append(Difference(
                name, ROW,
                len(old_rows[name].values()) if name in old_rows else ABSENT,
                len(new_rows[name].values()) if name in new_rows else ABSENT))
            continue
        old_values = old_rows[name].values()
        new_values = new_rows[name].values()
        keys = list(old_values) + [k for k in new_values if k not in old_values]
        for key in keys:
            old_value = old_values.get(key, ABSENT)
            new_value = new_values.get(key, ABSENT)
            if old_value is not ABSENT and new_value is not ABSENT:
                report.compared += 1
                if old_value == new_value:
                    continue
            report.differences.append(
                Difference(name, key, old_value, new_value))
    return report
