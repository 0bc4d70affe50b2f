"""Result containers and ASCII rendering for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["FigureResult", "Series", "format_table"]


@dataclass
class Series:
    """One curve: a label and y-values over the figure's x-axis."""

    label: str
    values: list[float]

    def __post_init__(self) -> None:
        self.values = [float(v) for v in self.values]


@dataclass
class FigureResult:
    """A reproduced table/figure: x-axis, measured series, paper anchors."""

    name: str                        # e.g. "Fig 4"
    title: str
    x_label: str
    x_values: list
    y_label: str
    series: list[Series] = field(default_factory=list)
    #: Free-form (claim, measured, expected) checks printed below the table.
    checks: list[tuple[str, str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, values: Sequence[float]) -> None:
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} points for "
                f"{len(self.x_values)} x-values")
        self.series.append(Series(label, list(values)))

    def check(self, claim: str, measured, expected) -> None:
        self.checks.append((claim, str(measured), str(expected)))

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.name}")

    # -- rendering ----------------------------------------------------------
    def to_text(self) -> str:
        header = [self.x_label] + [s.label for s in self.series]
        rows = []
        for i, x in enumerate(self.x_values):
            rows.append([str(x)] + [f"{s.values[i]:.3g}" for s in self.series])
        out = [f"== {self.name}: {self.title} ==",
               f"(y: {self.y_label})",
               format_table(header, rows)]
        if self.checks:
            out.append("paper-vs-measured checks:")
            for claim, measured, expected in self.checks:
                out.append(f"  {claim}: measured {measured} (paper: {expected})")
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)


def format_table(header: list[str], rows: list[list[str]]) -> str:
    """Fixed-width ASCII table."""
    cols = len(header)
    for r in rows:
        if len(r) != cols:
            raise ValueError("ragged table row")
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    def fmt(row):
        return "  ".join([cell.rjust(w) for cell, w in zip(row, widths)])
    sep = "  ".join(["-" * w for w in widths])
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])
