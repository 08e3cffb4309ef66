"""Deprivation level assignment and level-distribution summaries.

The cell rule: no buildings -> low; mean obstruction strictly above the
threshold -> high; otherwise the predominant nearest-road surface decides
between low (paved) and medium (unpaved). The threshold defaults to 1 to
absorb footprint digitization noise in formal areas.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping, NamedTuple

from .grid import CellAggregate, CellId
from .levels import LEVELS, DeprivationLevel, Surface

DEFAULT_OBSTRUCTION_THRESHOLD = 1.0


class ClassifiedCell(NamedTuple):
    cell: CellId
    level: DeprivationLevel
    building_count: int
    mean_obstruction: float | None
    modal_surface: Surface | None

    @property
    def empty(self) -> bool:
        return self.building_count == 0


def classify_cell(
    agg: CellAggregate, threshold: float = DEFAULT_OBSTRUCTION_THRESHOLD
) -> DeprivationLevel:
    """Apply the three-level rule to one aggregated cell."""
    if agg.building_count == 0:
        return DeprivationLevel.LOW
    if agg.mean_obstruction > threshold:  # strictly "exceeds"
        return DeprivationLevel.HIGH
    if agg.modal_surface is Surface.PAVED:
        return DeprivationLevel.LOW
    return DeprivationLevel.MEDIUM


def classify_all(
    aggregates: Mapping[CellId, CellAggregate],
    empty_cells: Iterable[CellId],
    threshold: float = DEFAULT_OBSTRUCTION_THRESHOLD,
) -> list[ClassifiedCell]:
    """Classified cells for every built and empty cell, ordered by cell id."""
    empty = (CellAggregate(cell, 0, None, None) for cell in empty_cells)
    cells = [
        ClassifiedCell(
            agg.cell,
            classify_cell(agg, threshold),
            agg.building_count,
            agg.mean_obstruction,
            agg.modal_surface,
        )
        for agg in chain(aggregates.values(), empty)
    ]
    cells.sort(key=lambda c: c.cell)
    return cells


class LevelDistribution(NamedTuple):
    counts: dict[DeprivationLevel, int]
    percentages: dict[DeprivationLevel, float]
    total: int

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "counts": {lvl.label: self.counts[lvl] for lvl in LEVELS},
            "percentages": {lvl.label: self.percentages[lvl] for lvl in LEVELS},
        }


def distribution(
    cells: Iterable[ClassifiedCell], include_empty: bool = False
) -> LevelDistribution:
    """Per-level counts and percentage shares.

    With include_empty=False, cells without buildings are removed before
    computing shares, isolating road access statistics for built-up areas.
    """
    pool = [c for c in cells if include_empty or c.building_count > 0]
    counts = {lvl: 0 for lvl in LEVELS}
    for c in pool:
        counts[c.level] += 1
    total = len(pool)
    percentages = {
        lvl: (100.0 * counts[lvl] / total) if total else 0.0 for lvl in LEVELS
    }
    return LevelDistribution(counts, percentages, total)
