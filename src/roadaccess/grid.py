"""Aggregation of building-level metrics onto the equal-area analysis grid.

Cells are half-open 100 m squares anchored at the projected origin, so cell
(i, j) covers [i*100, (i+1)*100) x [j*100, (j+1)*100) and every point
belongs to exactly one cell.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Container, Iterable, NamedTuple, Sequence

from .buildings import BuildingTable
from .geometry import Bounds, FlatRing, PlanePoint, flat_bounds, point_in_rings
from .levels import Surface

DEFAULT_CELL_SIZE_M = 100.0
# A run enumerates every cell of the boundary's box: 100 m cells over a
# 316 km square. A finer grid would take hours and gigabytes.
MAX_CELLS = 10_000_000


class CellId(NamedTuple):
    i: int
    j: int


class CellAggregate(NamedTuple):
    cell: CellId
    building_count: int
    mean_obstruction: float | None
    modal_surface: Surface | None


def box_cell_count(b: Bounds, cell_size: float) -> float:
    """About how many cells cover box b; inf when a side overflows."""
    return ((b[2] - b[0]) / cell_size + 1.0) * ((b[3] - b[1]) / cell_size + 1.0)


def cell_of(p: PlanePoint, cell_size: float = DEFAULT_CELL_SIZE_M) -> CellId:
    return CellId(math.floor(p.x / cell_size), math.floor(p.y / cell_size))


def aggregate(
    metrics: Iterable[Sequence],
    buildings: BuildingTable,
    cell_size: float = DEFAULT_CELL_SIZE_M,
) -> dict[CellId, CellAggregate]:
    """Group metrics into cells by building centroid; mean counts, modal surface.

    Each metric starts (building_id, obstruction_count, nearest_surface), as
    a BuildingMetrics does. One pass folds them into integer sums per cell,
    so none is kept and their order does not matter. A building's centroid
    is read from the table's columns. The dict holds the cells in (i, j)
    order.

    Surfaces vote paved vs unpaved; unknowns abstain, and a tie (or a cell
    with only unknowns) resolves to unpaved so missing surface evidence never
    grants low deprivation.
    """
    position = buildings.position
    xs = buildings.xs
    ys = buildings.ys
    floor = math.floor
    # per cell (i, j): buildings, obstructions, paved votes, unpaved votes
    sums: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for m in metrics:
        k = position(m[0])
        # cell_of's arithmetic
        s = sums[floor(xs[k] / cell_size), floor(ys[k] / cell_size)]
        s[0] += 1
        s[1] += m[1]
        s[2] += m[2] is Surface.PAVED
        s[3] += m[2] is Surface.UNPAVED
    out: dict[CellId, CellAggregate] = {}
    for i, j in sorted(sums):
        n, total, paved, unpaved = sums[i, j]
        modal = Surface.PAVED if paved > unpaved else Surface.UNPAVED
        cell = CellId(i, j)
        out[cell] = CellAggregate(cell, n, total / n, modal)
    return out


def enumerate_empty_cells(
    boundary: Sequence[FlatRing],
    occupied: Container[CellId],
    cell_size: float = DEFAULT_CELL_SIZE_M,
) -> list[CellId]:
    """Cells whose center is inside the boundary (its closed flat rings)
    and that are not in occupied, the cells with buildings."""
    min_x, min_y, max_x, max_y = flat_bounds(boundary[0])
    i0 = math.floor(min_x / cell_size)
    i1 = math.floor(max_x / cell_size)
    j0 = math.floor(min_y / cell_size)
    j1 = math.floor(max_y / cell_size)
    empty: list[CellId] = []
    for i in range(i0, i1 + 1):
        cx = (i + 0.5) * cell_size
        for j in range(j0, j1 + 1):
            cell = CellId(i, j)
            if cell in occupied:
                continue
            if point_in_rings(cx, (j + 0.5) * cell_size, boundary):
                empty.append(cell)
    return empty
