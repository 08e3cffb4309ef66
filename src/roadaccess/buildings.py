"""The building table: every footprint of a run, stored column by column.

A run holds every building from ingest to the metric stage, so what it
keeps per building decides how large a city fits in memory. The table keeps
only typed arrays (8 bytes a value, no object each): ids, centroids and
boxes, one value a row, and the footprints as one column of coordinates.
Every footprint's closed flat rings lie back to back in one array('d'),
with two offset columns that say where each ring ends and which rings each
row owns. Ingest extends the column straight from the projected
coordinates, so a building holds no tuple, array or float object of its
own, and the exact test walks a footprint's span of the column in place.
Its rows are in ascending building_id order.

The table is a Sequence[Building]: indexing, and so iteration, builds
Building records on demand, for callers that want records. The pipeline
itself reads the columns and makes no record per building.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import compress
from typing import NamedTuple

from .geometry import FlatRing, PlanePoint, flat_bounds


class Building(NamedTuple):
    building_id: int
    footprint: tuple[tuple[float, ...], ...]  # closed flat rings, exterior first
    centroid: PlanePoint


# the columns of one value a row, made by __init__ and kept in step by compact()
_COLUMNS = ("ids", "xs", "ys", "x0s", "y0s", "x1s", "y1s")


class BuildingTable(Sequence):
    """Buildings as columns: ids (array 'q'); centroid x and y, and box
    x0, y0, x1 and y1 (arrays 'd'); and the footprints. coords (array 'd')
    holds every footprint's closed flat rings back to back, each row's
    exterior first. Ring r is coords[ring_ends[r]:ring_ends[r + 1]], and
    row k owns rings first_rings[k] to first_rings[k + 1] - 1 (arrays 'q';
    ring_ends starts with 0 and first_rings ends with the ring count, so
    each has one entry more than there are rings or rows). The records
    built on demand hold tuple rings with the same values.

    An index built over a table reads its columns, so the table must not
    change while the index is in use.
    """

    def __init__(self) -> None:
        for name in _COLUMNS:
            setattr(self, name, array("q" if name == "ids" else "d"))
        self.coords = array("d")
        self.ring_ends = array("q", [0])
        self.first_rings = array("q", [0])

    def append(self, building_id: int, rings: Sequence[FlatRing], x: float, y: float) -> None:
        """Add a building after the last; its box is flat_bounds of the
        exterior, and its rings are copied onto the end of the coordinate
        column."""
        x0, y0, x1, y1 = flat_bounds(rings[0])
        self.ids.append(building_id)
        self.xs.append(x)
        self.ys.append(y)
        self.x0s.append(x0)
        self.y0s.append(y0)
        self.x1s.append(x1)
        self.y1s.append(y1)
        coords = self.coords
        for ring in rings:
            coords.extend(ring)
            self.ring_ends.append(len(coords))
        self.first_rings.append(len(self.ring_ends) - 1)

    def compact(self, keep: Sequence[bool]) -> None:
        """Keep, in order, only the rows whose entry in keep is true. Kept
        footprints move down the coordinate column in place."""
        if all(keep):
            return
        coords, ends, first = self.coords, self.ring_ends, self.first_rings
        kept_ends = array("q", [0])
        kept_first = array("q", [0])
        for k in compress(range(len(self)), keep):
            r0 = first[k]
            r1 = first[k + 1]
            start = ends[r0]
            shift = start - kept_ends[-1]
            coords[start - shift : ends[r1] - shift] = coords[start : ends[r1]]
            kept_ends.extend(ends[r] - shift for r in range(r0 + 1, r1 + 1))
            kept_first.append(len(kept_ends) - 1)
        del coords[kept_ends[-1] :]
        ends[:] = kept_ends
        first[:] = kept_first
        for name in _COLUMNS:
            column = getattr(self, name)
            column[:] = array(column.typecode, compress(column, keep))

    def position(self, building_id: int) -> int:
        """The row of building_id; the last one if several share it."""
        k = bisect_right(self.ids, building_id) - 1
        if k < 0 or self.ids[k] != building_id:
            raise KeyError(building_id)
        return k

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> Building:
        k = range(len(self))[k]  # a negative k counts from the end
        coords, ends, first = self.coords, self.ring_ends, self.first_rings
        rings = tuple(tuple(coords[ends[r] : ends[r + 1]]) for r in range(first[k], first[k + 1]))
        return Building(self.ids[k], rings, PlanePoint(self.xs[k], self.ys[k]))

