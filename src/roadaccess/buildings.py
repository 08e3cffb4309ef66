"""The building table: every footprint of a run, stored column by column.

A run holds every building from ingest to the metric stage, so what it
keeps per building decides how large a city fits in memory. The table keeps
ids, centroids, boxes and confidences in typed arrays (8 bytes a value, no
object each), and each footprint as a tuple of its closed flat rings. Ingest
stores each ring as an array('d'), so a coordinate costs 8 bytes and no float
object; the exact test iterates it as it would a tuple. Its rows are in
ascending building_id order.

The table is a Sequence[Building]: indexing and iteration build Building
records on demand, for callers that want records. The pipeline itself reads
the columns and makes no record per building.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import compress
from typing import Iterator, NamedTuple

from .geometry import FlatRing, PlanePoint, Polygon, flat_bounds


class Building(NamedTuple):
    building_id: int
    footprint: Polygon
    centroid: PlanePoint
    confidence: float | None = None


# the typed columns, made by __init__ and kept in step by compact()
_COLUMNS = ("ids", "xs", "ys", "x0s", "y0s", "x1s", "y1s", "confidences")


class BuildingTable(Sequence):
    """Buildings as columns: ids (array 'q'); centroid x and y, box x0, y0,
    x1 and y1, and confidence, NaN for none (arrays 'd'); and rings, a list
    of each footprint's tuple of closed flat rings, exterior first (arrays
    'd' from ingest). The records built on demand hold tuple rings with the
    same values.

    An index built over a table reads its columns, so the table must not
    change while the index is in use.
    """

    def __init__(self) -> None:
        for name in _COLUMNS:
            setattr(self, name, array("q" if name == "ids" else "d"))
        self.rings: list[tuple[FlatRing, ...]] = []

    def append(
        self,
        building_id: int,
        rings: tuple[FlatRing, ...],
        x: float,
        y: float,
        confidence: float | None = None,
    ) -> None:
        """Add a building after the last; its box is Polygon.bounds of rings."""
        x0, y0, x1, y1 = flat_bounds(rings[0])
        self.ids.append(building_id)
        self.xs.append(x)
        self.ys.append(y)
        self.x0s.append(x0)
        self.y0s.append(y0)
        self.x1s.append(x1)
        self.y1s.append(y1)
        self.confidences.append(math.nan if confidence is None else confidence)
        self.rings.append(rings)

    def compact(self, keep: Sequence[bool]) -> None:
        """Keep, in order, only the rows whose entry in keep is true."""
        if all(keep):
            return
        for name in _COLUMNS:
            column = getattr(self, name)
            column[:] = array(column.typecode, compress(column, keep))
        self.rings[:] = compress(self.rings, keep)

    def position(self, building_id: int) -> int:
        """The row of building_id; the last one if several share it."""
        k = bisect_right(self.ids, building_id) - 1
        if k < 0 or self.ids[k] != building_id:
            raise KeyError(building_id)
        return k

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, k: int) -> Building:
        rings = self.rings[k]
        confidence = self.confidences[k]
        return Building(
            self.ids[k],
            Polygon(rings[0], rings[1:]),
            PlanePoint(self.xs[k], self.ys[k]),
            None if math.isnan(confidence) else confidence,
        )

    def __iter__(self) -> Iterator[Building]:
        for k in range(len(self)):
            yield self[k]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BuildingTable, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

