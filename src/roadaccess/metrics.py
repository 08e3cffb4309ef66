"""Building-level accessibility: connectors and obstruction counts.

For every building, a straight connector runs from its centroid to the
nearest point on the nearest motorable road. The accessibility value is the
number of distinct other buildings whose footprint touches that connector;
the nearest road also contributes its surface type. The metric is
deliberately distance-agnostic: only intersection topology matters.

The per-building work is a fork-join (metric_rows): shares by stride, one
computed in this process and the others in forked children, which pack
their rows into one shared mapping. The CLI's run folds the rows into the
cell sums as they come; export-connectors has metric_columns put each row
at its building's position in five typed columns, 40 bytes a building, and
writes both QA layers from them. compute_all wraps the first three
columns into BuildingMetrics records, and connectors_for makes one
ConnectorLine per building from a nearest-road query of its own.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from contextlib import closing
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple

from .buildings import BuildingTable
from .geometry import PlanePoint
from .ingest import RoadSegment
from .levels import Surface
from .spatial_index import PolygonIndex, SegmentIndex


class ConnectorLine(NamedTuple):
    building_id: int
    start: PlanePoint
    end: PlanePoint
    road_id: int
    road_distance: float


class BuildingMetrics(NamedTuple):
    building_id: int
    obstruction_count: int
    nearest_surface: Surface
    road_distance: float
    road_id: int


class MetricColumns(NamedTuple):
    """The metric stage's result in the building table's row order: a
    building's obstruction count and nearest road's id (arrays 'q'), and
    its road distance and the connector's end on that road (arrays 'd')."""

    counts: array
    road_ids: array
    road_distances: array
    road_xs: array
    road_ys: array


def _metric_row(
    building_id: int,
    x: float,
    y: float,
    row: int,
    road_index: SegmentIndex,
    building_index: PolygonIndex,
) -> tuple[int, int, int, float, float, float]:
    """(building_id, obstruction_count, road_id, road_distance, qx, qy) of
    the building at position row of the table, whose centroid is (x, y),
    where (qx, qy) is the connector's end on the nearest road. A
    zero-length connector counts no obstructions."""
    road_id, qx, qy, distance = road_index.nearest_xy(x, y)
    if x == qx and y == qy:
        count = 0
    else:
        count = building_index.count_obstructions_xy(x, y, qx, qy, row)
    return building_id, count, road_id, distance, qx, qy


# One row of a child's share in the shared mapping: building_id,
# obstruction_count, road_id, road_distance, qx, qy. 'q' is the building
# table's id type and 'd' keeps every double bit for bit.
_ROW = struct.Struct("qqqddd")


def _fork(job: Callable[[], None]) -> int:
    """Run job in a forked child and return its pid. The child exits with
    status 0 once job returns, or 1 after printing the traceback if it
    raises; it never returns into the caller's frames. Forking is safe only
    while the process runs no other thread, as the CLI never does.
    """
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            job()
            status = 0
        except BaseException:  # the child's last act: report, then exit
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(status)
    return pid


def metric_rows(
    buildings: BuildingTable,
    road_index: SegmentIndex,
    building_index: PolygonIndex,
    workers: int | None = None,
) -> Iterator[tuple[int, int, int, float, float, float]]:
    """Every building's (building_id, obstruction_count, road_id,
    road_distance, x, y), in no particular order; (x, y) is the connector's
    end on the nearest road.

    With n = min(workers, CPUs) > 1, building k goes to share k mod n. This
    process computes share 0 and yields its rows as it goes; each other
    share is computed by a child forked once both indexes exist, which
    inherits them copy-on-write and packs its rows into its own run of
    fixed-size slots in one shared anonymous mapping. A child's rows are
    yielded only once it has exited with status 0. Every child is reaped
    before the stream ends, and killed first if the stream is closed early
    or fails. Without os.fork, n is 1.
    """
    n = min(workers or 1, os.cpu_count() or 1)
    if len(buildings) < 2 * n or not hasattr(os, "fork"):
        n = 1

    def share(k: int) -> Iterator[tuple]:
        ids, xs, ys = buildings.ids, buildings.xs, buildings.ys
        for row in range(k, len(ids), n):
            yield _metric_row(ids[row], xs[row], ys[row], row, road_index, building_index)

    if n == 1:
        yield from share(0)
        return
    import mmap  # imported here, so a one-process stage never loads them
    from signal import SIGKILL

    def pack(k: int) -> None:
        offset = ends[k - 1]
        for row in share(k):
            _ROW.pack_into(slots, offset, *row)
            offset += _ROW.size

    # share k >= 1 owns the bytes from ends[k - 1] to ends[k]
    ends = [0, *accumulate(len(range(k, len(buildings), n)) * _ROW.size for k in range(1, n))]
    slots = mmap.mmap(-1, ends[-1])
    children: list[tuple[int, int]] = []  # (pid, share), not yet reaped
    try:
        for k in range(1, n):
            children.append((_fork(partial(pack, k)), k))
        yield from share(0)
        while children:
            pid, k = children[0]
            _, status = os.waitpid(pid, 0)
            del children[0]
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"metric stage child {pid} failed: exit status {code}")
            yield from map(partial(_ROW.unpack_from, slots), range(ends[k - 1], ends[k], _ROW.size))
    finally:
        for pid, _ in children:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        slots.close()


def metric_columns(
    buildings: BuildingTable,
    road_index: SegmentIndex,
    building_index: PolygonIndex,
    workers: int | None = None,
) -> MetricColumns:
    """Every building's metrics, each row of metric_rows put at its
    building's position in the table, so the order the rows arrive in does
    not matter and no row object is kept.

    The per-building computation is pure against read-only indexes, so the
    columns are identical for any worker count.
    """
    n = len(buildings)
    columns = MetricColumns(*(array(code, [0]) * n for code in "qqddd"))
    counts, road_ids, distances, xs, ys = columns
    position = buildings.position
    rows = metric_rows(buildings, road_index, building_index, workers)
    with closing(rows):  # an error part-way still reaps the children
        for building_id, count, road_id, distance, x, y in rows:
            k = position(building_id)
            counts[k] = count
            road_ids[k] = road_id
            distances[k] = distance
            xs[k] = x
            ys[k] = y
    return columns


# BuildingMetrics records made per block by compute_all
_BLOCK = 256


def compute_all(
    buildings: BuildingTable,
    road_index: SegmentIndex,
    building_index: PolygonIndex,
    roads: Iterable[RoadSegment],
    workers: int | None = None,
) -> list[BuildingMetrics]:
    """One BuildingMetrics per building, ordered by building_id: the
    records of metric_columns' counts, road ids and road distances.

    Kept only for perfbench/traced.py and the tests, until ROADMAP item 2.
    """
    # counts, road ids and road distances; the connector ends are let go
    columns = metric_columns(buildings, road_index, building_index, workers)[:3]
    surface = {r.road_id: r.surface for r in roads}
    metrics: list = [None] * len(buildings)
    # a block at a time from the end, each cut off the columns once made, so
    # the columns and the records are never both held whole
    for end in range(len(metrics), 0, -_BLOCK):
        k = max(end - _BLOCK, 0)
        block = zip(buildings.ids[k:end], *(column[k:] for column in columns))
        metrics[k:end] = [
            BuildingMetrics(bid, count, surface[road_id], distance, road_id)
            for bid, count, road_id, distance in block
        ]
        for column in columns:
            del column[k:]
    return metrics


def connectors_for(buildings: BuildingTable, road_index: SegmentIndex) -> list[ConnectorLine]:
    """Connectors for all buildings, in the table's building_id order, each
    from the centroid to the nearest motorable road, found by a query of
    its own.

    The CLI writes connectors from metric_columns instead. Kept only for
    perfbench/traced.py and the tests, until ROADMAP item 2.
    """
    connectors = []
    for building_id, x, y in zip(buildings.ids, buildings.xs, buildings.ys):
        road_id, qx, qy, distance = road_index.nearest_xy(x, y)
        connectors.append(ConnectorLine(building_id, PlanePoint(x, y), PlanePoint(qx, qy), road_id, distance))
    return connectors
