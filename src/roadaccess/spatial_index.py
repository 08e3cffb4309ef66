"""Static indexes for nearest-road and obstruction queries.

Both are built once over immutable entries, and queries never mutate state,
so a built index can serve any number of threads or forked worker processes.
The road index is a packed R-tree. Its nearest-neighbor search is best-first
over bounding box lower bounds (no radius cutoff), so it stays correct when
features are arbitrarily far apart. The building index is a uniform grid of
buckets, and a connector query visits only the buckets the connector crosses,
so its cost follows the connector's length rather than its bounding box.
"""

from __future__ import annotations

import heapq
import math
import operator
from array import array
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from .buildings import BuildingTable
from .errors import ConfigurationError
from .geometry import PlanePoint, Segment, segment_hits_rings

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import RoadSegment

_NODE_CAPACITY = 16


def _pack_level(items: list, leaf: bool) -> list[tuple]:
    """Sort-tile-recursive packing of box-first items into one tree level."""
    n = len(items)
    n_nodes = math.ceil(n / _NODE_CAPACITY)
    n_slices = math.ceil(math.sqrt(n_nodes))
    per_slice = n_slices * _NODE_CAPACITY
    by_x = sorted(items, key=lambda it: it[0] + it[2])
    nodes: list[tuple] = []
    for s in range(0, n, per_slice):
        chunk = sorted(by_x[s : s + per_slice], key=lambda it: it[1] + it[3])
        for k in range(0, len(chunk), _NODE_CAPACITY):
            group = chunk[k : k + _NODE_CAPACITY]
            nodes.append((
                min(it[0] for it in group), min(it[1] for it in group),
                max(it[2] for it in group), max(it[3] for it in group),
                group, leaf,
            ))
    return nodes


class SegmentIndex:
    """Index over the constituent straight segments of road polylines.

    Segment ids are assigned sequentially in road input order, which fixes
    the deterministic tie-break (lowest road_id, then lowest segment_id)
    for exactly equidistant results. Each segment is one flat record:
    (min_x, min_y, max_x, max_y, ax, ay, bx, by, dx, dy, squared length,
    road_id, segment_id). The packed R-tree's nodes are box-first tuples
    too, (min_x, min_y, max_x, max_y, items, leaf), with the box enclosing
    the items. One STR pass packs records into leaves, then nodes into
    parents, level by level until one root is left.
    """

    def __init__(self, roads: Sequence["RoadSegment"]):
        if not roads:
            raise ConfigurationError(
                "cannot build a road index from an empty road set"
            )
        records: list[tuple] = []
        for road in roads:
            it = iter(road.geometry)
            ax = next(it)
            ay = next(it)
            for bx, by in zip(it, it):
                dx = bx - ax
                dy = by - ay
                records.append((
                    min(ax, bx), min(ay, by), max(ax, bx), max(ay, by),
                    ax, ay, bx, by, dx, dy, dx * dx + dy * dy,
                    road.road_id, len(records),
                ))
                ax = bx
                ay = by
        level = _pack_level(records, True)
        while len(level) > 1:
            level = _pack_level(level, False)
        self._root = level[0]
        self._size = len(records)

    def __len__(self) -> int:
        return self._size

    def nearest(self, p: PlanePoint) -> tuple[int, PlanePoint, float]:
        """Globally nearest (road_id, point on road, distance) for p."""
        road_id, qx, qy, d = self.nearest_xy(p.x, p.y)
        return road_id, PlanePoint(qx, qy), d

    def nearest_xy(self, px: float, py: float) -> tuple[int, float, float, float]:
        """Globally nearest (road_id, x, y, distance) for (px, py), where
        (x, y) is the point on the road.

        Best-first expansion over bbox lower bounds; distance ties resolve
        to the lowest (road_id, segment_id). A segment is skipped when its
        box is already farther than the best; the others get the orthogonal
        projection clamped to the segment, then math.hypot.
        """
        hypot = math.hypot
        heappush = heapq.heappush
        heappop = heapq.heappop
        best_d = math.inf
        best_ids: tuple[int, int] | None = None
        qx = qy = 0.0
        counter = 0
        heap: list[tuple[float, int, tuple]] = [(0.0, counter, self._root)]
        while heap:
            bound, _, node = heappop(heap)
            if bound > best_d:
                break
            _, _, _, _, items, leaf = node
            if not leaf:
                for child in items:
                    x0, y0, x1, y1, _, _ = child
                    child_bound = hypot(
                        x0 - px if px < x0 else (px - x1 if px > x1 else 0.0),
                        y0 - py if py < y0 else (py - y1 if py > y1 else 0.0),
                    )
                    if child_bound <= best_d:
                        counter += 1
                        heappush(heap, (child_bound, counter, child))
                continue
            for x0, y0, x1, y1, ax, ay, bx, by, dx, dy, d2, road_id, seg_id in items:
                # a segment whose box is already farther than the best cannot win;
                # hypot(gx, gy) >= max(gx, gy), so a single gap can show it
                gx = x0 - px if px < x0 else (px - x1 if px > x1 else 0.0)
                gy = y0 - py if py < y0 else (py - y1 if py > y1 else 0.0)
                if gx > best_d or gy > best_d or ((gx or gy) and hypot(gx, gy) > best_d):
                    continue
                if d2 == 0.0:
                    sx, sy = ax, ay
                else:
                    t = ((px - ax) * dx + (py - ay) * dy) / d2
                    if t <= 0.0:
                        sx, sy = ax, ay
                    elif t >= 1.0:
                        sx, sy = bx, by
                    else:
                        sx = ax + t * dx
                        sy = ay + t * dy
                d = hypot(px - sx, py - sy)
                if d < best_d or (
                    d == best_d and (best_ids is None or (road_id, seg_id) < best_ids)
                ):
                    best_d = d
                    best_ids = (road_id, seg_id)
                    qx, qy = sx, sy
        assert best_ids is not None
        return best_ids[0], qx, qy, best_d


# Bucket side: this many median footprint spans (the upper median for an even
# count), never below the floor (m), which only applies when most footprints
# have zero span.
_BUCKET_SPANS = 2.0
_MIN_BUCKET_M = 1.0
# Slack of the bucket walk, in bucket sides. It covers the rounding of the
# transform into grid units, so a connector that runs along a bucket line or
# through a bucket corner also visits the buckets on the other side.
_WALK_MARGIN = 1e-6
# The bucket grid has at most this many buckets per footprint.
_CELLS_PER_FOOTPRINT = 4
# The line-side filter drops a box only when all four corners lie at least
# about this far (m) on one side of the connector's line.
_SIDE_TOL_M = 1e-6


class PolygonIndex:
    """Uniform grid of buckets over building footprint bounding boxes.

    The index reads the footprints' boxes, ids and flat rings from the
    table's columns. Each footprint's row is listed in
    every bucket its box overlaps, and the buckets are stored compressed:
    bucket key = column * rows + row over the occupied extent, its rows are
    members[starts[key]:starts[key + 1]], so a column's run of buckets is
    one slice. The grid has at most _CELLS_PER_FOOTPRINT buckets per
    footprint; a sparser extent gets larger buckets.
    """

    def __init__(self, buildings: BuildingTable):
        self._table = table = buildings
        self._members = array("i")
        if not table:
            return
        x0s, y0s, x1s, y1s = table.x0s, table.y0s, table.x1s, table.y1s
        spans = sorted(map(max, map(operator.sub, x1s, x0s), map(operator.sub, y1s, y0s)))
        side = max(_BUCKET_SPANS * spans[len(spans) // 2], _MIN_BUCKET_M)
        ox = min(x0s)
        oy = min(y0s)
        width = max(x1s) - ox
        height = max(y1s) - oy
        while (int(width / side) + 1) * (int(height / side) + 1) > _CELLS_PER_FOOTPRINT * len(table):
            side *= 2.0
        self._origin = (ox, oy)
        self._side = side
        self._cols = int(width / side) + 1
        self._rows = rows = int(height / side) + 1

        # every (bucket key, row) pair, then a counting sort of them by key
        keys = array("q")
        owners = array("i")
        for k, (x0, y0, x1, y1) in enumerate(zip(x0s, y0s, x1s, y1s)):
            r0 = int((y0 - oy) / side)
            r1 = int((y1 - oy) / side)
            for c in range(int((x0 - ox) / side), int((x1 - ox) / side) + 1):
                for key in range(c * rows + r0, c * rows + r1 + 1):
                    keys.append(key)
                    owners.append(k)
        counts = array("i", bytes(4 * self._cols * rows))
        for key in keys:
            counts[key] += 1
        starts = array("i", accumulate(counts, initial=0))
        members = array("i", bytes(4 * len(keys)))
        fill = starts[:-1]
        for key, k in zip(keys, owners):
            members[fill[key]] = k
            fill[key] += 1
        self._starts = starts
        self._members = members

    def __len__(self) -> int:
        return len(self._table)

    def candidates_for_segment(self, s: Segment) -> set[int]:
        """Superset of the buildings whose footprint may touch the closed segment s."""
        ids = self._table.ids
        return {ids[k] for k in self._candidates(s.a.x, s.a.y, s.b.x, s.b.y)}

    def count_obstructions_xy(
        self, ax: float, ay: float, bx: float, by: float, building_id: int
    ) -> int:
        """Distinct buildings, other than building_id, whose footprint
        touches the closed segment (ax, ay)-(bx, by): the candidates, then
        the exact test."""
        ids = self._table.ids
        rings = self._table.rings
        count = 0
        for k in self._candidates(ax, ay, bx, by):
            if ids[k] != building_id and segment_hits_rings(ax, ay, bx, by, rings[k]):
                count += 1
        return count

    def _candidates(self, ax: float, ay: float, bx: float, by: float) -> list[int]:
        """Positions of the footprints that may touch the closed segment.

        Visits, column slab by column slab, only the buckets the segment
        crosses. A footprint is kept when its box overlaps the segment's box
        and does not lie wholly on one side of the segment's line.
        """
        found: list[int] = []
        if not self._members:
            return found
        if bx < ax:
            ax, ay, bx, by = bx, by, ax, ay
        ox, oy = self._origin
        side = self._side
        rows = self._rows
        m = _WALK_MARGIN
        floor = math.floor
        # in grid units; columns are walked left to right
        ua = (ax - ox) / side
        ub = (bx - ox) / side
        va = (ay - oy) / side
        vb = (by - oy) / side
        du = ub - ua
        slope = (vb - va) / du if du > 0.0 else 0.0
        v0, v1 = (va, vb) if va <= vb else (vb, va)
        first = floor(ua - m)
        last = floor(ub + m)
        if first < 0:
            first = 0
        if last >= self._cols:
            last = self._cols - 1
        starts = self._starts
        members = self._members
        positions: set[int] = set()
        for c in range(first, last + 1):
            if du > 0.0:
                # the segment's rows within this column slab, widened by m
                u0 = c - m
                u1 = c + 1 + m
                v0 = va + slope * ((u0 if u0 > ua else ua) - ua)
                v1 = va + slope * ((u1 if u1 < ub else ub) - ua)
                if v0 > v1:
                    v0, v1 = v1, v0
            r0 = floor(v0 - m)
            r1 = floor(v1 + m)
            if r0 < 0:
                r0 = 0
            if r1 >= rows:
                r1 = rows - 1
            if r0 > r1:
                continue
            start = starts[c * rows + r0]
            end = starts[c * rows + r1 + 1]
            if start != end:
                positions.update(members[start:end])

        sy0, sy1 = (ay, by) if ay <= by else (by, ay)
        dx = bx - ax
        dy = by - ay
        tol = _SIDE_TOL_M * (abs(dx) + abs(dy))
        table = self._table
        x0s, y0s, x1s, y1s = table.x0s, table.y0s, table.x1s, table.y1s
        for k in positions:
            x0 = x0s[k]
            x1 = x1s[k]
            if x0 > bx or x1 < ax:
                continue
            y0 = y0s[k]
            y1 = y1s[k]
            if y0 > sy1 or y1 < sy0:
                continue
            # a corner's side of the line is dx * (y - ay) - dy * (x - ax);
            # take the extremes of both terms over the four corners
            p = dx * (y0 - ay)
            q = dx * (y1 - ay)
            if p > q:
                p, q = q, p
            r = dy * (x0 - ax)
            t = dy * (x1 - ax)
            if r > t:
                r, t = t, r
            if q - r < -tol or p - t > tol:
                continue
            found.append(k)
        return found
