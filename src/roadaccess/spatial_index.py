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
from collections import defaultdict
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigurationError
from .geometry import Bounds, PlanePoint, Segment

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import Building, RoadSegment

_NODE_CAPACITY = 16


class _Node:
    __slots__ = ("bounds", "children", "entries")

    def __init__(self, bounds: Bounds, children: list["_Node"] | None, entries: list | None):
        self.bounds = bounds
        self.children = children
        self.entries = entries  # leaf payloads: records whose first four items are a box


def _enclosing(boxes: Sequence[Sequence[float]]) -> Bounds:
    return (
        min(b[0] for b in boxes),
        min(b[1] for b in boxes),
        max(b[2] for b in boxes),
        max(b[3] for b in boxes),
    )


def _pack_level(items: list, bounds_of, make_node) -> list[_Node]:
    """Sort-tile-recursive packing of one tree level."""
    n = len(items)
    n_nodes = math.ceil(n / _NODE_CAPACITY)
    n_slices = math.ceil(math.sqrt(n_nodes))
    per_slice = n_slices * _NODE_CAPACITY
    by_x = sorted(items, key=lambda it: bounds_of(it)[0] + bounds_of(it)[2])
    nodes: list[_Node] = []
    for s in range(0, n, per_slice):
        chunk = sorted(
            by_x[s : s + per_slice], key=lambda it: bounds_of(it)[1] + bounds_of(it)[3]
        )
        for k in range(0, len(chunk), _NODE_CAPACITY):
            group = chunk[k : k + _NODE_CAPACITY]
            nodes.append(make_node(group))
    return nodes


def _build_tree(entries: list[tuple]) -> _Node | None:
    if not entries:
        return None
    leaves = _pack_level(
        entries,
        bounds_of=lambda e: e,
        make_node=lambda group: _Node(_enclosing(group), None, group),
    )
    level = leaves
    while len(level) > 1:
        level = _pack_level(
            level,
            bounds_of=lambda nd: nd.bounds,
            make_node=lambda group: _Node(
                _enclosing([nd.bounds for nd in group]), group, None
            ),
        )
    return level[0]


class SegmentIndex:
    """Index over the constituent straight segments of road polylines.

    Segment ids are assigned sequentially in road input order, which fixes
    the deterministic tie-break (lowest road_id, then lowest segment_id)
    for exactly equidistant results. Each leaf holds one flat record per
    segment: (min_x, min_y, max_x, max_y, ax, ay, bx, by, dx, dy, squared
    length, road_id, segment_id).
    """

    def __init__(self, roads: Sequence["RoadSegment"]):
        if not roads:
            raise ConfigurationError(
                "cannot build a road index from an empty road set"
            )
        records: list[tuple] = []
        for road in roads:
            vs = road.geometry.vertices
            for a, b in zip(vs, vs[1:]):
                ax, ay, bx, by = a.x, a.y, b.x, b.y
                dx = bx - ax
                dy = by - ay
                records.append((
                    min(ax, bx), min(ay, by), max(ax, bx), max(ay, by),
                    ax, ay, bx, by, dx, dy, dx * dx + dy * dy,
                    road.road_id, len(records),
                ))
        self._root = _build_tree(records)
        self._size = len(records)

    def __len__(self) -> int:
        return self._size

    def nearest(self, p: PlanePoint) -> tuple[int, PlanePoint, float]:
        """Globally nearest (road_id, point on road, distance) for p.

        Best-first expansion over bbox lower bounds; distance ties resolve
        to the lowest (road_id, segment_id). A segment is skipped when its
        box is already farther than the best; the others get exactly the
        arithmetic of geometry.nearest_point_on_segment, and only the
        winner's point becomes a PlanePoint.
        """
        px = p.x
        py = p.y
        hypot = math.hypot
        heappush = heapq.heappush
        heappop = heapq.heappop
        best_d = math.inf
        best_ids: tuple[int, int] | None = None
        qx = qy = 0.0
        counter = 0
        heap: list[tuple[float, int, _Node]] = [(0.0, counter, self._root)]
        while heap:
            bound, _, node = heappop(heap)
            if bound > best_d:
                break
            if node.entries is None:
                for child in node.children:
                    x0, y0, x1, y1 = child.bounds
                    child_bound = hypot(
                        x0 - px if px < x0 else (px - x1 if px > x1 else 0.0),
                        y0 - py if py < y0 else (py - y1 if py > y1 else 0.0),
                    )
                    if child_bound <= best_d:
                        counter += 1
                        heappush(heap, (child_bound, counter, child))
                continue
            for x0, y0, x1, y1, ax, ay, bx, by, dx, dy, d2, road_id, seg_id in node.entries:
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
        return best_ids[0], PlanePoint(qx, qy), best_d


# Bucket side: this many median footprint spans (the upper median for an even
# count), never below the floor (m), which only applies when most footprints
# have zero span.
_BUCKET_SPANS = 2.0
_MIN_BUCKET_M = 1.0
# Slack of the bucket walk, in bucket sides. It covers the rounding of the
# transform into grid units, so a connector that runs along a bucket line or
# through a bucket corner also visits the buckets on the other side.
_WALK_MARGIN = 1e-6
# The line-side filter drops a box only when all four corners lie at least
# about this far (m) on one side of the connector's line.
_SIDE_TOL_M = 1e-6


class PolygonIndex:
    """Uniform grid of buckets over building footprint bounding boxes.

    Each footprint's bounds are computed once, here, and its position is
    listed in every bucket its box overlaps. Buckets are keyed by
    column * rows + row over the occupied extent only.
    """

    def __init__(self, buildings: Iterable["Building"]):
        self._ids: list[int] = []
        self._bounds: list[Bounds] = []
        for b in buildings:
            self._ids.append(b.building_id)
            self._bounds.append(b.footprint.bounds())
        self._buckets: defaultdict[int, list[int]] = defaultdict(list)
        if not self._bounds:
            return
        x0s, y0s, x1s, y1s = zip(*self._bounds)
        spans = sorted(map(max, map(operator.sub, x1s, x0s), map(operator.sub, y1s, y0s)))
        side = max(_BUCKET_SPANS * spans[len(spans) // 2], _MIN_BUCKET_M)
        ox = min(x0s)
        oy = min(y0s)
        self._origin = (ox, oy)
        self._side = side
        self._cols = int((max(x1s) - ox) / side) + 1
        self._rows = rows = int((max(y1s) - oy) / side) + 1
        buckets = self._buckets
        for k, (x0, y0, x1, y1) in enumerate(self._bounds):
            r0 = int((y0 - oy) / side)
            r1 = int((y1 - oy) / side)
            for c in range(int((x0 - ox) / side), int((x1 - ox) / side) + 1):
                for key in range(c * rows + r0, c * rows + r1 + 1):
                    buckets[key].append(k)

    def __len__(self) -> int:
        return len(self._ids)

    def candidates_for_segment(self, s: Segment) -> set[int]:
        """Superset of the buildings whose footprint may touch the closed segment s.

        Visits, column slab by column slab, only the buckets the segment
        crosses. A footprint is kept when its box overlaps the segment's box
        and does not lie wholly on one side of the segment's line.
        """
        found: set[int] = set()
        if not self._buckets:
            return found
        ax, ay, bx, by = s.a.x, s.a.y, s.b.x, s.b.y
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
        buckets = self._buckets
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
            for key in range(c * rows + r0, c * rows + r1 + 1):
                bucket = buckets.get(key)
                if bucket is not None:
                    positions.update(bucket)

        sy0, sy1 = (ay, by) if ay <= by else (by, ay)
        dx = bx - ax
        dy = by - ay
        tol = _SIDE_TOL_M * (abs(dx) + abs(dy))
        bounds = self._bounds
        ids = self._ids
        for k in positions:
            x0, y0, x1, y1 = bounds[k]
            if x0 > bx or x1 < ax or y0 > sy1 or y1 < sy0:
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
            found.add(ids[k])
        return found
