"""Static bounding-box indexes for nearest-road and obstruction queries.

Both indexes are packed R-trees built once over immutable entries. Queries
never mutate state, so a built index can serve any number of threads or
forked worker processes. Nearest-neighbor search is best-first over bounding
box lower bounds (no radius cutoff), so it stays correct when features are
arbitrarily far apart.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigurationError
from .geometry import (
    Bounds,
    PlanePoint,
    Segment,
    bounds_intersect,
    nearest_point_on_segment,
    point_bounds_distance,
)

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import Building, RoadSegment

_NODE_CAPACITY = 16


class _Node:
    __slots__ = ("bounds", "children", "entries")

    def __init__(self, bounds: Bounds, children: list["_Node"] | None, entries: list | None):
        self.bounds = bounds
        self.children = children
        self.entries = entries  # leaf payloads: (bounds, item)


def _enclosing(bounds_list: Sequence[Bounds]) -> Bounds:
    return (
        min(b[0] for b in bounds_list),
        min(b[1] for b in bounds_list),
        max(b[2] for b in bounds_list),
        max(b[3] for b in bounds_list),
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


def _build_tree(entries: list[tuple[Bounds, object]]) -> _Node | None:
    if not entries:
        return None
    leaves = _pack_level(
        entries,
        bounds_of=lambda e: e[0],
        make_node=lambda group: _Node(_enclosing([e[0] for e in group]), None, group),
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


def _collect_overlapping(node: _Node, query: Bounds, out: list) -> None:
    if not bounds_intersect(node.bounds, query):
        return
    if node.entries is not None:
        for b, item in node.entries:
            if bounds_intersect(b, query):
                out.append(item)
        return
    for child in node.children:
        _collect_overlapping(child, query, out)


class SegmentIndex:
    """Index over the constituent straight segments of road polylines.

    Segment ids are assigned sequentially in road input order, which fixes
    the deterministic tie-break (lowest road_id, then lowest segment_id)
    for exactly equidistant results.
    """

    def __init__(self, roads: Sequence["RoadSegment"]):
        if not roads:
            raise ConfigurationError(
                "cannot build a road index from an empty road set"
            )
        entries: list[tuple[Bounds, tuple[int, int, Segment]]] = []
        seg_id = 0
        for road in roads:
            for seg in road.geometry.segments():
                entries.append((seg.bounds(), (road.road_id, seg_id, seg)))
                seg_id += 1
        self._root = _build_tree(entries)
        self._size = seg_id

    def __len__(self) -> int:
        return self._size

    def nearest(self, p: PlanePoint) -> tuple[int, PlanePoint, float]:
        """Globally nearest (road_id, point on road, distance) for p.

        Best-first expansion over bbox lower bounds; distance ties resolve
        to the lowest (road_id, segment_id).
        """
        best_key: tuple[float, int, int] | None = None
        best_point: PlanePoint | None = None
        counter = 0
        heap: list[tuple[float, int, _Node]] = [(0.0, counter, self._root)]
        while heap:
            bound, _, node = heapq.heappop(heap)
            if best_key is not None and bound > best_key[0]:
                break
            if node.entries is not None:
                for _, (road_id, seg_id, seg) in node.entries:
                    q, d = nearest_point_on_segment(p, seg)
                    key = (d, road_id, seg_id)
                    if best_key is None or key < best_key:
                        best_key, best_point = key, q
                continue
            for child in node.children:
                child_bound = point_bounds_distance(p, child.bounds)
                if best_key is None or child_bound <= best_key[0]:
                    counter += 1
                    heapq.heappush(heap, (child_bound, counter, child))
        assert best_key is not None and best_point is not None
        return best_key[1], best_point, best_key[0]


class PolygonIndex:
    """Bounding-box index over building footprints."""

    def __init__(self, buildings: Iterable["Building"]):
        entries = [(b.footprint.bounds(), b.building_id) for b in buildings]
        self._root = _build_tree(entries)
        self._size = len(entries)

    def __len__(self) -> int:
        return self._size

    def candidates_for_segment(self, s: Segment) -> set[int]:
        """Superset of buildings possibly intersecting s (bbox filter only)."""
        found: list[int] = []
        if self._root is not None:
            _collect_overlapping(self._root, s.bounds(), found)
        return set(found)

