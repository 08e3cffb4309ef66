import math
import os
import random
import tracemalloc
from contextlib import closing

import pytest

import roadaccess.metrics as metric_stage
from roadaccess.errors import ConfigurationError
from roadaccess.geometry import PlanePoint, Polygon
from roadaccess.ingest import RoadSegment
from roadaccess.levels import Surface
from roadaccess.metrics import build_connector, compute_all
from roadaccess.spatial_index import PolygonIndex, SegmentIndex

from _scenes import (
    brute_metrics,
    building_table,
    flat_line,
    make_building,
    nearest_point_on_segment,
    random_scene,
    ring_points,
    road_segments,
)


def plane_square(building_id, cx, cy, half=5.0):
    ring = [
        PlanePoint(cx - half, cy - half),
        PlanePoint(cx + half, cy - half),
        PlanePoint(cx + half, cy + half),
        PlanePoint(cx - half, cy + half),
    ]
    return make_building(building_id, Polygon(ring))


def horizontal_road(road_id, y, x0=-1000.0, x1=1000.0, surface=Surface.PAVED):
    return RoadSegment(road_id, (x0, y, x1, y), "residential", surface)


def obstructions(c, pidx):
    """Other buildings touching the connector, as the metric stage counts them."""
    row = pidx._table.position(c.building_id)
    return pidx.count_obstructions_xy(c.start.x, c.start.y, c.end.x, c.end.y, row)


def test_connector_perpendicular_drop():
    b = plane_square(0, 0, 50)
    idx = SegmentIndex([horizontal_road(0, 0)])
    c = build_connector(b, idx)
    assert c.start == PlanePoint(0, 50)
    assert c.end == PlanePoint(0, 0)
    assert c.road_distance == 50.0
    assert c.road_id == 0


def test_connector_zero_length_when_centroid_on_road():
    b = plane_square(0, 0, 0)  # centroid (0, 0) lies on the road
    idx = SegmentIndex([horizontal_road(0, 0)])
    c = build_connector(b, idx)
    assert c.start == c.end
    assert c.road_distance == 0.0
    # zero-length connectors count no obstructions, even overlapping ones
    blocker = plane_square(1, 0, 0)
    table = building_table([b, blocker])
    pidx = PolygonIndex(table)
    assert obstructions(c, pidx) == 1
    roads = [horizontal_road(0, 0)]
    assert compute_all(table, idx, pidx, roads, workers=1)[0].obstruction_count == 0


def test_connector_tie_prefers_lower_road_id():
    b = plane_square(0, 0, 0, half=1.0)
    idx = SegmentIndex([horizontal_road(0, 10), horizontal_road(1, -10)])
    assert build_connector(b, idx).road_id == 0


def test_count_obstructions_single_blocker():
    road = horizontal_road(0, 0)
    source = plane_square(0, 0, 50)
    blocker = plane_square(1, 0, 25)  # square [-5,5]x[20,30]
    bystander = plane_square(2, 40, 25)
    buildings = [source, blocker, bystander]
    idx = SegmentIndex([road])
    pidx = PolygonIndex(building_table(buildings))
    c = build_connector(source, idx)
    assert obstructions(c, pidx) == 1


def test_count_obstructions_counts_distinct_buildings_once():
    # U-shaped footprint crossed twice by the connector still counts once
    road = horizontal_road(0, 0)
    source = plane_square(0, 0, 60)
    u_shape = Polygon(
        [
            PlanePoint(-10, 20),
            PlanePoint(10, 20),
            PlanePoint(10, 40),
            PlanePoint(6, 40),
            PlanePoint(6, 24),
            PlanePoint(-6, 24),
            PlanePoint(-6, 40),
            PlanePoint(-10, 40),
        ]
    )
    blocker = make_building(1, u_shape)
    buildings = [source, blocker]
    c = build_connector(source, SegmentIndex([road]))
    pidx = PolygonIndex(building_table(buildings))
    assert obstructions(c, pidx) == 1


def test_overlapping_footprints_still_count():
    # digitization noise: a neighbor overlapping the source still obstructs
    road = horizontal_road(0, 0)
    source = plane_square(0, 0, 50, half=6.0)
    overlapper = plane_square(1, 0, 42, half=6.0)  # overlaps source, crosses connector
    buildings = [source, overlapper]
    c = build_connector(source, SegmentIndex([road]))
    pidx = PolygonIndex(building_table(buildings))
    assert obstructions(c, pidx) == 1


def test_connector_end_lies_on_road_geometry():
    rng = random.Random(61)
    buildings, roads = random_scene(rng, 40, 10)
    road_index = SegmentIndex(roads)
    by_id = {r.road_id: r for r in roads}
    for b in buildings:
        c = build_connector(b, road_index)
        gap = min(
            nearest_point_on_segment(c.end, seg)[1]
            for seg in road_segments(by_id[c.road_id])
        )
        assert gap < 1e-6
        assert c.road_distance == math.hypot(
            c.start.x - c.end.x, c.start.y - c.end.y
        )


def test_surface_comes_from_closest_road():
    b = plane_square(0, 0, 50)
    roads = [
        horizontal_road(0, 0, surface=Surface.UNPAVED),
        horizontal_road(1, 200, surface=Surface.PAVED),
    ]
    (m,) = run_pipeline([b], roads)
    assert m.road_id == 0
    assert m.nearest_surface is Surface.UNPAVED


def formal_scene():
    """Detached frontage houses along one street: all counts must be 0."""
    roads = [horizontal_road(0, 0)]
    buildings = [plane_square(i, i * 30.0, 25.0) for i in range(8)]
    return buildings, roads


def informal_scene():
    """Rows of contiguous structures behind a frontage row on one road."""
    roads = [horizontal_road(0, 0)]
    buildings = []
    for row in range(4):
        for col in range(6):
            buildings.append(
                plane_square(len(buildings), col * 10.0, 15.0 + row * 12.0)
            )
    return buildings, roads


def run_pipeline(buildings, roads, workers=None):
    table = building_table(buildings)
    return compute_all(table, SegmentIndex(roads), PolygonIndex(table), roads, workers=workers)


def test_formal_scene_all_unobstructed():
    buildings, roads = formal_scene()
    metrics = run_pipeline(buildings, roads)
    assert all(m.obstruction_count == 0 for m in metrics)


def test_informal_scene_interior_rows_obstructed():
    buildings, roads = informal_scene()
    metrics = run_pipeline(buildings, roads)
    by_id = {m.building_id: m for m in metrics}
    for b in buildings:
        row = round((b.centroid.y - 15.0) / 12.0)
        assert by_id[b.building_id].obstruction_count == row
    # frontage unobstructed, interior rows blocked
    assert by_id[0].obstruction_count == 0
    assert by_id[len(buildings) - 1].obstruction_count == 3


def test_compute_all_empty_buildings():
    _, roads = formal_scene()
    assert run_pipeline([], roads) == []


def test_compute_all_requires_roads():
    with pytest.raises(ConfigurationError):
        SegmentIndex([])


def test_compute_all_matches_brute_force_on_random_scenes():
    rng = random.Random(55)
    for _ in range(5):
        buildings, roads = random_scene(rng, rng.randint(60, 140), rng.randint(5, 25))
        metrics = run_pipeline(buildings, roads)
        oracle = brute_metrics(buildings, roads)
        assert len(metrics) == len(buildings)
        for m in metrics:
            count, road_id, point, dist = oracle[m.building_id]
            assert m.obstruction_count == count
            assert m.road_id == road_id
            assert m.road_distance == dist


def test_order_permutation_invariance():
    rng = random.Random(56)
    buildings, roads = random_scene(rng, 80, 10)
    base = run_pipeline(buildings, roads)
    shuffled = list(buildings)
    rng.shuffle(shuffled)
    assert run_pipeline(shuffled, roads) == base


def test_translation_invariance_of_counts():
    rng = random.Random(57)
    buildings, roads = random_scene(rng, 60, 8)
    base = {m.building_id: m.obstruction_count for m in run_pipeline(buildings, roads)}

    dx, dy = 1234.5, -987.25

    def shift_point(p):
        return PlanePoint(p.x + dx, p.y + dy)

    moved_buildings = [
        make_building(
            b.building_id, Polygon([shift_point(p) for p in ring_points(b.footprint.exterior)[:-1]])
        )
        for b in buildings
    ]
    moved_roads = [
        RoadSegment(
            r.road_id,
            flat_line([shift_point(p) for p in ring_points(r.geometry)]),
            r.road_class,
            r.surface,
        )
        for r in roads
    ]
    moved = {
        m.building_id: m.obstruction_count
        for m in run_pipeline(moved_buildings, moved_roads)
    }
    assert moved == base


def test_uniform_scaling_invariance_of_counts():
    # distance-agnostic: scaling the scene preserves intersection topology
    rng = random.Random(58)
    buildings, roads = random_scene(rng, 60, 8)
    base = {m.building_id: m.obstruction_count for m in run_pipeline(buildings, roads)}

    k = 3.7

    def scale_point(p):
        return PlanePoint(p.x * k, p.y * k)

    scaled_buildings = [
        make_building(
            b.building_id, Polygon([scale_point(p) for p in ring_points(b.footprint.exterior)[:-1]])
        )
        for b in buildings
    ]
    scaled_roads = [
        RoadSegment(
            r.road_id,
            flat_line([scale_point(p) for p in ring_points(r.geometry)]),
            r.road_class,
            r.surface,
        )
        for r in roads
    ]
    scaled = {
        m.building_id: m.obstruction_count
        for m in run_pipeline(scaled_buildings, scaled_roads)
    }
    assert scaled == base


def test_building_outside_connector_bounds_changes_nothing():
    rng = random.Random(59)
    buildings, roads = random_scene(rng, 50, 6)
    metrics = run_pipeline(buildings, roads)
    road_index = SegmentIndex(roads)
    connectors = [build_connector(b, road_index) for b in buildings]
    max_x = max(max(c.start.x, c.end.x) for c in connectors)
    max_y = max(max(c.start.y, c.end.y) for c in connectors)
    far = plane_square(len(buildings), max_x + 500.0, max_y + 500.0)
    extended = run_pipeline(buildings + [far], roads)
    assert [m for m in extended if m.building_id != far.building_id] == metrics


def test_parallel_workers_match_serial(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool on any machine
    rng = random.Random(60)
    buildings, roads = random_scene(rng, 90, 12)
    assert run_pipeline(buildings, roads, workers=2) == run_pipeline(buildings, roads)


FAKE_PID = 1 << 30  # above any pid_max: never a real process


class InProcessFork:
    """Stands in for metric_stage._fork: runs each child's job in this process,
    so no process is ever started; the rows still cross the shared mapping."""

    def __init__(self):
        self.jobs = 0

    def __call__(self, job):
        job()
        self.jobs += 1
        return FAKE_PID + self.jobs


@pytest.mark.parametrize(
    "cpus, workers, expected",
    [(3, 5000, [3]), (None, 5000, []), (1, 8, []), (4, 2, [2]), (8, 4, [4])],
)
def test_pool_has_at_most_one_process_per_cpu(monkeypatch, cpus, workers, expected):
    # expected: the number of processes computing shares, when there are several
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    fork = InProcessFork()
    monkeypatch.setattr(metric_stage, "_fork", fork)
    real_waitpid = os.waitpid
    monkeypatch.setattr(
        os, "waitpid", lambda pid, options: (pid, 0) if pid > FAKE_PID else real_waitpid(pid, options)
    )
    rng = random.Random(61)
    buildings, roads = random_scene(rng, 60, 10)
    serial = run_pipeline(buildings, roads)
    assert run_pipeline(buildings, roads, workers=workers) == serial
    assert ([fork.jobs + 1] if fork.jobs else []) == expected


def test_metric_stage_without_fork_is_serial(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    buildings, roads = random_scene(random.Random(63), 60, 10)
    serial = run_pipeline(buildings, roads)

    def no_fork(job):
        raise AssertionError("no process may start without os.fork")

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(metric_stage, "_fork", no_fork)
    assert run_pipeline(buildings, roads, workers=2) == serial


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_fork(monkeypatch):
    """metric_stage._fork, counting the children it starts."""
    started = []
    real_fork = metric_stage._fork

    def fork(job):
        started.append(real_fork(job))
        return started[-1]

    monkeypatch.setattr(metric_stage, "_fork", fork)
    return started


def test_forked_metric_stage_reaps_its_child(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = counting_fork(monkeypatch)
    buildings, roads = random_scene(random.Random(64), 40, 8)
    assert run_pipeline(buildings, roads, workers=2) == run_pipeline(buildings, roads)
    assert len(started) == 1
    assert_no_child_left()


def test_failing_child_share_is_an_error_naming_its_exit_status(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = counting_fork(monkeypatch)
    buildings, roads = random_scene(random.Random(65), 40, 8)
    doomed = buildings[1].building_id  # share 1 of 2: the child's
    real_row = metric_stage._metric_row

    def failing_row(building_id, *args):
        if building_id == doomed:
            raise ValueError("share fails")
        return real_row(building_id, *args)

    monkeypatch.setattr(metric_stage, "_metric_row", failing_row)
    with pytest.raises(RuntimeError, match=r"metric stage child \d+ failed: exit status 1$"):
        run_pipeline(buildings, roads, workers=2)
    assert len(started) == 1
    assert_no_child_left()


def test_forked_rows_cross_the_process_boundary_bit_for_bit(monkeypatch):
    # == cannot tell -0.0 from 0.0, and a road vertex at lon -0.0 reaches
    # connectors.geojson as x = -0.0: compare every float by its hex form
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = counting_fork(monkeypatch)
    buildings, roads = random_scene(random.Random(67), 12, 4)
    table = building_table(buildings)
    top = 2**63 - 1
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -5e-324]
    crafted = {
        bid: (top - k, k, top - 2 * k, extremes[k % 5], extremes[(k + 1) % 5], extremes[(k + 2) % 5])
        for k, bid in enumerate(table.ids)
    }
    monkeypatch.setattr(metric_stage, "_metric_row", lambda bid, *args: crafted[bid])
    rows = list(metric_stage.metric_rows(table, SegmentIndex(roads), PolygonIndex(table), workers=2))

    def bits(row):
        return [(type(v), v.hex() if isinstance(v, float) else v) for v in row]

    # share 0 from this process, then the child's share, each in stride order
    order = [*table.ids[0::2], *table.ids[1::2]]
    assert [bits(row) for row in rows] == [bits(crafted[bid]) for bid in order]
    assert len(started) == 1
    assert_no_child_left()


@pytest.mark.parametrize("stop_after", [1, 39], ids=["own-share", "child-share"])
def test_consumer_failing_part_way_reaps_the_children(monkeypatch, stop_after):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = counting_fork(monkeypatch)
    buildings, roads = random_scene(random.Random(66), 40, 8)
    table = building_table(buildings)
    rows = metric_stage.metric_rows(table, SegmentIndex(roads), PolygonIndex(table), workers=2)
    with pytest.raises(LookupError, match="consumer fails"):
        with closing(rows):
            for n, _ in enumerate(rows, 1):
                if n == stop_after:
                    raise LookupError("consumer fails")
    assert len(started) == 1
    assert_no_child_left()


def test_serial_metric_stage_holds_its_results_once():
    # a diagonal_random-sized scene: 5,000 rotated rectangles, 50 road segments
    buildings, roads = random_scene(random.Random(62), 5000, 50)
    buildings = building_table(buildings)
    road_index = SegmentIndex(roads)
    building_index = PolygonIndex(buildings)
    tracemalloc.start()
    try:
        metrics = compute_all(buildings, road_index, building_index, roads, workers=1)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(metrics) == len(buildings)
    # Each block of records is cut off the metric columns once made; records
    # built next to the whole columns would add about 0.15x the result's size,
    # and a second list next to the rows 0.2-0.4x.
    assert peak - returned <= 0.05 * returned
