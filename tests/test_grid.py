import random

from roadaccess.geometry import PlanePoint, Polygon
from roadaccess.grid import CellAggregate, CellId, aggregate, cell_of, enumerate_empty_cells
from roadaccess.ingest import Boundary, Building
from roadaccess.levels import Surface
from roadaccess.metrics import BuildingMetrics


def test_cell_of_examples():
    assert cell_of(PlanePoint(0, 0)) == CellId(0, 0)
    assert cell_of(PlanePoint(-0.5, 250)) == CellId(-1, 2)
    assert cell_of(PlanePoint(100.0, 99.999)) == CellId(1, 0)


def test_cell_of_respects_cell_size():
    assert cell_of(PlanePoint(149, 151), cell_size=50.0) == CellId(2, 3)


def building_at(building_id, x, y):
    ring = [
        PlanePoint(x - 1, y - 1),
        PlanePoint(x + 1, y - 1),
        PlanePoint(x + 1, y + 1),
        PlanePoint(x - 1, y + 1),
    ]
    return Building.from_footprint(building_id, Polygon(ring))


def metrics_for(building_id, count, surface=Surface.PAVED):
    return BuildingMetrics(building_id, count, surface, 10.0, 0, PlanePoint(0.0, 0.0))


def test_aggregate_mean_of_counts():
    buildings = [building_at(i, 50, 50) for i in range(3)]
    metrics = [metrics_for(0, 0), metrics_for(1, 1), metrics_for(2, 2)]
    result = aggregate(metrics, buildings)
    agg = result[CellId(0, 0)]
    assert agg.building_count == 3
    assert agg.mean_obstruction == 1.0


def test_aggregate_modal_surface():
    buildings = [building_at(i, 50, 50) for i in range(3)]
    metrics = [
        metrics_for(0, 0, Surface.PAVED),
        metrics_for(1, 0, Surface.PAVED),
        metrics_for(2, 0, Surface.UNPAVED),
    ]
    assert aggregate(metrics, buildings)[CellId(0, 0)].modal_surface is Surface.PAVED


def test_aggregate_surface_tie_resolves_to_unpaved():
    buildings = [building_at(i, 50, 50) for i in range(2)]
    metrics = [metrics_for(0, 0, Surface.PAVED), metrics_for(1, 0, Surface.UNPAVED)]
    assert aggregate(metrics, buildings)[CellId(0, 0)].modal_surface is Surface.UNPAVED


def test_aggregate_unknown_surfaces_abstain():
    buildings = [building_at(i, 50, 50) for i in range(3)]
    metrics = [
        metrics_for(0, 0, Surface.UNKNOWN),
        metrics_for(1, 0, Surface.UNKNOWN),
        metrics_for(2, 0, Surface.PAVED),
    ]
    assert aggregate(metrics, buildings)[CellId(0, 0)].modal_surface is Surface.PAVED


def test_aggregate_all_unknown_treated_as_unpaved():
    buildings = [building_at(0, 50, 50)]
    metrics = [metrics_for(0, 0, Surface.UNKNOWN)]
    assert aggregate(metrics, buildings)[CellId(0, 0)].modal_surface is Surface.UNPAVED


def test_aggregate_conserves_building_count():
    rng = random.Random(8)
    buildings = [
        building_at(i, rng.uniform(-500, 500), rng.uniform(-500, 500))
        for i in range(200)
    ]
    metrics = [metrics_for(b.building_id, rng.randint(0, 5)) for b in buildings]
    result = aggregate(metrics, buildings)
    assert sum(a.building_count for a in result.values()) == len(buildings)
    for agg in result.values():
        counts = [
            m.obstruction_count
            for m in metrics
            if cell_of(buildings[m.building_id].centroid) == agg.cell
        ]
        assert min(counts) <= agg.mean_obstruction <= max(counts)


def test_aggregate_permutation_invariant():
    rng = random.Random(9)
    buildings = [
        building_at(i, rng.uniform(0, 300), rng.uniform(0, 300)) for i in range(60)
    ]
    metrics = [metrics_for(b.building_id, rng.randint(0, 4)) for b in buildings]
    base = aggregate(metrics, buildings)
    shuffled = list(metrics)
    rng.shuffle(shuffled)
    assert aggregate(shuffled, buildings) == base


def test_building_on_cell_edge_belongs_to_one_cell():
    b = building_at(0, 100.0, 0.0)  # centroid exactly on the i=0/1 edge
    result = aggregate([metrics_for(0, 0)], [b])
    assert list(result) == [CellId(1, 0)]
    assert result[CellId(1, 0)].building_count == 1


def plane_rect(x0, y0, x1, y1):
    return Polygon(
        [PlanePoint(x0, y0), PlanePoint(x1, y0), PlanePoint(x1, y1), PlanePoint(x0, y1)]
    )


def test_enumerate_empty_cells_center_rule():
    boundary = Boundary(plane_rect(0, 0, 300, 100))
    empty = enumerate_empty_cells(boundary, occupied={CellId(1, 0)})
    assert empty == [CellId(0, 0), CellId(2, 0)]


def test_enumerate_empty_cells_outside_boundary_excluded():
    # L-shaped boundary: the notch cell is inside the bbox but not the polygon
    boundary = Boundary(
        Polygon(
            [
                PlanePoint(0, 0),
                PlanePoint(200, 0),
                PlanePoint(200, 100),
                PlanePoint(100, 100),
                PlanePoint(100, 200),
                PlanePoint(0, 200),
            ]
        )
    )
    empty = enumerate_empty_cells(boundary, occupied=set())
    assert CellId(1, 1) not in empty
    assert set(empty) == {CellId(0, 0), CellId(1, 0), CellId(0, 1)}


def test_cell_aggregate_empty_cell_shape():
    agg = CellAggregate(CellId(0, 0), 0, None, None)
    assert agg.mean_obstruction is None and agg.modal_surface is None
