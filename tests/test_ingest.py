import json
import random

import pytest

from roadaccess.errors import DataError
from roadaccess.geometry import PlanePoint, Polygon, Polyline, point_in_polygon
from roadaccess.grid import CellId
from roadaccess.ingest import (
    MOTORABLE_CLASSES,
    Boundary,
    Building,
    LoadStats,
    RoadSegment,
    clip_to_boundary,
    filter_motorable,
    load_boundary,
    load_buildings,
    load_roads,
    load_validations,
)
from roadaccess.levels import DeprivationLevel, Surface


def geojson(tmp_path, name, features):
    path = tmp_path / name
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def line_feature(coords, **props):
    return {
        "type": "Feature",
        "geometry": {"type": "LineString", "coordinates": coords},
        "properties": props,
    }


def test_load_roads_single_linestring(tmp_path):
    path = geojson(
        tmp_path,
        "roads.geojson",
        [line_feature([[0.0, 0.0], [0.001, 0.0]], **{"class": "primary", "surface": "paved"})],
    )
    stats = LoadStats()
    roads = load_roads(path, stats=stats)
    assert len(roads) == 1
    assert roads[0].road_id == 0
    assert roads[0].road_class == "primary"
    assert roads[0].surface is Surface.PAVED
    assert stats.total == 1 and stats.loaded == 1 and stats.skipped == 0


def test_load_roads_splits_multilinestring(tmp_path):
    path = geojson(
        tmp_path,
        "roads.geojson",
        [
            {
                "type": "Feature",
                "geometry": {
                    "type": "MultiLineString",
                    "coordinates": [
                        [[0.0, 0.0], [0.001, 0.0]],
                        [[0.0, 0.001], [0.001, 0.001]],
                    ],
                },
                "properties": {"class": "residential"},
            }
        ],
    )
    roads = load_roads(path)
    assert [r.road_id for r in roads] == [0, 1]
    assert all(r.road_class == "residential" for r in roads)


def test_load_roads_normalizes_surface_aliases(tmp_path):
    features = [
        line_feature([[0.0, 0.0], [0.001, 0.0]], **{"class": "primary", "surface": "asphalt"}),
        line_feature([[0.0, 0.0], [0.001, 0.0]], **{"class": "primary", "surface": "Gravel"}),
        line_feature([[0.0, 0.0], [0.001, 0.0]], **{"class": "primary", "surface": "cobblestone"}),
        line_feature([[0.0, 0.0], [0.001, 0.0]], **{"class": "primary"}),
    ]
    roads = load_roads(geojson(tmp_path, "roads.geojson", features))
    assert [r.surface for r in roads] == [
        Surface.PAVED,
        Surface.UNPAVED,
        Surface.UNKNOWN,
        Surface.UNKNOWN,
    ]


def test_load_roads_missing_class_becomes_unknown(tmp_path):
    roads = load_roads(
        geojson(tmp_path, "roads.geojson", [line_feature([[0.0, 0.0], [0.001, 0.0]])])
    )
    assert roads[0].road_class == "unknown"


def test_load_roads_skips_malformed_features_with_conservation(tmp_path):
    features = [
        line_feature([[0.0, 0.0], [0.001, 0.0]], **{"class": "primary"}),
        line_feature([[500.0, 0.0], [0.001, 0.0]], **{"class": "primary"}),  # lon > 180
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0, 0]}, "properties": {}},
        line_feature([[0.0, 0.0]], **{"class": "primary"}),  # single vertex
    ]
    stats = LoadStats()
    roads = load_roads(geojson(tmp_path, "roads.geojson", features), stats=stats)
    assert len(roads) == 1
    assert stats.total == 4
    assert stats.loaded + stats.skipped == stats.total
    assert stats.skipped == 3


def test_load_roads_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_roads(tmp_path / "missing.geojson")


@pytest.mark.parametrize("doc", [[], "roads", {"type": "FeatureCollection", "features": 7}])
def test_load_roads_malformed_geojson_shape_is_data_error(tmp_path, doc):
    path = tmp_path / "roads.geojson"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_roads(path)


def test_non_object_features_are_skipped_with_conservation(tmp_path):
    good_road = line_feature([[0.0, 0.0], [0.001, 0.0]])
    good_building = polygon_feature([tiny_square(0.0, 0.0)])
    bad = [1, "x", None, [], {"type": "Feature", "geometry": [1], "properties": {}}]
    bad.append({"type": "Feature", "geometry": good_road["geometry"], "properties": [1]})
    stats = LoadStats()
    roads = load_roads(geojson(tmp_path, "r.geojson", bad + [good_road]), stats=stats)
    assert len(roads) == 1
    assert (stats.total, stats.loaded, stats.skipped) == (7, 1, 6)
    stats = LoadStats()
    buildings = load_buildings(geojson(tmp_path, "b.geojson", bad + [good_building]), stats=stats)
    assert len(buildings) == 1
    assert (stats.total, stats.loaded, stats.skipped) == (7, 1, 6)
    boundary = polygon_feature([tiny_square(0.0, 0.0, d=0.01)])
    assert load_boundary(geojson(tmp_path, "a.geojson", bad + [boundary])).polygon


@pytest.mark.parametrize(
    "bad",
    ["12", [True, 45.0], [0.001, "45"], [0.001], [10**400, 0.0]],
    ids=["string", "bool", "string-member", "one-element", "huge-int"],
)
def test_positions_must_hold_two_numbers(tmp_path, bad):
    # float() would read "12" as (1, 2) and True as 1
    good_road = line_feature([[0.0, 0.0], [0.001, 0.0]])
    stats = LoadStats()
    roads = load_roads(
        geojson(tmp_path, "r.geojson", [good_road, line_feature([[0.0, 0.001], bad])]), stats=stats
    )
    assert len(roads) == 1
    assert (stats.total, stats.loaded, stats.skipped) == (2, 1, 1)

    ring = tiny_square(0.001, 0.0)
    middle = ring[:2] + [bad] + ring[3:]
    good_building = polygon_feature([tiny_square(0.0, 0.0)])
    stats = LoadStats()
    buildings = load_buildings(
        geojson(tmp_path, "b.geojson", [good_building, polygon_feature([middle])]), stats=stats
    )
    assert len(buildings) == 1
    assert (stats.total, stats.loaded, stats.skipped) == (2, 1, 1)


def test_closing_position_must_be_numbers_even_when_equal_to_the_first(tmp_path):
    ring = [[1, 0.0], [1.0001, 0.0], [1.0001, 0.0001], [1, 0.0001], [True, 0.0]]
    assert ring[-1] == ring[0]
    stats = LoadStats()
    assert load_buildings(geojson(tmp_path, "b.geojson", [polygon_feature([ring])]), stats=stats) == []
    assert (stats.total, stats.loaded, stats.skipped) == (1, 0, 1)
    ring[-1] = [1.0, 0]
    (building,) = load_buildings(geojson(tmp_path, "b.geojson", [polygon_feature([ring])]))
    assert building.footprint.exterior[0] is building.footprint.exterior[-1]


def test_filter_motorable_class_list():
    def mk(cls):
        return RoadSegment(0, Polyline([PlanePoint(0, 0), PlanePoint(1, 0)]), cls)

    assert filter_motorable([mk("footway")]) == []
    assert len(filter_motorable([mk("trunk")])) == 1
    assert len(filter_motorable([mk("unknown")])) == 1
    assert MOTORABLE_CLASSES == {
        "living_street",
        "motorway",
        "primary",
        "residential",
        "secondary",
        "service",
        "tertiary",
        "trunk",
        "unclassified",
        "unknown",
    }


def test_filter_motorable_idempotent():
    rng = random.Random(1)
    classes = ["footway", "path", "trunk", "service", "cycleway", "unknown", "primary"]
    roads = [
        RoadSegment(i, Polyline([PlanePoint(0, 0), PlanePoint(1, 0)]), rng.choice(classes))
        for i in range(200)
    ]
    once = filter_motorable(roads)
    assert filter_motorable(once) == once


def polygon_feature(rings, **props):
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": rings},
        "properties": props,
    }


def tiny_square(lon, lat, d=0.0001):
    return [[lon, lat], [lon + d, lat], [lon + d, lat + d], [lon, lat + d], [lon, lat]]


def test_load_buildings_geojson(tmp_path):
    features = [
        polygon_feature([tiny_square(0.0, 0.0)]),
        polygon_feature([tiny_square(0.01, 0.0)]),
        polygon_feature([tiny_square(0.02, 0.0)]),
    ]
    buildings = load_buildings(geojson(tmp_path, "b.geojson", features))
    assert [b.building_id for b in buildings] == [0, 1, 2]
    for b in buildings:
        assert point_in_polygon(b.centroid, b.footprint)


def test_load_buildings_confidence_filter(tmp_path):
    features = [
        polygon_feature([tiny_square(0.0, 0.0)], confidence=0.6),
        polygon_feature([tiny_square(0.01, 0.0)], confidence=0.8),
    ]
    path = geojson(tmp_path, "b.geojson", features)
    assert len(load_buildings(path)) == 2
    kept = load_buildings(path, min_confidence=0.7)
    assert len(kept) == 1
    assert kept[0].confidence == 0.8


def test_load_buildings_splits_multipolygon(tmp_path):
    feature = {
        "type": "Feature",
        "geometry": {
            "type": "MultiPolygon",
            "coordinates": [[tiny_square(0.0, 0.0)], [tiny_square(0.01, 0.0)]],
        },
        "properties": {},
    }
    buildings = load_buildings(geojson(tmp_path, "b.geojson", [feature]))
    assert len(buildings) == 2
    assert [b.building_id for b in buildings] == [0, 1]


def test_load_buildings_csv_with_wkt(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text(
        "confidence,geometry\n"
        '0.9,"POLYGON ((0 0, 0.0001 0, 0.0001 0.0001, 0 0.0001, 0 0))"\n'
        '0.8,"MULTIPOLYGON (((0.01 0, 0.0101 0, 0.0101 0.0001, 0.01 0.0001, 0.01 0)))"\n'
        '0.7,"LINESTRING (0 0, 1 1)"\n'
    )
    stats = LoadStats()
    buildings = load_buildings(path, stats=stats)
    assert len(buildings) == 2
    assert buildings[0].confidence == 0.9
    assert stats.total == 3 and stats.skipped == 1


def test_load_boundary(tmp_path):
    path = geojson(tmp_path, "boundary.geojson", [polygon_feature([tiny_square(0.0, 0.0, d=0.01)])])
    boundary = load_boundary(path)
    assert boundary.polygon.bounds()[0] < boundary.polygon.bounds()[2]


def test_load_boundary_zero_area_is_data_error(tmp_path):
    # points on the equator stay exactly collinear after projection
    degenerate = [[0.0, 0.0], [0.001, 0.0], [0.002, 0.0], [0.0, 0.0]]
    path = geojson(tmp_path, "boundary.geojson", [polygon_feature([degenerate])])
    with pytest.raises(DataError):
        load_boundary(path)


def plane_square(x0, y0, size):
    return Polygon(
        [
            PlanePoint(x0, y0),
            PlanePoint(x0 + size, y0),
            PlanePoint(x0 + size, y0 + size),
            PlanePoint(x0, y0 + size),
        ]
    )


def plane_building(building_id, x0, y0, size=10.0):
    return Building.from_footprint(building_id, plane_square(x0, y0, size))


def plane_road(road_id, x0, y0, x1, y1):
    return RoadSegment(road_id, Polyline([PlanePoint(x0, y0), PlanePoint(x1, y1)]), "residential")


def test_clip_to_boundary_rules():
    boundary = Boundary(plane_square(0, 0, 1000))
    inside = plane_building(0, 100, 100)
    outside = plane_building(1, 2000, 2000)
    road_inside = plane_road(0, 100, 500, 900, 500)
    road_near = plane_road(1, 1300, 0, 1300, 100)  # 300 m outside
    road_far = plane_road(2, 1600, 0, 1600, 100)  # 600 m outside
    buildings, roads = clip_to_boundary(
        [inside, outside], [road_inside, road_near, road_far], boundary
    )
    assert [b.building_id for b in buildings] == [0]
    assert [r.road_id for r in roads] == [0, 1]
    for b in buildings:
        assert point_in_polygon(b.centroid, boundary.polygon)


def validation_csv(tmp_path, rows):
    path = tmp_path / "validations.csv"
    path.write_text("cell_i,cell_j,validator_id,level\n" + "".join(r + "\n" for r in rows))
    return path


def test_load_validations_basic(tmp_path):
    records = load_validations(
        validation_csv(tmp_path, ["0,0,alice,low", "0,0,bob,medium", "1,2,carol,high"])
    )
    assert len(records) == 3
    assert {r.cell for r in records} == {CellId(0, 0), CellId(1, 2)}


def test_load_validations_case_folds_level(tmp_path):
    records = load_validations(validation_csv(tmp_path, ["0,0,alice,High"]))
    assert records[0].level is DeprivationLevel.HIGH


def test_load_validations_rejects_unknown_level_with_line_numbers(tmp_path):
    stats = LoadStats()
    records = load_validations(
        validation_csv(tmp_path, ["0,0,alice,low", "0,1,bob,severe", "x,2,carol,high"]),
        stats=stats,
    )
    assert len(records) == 1
    assert stats.rejected_lines == [3, 4]  # header is line 1
    assert stats.total == 3 and stats.loaded == 1 and stats.skipped == 2


def test_load_validations_duplicate_vote_keeps_last(tmp_path):
    records = load_validations(
        validation_csv(tmp_path, ["0,0,alice,low", "0,0,alice,high"])
    )
    assert len(records) == 1
    assert records[0].level is DeprivationLevel.HIGH


def test_load_validations_missing_column_is_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("cell_i,validator_id,level\n0,a,low\n")
    with pytest.raises(DataError):
        load_validations(path)
