import csv
import json
import math
import random
import tracemalloc

import pytest

from roadaccess import ingest
from roadaccess.cli import main
from roadaccess.errors import DataError
from roadaccess.geometry import PlanePoint, close_flat, flat_bounds, point_in_rings
from roadaccess.grid import CellId
from roadaccess.ingest import (
    MOTORABLE_CLASSES,
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
from roadaccess.projection import project_lonlat
from roadaccess.synth import SceneSpec, generate

from _scenes import building_table, make_building, polygon, reference_polygon


def geojson(tmp_path, name, features):
    path = tmp_path / name
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return path


def is_closed_rings(rings):
    """A polygon as load_boundary gives it: a tuple of closed tuple rings."""
    return type(rings) is tuple and all(type(r) is tuple and r[:2] == r[-2:] for r in rings)


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


def test_load_roads_drops_repeated_consecutive_vertices(tmp_path):
    a, b, c = [0.0, 0.0], [0.001, 0.0], [0.001, 0.002]
    features = [
        line_feature([a, a, b, b, b, c, a], **{"class": "primary"}),
        line_feature([b, b], **{"class": "primary"}),  # one distinct vertex
        {
            "type": "Feature",  # one bad part skips the whole feature
            "geometry": {"type": "MultiLineString", "coordinates": [[a, c], [c, c, c]]},
            "properties": {},
        },
    ]
    stats = LoadStats()
    roads = load_roads(geojson(tmp_path, "roads.geojson", features), stats=stats)
    assert [r.geometry for r in roads] == [
        (*project_lonlat(*a), *project_lonlat(*b), *project_lonlat(*c), *project_lonlat(*a))
    ]
    assert stats.as_dict() == {"total": 3, "loaded": 1, "skipped": 2, "records": 1}


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
    assert is_closed_rings(load_boundary(geojson(tmp_path, "a.geojson", bad + [boundary])))


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
    assert len(load_buildings(geojson(tmp_path, "b.geojson", [polygon_feature([ring])]), stats=stats)) == 0
    assert (stats.total, stats.loaded, stats.skipped) == (1, 0, 1)
    ring[-1] = [1.0, 0]
    table = load_buildings(geojson(tmp_path, "b.geojson", [polygon_feature([ring])]))
    assert len(table) == 1
    # the stored closing vertex is the first, bit for bit
    assert list(table.first_rings) == [0, 1]
    ext = table.coords[table.ring_ends[0] : table.ring_ends[1]]
    assert ext[0].hex() == ext[-2].hex() and ext[1].hex() == ext[-1].hex()


def _two_step_project_ring(coords):
    # the ring step _project_rings once called per ring, kept to check it against
    flat = ingest._project_positions(coords[:-1])
    last = coords[-1]
    if flat and last == coords[0]:
        ingest._lonlat(last)
        flat += flat[:2]
    else:
        flat += project_lonlat(*ingest._lonlat(last))
    return flat


def _two_step_project_rings(rings):
    if not rings:
        raise ValueError("polygon without rings")
    flats = [_two_step_project_ring(r) for r in rings]
    for flat in flats:
        close_flat(flat)
    return flats


# groups of positions that compare equal: int, float and -0.0 spellings, an
# altitude, and bools, which equal 1 and 0 but are not numbers here
_EQUAL_POSITIONS = [
    [[0, 0], [0.0, 0.0], [-0.0, 0], [0, -0.0, 3]],
    [[1, 0], [1.0, 0.0], [True, 0], [1, False]],
    [[1.0001, 0], [1.0001, 0.0, 9.5]],
    [[1.0001, 0.0001]],
    [[0, 0.0001], [-0.0, 0.0001]],
]
_BAD_POSITIONS = [["1", 0], "12", [0.5], [], [200.0, 0.0], [0.0, float("nan")], None, [10**400, 0]]


def _random_ring(rng):
    if rng.random() < 0.03:
        return rng.choice([7, "ab", None, []])
    groups = [rng.randrange(len(_EQUAL_POSITIONS)) for _ in range(rng.randint(1, 5))]
    ring = [rng.choice(_BAD_POSITIONS) if rng.random() < 0.05 else rng.choice(_EQUAL_POSITIONS[g]) for g in groups]
    for p in (0.2, 0.6):  # a next-to-last position, then a last, that equal the first
        if rng.random() < p:
            ring.append(rng.choice(_EQUAL_POSITIONS[groups[0]]))
    return ring


def _ring_outcome(project, rings):
    try:
        return [[v.hex() for v in flat] for flat in project(rings)]
    except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:  # what the loaders skip
        return type(exc), str(exc)


def test_project_rings_matches_the_two_step_ring_projection():
    # coordinates bit for bit, and the same exception first where several rings are bad
    rng = random.Random(25)
    for _ in range(20_000):
        rings = [_random_ring(rng) for _ in range(rng.choice([0, 1, 1, 2, 2, 3]))]
        assert _ring_outcome(ingest._project_rings, rings) == _ring_outcome(_two_step_project_rings, rings), rings


def test_filter_motorable_class_list():
    def mk(cls):
        return RoadSegment(0, (0.0, 0.0, 1.0, 0.0), cls)

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
        RoadSegment(i, (0.0, 0.0, 1.0, 0.0), rng.choice(classes))
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
        assert point_in_rings(b.centroid.x, b.centroid.y, b.footprint)


def test_load_buildings_confidence_filter(tmp_path):
    features = [
        polygon_feature([tiny_square(0.0, 0.0)], confidence=0.6),
        polygon_feature([tiny_square(0.01, 0.0)], confidence=0.8),
    ]
    path = geojson(tmp_path, "b.geojson", features)
    assert len(load_buildings(path)) == 2
    kept = load_buildings(path, min_confidence=0.7)
    assert len(kept) == 1
    assert kept[0].footprint == load_buildings(path)[1].footprint  # the 0.8 one


def _confidence_file(tmp_path, source, confidences):
    """Buildings, one square each, carrying the confidences given (None: no
    confidence): as GeoJSON numbers, GeoJSON numeric strings, or CSV fields
    padded with spaces."""
    squares = [tiny_square(0.01 * k, 0.0) for k in range(len(confidences))]
    if source == "csv":
        lines = ["confidence,geometry"]
        for c, ring in zip(confidences, squares):
            field = "" if c is None else f" {c!r} "
            lines.append(f'{field},"POLYGON {_wkt_rings([ring])}"')
        path = tmp_path / "b.csv"
        path.write_text("\n".join(lines) + "\n")
        return path
    features = [
        polygon_feature([ring], **({} if c is None else {"confidence": repr(c) if source == "string" else c}))
        for c, ring in zip(confidences, squares)
    ]
    return geojson(tmp_path, "b.geojson", features)


@pytest.mark.parametrize("source", ["number", "string", "csv"])
@pytest.mark.parametrize("min_confidence", [0.7, 0.95, 1.0])
def test_confidence_filter_keeps_the_equal_and_drops_the_next_lower(tmp_path, source, min_confidence):
    below = math.nextafter(min_confidence, 0.0)
    path = _confidence_file(tmp_path, source, [min_confidence, below, None])
    every = load_buildings(path)
    assert len(every) == 3
    kept = load_buildings(path, min_confidence=min_confidence)
    # the building without a confidence is kept at any min_confidence
    assert [b.footprint for b in kept] == [every[0].footprint, every[2].footprint]
    assert len(load_buildings(path, min_confidence=below)) == 3


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
    # 0.9 passes a min_confidence of 0.9 and 0.8 does not
    assert [b.footprint for b in load_buildings(path, min_confidence=0.9)] == [buildings[0].footprint]
    assert stats.total == 3 and stats.skipped == 1


def test_bad_wkt_footprint_is_logged_with_the_parsers_message(tmp_path, capsys):
    rows = [
        ("CIRCLE (1 2)", "", "unsupported WKT geometry: 'CIRCLE (1 2)'"),
        ("POLYGON ((0 0, abc 0, 0.0001 0.0001, 0 0))", "", "could not convert string to float: 'abc'"),
        (
            "POLYGON (0 0, 0.0001 0, 0.0001 0.0001, 0 0",
            "",
            "unbalanced parentheses in WKT geometry: 'POLYGON (0 0, 0.0001 0, 0.0001'",
        ),
        # one ')' short, and one too many
        (
            "POLYGON ((0 0, 0.0001 0, 0.0001 0.0001, 0 0)",
            "",
            "unbalanced parentheses in WKT geometry: 'POLYGON ((0 0, 0.0001 0, 0.000'",
        ),
        (
            "POLYGON ((0 0, 0.0001 0, 0.0001 0.0001, 0 0))) junk",
            "",
            "unbalanced parentheses in WKT geometry: 'POLYGON ((0 0, 0.0001 0, 0.000'",
        ),
        # text after the coordinates, an empty ring, and a nesting level missing
        (
            "POLYGON ((0 0, 0.0001 0, 0.0001 0.0001, 0 0)) junk",
            "",
            "malformed WKT geometry: 'POLYGON ((0 0, 0.0001 0, 0.000'",
        ),
        (
            "POLYGON ((0 0, 0.0001 0, 0.0001 0.0001, 0 0), )",
            "",
            "malformed WKT geometry: 'POLYGON ((0 0, 0.0001 0, 0.000'",
        ),
        (
            "MULTIPOLYGON ((0 0, 0.0001 0, 0.0001 0.0001, 0 0))",
            "",
            "malformed WKT geometry: 'MULTIPOLYGON ((0 0, 0.0001 0, '",
        ),
        ("POLYGON ((0 0, 0.0001, 0.0001 0.0001, 0 0))", "", "WKT position needs two numbers, got '0.0001'"),
        # a tag other than Z, M or ZM, and a number float() reads but WKT does not
        ("POLYGONXYZ ((0 0, 0.0001 0, 0.0001 0.0001, 0 0))", "", "unsupported WKT geometry: 'POLYGONXYZ ((0 0, 0.0001 0, 0.'"),
        (
            "POLYGON EMPTY junk ((0 0, 0.0001 0, 0.0001 0.0001, 0 0))",
            "",
            "unsupported WKT geometry: 'POLYGON EMPTY junk ((0 0, 0.00'",
        ),
        ("POLYGON ((0 0, 1_0 0, 0.0001 0.0001, 0 0))", "", "could not convert string to float: '1_0'"),
        # loaded: a ZM tag, and a row filtered by its confidence before its
        # WKT is read, counted as a valid row would be
        ("POLYGON ZM ((0 0 1 2, 0.0001 0 1 2, 0.0001 0.0001 1 2, 0 0 1 2))", "", None),
        ("CIRCLE (1 2)", "0.1", None),
    ]
    path = tmp_path / "b.csv"
    path.write_text("geometry,confidence\n" + "".join(f'"{wkt}",{conf}\n' for wkt, conf, _ in rows))
    capsys.readouterr()
    stats = LoadStats()
    assert len(load_buildings(path, min_confidence=0.5, stats=stats)) == 1
    assert (stats.total, stats.loaded, stats.skipped) == (len(rows), 2, len(rows) - 2)
    assert capsys.readouterr().err.splitlines() == [
        f"WARNING roadaccess.ingest: skipping building feature {n} in {path}: {message}"
        for n, (_, _, message) in enumerate(rows[:-2])
    ]


def test_wkt_keeps_the_first_two_numbers_of_each_position_however_spaced():
    assert ingest.parse_wkt_polygons("POLYGON Z ((0 0 5, 1 0 5, 1 1 5, 0 0 5))") == [
        [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]]
    ]
    holed = "MULTIPOLYGON(((0 0,1 0,1 1,0 0)),((2 2,3 2,3 3,2 2),( 2.1 2.1 , 2.2 2.1,2.2 2.2,2.1 2.1 )))"
    assert ingest.parse_wkt_polygons(holed) == [
        [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]],
        [[[2.0, 2.0], [3.0, 2.0], [3.0, 3.0], [2.0, 2.0]], [[2.1, 2.1], [2.2, 2.1], [2.2, 2.2], [2.1, 2.1]]],
    ]


def test_non_finite_or_boolean_confidence_is_malformed(tmp_path):
    # none of these may load: each would pass (or dodge) min_confidence
    bad = ["nan", "inf", "-Infinity", True, False, float("nan"), float("inf")]
    good = [0.95, "0.97", 1]
    features = [
        polygon_feature([tiny_square(0.01 * k, 0.0)], confidence=c)
        for k, c in enumerate(bad + good)
    ]
    path = tmp_path / "b.geojson"
    # json.dumps writes float nan and inf as NaN and Infinity, which json.load reads back
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    stats = LoadStats()
    kept = load_buildings(path, min_confidence=0.9, stats=stats)
    good_only = load_buildings(geojson(tmp_path, "good.geojson", features[len(bad):]))
    assert [b.footprint for b in kept] == [b.footprint for b in good_only]
    # read as 0.95, 0.97 and 1.0
    assert [len(load_buildings(path, min_confidence=m)) for m in (0.95, 0.97, 1.0)] == [3, 2, 1]
    assert len(load_buildings(path, min_confidence=math.nextafter(1.0, 2.0))) == 0
    assert (stats.total, stats.loaded, stats.skipped) == (10, 3, 7)


def test_non_finite_csv_confidence_is_malformed(tmp_path):
    square = '"POLYGON ((0 0, 0.0001 0, 0.0001 0.0001, 0 0.0001, 0 0))"'
    path = tmp_path / "b.csv"
    path.write_text(
        "confidence,geometry\n"
        + "".join(f"{c},{square}\n" for c in ("nan", "inf", "-inf", "NaN", " 0.95 ", ""))
    )
    stats = LoadStats()
    kept = load_buildings(path, min_confidence=0.9, stats=stats)
    assert len(kept) == 2
    # " 0.95 " is read as 0.95; the blank one carries none and is always kept
    assert [len(load_buildings(path, min_confidence=m)) for m in (0.95, math.nextafter(0.95, 1.0))] == [2, 1]
    assert (stats.total, stats.loaded, stats.skipped) == (6, 2, 4)


def test_buildings_csv_footprint_of_any_size_loads_as_from_geojson(tmp_path):
    # 6,000 vertices: the WKT field is longer than the csv module's default limit
    ring = [
        [36.8 + 0.001 * math.cos(t), -1.28 + 0.001 * math.sin(t)]
        for t in (k * math.tau / 6000 for k in range(6000))
    ]
    ring.append(ring[0])
    wkt = "POLYGON ((" + ", ".join(f"{lon!r} {lat!r}" for lon, lat in ring) + "))"
    assert len(wkt) > csv.field_size_limit()
    csv_path = tmp_path / "b.csv"
    csv_path.write_text(f'geometry,confidence\n"{wkt}",0.9\n')
    from_csv = load_buildings(csv_path)
    from_geojson = load_buildings(geojson(tmp_path, "b.geojson", [polygon_feature([ring], confidence=0.9)]))
    assert len(from_csv) == 1 and list(from_csv) == list(from_geojson)
    assert csv.field_size_limit() == 131_072  # put back once the rows are read


def test_load_boundary(tmp_path):
    path = geojson(tmp_path, "boundary.geojson", [polygon_feature([tiny_square(0.0, 0.0, d=0.01)])])
    boundary = load_boundary(path)
    assert is_closed_rings(boundary) and len(boundary) == 1
    x0, _, x1, _ = flat_bounds(boundary[0])
    assert x0 < x1


def test_one_part_multipolygon_boundary_loads_as_its_polygon(tmp_path):
    rings = [tiny_square(0.0, 0.0, d=0.01), tiny_square(0.004, 0.004, d=0.002)]
    multi = {"type": "Feature", "geometry": {"type": "MultiPolygon", "coordinates": [rings]}, "properties": {}}
    boundary = load_boundary(geojson(tmp_path, "multi.geojson", [multi]))
    assert boundary == load_boundary(geojson(tmp_path, "one.geojson", [polygon_feature(rings)]))
    assert len(boundary) == 2


def test_multipart_boundary_is_named_in_its_data_error(tmp_path):
    parts = [[tiny_square(0.0, 0.0, d=0.01)], [tiny_square(0.02, 0.0, d=0.01)]]
    multi = {"type": "Feature", "geometry": {"type": "MultiPolygon", "coordinates": parts}, "properties": {}}
    path = geojson(tmp_path, "boundary.geojson", [multi])
    with pytest.raises(DataError, match=r"boundary MultiPolygon has 2 parts; one polygon is required") as err:
        load_boundary(path)
    assert err.value.exit_code == 3 and str(path) in str(err.value)
    # a polygon after it is still the boundary, as before
    one = polygon_feature(parts[0])
    then_one = geojson(tmp_path, "then_one.geojson", [multi, one])
    assert load_boundary(then_one) == load_boundary(geojson(tmp_path, "one.geojson", [one]))


def test_load_boundary_zero_area_is_data_error(tmp_path):
    # points on the equator stay exactly collinear after projection
    degenerate = [[0.0, 0.0], [0.001, 0.0], [0.002, 0.0], [0.0, 0.0]]
    path = geojson(tmp_path, "boundary.geojson", [polygon_feature([degenerate])])
    with pytest.raises(DataError):
        load_boundary(path)


def _building_rows(buildings):
    return [(b.building_id, b.footprint, b.centroid) for b in buildings]


@pytest.mark.parametrize("sort_keys", [True, False], ids=["features-first", "type-first"])
def test_truncated_buildings_file_never_loads_fewer_buildings(tmp_path, sort_keys):
    multi = {
        "type": "Feature",
        "geometry": {"type": "MultiPolygon", "coordinates": [[tiny_square(0.001, 0.0)], [tiny_square(0.002, 0.0)]]},
        "properties": {"name": "caf\u00e9"},
    }
    features = [polygon_feature([tiny_square(0.0, 0.0)], confidence=0.9), multi, polygon_feature([tiny_square(0.0, 0.001)])]
    doc = {"type": "FeatureCollection", "name": "Kibera", "features": features}
    data = (json.dumps(doc, indent=1, sort_keys=sort_keys, ensure_ascii=False) + " \n\t\n").encode()
    path = tmp_path / "b.geojson"
    path.write_bytes(data)
    full = _building_rows(load_buildings(path))
    assert len(full) == 4
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        stats = LoadStats()
        try:
            got = load_buildings(path, stats=stats)
        except DataError:
            continue
        assert data[cut:].strip() == b"", cut  # only trailing blank text was cut
        assert _building_rows(got) == full
        assert stats.total == 3


def test_load_buildings_transient_memory_stays_near_the_file_size(tmp_path):
    # The file is decoded from fixed-size blocks and its features one at a
    # time, so what loading holds besides the table it returns does not
    # grow with the file: the same bound holds at 2,000 and 8,000 features,
    # and the whole text of the smaller file would already exceed it.
    bound = 5 * ingest._BLOCK_BYTES
    for n in (2000, 8000):
        rng = random.Random(5)
        features = [
            polygon_feature([tiny_square(rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05))], confidence=0.8)
            for _ in range(n)
        ]
        path = geojson(tmp_path, f"b{n}.geojson", features)
        assert path.stat().st_size > bound
        tracemalloc.start()
        try:
            buildings = load_buildings(path)
            returned, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(buildings) == n
        assert peak - returned <= bound, n


def test_load_buildings_holds_under_200_bytes_per_footprint(tmp_path):
    # Every ring's coordinates are kept as doubles in one array('d') column,
    # with no tuple, array or float object per footprint: with four vertices
    # a building holds its closed ring's 80 bytes of doubles, two offset
    # entries and seven typed column entries, about 152 B before the arrays'
    # spare room. A tuple and an array per footprint (about 282 B) fail.
    n = 2000
    rng = random.Random(5)
    features = [
        polygon_feature([tiny_square(rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05))], confidence=0.8)
        for _ in range(n)
    ]
    path = geojson(tmp_path, "b.geojson", features)
    tracemalloc.start()
    try:
        buildings = load_buildings(path)
        returned, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buildings) == n
    assert returned <= 200 * n, returned / n


def test_clip_keeps_holed_and_multipart_rings_bit_for_bit(tmp_path):
    def holed(lon, lat):
        return [tiny_square(lon, lat, d=0.001), tiny_square(lon + 0.0002, lat + 0.0003, d=0.0004)]

    parts = [holed(0.004, 0.0), [tiny_square(0.006, 0.0)], holed(0.008, 0.001)]
    features = [
        polygon_feature(holed(0.0, 0.0)),  # building 0
        polygon_feature([tiny_square(0.002, 0.0)]),  # 1
        {"type": "Feature", "geometry": {"type": "MultiPolygon", "coordinates": parts}, "properties": {}},  # 2, 3, 4
        polygon_feature(holed(0.010, 0.0)),  # 5
        polygon_feature([tiny_square(0.012, 0.0)]),  # 6
        polygon_feature(holed(0.014, 0.0)),  # 7
    ]
    path = geojson(tmp_path, "b.geojson", features)
    whole = load_buildings(path)
    keep = [0, 2, 4, 6, 7]
    # one boundary around every footprint, with a hole around each centroid
    # that goes, so rows between holed ones are dropped
    x0, y0, x1, y1 = min(whole.x0s) - 10, min(whole.y0s) - 10, max(whole.x1s) + 10, max(whole.y1s) + 10
    holes = [
        [PlanePoint(whole.xs[k] + dx, whole.ys[k] + dy) for dx, dy in ((-5, -5), (5, -5), (5, 5), (-5, 5))]
        for k in (1, 3, 5)
    ]
    corners = [PlanePoint(x0, y0), PlanePoint(x1, y0), PlanePoint(x1, y1), PlanePoint(x0, y1)]
    table, _ = clip_to_boundary(load_buildings(path), [], polygon(corners, holes))

    def hexed(rings):
        return [[c.hex() for c in ring] for ring in rings]

    assert [b.building_id for b in table] == keep
    assert [hexed(b.footprint) for b in table] == [hexed(whole[k].footprint) for k in keep]
    assert [len(b.footprint) for b in table] == [2, 2, 2, 1, 2]
    # the columns hold the kept rings alone, back to back, in row order
    assert list(table.first_rings) == [0, 2, 4, 6, 7, 9]
    assert table.ring_ends[0] == 0 and table.ring_ends[-1] == len(table.coords)
    assert [c.hex() for c in table.coords] == [
        c.hex() for k in keep for ring in whole[k].footprint for c in ring
    ]


FEATURES_MEMBER_TEXTS = [
    '{"type": "Feature", "features": [], "geometry": null, "properties": {}}',
    '{"features": [], "type": "Polygon", "coordinates": []}',
    '{"features": 1, "type": "Feature", "properties": {}}',
    '{"features": [], "features": [], "type": "FeatureCollection"}',
    '{"features": 1, "type": "FeatureCollection", "features": []}',
]


@pytest.mark.parametrize(
    "text",
    FEATURES_MEMBER_TEXTS,
    ids=["in-feature", "in-geometry", "non-list-in-feature", "twice", "twice-first-not-a-list"],
)
def test_features_outside_a_collection_or_twice_is_data_error(tmp_path, text):
    # features already yielded cannot be taken back, so both are rejected
    path = tmp_path / "doc.geojson"
    path.write_text(text)
    for loader in (load_roads, load_buildings, load_boundary):
        with pytest.raises(DataError, match="'features' member"):
            loader(path)


BOUNDARY_TAILS = ["] x", '], "type": "FeatureCollection"} {}', ', {"type": "Feat', ", 1 2]}", "]"]


@pytest.mark.parametrize(
    "tail",
    BOUNDARY_TAILS,
    ids=["garbage", "second-value", "truncated-feature", "bad-array", "unterminated"],
)
def test_boundary_with_bad_text_after_its_polygon_is_data_error(tmp_path, tail):
    polygon = json.dumps(polygon_feature([tiny_square(0.0, 0.0, d=0.01)]))
    path = tmp_path / "boundary.geojson"
    path.write_text('{"type": "FeatureCollection", "features": [' + polygon + tail)
    with pytest.raises(DataError, match="cannot read GeoJSON"):
        load_boundary(path)
    path.write_text('{"type": "FeatureCollection", "features": [' + polygon + "]}\n")
    assert is_closed_rings(load_boundary(path))


@pytest.mark.parametrize(
    "data, message",
    [
        (
            b'\xef\xbb\xbf{"type": "FeatureCollection", "features": []}',
            "cannot read GeoJSON {path}: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ),
        (b"[] x", "cannot read GeoJSON {path}: Extra data: line 1 column 4 (char 3)"),
        (b"[]", "{path}: GeoJSON top level is not an object"),
        (b"{}", "{path}: not a GeoJSON FeatureCollection, Feature, or geometry"),
        (
            # a multi-byte sequence cut short at byte 40: the message a read of the whole file gives
            b'{"type": "FeatureCollection", "name": "a\xe2\x82(", "features": []}',
            "cannot read GeoJSON {path}: 'utf-8' codec can't decode bytes in position 40-41: invalid continuation byte",
        ),
    ],
    ids=["bom", "extra-data", "array", "empty-object", "cut-utf8"],
)
def test_top_level_documents_that_are_not_geojson_exit_3(tmp_path, data, message):
    path = tmp_path / "b.geojson"
    path.write_bytes(data)
    for loader in (load_roads, load_buildings, load_boundary):
        with pytest.raises(DataError) as err:
            loader(path)
        assert str(err.value) == message.format(path=path) and err.value.exit_code == 3


def test_buildings_csv_without_a_geometry_column_is_data_error(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text('confidence,shape\n0.9,"POLYGON ((0 0, 0.0001 0, 0.0001 0.0001, 0 0))"\n')
    with pytest.raises(DataError) as err:
        load_buildings(path)
    assert str(err.value) == f"{path}: no 'geometry' or 'wkt' column" and err.value.exit_code == 3


def test_point_and_ringless_polygon_features_are_skipped_with_their_reason(tmp_path, capsys):
    features = [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [0.0, 0.0]}, "properties": {}},
        polygon_feature([]),
        polygon_feature([tiny_square(0.0, 0.0)]),
    ]
    path = geojson(tmp_path, "b.geojson", features)
    capsys.readouterr()
    stats = LoadStats()
    assert len(load_buildings(path, stats=stats)) == 1
    assert (stats.total, stats.loaded, stats.skipped) == (3, 1, 2)
    assert capsys.readouterr().err.splitlines()[:2] == [
        f"WARNING roadaccess.ingest: skipping building feature 0 in {path}: unsupported geometry type 'Point'",
        f"WARNING roadaccess.ingest: skipping building feature 1 in {path}: polygon without rings",
    ]


def _walk_error_texts():
    """GeoJSON texts that json.loads rejects at the top-level walk, keyed by the fault."""
    one = json.dumps(polygon_feature([tiny_square(0.0, 0.0)]))
    two = json.dumps(polygon_feature([tiny_square(0.01, 0.0)]))
    return {
        "missing-comma": '{"type": "FeatureCollection"\n "features": [' + one + "]}",
        "missing-colon": '{"type": "FeatureCollection", "features" [' + one + "]}",
        "non-string-key": '{"type": "FeatureCollection", 1: 2, "features": [' + one + "]}",
        "bad-feature-separator": '{"type": "FeatureCollection", "features": [' + one + ";\n" + two + "]}",
    }


@pytest.mark.parametrize("block", [1, 7, None], ids=["block-1", "block-7", "default-block"])
@pytest.mark.parametrize("fault", sorted(_walk_error_texts()))
def test_top_level_walk_errors_read_as_json_loads_words_them(tmp_path, monkeypatch, block, fault):
    if block is not None:
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
    text = _walk_error_texts()[fault]
    path = tmp_path / "b.geojson"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as whole:
        json.loads(text)
    with pytest.raises(DataError) as streamed:
        load_buildings(path)
    assert str(streamed.value) == f"cannot read GeoJSON {path}: {whole.value}"


# numbers around int()'s default cap of 4,300 digits (sys.set_int_max_str_digits)
OVER_LONG_NUMBERS = {
    "5000-digit-int": "7" * 5000,
    "5000-digit-float": "7" * 5000 + ".5",
    "5000-digit-exponent": "7" * 5000 + "e2",
    "negative-4301-digit-int": "-" + "9" * 4301,
    "4300-digit-int": "9" * 4300,
}


@pytest.mark.parametrize("block", [1, 7, 4096, 65536, "digits", "digits+1"])
@pytest.mark.parametrize("case", sorted(OVER_LONG_NUMBERS))
def test_an_over_long_integer_fails_as_json_loads_does_holding_no_more_text(tmp_path, monkeypatch, block, case):
    # A number cut off by the end of the text read so far is decoded again
    # with more, as more digits, a '.' or an exponent may follow; an integer
    # that is whole and too long fails at once, and the rest of the file is
    # read without being held. The features after it outweigh the bound.
    number = OVER_LONG_NUMBERS[case]
    head = '{"type": "FeatureCollection", "features": [{"type": "Feature", "properties": {"n": '
    if isinstance(block, str):
        # the first read ends just after the number's sign and digits, or one character later
        block = len(head) + len(number) - len(number.lstrip("-0123456789")) + (block == "digits+1")
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
    bound = 2 * block + 20_000
    geometry = json.dumps(polygon_feature([tiny_square(0.0, 0.0)])["geometry"])
    rest = json.dumps(polygon_feature([tiny_square(0.001, 0.0)]))
    n_rest = 4 * bound // len(rest)
    text = head + number + '}, "geometry": ' + geometry + "}" + f", {rest}" * n_rest + "]}"
    path = tmp_path / "b.geojson"
    path.write_text(text)
    held = []
    more = ingest._BlockText.more

    def recording_more(src):
        more(src)
        held.append(len(src.text))

    monkeypatch.setattr(ingest._BlockText, "more", recording_more)
    try:
        json.loads(text)
    except ValueError as exc:
        with pytest.raises(DataError) as streamed:
            load_buildings(path)
        assert str(streamed.value) == f"cannot read GeoJSON {path}: {exc}"
    else:
        assert len(load_buildings(path)) == 1 + n_rest
    assert len(text) > 2 * bound and max(held) <= bound


@pytest.mark.parametrize("block", [1, 7, None], ids=["block-1", "block-7", "default-block"])
def test_trailing_comma_in_features_or_top_level_object_is_data_error(tmp_path, monkeypatch, block):
    # only that it fails: Python 3.13 words a trailing comma differently from 3.11
    if block is not None:
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
    one = json.dumps(polygon_feature([tiny_square(0.0, 0.0)]))
    path = tmp_path / "b.geojson"
    for text in (
        '{"type": "FeatureCollection", "features": [' + one + ",]}",
        '{"type": "FeatureCollection", "features": [' + one + "],}",
    ):
        path.write_text(text)
        with pytest.raises(DataError, match="cannot read GeoJSON"):
            load_buildings(path)
    path.write_text('{"type": "FeatureCollection", "features": [' + one + "]}")
    assert len(load_buildings(path)) == 1


def test_bare_feature_and_geometry_documents_still_load(tmp_path):
    feature = polygon_feature([tiny_square(0.0, 0.0)])
    for doc in (feature, feature["geometry"]):
        path = tmp_path / "b.geojson"
        path.write_text(json.dumps(doc, sort_keys=True))
        stats = LoadStats()
        assert len(load_buildings(path, stats=stats)) == 1
        assert (stats.total, stats.loaded, stats.skipped) == (1, 1, 0)


def plane_square(x0, y0, size):
    return polygon(
        [
            PlanePoint(x0, y0),
            PlanePoint(x0 + size, y0),
            PlanePoint(x0 + size, y0 + size),
            PlanePoint(x0, y0 + size),
        ]
    )


def plane_building(building_id, x0, y0, size=10.0):
    return make_building(building_id, plane_square(x0, y0, size))


def plane_road(road_id, x0, y0, x1, y1):
    return RoadSegment(road_id, (x0, y0, x1, y1), "residential")


def test_clip_to_boundary_rules():
    boundary = plane_square(0, 0, 1000)
    inside = plane_building(0, 100, 100)
    outside = plane_building(1, 2000, 2000)
    road_inside = plane_road(0, 100, 500, 900, 500)
    road_near = plane_road(1, 1300, 0, 1300, 100)  # 300 m outside
    road_far = plane_road(2, 1600, 0, 1600, 100)  # 600 m outside
    buildings, roads = clip_to_boundary(
        building_table([inside, outside]), [road_inside, road_near, road_far], boundary
    )
    assert [b.building_id for b in buildings] == [0]
    assert [r.road_id for r in roads] == [0, 1]
    for b in buildings:
        assert point_in_rings(b.centroid.x, b.centroid.y, boundary)


def validation_csv(tmp_path, rows):
    path = tmp_path / "validations.csv"
    path.write_text("cell_i,cell_j,validator_id,level\n" + "".join(r + "\n" for r in rows))
    return path


def test_load_validations_basic(tmp_path):
    votes = load_validations(
        validation_csv(tmp_path, ["0,0,alice,low", "0,0,bob,medium", "1,2,carol,high"])
    )
    assert sum(map(len, votes.values())) == 3
    assert set(votes) == {CellId(0, 0), CellId(1, 2)}


def test_load_validations_case_folds_level(tmp_path):
    votes = load_validations(validation_csv(tmp_path, ["0,0,alice,High"]))
    assert votes[CellId(0, 0)][0] is DeprivationLevel.HIGH


def test_load_validations_rejects_unknown_level_with_line_numbers(tmp_path):
    stats = LoadStats()
    votes = load_validations(
        validation_csv(tmp_path, ["0,0,alice,low", "0,1,bob,severe", "x,2,carol,high"]),
        stats=stats,
    )
    assert sum(map(len, votes.values())) == 1
    assert stats.rejected_lines == [3, 4]  # header is line 1
    assert stats.total == 3 and stats.loaded == 1 and stats.skipped == 2


def test_load_validations_duplicate_vote_keeps_last(tmp_path):
    votes = load_validations(
        validation_csv(tmp_path, ["0,0,alice,low", "0,0,alice,high"])
    )
    assert sum(map(len, votes.values())) == 1
    assert votes[CellId(0, 0)][0] is DeprivationLevel.HIGH


def test_load_validations_rejects_blank_or_missing_validator(tmp_path):
    # blank ids would otherwise merge into one person's vote
    stats = LoadStats()
    votes = load_validations(
        validation_csv(tmp_path, ["0,0,,low", "0,0,,high", "0,0, ,medium", "0,0,alice,low"]),
        stats=stats,
    )
    assert votes == {CellId(0, 0): [DeprivationLevel.LOW]}  # alice's
    assert stats.rejected_lines == [2, 3, 4]
    assert (stats.total, stats.loaded, stats.skipped, stats.records) == (4, 1, 3, 1)
    # a short row without its last column, here the validator id
    path = tmp_path / "short.csv"
    path.write_text("cell_i,cell_j,level,validator_id\n0,0,low\n1,0,high,bob\n")
    stats = LoadStats()
    votes = load_validations(path, stats=stats)
    assert votes == {CellId(1, 0): [DeprivationLevel.HIGH]}  # bob's
    assert stats.rejected_lines == [2]


def test_load_validations_groups_votes_as_a_brute_force_does(tmp_path):
    rng = random.Random(24)
    labels = {"low": DeprivationLevel.LOW, "medium": DeprivationLevel.MEDIUM, "high": DeprivationLevel.HIGH}
    for trial in range(40):
        # repeated validators, rows that are rejected, cells in no order
        rows = [
            (
                rng.choice(["-1", "0", "2", "3", "x"]),
                rng.choice(["0", "1", "4"]),
                rng.choice(["a", "b", " c ", "c", "", "d"]),
                rng.choice(["low", "Medium", "HIGH", "severe"]),
            )
            for _ in range(rng.randint(0, 30))
        ]
        path = validation_csv(tmp_path, [",".join(row) for row in rows])
        stats = LoadStats()
        votes = load_validations(path, stats=stats)
        valid = [
            ((int(i), int(j), validator.strip()), labels[label.lower()])
            for i, j, validator, label in rows
            if i != "x" and validator.strip() and label.lower() in labels
        ]
        # each (cell, validator) in the order first seen, with its last row's level
        voters = [key for n, (key, _) in enumerate(valid) if key not in [k for k, _ in valid[:n]]]
        kept = [(key, [level for k, level in valid if k == key][-1]) for key in voters]
        want = {
            CellId(*cell): [level for (i, j, _), level in kept if (i, j) == cell]
            for cell in sorted({(i, j) for (i, j, _), _ in kept})
        }
        assert list(votes.items()) == list(want.items())
        assert stats.records == len(kept) == sum(map(len, votes.values()))
        assert stats.loaded + stats.skipped == stats.total == len(rows)


def test_load_validations_undecodable_file_is_data_error(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_bytes(b"cell_i,cell_j,validator_id,level\n0,0,\xff,low\n")
    with pytest.raises(DataError, match="cannot read validations CSV"):
        load_validations(path)


def test_load_validations_missing_column_is_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("cell_i,validator_id,level\n0,a,low\n")
    with pytest.raises(DataError):
        load_validations(path)


def test_byte_order_mark_is_skipped_in_validation_and_building_csvs(tmp_path):
    # spreadsheet exports start with one; the header's first name must still match
    votes = "cell_i,cell_j,validator_id,level\n0,0,alice,low\n1,2,bob,High\nx,0,carol,low\n"
    footprints = (
        "geometry,confidence\n"
        '"POLYGON ((0 0, 0.0001 0, 0.0001 0.0001, 0 0.0001, 0 0))",0.9\n'
        '"LINESTRING (0 0, 1 1)",0.8\n'
    )
    for name, text, load in (
        ("votes.csv", votes, lambda path, stats: list(load_validations(path, stats=stats).items())),
        ("buildings.csv", footprints, lambda path, stats: list(load_buildings(path, stats=stats))),
    ):
        loaded = []
        for prefix in ("", "\ufeff"):
            path = tmp_path / f"{len(prefix)}{name}"
            path.write_text(prefix + text, encoding="utf-8")
            stats = LoadStats()
            loaded.append((load(path, stats), stats.as_dict()))
        assert loaded[1] == loaded[0]
        assert loaded[0][0] and loaded[0][1]["skipped"] == 1


def test_byte_order_mark_is_skipped_in_the_cells_csv_evaluate_reads(tmp_path):
    # a spreadsheet that re-saves the run's cells.csv puts one in front of "i"
    files = generate(SceneSpec(seed=21, layout="formal_grid", extent=400), tmp_path)
    votes = tmp_path / "votes.csv"
    votes.write_text("cell_i,cell_j,validator_id,level\n0,0,a,low\n0,0,b,low\n1,0,a,high\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **{name: str(getattr(files, name)) for name in ("buildings", "roads", "boundary")},
        "output_dir": str(tmp_path / "out"),
        "validations": str(votes),
    }))
    assert main(["run", "--config", str(config)]) == 0
    cells_csv = tmp_path / "out" / "cells.csv"
    plain = cells_csv.read_bytes()
    reports = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        cells_csv.write_bytes(prefix + plain)
        assert main(["evaluate", "--config", str(config)]) == 0
        reports.append((tmp_path / "out" / "evaluation.json").read_bytes())
    assert reports[1] == reports[0]
    assert json.loads(reports[0])["matched_cells"] == 2


@pytest.mark.parametrize("block", [1, 7])
def test_reader_cases_hold_at_tiny_blocks(tmp_path, monkeypatch, block):
    # every value and token then spans reads, and is decoded again with more text
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
    for sort_keys in (True, False):
        directory = tmp_path / f"truncated-{sort_keys}"
        directory.mkdir()
        test_truncated_buildings_file_never_loads_fewer_buildings(directory, sort_keys)
    for k, text in enumerate(FEATURES_MEMBER_TEXTS):
        directory = tmp_path / f"features-{k}"
        directory.mkdir()
        test_features_outside_a_collection_or_twice_is_data_error(directory, text)
    for k, tail in enumerate(BOUNDARY_TAILS):
        directory = tmp_path / f"tail-{k}"
        directory.mkdir()
        test_boundary_with_bad_text_after_its_polygon_is_data_error(directory, tail)
    test_bare_feature_and_geometry_documents_still_load(tmp_path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_malformed_feature_after_the_first_block_reports_its_file_position(tmp_path, monkeypatch, newline):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 256)
    features = [polygon_feature([tiny_square(0.001 * k, 0.0)], name="caf\u00e9") for k in range(40)]
    text = json.dumps({"type": "FeatureCollection", "features": features}, indent=2, ensure_ascii=False)
    at = text.index('"Polygon"', len(text) * 3 // 4)
    for bad in (
        text[:at] + '"Polygon" ' + text[at + len('"Polygon",') :],  # a missing comma
        text[:at] + '"Poly\x01gon"' + text[at + len('"Polygon"') :],  # a control character
        text[:at] + "tru" + text[at + len('"Polygon"') :],  # a bad literal
        text[: at + 4],  # cut inside a string
    ):
        path = tmp_path / "b.geojson"
        path.write_bytes(bad.replace("\n", newline).encode())
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(path.read_text(encoding="utf-8"))
        assert "line 1 " not in str(whole.value)
        with pytest.raises(DataError) as streamed:
            load_buildings(path)
        assert str(streamed.value) == f"cannot read GeoJSON {path}: {whole.value}"


def test_a_feature_many_blocks_long_loads(tmp_path, monkeypatch):
    ring = [[0.01 * math.cos(a / 500 * math.tau), 0.01 * math.sin(a / 500 * math.tau)] for a in range(500)]
    path = geojson(tmp_path, "b.geojson", [polygon_feature([ring + [ring[0]]]), polygon_feature([tiny_square(0.0, 0.0)])])
    assert path.stat().st_size > 100 * 64
    whole = load_buildings(path)
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    assert list(load_buildings(path)) == list(whole)
    assert len(whole) == 2 and len(whole[0].footprint[0]) == 1002


def _wkt_rings(rings):
    return "(" + ", ".join("(" + ", ".join(f"{lon!r} {lat!r}" for lon, lat in ring) + ")" for ring in rings) + ")"


def test_table_records_equal_the_reference_buildings(tmp_path):
    courtyard = [tiny_square(0.02, 0.0, d=0.001), tiny_square(0.0202, 0.0002, d=0.0002)]
    shapes = [  # (parts, confidence)
        ([[tiny_square(0.0, 0.0)]], 0.9),
        ([[tiny_square(0.01, 0.0)]], None),
        ([courtyard], 0.5),
        ([[tiny_square(0.03, 0.0)], courtyard, [tiny_square(0.04, 0.001, d=0.0003)]], None),
    ]
    expected = []
    for parts, _ in shapes:
        for rings in parts:
            expected.append(make_building(len(expected), reference_polygon(rings)))

    features = []
    csv_rows = ["confidence,geometry"]
    for parts, confidence in shapes:
        props = {} if confidence is None else {"confidence": confidence}
        if len(parts) == 1:
            features.append(polygon_feature(parts[0], **props))
            wkt = "POLYGON " + _wkt_rings(parts[0])
        else:
            features.append({"type": "Feature", "geometry": {"type": "MultiPolygon", "coordinates": parts}, "properties": props})
            wkt = "MULTIPOLYGON (" + ", ".join(map(_wkt_rings, parts)) + ")"
        csv_rows.append(f'{"" if confidence is None else confidence},"{wkt}"')
    csv_path = tmp_path / "b.csv"
    csv_path.write_text("\n".join(csv_rows) + "\n")

    for path in (geojson(tmp_path, "b.geojson", features), csv_path):
        table = load_buildings(path)
        assert list(table) == expected
        assert set(table) == set(expected)  # a record's footprint is tuples, so records hash
        # confidences 0.9, none, 0.5, and none for the three parts: at 0.9
        # the courtyard goes, and just above 0.9 the first square too
        for min_confidence, gone in ((0.9, {2}), (math.nextafter(0.9, 1.0), {0, 2})):
            kept = load_buildings(path, min_confidence=min_confidence)
            assert [b.footprint for b in kept] == [b.footprint for k, b in enumerate(expected) if k not in gone]
        for k, b in enumerate(expected):
            assert table[k] == b and table[k - len(expected)] == b
            assert (table.x0s[k], table.y0s[k], table.x1s[k], table.y1s[k]) == flat_bounds(b.footprint[0])
            assert (table.xs[k], table.ys[k]) == tuple(b.centroid)
            assert table.position(b.building_id) == k
            assert table.first_rings[k + 1] - table.first_rings[k] == len(b.footprint)

        # the clip compacts the table in place, keeping the rows in order
        boundary = plane_square(table.x0s[2] - 1.0, table.y0s[2] - 1.0, 150.0)
        clipped, _ = clip_to_boundary(table, [], boundary)
        assert clipped is table
        assert list(table) == [b for b in expected if point_in_rings(*b.centroid, boundary)]
        assert 0 < len(table) < len(expected)
