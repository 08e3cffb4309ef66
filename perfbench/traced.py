"""Traced runner: one CLI command, re-enacted layer by layer with spans.

Run as its own process, one per command:

    python3 perfbench/traced.py --config CFG --command run --workers 1 --report R.json

It calls each layer's public functions in the order `roadaccess.cli` calls
them, with a span around each call, and writes the same output files, so
its `cells.csv` must match the CLI's byte for byte. Spans are kept in
memory and written to the report when the command ends. After the command's
pipeline work (the part comparable to a CLI run) it makes diagnostic
passes that the CLI does not: the metric stage split into nearest-road
query, candidate filter and exact test at workers=1, the pool payload size,
and per-vertex projection cost.

With --setup-only it stops once both spatial indexes are built; the parent
times that from spawn to the reported `setup_done` instant.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    """Spans (name, start, end, parent) plus per-name totals and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [seconds, calls]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.add(name, record["end"] - record["start"])

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        total = self.totals.setdefault(name, [0.0, 0])
        total[0] += seconds
        total[1] += calls

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def _load_inputs(tr, ingest, config, counts):
    """cli._load_inputs, one span per layer call."""
    road_stats = ingest.LoadStats()
    building_stats = ingest.LoadStats()
    with tr.span("ingest.load_roads"):
        roads = ingest.load_roads(
            config.roads,
            class_property=config.class_property,
            surface_property=config.surface_property,
            stats=road_stats,
        )
    with tr.span("ingest.filter_motorable"):
        motorable = ingest.filter_motorable(roads)
    counts["motorable_roads"] = len(motorable)
    with tr.span("ingest.load_buildings"):
        buildings = ingest.load_buildings(
            config.buildings, min_confidence=config.min_confidence, stats=building_stats
        )
    with tr.span("ingest.load_boundary"):
        boundary = ingest.load_boundary(config.boundary)
    with tr.span("ingest.clip"):
        buildings, motorable = ingest.clip_to_boundary(buildings, motorable, boundary)
    counts["roads"] = road_stats.as_dict()
    counts["buildings"] = building_stats.as_dict()
    counts["roads_in_scope"] = len(motorable)
    counts["buildings_in_scope"] = len(buildings)
    if not motorable:
        raise SystemExit("no motorable roads in scope")
    return buildings, motorable, boundary


def _build_indexes(tr, spatial_index, buildings, motorable):
    with tr.span("spatial_index.segment_build"):
        road_index = spatial_index.SegmentIndex(motorable)
    with tr.span("spatial_index.polygon_build"):
        building_index = spatial_index.PolygonIndex(buildings)
    return road_index, building_index


def _decompose_metric_stage(tr, rx, buildings, road_index, building_index, expected):
    """The metric stage at workers=1, with a span around each layer call.

    The exact test is timed once per connector, over all its candidates.
    Obstruction counts must equal compute_all's.
    """
    clock = time.perf_counter
    footprints = {b.building_id: b.footprint for b in buildings}
    nearest = road_index.nearest
    candidates_for_segment = building_index.candidates_for_segment
    exact = rx.geometry.segment_intersects_polygon
    Segment = rx.geometry.Segment
    t_nearest = t_candidates = t_exact = 0.0
    n_candidates = n_obstructions = n_connectors = 0
    for b in buildings:
        t0 = clock()
        _, point, _ = nearest(b.centroid)
        t_nearest += clock() - t0
        if b.centroid == point:
            hits = 0
        else:
            seg = Segment(b.centroid, point)
            t0 = clock()
            ids = candidates_for_segment(seg)
            t_candidates += clock() - t0
            ids.discard(b.building_id)
            n_candidates += len(ids)
            t0 = clock()
            hits = sum(exact(seg, footprints[other]) for other in ids)
            t_exact += clock() - t0
            n_connectors += 1
        if hits != expected[b.building_id]:
            raise SystemExit(
                f"building {b.building_id}: traced count {hits} != compute_all "
                f"count {expected[b.building_id]}"
            )
        n_obstructions += hits
    tr.add("spatial_index.nearest", t_nearest, len(buildings))
    tr.add("spatial_index.candidates", t_candidates, len(buildings))
    tr.add("geometry.exact_test", t_exact, n_connectors)
    tr.count("spatial_index.candidates", n_candidates)
    tr.count("geometry.obstructions", n_obstructions)


def _pool_payload_bytes(rx, buildings, road_index, building_index, motorable) -> int:
    """Size of compute_all's pool initargs, built as compute_all builds them."""
    footprints = {b.building_id: b.footprint for b in buildings}
    roads_by_id = {r.road_id: r for r in motorable}
    initargs = (list(buildings), road_index, building_index, footprints, roads_by_id)
    return len(pickle.dumps(initargs))


def _input_positions(config) -> list:
    """Every lon/lat position of the GeoJSON inputs, read by the benchmark."""
    out: list = []

    def walk(coords):
        if coords and isinstance(coords[0], (int, float)):
            out.append(coords)
        else:
            for c in coords:
                walk(c)

    for path in (config.buildings, config.roads, config.boundary):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        features = doc["features"] if doc["type"] == "FeatureCollection" else [doc]
        for feature in features:
            walk(feature["geometry"]["coordinates"])
    return out


def _time_forward(tr, rx, positions) -> None:
    GeoPoint = rx.projection.GeoPoint
    points = [GeoPoint(float(p[0]), float(p[1])) for p in positions]
    forward = rx.projection.project_forward
    t0 = time.perf_counter()
    for p in points:
        forward(p)
    tr.add("projection.forward", time.perf_counter() - t0, len(points))


def _time_inverse(tr, rx, xy_pairs) -> None:
    PlanePoint = rx.geometry.PlanePoint
    points = [PlanePoint(x, y) for x, y in xy_pairs]
    inverse = rx.projection.project_inverse
    t0 = time.perf_counter()
    for p in points:
        inverse(p)
    tr.add("projection.inverse", time.perf_counter() - t0, len(points))


def _cell_ring_corners(cells, cell_size):
    """The plane points write_cells_geojson projects back, five per cell."""
    for c in cells:
        x0 = c.cell.i * cell_size
        y0 = c.cell.j * cell_size
        x1 = x0 + cell_size
        y1 = y0 + cell_size
        yield from ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))


def cmd_run(tr, rx, config, report):
    """cli.cmd_run, then the diagnostic passes."""
    ingest, outputs = rx.ingest, rx.outputs
    with tr.span("cli.config"):
        config.validate()
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    counts: dict = {}
    buildings, motorable, boundary = _load_inputs(tr, ingest, config, counts)
    road_index, building_index = _build_indexes(tr, rx.spatial_index, buildings, motorable)
    report["setup_done"] = time.perf_counter()
    if report["setup_only"]:
        return

    with tr.span("metrics.compute_all"):
        building_metrics = rx.metrics.compute_all(
            buildings, road_index, building_index, motorable, workers=config.workers
        )
    with tr.span("grid.aggregate"):
        aggregates = rx.grid.aggregate(building_metrics, buildings, config.cell_size)
    with tr.span("grid.empty_cells"):
        empty_cells = rx.grid.enumerate_empty_cells(boundary, aggregates, config.cell_size)
    with tr.span("classify.classify_all"):
        cells = rx.classify.classify_all(aggregates, empty_cells, config.threshold)
    counts["built_cells"] = len(aggregates)
    counts["empty_cells"] = len(empty_cells)

    cells_geojson = out_dir / "cells.geojson"
    cells_csv = out_dir / "cells.csv"
    aggregates_csv = out_dir / "aggregates.csv"
    summary_json = out_dir / "summary.json"
    with tr.span("outputs.cells_geojson"):
        outputs.write_cells_geojson(cells_geojson, cells, config.cell_size)
    with tr.span("outputs.cells_csv"):
        outputs.write_cells_csv(cells_csv, cells)
    with tr.span("outputs.aggregates_csv"):
        outputs.write_aggregates_csv(aggregates_csv, aggregates)
    with tr.span("outputs.manifest"):
        dist = rx.classify.distribution(cells, include_empty=config.include_empty_in_distribution)
        outputs.write_json(
            summary_json,
            {
                "distribution": {
                    "include_empty": config.include_empty_in_distribution,
                    **dist.as_dict(),
                },
                "stage_counts": counts,
            },
        )
        manifest = {
            "inputs": {
                name: {
                    "path": str(getattr(config, name)),
                    "sha256": outputs.file_sha256(getattr(config, name)),
                }
                for name in ("buildings", "roads", "boundary")
            },
            "parameters": config.parameters(),
            "stage_counts": counts,
            "outputs": {
                p.name: outputs.file_sha256(p)
                for p in (cells_geojson, cells_csv, aggregates_csv, summary_json)
            },
        }
        outputs.write_json(out_dir / "manifest.json", manifest)
    report["pipeline_done"] = time.perf_counter()

    # Diagnostic passes, outside the pipeline total.
    expected = {m.building_id: m.obstruction_count for m in building_metrics}
    if config.workers is not None and config.workers > 1:
        t0 = time.perf_counter()
        rx.metrics.compute_all(buildings, road_index, building_index, motorable, workers=1)
        report["compute_all_w1_s"] = time.perf_counter() - t0
        report["pool_payload_bytes"] = _pool_payload_bytes(
            rx, buildings, road_index, building_index, motorable
        )
    else:
        report["compute_all_w1_s"] = tr.totals["metrics.compute_all"][0]
        report["pool_payload_bytes"] = 0
    _decompose_metric_stage(tr, rx, buildings, road_index, building_index, expected)
    _time_forward(tr, rx, _input_positions(config))
    _time_inverse(tr, rx, _cell_ring_corners(cells, config.cell_size))
    report["cells_sha256"] = outputs.file_sha256(cells_csv)


def cmd_evaluate(tr, rx, config, report):
    """cli.cmd_evaluate."""
    outputs = rx.outputs
    with tr.span("cli.config"):
        config.validate(require_validations=True)
        out_dir = Path(config.output_dir)
    with tr.span("outputs.read_cells_csv"):
        cells = outputs.read_cells_csv(out_dir / "cells.csv")
    stats = rx.ingest.LoadStats()
    with tr.span("ingest.load_validations"):
        records = rx.ingest.load_validations(config.validations, stats=stats)
    with tr.span("evaluate.report"):
        doc = rx.evaluate.evaluation_report(cells, records)
    doc["validation_rows"] = stats.as_dict()
    with tr.span("outputs.evaluation_json"):
        outputs.write_json(out_dir / "evaluation.json", doc)
    with tr.span("evaluate.ternary"):
        points = rx.evaluate.ternary_proportions(records)
    with tr.span("outputs.ternary_csv"):
        outputs.write_ternary_csv(out_dir / "ternary.csv", points)
    tr.count("evaluate.matched_cells", doc["matched_cells"])
    report["pipeline_done"] = time.perf_counter()


def cmd_export_connectors(tr, rx, config, report):
    """cli.cmd_export_connectors, then the inverse-projection pass."""
    outputs = rx.outputs
    with tr.span("cli.config"):
        config.validate()
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    counts: dict = {}
    buildings, motorable, _ = _load_inputs(tr, rx.ingest, config, counts)
    road_index, building_index = _build_indexes(tr, rx.spatial_index, buildings, motorable)
    with tr.span("metrics.compute_all"):
        building_metrics = rx.metrics.compute_all(
            buildings, road_index, building_index, motorable, workers=config.workers
        )
    with tr.span("spatial_index.segment_build"):
        road_index = rx.spatial_index.SegmentIndex(motorable)
    with tr.span("metrics.connectors_for"):
        connectors = rx.metrics.connectors_for(buildings, road_index)
    by_id = {m.building_id: m for m in building_metrics}
    with tr.span("outputs.connectors_geojson"):
        outputs.write_connectors_geojson(out_dir / "connectors.geojson", connectors, by_id)
    with tr.span("outputs.building_metrics_csv"):
        outputs.write_building_metrics_csv(out_dir / "building_metrics.csv", building_metrics)
    report["pipeline_done"] = time.perf_counter()
    _time_inverse(
        tr, rx, [(p.x, p.y) for c in connectors for p in (c.start, c.end)]
    )


COMMANDS = {
    "run": cmd_run,
    "evaluate": cmd_evaluate,
    "export-connectors": cmd_export_connectors,
}


LAYERS = ("classify", "cli", "config", "evaluate", "geometry", "grid", "ingest", "metrics",
          "outputs", "projection", "spatial_index")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--command", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tr = Tracer()
    sys.path.insert(0, str(SRC))
    with tr.span("cli.import"):
        rx = SimpleNamespace(
            **{name: importlib.import_module(f"roadaccess.{name}") for name in LAYERS}
        )
    with tr.span("cli.config"):
        config = rx.config.load_config(args.config)
        config.workers = args.workers
    report = {"start": T_START, "setup_only": args.setup_only}
    COMMANDS[args.command](tr, rx, config, report)
    report.update(spans=tr.spans, totals=tr.totals, counts=tr.counts)
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
