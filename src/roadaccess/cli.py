"""Command-line entry point orchestrating the pipeline end to end.

Subcommands: run (ingest -> metrics -> grid -> classify, with cell layers,
summary, and a reproducibility manifest), evaluate (score cell outputs
against community validations), and export-connectors (per-building QA
layers). Exit codes: 0 ok, 2 configuration error, 3 data error,
4 evaluation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from pathlib import Path

from . import ingest, metrics, outputs
from .classify import classify_all, distribution
from .config import PipelineConfig, load_config
from .errors import ConfigurationError, EvaluationError, Log, PipelineError
from .evaluate import evaluation_report, ternary_proportions
from .geometry import flat_bounds
from .grid import MAX_CELLS, aggregate, box_cell_count, enumerate_empty_cells
from .spatial_index import PolygonIndex, SegmentIndex

log = Log(__name__)


def _load_inputs(config: PipelineConfig, counts: dict) -> tuple:
    road_stats = ingest.LoadStats()
    building_stats = ingest.LoadStats()
    roads = ingest.load_roads(
        config.roads,
        class_property=config.class_property,
        surface_property=config.surface_property,
        stats=road_stats,
    )
    motorable = ingest.filter_motorable(roads)
    counts["motorable_roads"] = len(motorable)
    buildings = ingest.load_buildings(
        config.buildings, min_confidence=config.min_confidence, stats=building_stats
    )
    boundary = ingest.load_boundary(config.boundary)
    buildings, motorable = ingest.clip_to_boundary(buildings, motorable, boundary)
    counts["roads"] = road_stats.as_dict()
    counts["buildings"] = building_stats.as_dict()
    counts["roads_in_scope"] = len(motorable)
    counts["buildings_in_scope"] = len(buildings)
    log.info(
        "in scope after clipping: %d buildings, %d motorable roads",
        len(buildings),
        len(motorable),
    )
    if not motorable:
        raise ConfigurationError("no motorable roads in scope; nearest-road queries undefined")
    return buildings, motorable, boundary


def _output_dir(config: PipelineConfig, stale: tuple[str, ...]) -> Path:
    """The output directory, created if missing, with the files named in
    stale removed from it; one that cannot be is a ConfigurationError."""
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in stale:
            (out_dir / name).unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use output_dir {out_dir}: {exc}") from exc
    return out_dir


def _cell_aggregates(config: PipelineConfig, counts: dict) -> tuple:
    """The aggregates of the occupied cells, and the boundary.

    Each building's metrics are folded into its cell's sums as they come,
    never all held, and the buildings and both indexes are released once
    this returns, before the writers and the manifest's digests run.
    """
    buildings, motorable, boundary = _load_inputs(config, counts)
    n_cells = box_cell_count(flat_bounds(boundary[0]), config.cell_size)
    if n_cells > MAX_CELLS:
        raise ConfigurationError(
            f"cell_size {config.cell_size} m puts about {n_cells:.3g} cells in the boundary's box; "
            f"the limit is {MAX_CELLS:,}"
        )
    surface = {r.road_id: r.surface for r in motorable}
    rows = metrics.metric_rows(
        buildings, SegmentIndex(motorable), PolygonIndex(buildings), config.workers
    )
    with closing(rows):  # an error part-way still reaps the children
        aggregates = aggregate(
            ((bid, count, surface[road_id]) for bid, count, road_id, _, _, _ in rows),
            buildings,
            config.cell_size,
        )
    log.info("computed metrics for %d buildings", len(buildings))
    return aggregates, boundary


def cmd_run(config: PipelineConfig) -> int:
    config.validate()
    # A manifest left by an earlier run would vouch for outputs this run is
    # about to replace; it is written again, last, once they are all in place.
    out_dir = _output_dir(config, stale=("manifest.json",))
    counts: dict = {}
    aggregates, boundary = _cell_aggregates(config, counts)
    empty_cells = enumerate_empty_cells(boundary, aggregates, config.cell_size)
    cells = classify_all(aggregates, empty_cells, config.threshold)
    counts["built_cells"] = len(aggregates)
    counts["empty_cells"] = len(empty_cells)
    log.info("classified %d cells (%d built, %d empty)", len(cells), len(aggregates), len(empty_cells))

    cells_geojson = out_dir / "cells.geojson"
    cells_csv = out_dir / "cells.csv"
    aggregates_csv = out_dir / "aggregates.csv"
    summary_json = out_dir / "summary.json"
    outputs.write_cells_geojson(cells_geojson, cells, config.cell_size)
    outputs.write_cells_csv(cells_csv, cells)
    outputs.write_aggregates_csv(aggregates_csv, aggregates)
    dist = distribution(cells, include_empty=config.include_empty_in_distribution)
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
    return 0


def _check_run_cell_size(manifest_path: Path, cell_size: float) -> None:
    """Votes name cells of the configured grid, so the run must have used it."""
    try:
        run_cell_size = json.loads(manifest_path.read_text(encoding="utf-8"))["parameters"]["cell_size"]
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise EvaluationError(f"cannot read the run's cell_size from {manifest_path}: {exc!r}") from exc
    if run_cell_size != cell_size:
        raise EvaluationError(
            f"cells in {manifest_path.parent} are on a {run_cell_size} m grid, "
            f"but cell_size is {cell_size} m"
        )


def cmd_evaluate(config: PipelineConfig) -> int:
    config.validate(require_validations=True)
    out_dir = Path(config.output_dir)
    cells_csv = out_dir / "cells.csv"
    if not cells_csv.exists():
        raise ConfigurationError(f"classified cells not found: {cells_csv} (run the pipeline first)")
    _check_run_cell_size(out_dir / "manifest.json", config.cell_size)
    # An earlier evaluation's files would sit beside the one this run wrote
    # before failing part-way; both are written again.
    _output_dir(config, stale=("evaluation.json", "ternary.csv"))
    cells = outputs.read_cells_csv(cells_csv)
    stats = ingest.LoadStats()
    records = ingest.load_validations(config.validations, stats=stats)
    report = evaluation_report(cells, records)
    report["validation_rows"] = stats.as_dict()
    outputs.write_json(out_dir / "evaluation.json", report)
    outputs.write_ternary_csv(out_dir / "ternary.csv", ternary_proportions(records))
    log.info(
        "evaluated %d matched cells: accuracy %.3f",
        report["matched_cells"],
        report["accuracy"],
    )
    return 0


def cmd_export_connectors(config: PipelineConfig) -> int:
    config.validate()
    # An earlier export's layers would sit beside one this run left half
    # written; both are written again, from one metric stage.
    out_dir = _output_dir(config, stale=("connectors.geojson", "building_metrics.csv"))
    counts: dict = {}
    buildings, motorable, _ = _load_inputs(config, counts)
    columns = metrics.metric_columns(
        buildings, SegmentIndex(motorable), PolygonIndex(buildings), config.workers
    )
    surface = {r.road_id: r.surface for r in motorable}

    def rows():
        """Each building's metrics, then its connector's two ends, in table order."""
        return zip(
            buildings.ids,
            columns.counts,
            map(surface.__getitem__, columns.road_ids),
            columns.road_distances,
            columns.road_ids,
            buildings.xs,
            buildings.ys,
            columns.road_xs,
            columns.road_ys,
        )

    outputs.write_connector_rows(out_dir / "connectors.geojson", rows())
    outputs.write_building_metrics_csv(out_dir / "building_metrics.csv", rows())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadaccess",
        description="Road access deprivation modeling pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run the full pipeline and write cell outputs"),
        ("evaluate", "score cell outputs against community validations"),
        ("export-connectors", "write per-building connector layers for QA"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--threshold", type=float, help="override the obstruction threshold")
        p.add_argument("--min-confidence", type=float, help="override the building confidence filter")
        p.add_argument("--workers", type=int, help="override the worker count")
        p.add_argument("--out", help="override the output directory")
    return parser


_COMMANDS = {
    "run": cmd_run,
    "evaluate": cmd_evaluate,
    "export-connectors": cmd_export_connectors,
}


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    for name in ("threshold", "min_confidence", "workers"):  # flag destinations are setting names
        if getattr(args, name) is not None:
            setattr(config, name, getattr(args, name))
    if args.out is not None:
        if not args.out:
            raise ConfigurationError("output_dir must be a non-empty path string, got '' from --out")
        config.output_dir = Path(args.out)
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    Log.verbose = True
    try:
        config = _apply_overrides(load_config(args.config), args)
        return _COMMANDS[args.command](config)
    except PipelineError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        Log.verbose = False


if __name__ == "__main__":
    sys.exit(main())
