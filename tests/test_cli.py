import csv
import json

import pytest

from roadaccess.cli import main
from roadaccess.synth import SceneSpec, generate


def write_config(tmp_path, files, out_name="out", **extra):
    cfg = {
        "buildings": str(files.buildings),
        "roads": str(files.roads),
        "boundary": str(files.boundary),
        "output_dir": str(tmp_path / out_name),
        **extra,
    }
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(cfg))
    return path


def read_cells(out_dir):
    with open(out_dir / "cells.csv") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def formal_fixture(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("formal")
    files = generate(
        SceneSpec(seed=21, layout="formal_grid", extent=400, road_surface_mix=1.0), tmp
    )
    return tmp, files


@pytest.fixture(scope="module")
def informal_fixture(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("informal")
    files = generate(
        SceneSpec(seed=22, layout="informal_cluster", extent=400, road_surface_mix=0.0),
        tmp,
    )
    return tmp, files


def test_run_writes_all_outputs(formal_fixture):
    tmp, files = formal_fixture
    cfg = write_config(tmp, files, out_name="run1")
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp / "run1"
    for name in ("cells.geojson", "cells.csv", "aggregates.csv", "summary.json", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["inputs"]) == {"buildings", "roads", "boundary"}
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64
    assert manifest["parameters"]["threshold"] == 1.0
    assert set(manifest["outputs"]) == {
        "cells.geojson",
        "cells.csv",
        "aggregates.csv",
        "summary.json",
    }
    summary = json.loads((out / "summary.json").read_text())
    dist = summary["distribution"]
    assert dist["counts"]["low"] == dist["total"]  # formal paved: all low
    for stage in ("roads", "buildings"):
        stats = summary["stage_counts"][stage]
        assert stats["loaded"] + stats["skipped"] == stats["total"]
    # geojson properties carry the full schema
    cells_geo = json.loads((out / "cells.geojson").read_text())
    props = cells_geo["features"][0]["properties"]
    assert set(props) == {"i", "j", "level", "building_count", "mean_obstruction", "modal_surface", "empty"}


def test_run_is_deterministic_across_worker_counts(informal_fixture):
    tmp, files = informal_fixture
    cfg1 = write_config(tmp, files, out_name="w1", workers=1)
    cfg2 = write_config(tmp, files, out_name="w2", workers=2)
    assert main(["run", "--config", str(cfg1)]) == 0
    assert main(["run", "--config", str(cfg2)]) == 0
    for name in ("cells.geojson", "cells.csv", "summary.json", "manifest.json"):
        a = (tmp / "w1" / name).read_bytes()
        b = (tmp / "w2" / name).read_bytes()
        assert a == b, name


def test_rerun_is_byte_identical(formal_fixture):
    tmp, files = formal_fixture
    cfg = write_config(tmp, files, out_name="rerun")
    assert main(["run", "--config", str(cfg)]) == 0
    first = {
        name: (tmp / "rerun" / name).read_bytes()
        for name in ("cells.geojson", "cells.csv", "summary.json", "manifest.json")
    }
    assert main(["run", "--config", str(cfg)]) == 0
    for name, payload in first.items():
        assert (tmp / "rerun" / name).read_bytes() == payload


def test_threshold_override_never_adds_high_cells(informal_fixture):
    tmp, files = informal_fixture
    cfg = write_config(tmp, files, out_name="t_default")
    assert main(["run", "--config", str(cfg)]) == 0
    default_high = sum(1 for r in read_cells(tmp / "t_default") if r["level"] == "high")
    assert default_high > 0

    cfg2 = write_config(tmp, files, out_name="t_2")
    assert main(["run", "--config", str(cfg2), "--threshold", "2.0"]) == 0
    high_2 = sum(1 for r in read_cells(tmp / "t_2") if r["level"] == "high")
    assert high_2 <= default_high

    cfg3 = write_config(tmp, files, out_name="t_huge")
    assert main(["run", "--config", str(cfg3), "--threshold", "1000.0"]) == 0
    assert sum(1 for r in read_cells(tmp / "t_huge") if r["level"] == "high") == 0


def test_missing_roads_file_exits_with_configuration_error(tmp_path, formal_fixture):
    _, files = formal_fixture
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {
                "buildings": str(files.buildings),
                "roads": str(tmp_path / "nope.geojson"),
                "boundary": str(files.boundary),
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", "--config", str(cfg)]) == 2


def test_unknown_config_key_exits_with_configuration_error(tmp_path, formal_fixture):
    _, files = formal_fixture
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {
                "buildings": str(files.buildings),
                "roads": str(files.roads),
                "boundary": str(files.boundary),
                "output_dir": str(tmp_path / "out"),
                "thresold": 2.0,
            }
        )
    )
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "extra, flags",
    [
        pytest.param({"threshold": float("nan")}, [], id="threshold-nan"),
        pytest.param({}, ["--threshold", "nan"], id="threshold-flag-nan"),
        pytest.param({"threshold": "1"}, [], id="threshold-string"),
        pytest.param({"threshold": True}, [], id="threshold-bool"),
        pytest.param({"threshold": 0}, [], id="threshold-zero"),
        pytest.param({"cell_size": float("inf")}, [], id="cell_size-inf"),
        pytest.param({"cell_size": -100.0}, [], id="cell_size-negative"),
        pytest.param({"min_confidence": float("nan")}, [], id="min_confidence-nan"),
        pytest.param({"min_confidence": 1.5}, [], id="min_confidence-above-1"),
        pytest.param({"min_confidence": "0.5"}, [], id="min_confidence-string"),
        pytest.param({"workers": 2.5}, [], id="workers-float"),
        pytest.param({"workers": True}, [], id="workers-bool"),
        pytest.param({"workers": 0}, [], id="workers-zero"),
        pytest.param({"include_empty_in_distribution": "no"}, [], id="include_empty-string"),
        pytest.param({"class_property": ""}, [], id="class_property-empty"),
        pytest.param({"surface_property": 3}, [], id="surface_property-int"),
        pytest.param({"roads": 5}, [], id="roads-int"),
    ],
)
def test_mistyped_config_value_exits_with_configuration_error(
    tmp_path, formal_fixture, capsys, extra, flags
):
    _, files = formal_fixture
    cfg = write_config(tmp_path, files, **extra)
    assert main(["run", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration-error: ")
    assert not (tmp_path / "out").exists()


def test_evaluate_before_run_exits_with_configuration_error(tmp_path, formal_fixture):
    _, files = formal_fixture
    validations = tmp_path / "v.csv"
    validations.write_text("cell_i,cell_j,validator_id,level\n0,0,a,low\n")
    cfg = write_config(tmp_path, files, out_name="never_run", validations=str(validations))
    assert main(["evaluate", "--config", str(cfg)]) == 2


def test_evaluate_matches_hand_computed_report(formal_fixture):
    tmp, files = formal_fixture
    validations = tmp / "votes.csv"
    validations.write_text(
        "cell_i,cell_j,validator_id,level\n"
        "0,0,v1,low\n"
        "0,0,v2,low\n"  # consensus low, model low -> correct
        "1,0,v1,medium\n"  # single vote medium, model low
        "2,0,v1,low\n"
        "2,0,v2,high\n"  # tie: no consensus
        "3,0,v1,high\n"
        "3,0,v2,high\n"
        "3,0,v3,medium\n"  # consensus high, model low
        "999,999,v1,low\n"  # outside the modeled area: unmatched
    )
    cfg = write_config(tmp, files, out_name="eval", validations=str(validations))
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 0
    report = json.loads((tmp / "eval" / "evaluation.json").read_text())
    # matched: (low,low), (medium,low), (high,low) -> accuracy 1/3
    assert report["matched_cells"] == 3
    assert report["accuracy"] == pytest.approx(1 / 3)
    # low: TP 1, FN 0, FP 2 -> F1 = 1/(1 + 0.5*2) = 0.5
    assert report["f1"]["low"] == pytest.approx(0.5)
    assert report["f1"]["medium"] == 0.0
    assert report["f1"]["high"] == 0.0
    assert report["confusion"] == [[1, 0, 0], [1, 0, 0], [1, 0, 0]]
    assert report["excluded"] == {"no_consensus": 1, "unmatched": 1}
    # ternary export covers the multi-validated cells (incl. no-consensus)
    with open(tmp / "eval" / "ternary.csv") as f:
        rows = {(int(r["i"]), int(r["j"])): r for r in csv.DictReader(f)}
    assert set(rows) == {(0, 0), (2, 0), (3, 0)}
    assert float(rows[(2, 0)]["p_low"]) == 0.5


def test_evaluate_rerun_identical(formal_fixture):
    tmp, _ = formal_fixture
    cfg = tmp / "config_eval.json"
    assert main(["evaluate", "--config", str(cfg)]) == 0
    first = (tmp / "eval" / "evaluation.json").read_bytes()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert (tmp / "eval" / "evaluation.json").read_bytes() == first


def test_evaluate_all_votes_outside_is_evaluation_error(formal_fixture):
    tmp, files = formal_fixture
    validations = tmp / "outside.csv"
    validations.write_text("cell_i,cell_j,validator_id,level\n500,500,a,low\n")
    cfg = write_config(tmp, files, out_name="eval_outside", validations=str(validations))
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 4


def test_evaluate_on_another_cell_size_is_evaluation_error(tmp_path, formal_fixture, capsys):
    _, files = formal_fixture
    validations = tmp_path / "votes.csv"
    validations.write_text("cell_i,cell_j,validator_id,level\n0,0,a,low\n")
    cfg = write_config(tmp_path, files, out_name="grid", validations=str(validations))
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    coarse = json.loads(cfg.read_text())
    coarse["cell_size"] = 200.0
    cfg_coarse = tmp_path / "config_coarse.json"
    cfg_coarse.write_text(json.dumps(coarse))
    assert main(["evaluate", "--config", str(cfg_coarse)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("evaluation-error: ")
    assert "100.0" in err[0] and "200.0" in err[0]
    assert not (tmp_path / "grid" / "evaluation.json").exists()
    # the run's own grid still evaluates; a missing manifest cannot be checked
    assert main(["evaluate", "--config", str(cfg)]) == 0
    (tmp_path / "grid" / "manifest.json").unlink()
    assert main(["evaluate", "--config", str(cfg)]) == 4


def test_export_connectors_consistent_with_metrics_csv(formal_fixture):
    tmp, files = formal_fixture
    cfg = write_config(tmp, files, out_name="conn")
    assert main(["export-connectors", "--config", str(cfg)]) == 0
    out = tmp / "conn"
    geo = json.loads((out / "connectors.geojson").read_text())
    with open(out / "building_metrics.csv") as f:
        rows = {int(r["building_id"]): r for r in csv.DictReader(f)}
    assert len(geo["features"]) == len(rows)
    buildings_geo = json.loads(files.buildings.read_text())
    assert len(geo["features"]) == len(buildings_geo["features"])
    for feature in geo["features"]:
        props = feature["properties"]
        row = rows[props["building_id"]]
        assert props["obstruction_count"] == int(row["obstruction_count"])
        assert props["nearest_surface"] == row["nearest_surface"]
        assert len(feature["geometry"]["coordinates"]) == 2


def test_malformed_roads_json_exits_with_data_error(tmp_path, formal_fixture):
    _, files = formal_fixture
    broken = tmp_path / "broken.geojson"
    broken.write_text("{not json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "buildings": str(files.buildings),
                "roads": str(broken),
                "boundary": str(files.boundary),
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", "--config", str(cfg)]) == 3


def test_run_with_zero_buildings_classifies_everything_low(tmp_path, formal_fixture):
    _, files = formal_fixture
    empty = tmp_path / "empty.geojson"
    empty.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "buildings": str(empty),
                "roads": str(files.roads),
                "boundary": str(files.boundary),
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["run", "--config", str(cfg)]) == 0
    rows = read_cells(tmp_path / "out")
    assert rows
    assert all(r["level"] == "low" and r["empty"] == "true" for r in rows)


def test_export_connectors_empty_buildings(tmp_path, formal_fixture):
    _, files = formal_fixture
    empty = tmp_path / "empty.geojson"
    empty.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "buildings": str(empty),
                "roads": str(files.roads),
                "boundary": str(files.boundary),
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["export-connectors", "--config", str(cfg)]) == 0
    geo = json.loads((tmp_path / "out" / "connectors.geojson").read_text())
    assert geo["features"] == []
