import csv
import errno
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import roadaccess
from roadaccess import cli, outputs
from roadaccess.cli import main
from roadaccess.config import load_config
from roadaccess.errors import ConfigurationError
from roadaccess.metrics import compute_all, connectors_for
from roadaccess.spatial_index import PolygonIndex, SegmentIndex
from roadaccess.synth import SceneSpec, generate

from _scenes import write_lonlat_scene


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


def cfg_with(tmp_path, cfg, **changes):
    doc = {**json.loads(cfg.read_text()), **changes}
    path = tmp_path / f"changed_{cfg.name}"
    path.write_text(json.dumps(doc))
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


def test_run_is_deterministic_across_worker_counts(informal_fixture, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a real pool on any machine
    tmp, files = informal_fixture
    cfg1 = write_config(tmp, files, out_name="w1", workers=1)
    cfg2 = write_config(tmp, files, out_name="w2", workers=2)
    assert main(["run", "--config", str(cfg1)]) == 0
    assert main(["run", "--config", str(cfg2)]) == 0
    assert main(["export-connectors", "--config", str(cfg1)]) == 0
    assert main(["export-connectors", "--config", str(cfg2)]) == 0
    for name in (
        "cells.geojson", "cells.csv", "summary.json", "manifest.json",
        "connectors.geojson", "building_metrics.csv",
    ):
        a = (tmp / "w1" / name).read_bytes()
        b = (tmp / "w2" / name).read_bytes()
        assert a == b, name


def test_run_failing_part_way_through_the_metric_stage_reaps_its_child(informal_fixture, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    started = []
    real_fork = cli.metrics._fork

    def fork(job):
        started.append(real_fork(job))
        return started[-1]

    monkeypatch.setattr(cli.metrics, "_fork", fork)
    tmp, files = informal_fixture
    cfg = write_config(tmp, files, out_name="partway", workers=2)

    def failing_aggregate(metrics, buildings, cell_size):
        next(iter(metrics))
        raise LookupError("aggregate fails")

    monkeypatch.setattr(cli, "aggregate", failing_aggregate)
    # the kept traceback keeps the stream's frames alive: only closing it reaps
    with pytest.raises(LookupError, match="aggregate fails") as failed:
        main(["run", "--config", str(cfg)])
    assert len(started) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


_DEFAULTS = {
    "validations": None,
    "class_property": "class",
    "surface_property": "surface",
    "min_confidence": None,
    "threshold": 1.0,
    "cell_size": 100.0,
    "include_empty_in_distribution": False,
    "workers": None,
}


def test_settings_left_out_of_the_file_take_their_defaults(tmp_path, formal_fixture):
    _, files = formal_fixture
    cfg = write_config(tmp_path, files, out_name="defaults")
    config = load_config(cfg)
    # repr, so that 1 where 1.0 is meant (a different manifest byte) fails
    assert {k: repr(getattr(config, k)) for k in _DEFAULTS} == {
        k: repr(v) for k, v in _DEFAULTS.items()
    }
    assert main(["run", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "defaults" / "manifest.json").read_text())
    assert {k: repr(v) for k, v in manifest["parameters"].items()} == {
        k: repr(v) for k, v in _DEFAULTS.items() if k not in ("validations", "workers")
    }
    only_roads = tmp_path / "only_roads.json"
    only_roads.write_text(json.dumps({"roads": str(files.roads)}))
    with pytest.raises(ConfigurationError, match="^missing config keys: buildings, boundary, output_dir$"):
        load_config(only_roads)


def test_settings_given_in_the_file_win_over_their_defaults(tmp_path, formal_fixture):
    _, files = formal_fixture
    given = {
        "validations": str(tmp_path / "votes.csv"),
        "class_property": "kind",
        "surface_property": "paving",
        "min_confidence": 0.5,
        "threshold": 2.5,
        "cell_size": 250.0,
        "include_empty_in_distribution": True,
        "workers": 3,
    }
    config = load_config(write_config(tmp_path, files, out_name="given", **given))
    for name, value in given.items():
        assert value != _DEFAULTS[name], name
        assert getattr(config, name) == (Path(value) if name == "validations" else value), name


def test_every_override_flag_wins_over_the_file(tmp_path, formal_fixture, monkeypatch):
    _, files = formal_fixture
    cfg = write_config(tmp_path, files, out_name="file_out", threshold=2.5, min_confidence=0.5, workers=3)
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "run", lambda config: seen.append(config) or 0)
    assert main(["run", "--config", str(cfg)]) == 0
    assert main([
        "run", "--config", str(cfg), "--threshold", "4.0", "--min-confidence", "0.25",
        "--workers", "2", "--out", str(tmp_path / "flag_out"),
    ]) == 0
    names = ("threshold", "min_confidence", "workers", "output_dir")
    assert [{k: repr(getattr(c, k)) for k in names} for c in seen] == [
        {k: repr(v) for k, v in zip(names, (2.5, 0.5, 3, tmp_path / "file_out"))},
        {k: repr(v) for k, v in zip(names, (4.0, 0.25, 2, tmp_path / "flag_out"))},
    ]


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
        pytest.param({"buildings": None}, [], id="buildings-null"),
        pytest.param({"output_dir": None}, [], id="output_dir-null"),
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


@pytest.mark.parametrize("command", ["run", "export-connectors"])
@pytest.mark.parametrize("key", ["buildings", "roads", "boundary", "output_dir", "validations"])
def test_nul_byte_in_a_config_path_exits_with_configuration_error(
    tmp_path, formal_fixture, capsys, command, key
):
    # os calls raise ValueError, not OSError, on a NUL byte in a path, so
    # it is refused with the other config checks, before any file is touched
    _, files = formal_fixture
    named = str(tmp_path / "out\0x")
    cfg = write_config(tmp_path, files, **{key: named})
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"configuration-error: {key} must not contain a NUL byte, got {named!r}"]
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("key", ["buildings", "roads", "boundary", "output_dir", "validations"])
def test_empty_config_path_exits_with_configuration_error(tmp_path, formal_fixture, capsys, key):
    # Path("") is ".", which would put the outputs beside the config file
    _, files = formal_fixture
    cfg = write_config(tmp_path, files, **{key: ""})
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"configuration-error: {key} must be a non-empty path string, got ''"]
    assert list(tmp_path.iterdir()) == [cfg]


def test_empty_out_flag_exits_with_configuration_error(tmp_path, formal_fixture, capsys, monkeypatch):
    _, files = formal_fixture
    cfg = write_config(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", ""]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration-error: output_dir must be a non-empty path string, got '' from --out"]
    assert list(tmp_path.iterdir()) == [cfg]


def test_evaluate_before_run_exits_with_configuration_error(tmp_path, formal_fixture):
    _, files = formal_fixture
    validations = tmp_path / "v.csv"
    validations.write_text("cell_i,cell_j,validator_id,level\n0,0,a,low\n")
    cfg = write_config(tmp_path, files, out_name="never_run", validations=str(validations))
    assert main(["evaluate", "--config", str(cfg)]) == 2


HAND_VOTES = (
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


def test_evaluate_matches_hand_computed_report(formal_fixture):
    tmp, files = formal_fixture
    validations = tmp / "votes.csv"
    validations.write_text(HAND_VOTES)
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


def test_evaluate_rerun_identical(tmp_path, formal_fixture):
    # its own run, config and votes: it passes run alone or in any order
    _, files = formal_fixture
    validations = tmp_path / "votes.csv"
    validations.write_text(HAND_VOTES)
    cfg = write_config(tmp_path, files, out_name="eval", validations=str(validations))
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 0
    first = (tmp_path / "eval" / "evaluation.json").read_bytes()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert (tmp_path / "eval" / "evaluation.json").read_bytes() == first


def test_evaluate_accepts_a_byte_order_mark(formal_fixture):
    tmp, files = formal_fixture
    votes = "cell_i,cell_j,validator_id,level\n0,0,v1,low\n0,0,v2,high\n1,0,v1,medium\n1,0,v2,severe\n"
    (tmp / "plain.csv").write_text(votes, encoding="utf-8")
    (tmp / "bom.csv").write_text("\ufeff" + votes, encoding="utf-8")
    outputs = []
    for name in ("plain.csv", "bom.csv"):
        cfg = write_config(tmp, files, out_name="bom", validations=str(tmp / name))
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg)]) == 0
        outputs.append([(tmp / "bom" / f).read_bytes() for f in ("evaluation.json", "ternary.csv")])
    assert outputs[1] == outputs[0]
    assert json.loads(outputs[0][0])["validation_rows"]["skipped"] == 1


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


def test_evaluate_short_row_in_cells_csv_is_data_error(tmp_path, formal_fixture, capsys):
    _, files = formal_fixture
    votes = tmp_path / "votes.csv"
    votes.write_text("cell_i,cell_j,validator_id,level\n0,0,a,low\n")
    cfg = write_config(tmp_path, files, validations=str(votes))
    assert main(["run", "--config", str(cfg)]) == 0
    cells_csv = tmp_path / "out" / "cells.csv"
    header = cells_csv.read_text().splitlines()[0]
    cells_csv.write_text(header + "\n0,0,low\n")  # a truncated file
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data-error: malformed cells CSV")


def test_run_with_too_many_cells_exits_with_configuration_error(tmp_path, capsys, monkeypatch):
    files = write_lonlat_scene(tmp_path, random.Random(3), n_buildings=12, n_roads=3, span_deg=0.002)
    # a boundary about 450 m square at 1 cm cells: 2e9 cells
    cfg = write_config(tmp_path, files, cell_size=0.01)

    def metric_stage(*args):
        raise AssertionError("the cell count is checked before the metric stage")

    # without the check, enumerating the cells would take minutes and gigabytes
    monkeypatch.setattr(cli.metrics, "metric_rows", metric_stage)
    start = time.perf_counter()
    assert main(["run", "--config", str(cfg)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("configuration-error: cell_size 0.01 m puts about 2e+09 cells")
    assert err[-1].endswith("the limit is 10,000,000")
    assert not (tmp_path / "out" / "cells.csv").exists()


@pytest.mark.parametrize("target", ["config", "roads", "buildings_csv"])
def test_undecodable_input_file_is_a_one_line_error(tmp_path, formal_fixture, capsys, target):
    _, files = formal_fixture
    cfg = write_config(tmp_path, files)
    if target == "config":
        cfg.write_bytes(b'{"threshold": "\xff"}')
    elif target == "roads":
        bad = tmp_path / "roads.geojson"
        bad.write_bytes(files.roads.read_bytes().replace(b'"type"', b'"t\xffype"', 1))
        cfg = cfg_with(tmp_path, cfg, roads=str(bad))
    else:
        bad = tmp_path / "buildings.csv"
        bad.write_bytes(b"geometry\n\"POLYGON ((0 0, 1e-4 0, 1e-4 1e-4, 0 0))\"\xff\n")
        cfg = cfg_with(tmp_path, cfg, buildings=str(bad))
    code = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    if target == "config":
        assert code == 2 and err[-1].startswith("configuration-error: ")
    else:
        assert code == 3 and err[-1].startswith("data-error: cannot read ")


@pytest.mark.parametrize("target", ["validations", "cells_csv", "buildings_csv"])
def test_csv_error_is_a_one_line_data_error(tmp_path, formal_fixture, capsys, monkeypatch, target):
    _, files = formal_fixture
    votes = tmp_path / "votes.csv"
    votes.write_text("cell_i,cell_j,validator_id,level\n0,0,a,low\n")
    cfg = write_config(tmp_path, files, validations=str(votes))
    huge = "x" * 200_000  # over the csv module's field size limit
    if target == "buildings_csv":
        # a footprint of any size loads, so only a lower limit shows the error path
        monkeypatch.setattr(roadaccess.ingest, "_CSV_FIELD_LIMIT", 100)
        bad = tmp_path / "buildings.csv"
        bad.write_text(f'geometry\n"POLYGON (({huge}))"\n')
        cfg = cfg_with(tmp_path, cfg, buildings=str(bad))
        command = "run"
    else:
        assert main(["run", "--config", str(cfg)]) == 0
        bad = votes if target == "validations" else tmp_path / "out" / "cells.csv"
        bad.write_text(bad.read_text() + f"0,0,{huge},low\n")
        command = "evaluate"
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("data-error: ") and str(bad) in err[-1]
    assert "field larger than field limit" in err[-1]
    assert not any(line.startswith("Traceback") for line in err)


_NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "target, code",
    [("buildings", 3), ("roads", 3), ("boundary", 3), ("config", 2), ("manifest", 4)],
)
def test_deeply_nested_json_is_a_one_line_error(tmp_path, formal_fixture, capsys, target, code):
    _, files = formal_fixture
    votes = tmp_path / "votes.csv"
    votes.write_text("cell_i,cell_j,validator_id,level\n0,0,a,low\n")
    cfg = write_config(tmp_path, files, validations=str(votes))
    command = "run"
    if target == "config":
        bad = cfg
        bad.write_text(_NESTED)
    elif target == "manifest":
        assert main(["run", "--config", str(cfg)]) == 0
        bad = tmp_path / "out" / "manifest.json"
        bad.write_text(_NESTED)
        command = "evaluate"
    else:
        bad = tmp_path / f"{target}.geojson"
        bad.write_text('{"type": "FeatureCollection", "features": [' + _NESTED + "]}")
        cfg = cfg_with(tmp_path, cfg, **{target: str(bad)})
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == code
    err = capsys.readouterr().err.strip().splitlines()
    kind = {2: "configuration-error", 3: "data-error", 4: "evaluation-error"}[code]
    assert err[-1].startswith(f"{kind}: ") and str(bad) in err[-1]
    assert not any(line.startswith("Traceback") for line in err)


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


@pytest.mark.parametrize(
    "target, text",
    [
        ("boundary", '], "type": "FeatureCollection"} trailing'),
        ("boundary", ', {"type": "Feature"'),
        ("buildings", '], "type": "Feature", "properties": {}, "geometry": null}'),
        ("buildings", '], "features": [], "type": "FeatureCollection"}'),
    ],
    ids=["boundary-trailing-text", "boundary-truncated", "features-in-a-feature", "features-twice"],
)
def test_geojson_rejected_after_its_features_exits_with_data_error(
    tmp_path, formal_fixture, capsys, target, text
):
    # the document goes wrong only after its features were read
    _, files = formal_fixture
    doc = json.loads(getattr(files, target).read_text())
    features = doc["features"] if doc["type"] == "FeatureCollection" else [doc]
    bad = tmp_path / f"{target}.geojson"
    bad.write_text('{"features": ' + json.dumps(features)[:-1] + text)
    cfg = write_config(tmp_path, files, **{target: str(bad)})
    assert main(["run", "--config", str(cfg)]) == 3
    (line,) = capsys.readouterr().err.strip().splitlines()[-1:]
    assert line.startswith("data-error: ") and str(bad) in line


def _edge_scene(tmp_path, boundary_ring, road, building_ring=None):
    def collection(gtype, coordinates_list, **props):
        features = [
            {"type": "Feature", "geometry": {"type": gtype, "coordinates": c}, "properties": props}
            for c in coordinates_list
        ]
        return json.dumps({"type": "FeatureCollection", "features": features})

    files = SimpleNamespace(
        buildings=tmp_path / "buildings.geojson",
        roads=tmp_path / "roads.geojson",
        boundary=tmp_path / "boundary.geojson",
    )
    files.buildings.write_text(collection("Polygon", [[building_ring]] if building_ring else []))
    files.roads.write_text(collection("LineString", [road], **{"class": "residential"}))
    files.boundary.write_text(collection("Polygon", [[boundary_ring]]))
    return write_config(tmp_path, files)


@pytest.mark.parametrize(
    "boundary_ring, road, building_ring",
    [
        (
            [[179.99, 0.0], [180.0, 0.0], [180.0, 0.01], [179.99, 0.01], [179.99, 0.0]],
            [[179.99, 0.005], [179.999, 0.005]],
            None,
        ),
        (
            [[-180.0, 89.99], [180.0, 89.99], [180.0, 90.0], [-180.0, 90.0], [-180.0, 89.99]],
            [[-20.0, 89.995], [20.0, 89.995]],
            [[-10.0, 89.996], [10.0, 89.996], [10.0, 89.998], [-10.0, 89.998], [-10.0, 89.996]],
        ),
    ],
    ids=["antimeridian", "pole"],
)
def test_cells_reaching_past_the_projection_edge_stay_on_earth(
    tmp_path, boundary_ring, road, building_ring
):
    # a cell square can reach past lon 180 or a pole; that part is not on Earth
    cfg = _edge_scene(tmp_path, boundary_ring, road, building_ring)
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["export-connectors", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    cells = json.loads((out / "cells.geojson").read_text())["features"]
    assert len(cells) == len(read_cells(out)) > 0
    positions = [p for f in cells for p in f["geometry"]["coordinates"][0]]
    assert max(lon for lon, _ in positions) == 180.0 or max(lat for _, lat in positions) == 90.0
    for lon, lat in positions:
        assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0


@pytest.mark.parametrize("cell_size", [1e162, 1e308, 1.7976931348623157e308])
def test_huge_cell_size_keeps_every_cell_corner_on_earth(tmp_path, cell_size):
    # a corner this far out overflows the clamp's ellipse test to inf
    files = write_lonlat_scene(tmp_path, random.Random(3), n_buildings=12, n_roads=3, span_deg=0.002)
    cfg = write_config(tmp_path, files, cell_size=cell_size)
    assert main(["run", "--config", str(cfg)]) == 0
    cells = json.loads((tmp_path / "out" / "cells.geojson").read_text())["features"]
    positions = [p for f in cells for p in f["geometry"]["coordinates"][0]]
    assert positions
    for lon, lat in positions:
        assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0


def test_connector_ends_at_the_antimeridian_near_a_pole_stay_on_earth(tmp_path):
    # the road's end at (-180, 89.9999) projects to a point that inverts a
    # hair past lon -180, as asin and cos lose precision near the pole
    edge = [[-180.0, 89.999 + k * 1e-5] for k in range(99)] + [[-180.0, 89.99999]]
    boundary_ring = edge + [[-170.0, 89.99999], [-170.0, 89.999], [-180.0, 89.999]]
    road = [[-180.0, 89.9999], [-179.0, 89.9999]]
    building_ring = [
        [-179.6, 89.9997], [-179.4, 89.9997], [-179.4, 89.9998], [-179.6, 89.9998], [-179.6, 89.9997]
    ]
    cfg = _edge_scene(tmp_path, boundary_ring, road, building_ring)
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["export-connectors", "--config", str(cfg)]) == 0
    features = json.loads((tmp_path / "out" / "connectors.geojson").read_text())["features"]
    assert len(features) == 1
    positions = features[0]["geometry"]["coordinates"]
    (road_end,) = [(lon, lat) for lon, lat in positions if lon == -180.0]
    assert abs(road_end[1] - 89.9999) < 1e-6
    for lon, lat in positions:
        assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0


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


def test_export_connectors_reuses_the_metric_pass(tmp_path, monkeypatch):
    files = write_lonlat_scene(tmp_path, random.Random(8), n_buildings=400, n_roads=12)
    cfg = write_config(tmp_path, files, out_name="one_pass")
    calls = []
    real_nearest = SegmentIndex.nearest_xy

    def counting_nearest(self, px, py):
        calls.append((px, py))
        return real_nearest(self, px, py)

    monkeypatch.setattr(SegmentIndex, "nearest_xy", counting_nearest)
    assert main(["export-connectors", "--config", str(cfg)]) == 0
    monkeypatch.undo()
    out = tmp_path / "one_pass"
    with open(out / "building_metrics.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(calls) == len(rows) > 300
    assert sum(int(r["obstruction_count"]) for r in rows) > 0

    # the same layers with connectors from a second nearest-road pass
    config = load_config(cfg)
    buildings, motorable, _ = cli._load_inputs(config, {})
    road_index = SegmentIndex(motorable)
    building_metrics = compute_all(buildings, road_index, PolygonIndex(buildings), motorable)
    by_id = {m.building_id: m for m in building_metrics}
    outputs.write_connectors_geojson(
        tmp_path / "connectors.geojson", connectors_for(buildings, road_index), by_id
    )
    outputs.write_building_metrics_csv(tmp_path / "building_metrics.csv", building_metrics)
    for name in ("connectors.geojson", "building_metrics.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_failed_rerun_leaves_no_manifest_that_disagrees(tmp_path, formal_fixture, monkeypatch, capsys):
    _, files = formal_fixture
    validations = tmp_path / "votes.csv"
    validations.write_text("cell_i,cell_j,validator_id,level\n0,0,a,low\n")
    cfg = write_config(tmp_path, files, out_name="atomic", validations=str(validations))
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "atomic"
    names = sorted(os.listdir(out))
    cells_csv = (out / "cells.csv").read_bytes()

    # a second run on another grid, whose cells.csv write fails part-way
    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, f, **kwargs):
            self._writer = real_writer(f, **kwargs)
            self._rows = 0

        def writerow(self, row):
            if self._rows == 3:
                raise OSError("disk full")
            self._rows += 1
            self._writer.writerow(row)

    monkeypatch.setattr(outputs.csv, "writer", FailingWriter)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_with(tmp_path, cfg, cell_size=200.0))]) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"configuration-error: cannot write {out / 'cells.csv'}: disk full"

    assert (out / "cells.csv").read_bytes() == cells_csv  # not truncated
    assert sorted(os.listdir(out)) == [n for n in names if n != "manifest.json"]
    manifest = out / "manifest.json"
    if manifest.exists():
        recorded = json.loads(manifest.read_text())["outputs"]
        for name, digest in recorded.items():
            assert outputs.file_sha256(out / name) == digest, name
    assert main(["evaluate", "--config", str(cfg)]) == 4


def test_failed_export_rerun_leaves_no_layers_from_two_runs(
    tmp_path, formal_fixture, informal_fixture, monkeypatch, capsys
):
    cfg = write_config(tmp_path, formal_fixture[1], out_name="layers")
    assert main(["export-connectors", "--config", str(cfg)]) == 0
    out = tmp_path / "layers"
    assert sorted(os.listdir(out)) == ["building_metrics.csv", "connectors.geojson"]

    # an export of another scene into the same directory, whose metrics
    # CSV cannot be written
    other = cfg_with(tmp_path, write_config(tmp_path, informal_fixture[1]), output_dir=str(out))

    def full_disk(f, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(outputs.csv, "writer", full_disk)
    capsys.readouterr()
    assert main(["export-connectors", "--config", str(other)]) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"configuration-error: cannot write {out / 'building_metrics.csv'}: ")

    # only the new connectors are left, never next to the old metrics
    assert sorted(os.listdir(out)) == ["connectors.geojson"]
    clean = cfg_with(tmp_path, other, output_dir=str(tmp_path / "clean"))
    assert main(["export-connectors", "--config", str(clean)]) == 0
    assert (out / "connectors.geojson").read_bytes() == (tmp_path / "clean" / "connectors.geojson").read_bytes()


def test_failed_evaluate_rerun_leaves_neither_old_output(tmp_path, formal_fixture, monkeypatch, capsys):
    _, files = formal_fixture
    votes = tmp_path / "votes.csv"
    cfg = write_config(tmp_path, files, out_name="eval_rerun", validations=str(votes))
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "eval_rerun"
    cells = [c for c in read_cells(out) if c["empty"] == "false"][:4]
    rows = [f"{c['i']},{c['j']},v{k},{c['level']}\n" for c in cells for k in range(3)]
    votes.write_text("cell_i,cell_j,validator_id,level\n" + "".join(rows))
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert (out / "ternary.csv").exists()

    # a second evaluation, on fewer votes, whose ternary.csv cannot be put in place
    votes.write_text("cell_i,cell_j,validator_id,level\n" + "".join(rows[:5]))
    real_replace = os.replace

    def full_disk(src, dst):
        if Path(dst).name == "ternary.csv":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_replace(src, dst)

    monkeypatch.setattr(outputs.os, "replace", full_disk)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    monkeypatch.undo()
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"configuration-error: cannot write {out / 'ternary.csv'}: ")
    assert not (out / "ternary.csv").exists()
    assert json.loads((out / "evaluation.json").read_text())["validation_rows"]["loaded"] == 5


def test_evaluate_old_output_that_cannot_be_removed_is_a_configuration_error(
    tmp_path, formal_fixture, capsys
):
    _, files = formal_fixture
    votes = tmp_path / "votes.csv"
    votes.write_text("cell_i,cell_j,validator_id,level\n0,0,a,low\n")
    cfg = write_config(tmp_path, files, out_name="eval_stuck", validations=str(votes))
    assert main(["run", "--config", str(cfg)]) == 0
    stuck = tmp_path / "eval_stuck" / "ternary.csv"
    stuck.mkdir()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("configuration-error: cannot ") and str(stuck) in err[-1]
    assert not (tmp_path / "eval_stuck" / "evaluation.json").exists()


def test_export_connectors_peaks_within_64_bytes_a_building_of_run(tmp_path):
    # in this process at workers=1, so tracemalloc sees the whole metric
    # stage; the second call of each leaves out what importing allocates
    files = generate(SceneSpec(seed=5, layout="formal_grid", extent=1400), tmp_path)
    cfg = write_config(tmp_path, files, workers=1)
    peaks = {}
    for command in ("run", "export-connectors", "run", "export-connectors"):
        tracemalloc.start()
        try:
            assert main([command, "--config", str(cfg)]) == 0
            peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    with open(tmp_path / "out" / "building_metrics.csv") as f:
        n = sum(1 for _ in f) - 1
    assert n > 1500
    assert peaks["export-connectors"] <= peaks["run"] + 64 * n, (peaks, n)


def test_cli_import_loads_no_process_pool(tmp_path):
    src = str(Path(roadaccess.__file__).resolve().parent.parent)
    code = (
        "import sys, roadaccess.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing', 'dataclasses', 'hashlib') "
        "if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"

    # nor does a run whose metric stage forks
    files = write_lonlat_scene(tmp_path, random.Random(3), n_buildings=12, n_roads=3, span_deg=0.002)
    cfg = write_config(tmp_path, files, workers=2)
    code = (
        "import os, sys; from roadaccess.cli import main; os.cpu_count = lambda: 2; "
        "code = main(sys.argv[1:]); "
        "print(code, [m for m in ('concurrent.futures', 'multiprocessing', 'pickle') if m in sys.modules])"
    )
    done = _run_cli_in_subprocess(["run", "--config", str(cfg)], code)
    assert done.stdout.strip() == "0 []", done.stderr


@pytest.mark.parametrize("command, target", [
    ("run", "cells.csv"), ("export-connectors", "connectors.geojson"),
])
@pytest.mark.parametrize("case", ["dir-is-a-file", "dir-under-a-file", "target-is-a-dir"])
def test_unusable_output_dir_is_a_configuration_error(tmp_path, capsys, command, target, case):
    files = write_lonlat_scene(tmp_path, random.Random(3), n_buildings=12, n_roads=3, span_deg=0.002)
    out = tmp_path / "out"
    if case == "dir-is-a-file":
        out.write_text("a file")
        named = out
    elif case == "dir-under-a-file":
        (tmp_path / "file").write_text("a file")
        out = tmp_path / "file" / "out"
        named = out
    else:
        (out / target).mkdir(parents=True)
        named = out / target
    cfg = cfg_with(tmp_path, write_config(tmp_path, files), output_dir=str(out))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("configuration-error: cannot ") and str(named) in err[-1]
    if case == "target-is-a-dir":
        # the temporary file is gone and no manifest vouches for anything
        names = [p.name for p in out.iterdir()]
        assert "manifest.json" not in names and not any(n.endswith(".tmp") for n in names)


def _run_cli_in_subprocess(args, code, python_flags=()):
    src = str(Path(roadaccess.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *python_flags, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_evaluate_and_export_connectors_load_no_openssl(tmp_path):
    files = write_lonlat_scene(tmp_path, random.Random(3), n_buildings=12, n_roads=3, span_deg=0.002)
    votes = tmp_path / "votes.csv"
    cfg = write_config(tmp_path, files, validations=str(votes))
    assert main(["run", "--config", str(cfg)]) == 0
    cell = read_cells(tmp_path / "out")[0]
    votes.write_text(f"cell_i,cell_j,validator_id,level\n{cell['i']},{cell['j']},v1,{cell['level']}\n")
    code = (
        "import sys; from roadaccess.cli import main; "
        "code = main(sys.argv[1:]); print(code, 'hashlib' in sys.modules, '_hashlib' in sys.modules)"
    )
    # run's manifest digests come from CPython's own SHA-256
    for command in ("run", "evaluate", "export-connectors"):
        done = _run_cli_in_subprocess([command, "--config", str(cfg)], code)
        assert done.stdout.split() == ["0", "False", "False"], (command, done.stderr)


def test_commands_load_no_logging_and_only_a_forking_stage_maps(tmp_path):
    files = write_lonlat_scene(tmp_path, random.Random(3), n_buildings=12, n_roads=3, span_deg=0.002)
    votes = tmp_path / "votes.csv"
    cfg = write_config(tmp_path, files, validations=str(votes), workers=1)
    assert main(["run", "--config", str(cfg)]) == 0
    cell = read_cells(tmp_path / "out")[0]
    votes.write_text(f"cell_i,cell_j,validator_id,level\n{cell['i']},{cell['j']},v1,{cell['level']}\n")
    code = (
        "import os, sys; from roadaccess.cli import main; os.cpu_count = lambda: 2; "
        "code = main(sys.argv[1:]); "
        "print(code, *[m for m in ('logging', 'traceback', 'tokenize', 'mmap', 'signal') if m in sys.modules])"
    )
    w2 = cfg_with(tmp_path, cfg, workers=2)
    for command in ("run", "evaluate", "export-connectors"):
        done = _run_cli_in_subprocess([command, "--config", str(cfg)], code)
        assert done.stdout.split() == ["0"], (command, done.stderr)
        if command != "evaluate":  # the metric stage forks: its mapping and kill signal
            done = _run_cli_in_subprocess([command, "--config", str(w2)], code)
            assert done.stdout.split() == ["0", "mmap", "signal"], (command, done.stderr)


def test_commands_are_warning_free_in_dev_mode(tmp_path):
    # unclosed files and deprecations are errors here; in-process tests miss them
    files = write_lonlat_scene(tmp_path, random.Random(3), n_buildings=12, n_roads=3, span_deg=0.002)
    votes = tmp_path / "votes.csv"
    cfg = write_config(tmp_path, files, validations=str(votes), workers=1)
    code = "import sys; from roadaccess.cli import main; sys.exit(main(sys.argv[1:]))"
    done = _run_cli_in_subprocess(["run", "--config", str(cfg)], code, ("-X", "dev", "-W", "error"))
    assert done.returncode == 0, done.stderr
    # at workers=2 the metric stage forks: its shared mapping must be closed
    # too, and no log line may be written twice
    forked = "import os; os.cpu_count = lambda: 2; " + code
    w2 = cfg_with(tmp_path, cfg, workers=2, output_dir=str(tmp_path / "w2"))
    done = _run_cli_in_subprocess(["run", "--config", str(w2)], forked, ("-X", "dev", "-W", "error"))
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == len(set(lines)), done.stderr
    computed = [line for line in lines if "computed metrics for" in line]
    assert len(computed) == 1 and int(computed[0].split()[-2]) >= 4, done.stderr  # two shares
    assert (tmp_path / "w2" / "cells.csv").read_bytes() == (tmp_path / "out" / "cells.csv").read_bytes()
    cells = read_cells(tmp_path / "out")[:6]
    votes.write_text(
        "cell_i,cell_j,validator_id,level\n"
        + "".join(f"{c['i']},{c['j']},v{n % 2},{c['level']}\n" for n, c in enumerate(cells))
    )
    for command in ("evaluate", "export-connectors"):
        done = _run_cli_in_subprocess([command, "--config", str(cfg)], code, ("-X", "dev", "-W", "error"))
        assert done.returncode == 0, (command, done.stderr)
    # export-connectors collects the forked stream into its columns
    done = _run_cli_in_subprocess(["export-connectors", "--config", str(w2)], forked, ("-X", "dev", "-W", "error"))
    assert done.returncode == 0, done.stderr
    for name in ("connectors.geojson", "building_metrics.csv"):
        assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name


def test_stderr_lines_are_pinned(tmp_path):
    # one malformed building and one malformed road, each second in its file
    files = write_lonlat_scene(tmp_path, random.Random(3), n_buildings=12, n_roads=3, span_deg=0.002)
    point = {"type": "Point", "coordinates": [36.8, -1.28]}
    for path, props in ((files.buildings, {}), (files.roads, {"class": "residential"})):
        doc = json.loads(path.read_text())
        doc["features"].insert(1, {"type": "Feature", "geometry": point, "properties": props})
        path.write_text(json.dumps(doc))
    votes = tmp_path / "votes.csv"
    cfg = write_config(tmp_path, files, validations=str(votes))
    src = str(Path(roadaccess.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "roadaccess.cli", "run", "--config", str(cfg)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        f"WARNING roadaccess.ingest: skipping road feature 1 in {files.roads}: unsupported geometry type 'Point'",
        f"INFO roadaccess.ingest: roads {files.roads}: 4 features (3 loaded, 1 skipped) -> 3 segments",
        f"WARNING roadaccess.ingest: skipping building feature 1 in {files.buildings}: "
        "unsupported geometry type 'Point'",
        f"INFO roadaccess.ingest: buildings {files.buildings}: 13 features (12 loaded, 1 skipped) -> 12 buildings",
        "INFO __main__: in scope after clipping: 12 buildings, 3 motorable roads",
        "INFO __main__: computed metrics for 12 buildings",
        "INFO __main__: classified 20 cells (8 built, 12 empty)",
    ]

    # lines 3 and 4 are rejected: an unknown level and a blank validator
    cell = next(c for c in read_cells(tmp_path / "out") if c["empty"] == "false")
    votes.write_text(
        "cell_i,cell_j,validator_id,level\n"
        f"{cell['i']},{cell['j']},v1,{cell['level']}\n"
        f"{cell['i']},{cell['j']},v2,bogus\n"
        f"{cell['i']},{cell['j']},,low\n"
    )
    code = "import sys; from roadaccess.cli import main; sys.exit(main(sys.argv[1:]))"
    done = _run_cli_in_subprocess(["evaluate", "--config", str(cfg)], code)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        f"ERROR roadaccess.ingest: {votes}: rejected 2 validation rows (lines 3, 4)",
        "INFO roadaccess.cli: evaluated 1 matched cells: accuracy 1.000",
    ]
