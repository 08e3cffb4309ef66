"""Pipeline configuration: a JSON config file merged with CLI overrides."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigurationError


@dataclass
class PipelineConfig:
    buildings: Path
    roads: Path
    boundary: Path
    output_dir: Path
    validations: Path | None = None
    class_property: str = "class"
    surface_property: str = "surface"
    min_confidence: float | None = None
    threshold: float = 1.0
    cell_size: float = 100.0
    include_empty_in_distribution: bool = False
    workers: int | None = None

    def validate(self, require_validations: bool = False) -> None:
        for name in ("threshold", "cell_size"):
            value = getattr(self, name)
            if not (_is_finite_number(value) and value > 0):
                raise ConfigurationError(f"{name} must be a finite number > 0, got {value!r}")
        if self.min_confidence is not None and not (
            _is_finite_number(self.min_confidence) and 0.0 <= self.min_confidence <= 1.0
        ):
            raise ConfigurationError(
                f"min_confidence must be a fraction in [0, 1], got {self.min_confidence!r}"
            )
        if self.workers is not None and not (
            type(self.workers) is int and self.workers >= 1
        ):
            raise ConfigurationError(f"workers must be an integer >= 1, got {self.workers!r}")
        if not isinstance(self.include_empty_in_distribution, bool):
            raise ConfigurationError(
                "include_empty_in_distribution must be true or false, "
                f"got {self.include_empty_in_distribution!r}"
            )
        for name in ("class_property", "surface_property"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value):
                raise ConfigurationError(f"{name} must be a non-empty string, got {value!r}")
        for name in ("buildings", "roads", "boundary"):
            path = getattr(self, name)
            if not Path(path).exists():
                raise ConfigurationError(f"{name} file not found: {path}")
        if require_validations:
            if self.validations is None:
                raise ConfigurationError("validations path not configured")
            if not Path(self.validations).exists():
                raise ConfigurationError(f"validations file not found: {self.validations}")

    def parameters(self) -> dict:
        """Parameter values for the run manifest."""
        return {
            "class_property": self.class_property,
            "surface_property": self.surface_property,
            "min_confidence": self.min_confidence,
            "threshold": self.threshold,
            "cell_size": self.cell_size,
            "include_empty_in_distribution": self.include_empty_in_distribution,
        }


def _is_finite_number(value: object) -> bool:
    """An int or a finite float; JSON true/false are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


_PATH_KEYS = ("buildings", "roads", "boundary", "output_dir", "validations")


def load_config(path: Path | str) -> PipelineConfig:
    """Read the JSON config file; unknown keys are configuration errors."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in ("buildings", "roads", "boundary", "output_dir") if k not in raw]
    if missing:
        raise ConfigurationError(f"missing config keys: {', '.join(missing)}")
    base = Path(path).resolve().parent
    kwargs = dict(raw)
    for key in _PATH_KEYS:
        if key == "validations" and kwargs.get(key) is None:
            continue  # the only optional path
        if not isinstance(kwargs[key], str):
            raise ConfigurationError(f"{key} must be a path string, got {kwargs[key]!r}")
        p = Path(kwargs[key])
        kwargs[key] = p if p.is_absolute() else base / p
    try:
        return PipelineConfig(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"invalid config {path}: {exc}") from exc
