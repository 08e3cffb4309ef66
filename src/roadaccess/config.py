"""Pipeline configuration: a JSON config file merged with CLI overrides."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .classify import DEFAULT_OBSTRUCTION_THRESHOLD
from .errors import ConfigurationError
from .grid import DEFAULT_CELL_SIZE_M


_REQUIRED = object()  # a setting without a default: the config file must give it

# Every config file key with its default, in the order the missing-key message lists them.
_SETTINGS = {
    "buildings": _REQUIRED,
    "roads": _REQUIRED,
    "boundary": _REQUIRED,
    "output_dir": _REQUIRED,
    "validations": None,
    "class_property": "class",
    "surface_property": "surface",
    "min_confidence": None,
    "threshold": DEFAULT_OBSTRUCTION_THRESHOLD,
    "cell_size": DEFAULT_CELL_SIZE_M,
    "include_empty_in_distribution": False,
    "workers": None,
}


class PipelineConfig:
    """The run's settings; its slots are the config file's keys."""

    __slots__ = tuple(_SETTINGS)

    def __init__(self, **values):
        for name, default in _SETTINGS.items():
            setattr(self, name, values[name] if default is _REQUIRED else values.get(name, default))

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
        """Parameter values for the run manifest: every setting but the paths
        and the worker count, which do not change the outputs."""
        return {k: getattr(self, k) for k in _SETTINGS if k not in _PATH_KEYS and k != "workers"}


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
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    unknown = sorted(set(raw) - set(_SETTINGS))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k, default in _SETTINGS.items() if default is _REQUIRED and k not in raw]
    if missing:
        raise ConfigurationError(f"missing config keys: {', '.join(missing)}")
    base = Path(path).resolve().parent
    kwargs = dict(raw)
    for key in _PATH_KEYS:
        if key == "validations" and kwargs.get(key) is None:
            continue  # the only optional path
        if not isinstance(kwargs[key], str):
            raise ConfigurationError(f"{key} must be a path string, got {kwargs[key]!r}")
        if not kwargs[key]:  # Path("") is the current directory
            raise ConfigurationError(f"{key} must be a non-empty path string, got ''")
        if "\0" in kwargs[key]:  # os calls raise ValueError, not OSError, on it
            raise ConfigurationError(f"{key} must not contain a NUL byte, got {kwargs[key]!r}")
        p = Path(kwargs[key])
        kwargs[key] = p if p.is_absolute() else base / p
    return PipelineConfig(**kwargs)
