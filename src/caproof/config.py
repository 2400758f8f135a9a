"""Declarative JSON config loading for model, hardware, and workload specs.

Every file carries a "type" discriminator. Unknown keys are rejected unless
allow_unknown is set; the first offending key is named in the error. A
free-form "notes" key is always accepted so catalog entries can state where
their constants come from. See docs/schemas.md for the full schemas.

Parsing and serialisation walk the spec dataclasses' fields: the keys are
the field names, a field without a default is required, and its annotation
gives the JSON type. The spec modules use postponed annotations, so each
annotation is read as its source text.
"""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .hardware import HardwareSpec
from .model import GQA, MHA, MLA, MoESpec, ModelSpec
from .workload import WorkloadSpec

Spec = Union[ModelSpec, HardwareSpec, WorkloadSpec]

_TYPES = {"model": ModelSpec, "hardware": HardwareSpec, "workload": WorkloadSpec}
_TYPE_NAMES = {cls: name for name, cls in _TYPES.items()}
_ATTENTION = {cls.kind: cls for cls in (MHA, GQA, MLA)}
# A field's annotation text (without Optional[...]) -> the type its JSON holds.
_NESTED = {"MoESpec": MoESpec}
_SCALARS = {"str": str, "int": int, "float": float, "bool": bool}

_CATALOG_DIRS = {"model": "models", "hardware": "hardware", "workload": "workloads"}

# The largest integer magnitude a float holds exactly. Every integer input is
# bounded by it, so the float forms of counts and their products stay finite.
MAX_EXACT_INT = 2**53


class ConfigError(ValueError):
    """A config file failed to load or validate."""


def _fail(source: str, message: str) -> None:
    raise ConfigError(f"{source}: {message}")


def _require(data: Dict[str, Any], key: str, source: str) -> Any:
    if key not in data:
        _fail(source, f"missing required key '{key}'")
    return data[key]


def _check(value: Any, key: str, kind: type, source: str) -> Any:
    """value as a JSON scalar of the given type: bool is not int, an int is
    at most MAX_EXACT_INT in magnitude, int widens to float, and a float must
    be finite."""
    if kind is int and isinstance(value, bool):
        _fail(source, f"key '{key}' must be an integer, got a boolean")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond float range
            value = math.inf
    if not isinstance(value, kind):
        _fail(source, f"key '{key}' must be {kind.__name__}, got {type(value).__name__}")
    if kind is int and abs(value) > MAX_EXACT_INT:
        _fail(source, f"key '{key}' must be at most 2**53 in magnitude")
    if kind is float and not math.isfinite(value):
        _fail(source, f"key '{key}' must be a finite number, got {value}")
    return value


def _object(value: Any, key: str, source: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        _fail(source, f"key '{key}' must be an object, got {type(value).__name__}")
    return value


def _parse(cls: type, data: Dict[str, Any], source: str, allow_unknown: bool,
           tag: Optional[str] = None) -> Any:
    """Build cls from a JSON object field by field. tag names the object's
    discriminator key ("type" or "kind"), which is accepted besides the
    fields and "notes"."""
    fields = dataclasses.fields(cls)
    if not allow_unknown:
        allowed = {f.name for f in fields} | {tag, "notes"}
        for key in data:
            if key not in allowed:
                _fail(source, f"unknown key '{key}' (pass allow_unknown to accept it)")
    values = {}
    for f in fields:
        if f.name in data or f.default is dataclasses.MISSING:
            values[f.name] = _field(f, _require(data, f.name, source), source, allow_unknown)
    try:
        return cls(**values)
    except ValueError as exc:
        _fail(source, str(exc))


def _field(f: dataclasses.Field, value: Any, source: str, allow_unknown: bool) -> Any:
    """The JSON value of field f, checked and converted as its annotation says."""
    optional = f.type.startswith("Optional[")
    kind = f.type[len("Optional["):-1] if optional else f.type
    if kind in _SCALARS:
        return _check(value, f.name, _SCALARS[kind], source)
    inner = f"{source}.{f.name}"
    if kind == "Dict[int, float]":  # peak_flops: bit width -> FLOP/s
        peaks = {}
        for bits, rate in _object(value, f.name, source).items():
            try:
                width = int(bits)
            except (TypeError, ValueError):
                _fail(source, f"{f.name} key '{bits}' is not an integer bit width")
            peaks[width] = _check(rate, bits, float, inner)
        return peaks
    if kind == "AttentionKind":  # the variant is chosen by its "kind" key
        data = _object(value, f.name, source)
        variant = _check(_require(data, "kind", inner), "kind", str, inner)
        if variant not in _ATTENTION:
            _fail(source, f"{f.name}.kind must be one of {', '.join(_ATTENTION)}; "
                          f"got '{variant}'")
        return _parse(_ATTENTION[variant], data, inner, allow_unknown, "kind")
    if optional and value is None:  # "moe": null means no MoE
        return None
    return _parse(_NESTED[kind], _object(value, f.name, source), inner, allow_unknown)


def parse_config(data: Any, source: str, allow_unknown: bool = False) -> Spec:
    """Build the spec a parsed JSON object describes, dispatching on its
    "type" key; source prefixes every error."""
    if not isinstance(data, dict):
        _fail(source, "top level must be a JSON object")
    kind = _check(_require(data, "type", source), "type", str, source)
    if kind not in _TYPES:
        _fail(source, f"type must be one of {sorted(_TYPES)}, got '{kind}'")
    return _parse(_TYPES[kind], data, source, allow_unknown, "type")


def load_config(path: Union[str, Path], allow_unknown: bool = False) -> Spec:
    """Load one config file, dispatching on its "type" key."""
    path = Path(path)
    source = str(path)
    if not path.is_file():
        _fail(source, "no such config file")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, bad UTF-8 or an integer of too many digits
        _fail(source, f"invalid JSON: {exc}")
    return parse_config(data, source, allow_unknown)


def spec_to_dict(spec: Any) -> Dict[str, Any]:
    """A spec as its JSON object: "type" (or an attention variant's "kind")
    first, then every field in declaration order. None values are omitted,
    nested specs become objects and peak_flops gets sorted string keys."""
    data: Dict[str, Any] = {}
    if type(spec) in _TYPE_NAMES:
        data["type"] = _TYPE_NAMES[type(spec)]
    elif hasattr(spec, "kind"):
        data["kind"] = spec.kind
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if dataclasses.is_dataclass(value):
            value = spec_to_dict(value)
        elif isinstance(value, dict):
            value = {str(key): item for key, item in sorted(value.items())}
        if value is not None:
            data[f.name] = value
    return data


def dump_config(spec: Spec, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n", encoding="utf-8")


def _catalog_root():
    return resources.files("caproof").joinpath("catalog")


def list_catalog(kind: str) -> List[str]:
    """Names of bundled presets for 'model', 'hardware', or 'workload'."""
    directory = _catalog_root().joinpath(_CATALOG_DIRS[kind])
    return sorted(entry.name[: -len(".json")] for entry in directory.iterdir() if entry.name.endswith(".json"))


def resolve_config(ref: str, kind: str, allow_unknown: bool = False) -> Spec:
    """Resolve a --model/--hardware/--workload argument: a bundled catalog
    name first, then a filesystem path."""
    if "/" not in ref and "\\" not in ref and not ref.endswith(".json"):
        entry = _catalog_root().joinpath(_CATALOG_DIRS[kind], ref + ".json")
        if entry.is_file():
            with resources.as_file(entry) as real_path:
                spec = load_config(real_path, allow_unknown)
        else:
            names = ", ".join(list_catalog(kind)) or "(none)"
            _fail(ref, f"not a bundled {kind} preset (have: {names}) and not a path")
    else:
        spec = load_config(ref, allow_unknown)
    if not isinstance(spec, _TYPES[kind]):
        _fail(ref, f"expected a {kind} config, got type '{_TYPE_NAMES[type(spec)]}'")
    return spec
