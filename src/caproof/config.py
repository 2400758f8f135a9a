"""Declarative JSON config loading for model, hardware, and workload specs.

Every file carries a "type" discriminator. Unknown keys are rejected unless
allow_unknown is set; the first offending key is named in the error. A
free-form "notes" key is always accepted so catalog entries can state where
their constants come from. See docs/schemas.md for the full schemas.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Any, Dict, List, Union

from .hardware import HardwareSpec
from .model import GQA, MHA, MLA, MoESpec, ModelSpec
from .workload import WorkloadSpec

Spec = Union[ModelSpec, HardwareSpec, WorkloadSpec]

_CATALOG_DIRS = {"model": "models", "hardware": "hardware", "workload": "workloads"}


class ConfigError(ValueError):
    """A config file failed to load or validate."""


def _fail(source: str, message: str) -> None:
    raise ConfigError(f"{source}: {message}")


def _check_keys(data: Dict[str, Any], allowed: set, source: str, allow_unknown: bool) -> None:
    if allow_unknown:
        return
    for key in data:
        if key not in allowed and key != "notes":
            _fail(source, f"unknown key '{key}' (pass allow_unknown to accept it)")


def _get(
    data: Dict[str, Any],
    key: str,
    kind: type,
    source: str,
    default: Any = ...,
) -> Any:
    if key not in data:
        if default is ...:
            _fail(source, f"missing required key '{key}'")
        return default
    value = data[key]
    if kind is int and isinstance(value, bool):
        _fail(source, f"key '{key}' must be an integer, got a boolean")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond float range
            value = math.inf
    if not isinstance(value, kind):
        _fail(source, f"key '{key}' must be {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        _fail(source, f"key '{key}' must be a finite number, got {value}")
    return value


_MODEL_KEYS = {
    "type",
    "name",
    "num_layers",
    "d_model",
    "num_heads",
    "head_dim",
    "d_ff",
    "ffn_gated",
    "attention",
    "moe",
    "vocab_size",
    "weight_bits",
    "kv_bits",
}


def _parse_attention(data: Any, source: str, allow_unknown: bool):
    if not isinstance(data, dict):
        _fail(source, f"key 'attention' must be an object, got {type(data).__name__}")
    kind = _get(data, "kind", str, source + ".attention")
    if kind == "mha":
        _check_keys(data, {"kind"}, source + ".attention", allow_unknown)
        return MHA()
    if kind == "gqa":
        _check_keys(data, {"kind", "num_kv_heads"}, source + ".attention", allow_unknown)
        return GQA(num_kv_heads=_get(data, "num_kv_heads", int, source + ".attention"))
    if kind == "mla":
        _check_keys(data, {"kind", "d_latent", "d_rope"}, source + ".attention", allow_unknown)
        return MLA(
            d_latent=_get(data, "d_latent", int, source + ".attention"),
            d_rope=_get(data, "d_rope", int, source + ".attention", default=0),
        )
    _fail(source, f"attention.kind must be one of mha, gqa, mla; got '{kind}'")


def parse_model(data: Dict[str, Any], source: str, allow_unknown: bool = False) -> ModelSpec:
    _check_keys(data, _MODEL_KEYS, source, allow_unknown)
    moe = None
    if data.get("moe") is not None:
        moe_data = data["moe"]
        if not isinstance(moe_data, dict):
            _fail(source, f"key 'moe' must be an object, got {type(moe_data).__name__}")
        _check_keys(
            moe_data,
            {"num_experts", "top_k", "num_shared_experts", "d_ff_expert"},
            source + ".moe",
            allow_unknown,
        )
        try:
            moe = MoESpec(
                num_experts=_get(moe_data, "num_experts", int, source + ".moe"),
                top_k=_get(moe_data, "top_k", int, source + ".moe"),
                num_shared_experts=_get(moe_data, "num_shared_experts", int, source + ".moe", default=0),
                d_ff_expert=_get(moe_data, "d_ff_expert", int, source + ".moe"),
            )
        except ValueError as exc:
            _fail(source, str(exc))
    attention = MHA()
    if "attention" in data:
        try:
            attention = _parse_attention(data["attention"], source, allow_unknown)
        except ConfigError:
            raise
        except ValueError as exc:
            _fail(source, str(exc))
    try:
        return ModelSpec(
            name=_get(data, "name", str, source),
            num_layers=_get(data, "num_layers", int, source),
            d_model=_get(data, "d_model", int, source),
            num_heads=_get(data, "num_heads", int, source),
            head_dim=_get(data, "head_dim", int, source, default=None),
            d_ff=_get(data, "d_ff", int, source),
            ffn_gated=_get(data, "ffn_gated", bool, source, default=True),
            attention=attention,
            moe=moe,
            vocab_size=_get(data, "vocab_size", int, source, default=0),
            weight_bits=_get(data, "weight_bits", int, source, default=16),
            kv_bits=_get(data, "kv_bits", int, source, default=16),
        )
    except ValueError as exc:
        _fail(source, str(exc))


_HARDWARE_KEYS = {"type", "name", "peak_flops", "mem_bandwidth", "mem_capacity", "num_devices"}


def parse_hardware(data: Dict[str, Any], source: str, allow_unknown: bool = False) -> HardwareSpec:
    _check_keys(data, _HARDWARE_KEYS, source, allow_unknown)
    raw_peaks = _get(data, "peak_flops", dict, source)
    peaks: Dict[int, float] = {}
    for key in raw_peaks:
        try:
            bits = int(key)
        except (TypeError, ValueError):
            _fail(source, f"peak_flops key '{key}' is not an integer bit width")
        peaks[bits] = _get(raw_peaks, key, float, source + ".peak_flops")
    try:
        return HardwareSpec(
            name=_get(data, "name", str, source),
            peak_flops=peaks,
            mem_bandwidth=_get(data, "mem_bandwidth", float, source),
            mem_capacity=_get(data, "mem_capacity", float, source),
            num_devices=_get(data, "num_devices", int, source, default=1),
        )
    except ValueError as exc:
        _fail(source, str(exc))


_WORKLOAD_KEYS = {
    "type",
    "name",
    "turns",
    "prefill_tokens_per_turn",
    "decode_tokens_per_turn",
    "carry_context",
    "batch_size",
}


def parse_workload(data: Dict[str, Any], source: str, allow_unknown: bool = False) -> WorkloadSpec:
    _check_keys(data, _WORKLOAD_KEYS, source, allow_unknown)
    try:
        return WorkloadSpec(
            name=_get(data, "name", str, source),
            turns=_get(data, "turns", int, source),
            prefill_tokens_per_turn=_get(data, "prefill_tokens_per_turn", int, source),
            decode_tokens_per_turn=_get(data, "decode_tokens_per_turn", int, source),
            carry_context=_get(data, "carry_context", bool, source, default=True),
            batch_size=_get(data, "batch_size", int, source, default=1),
        )
    except ValueError as exc:
        _fail(source, str(exc))


_PARSERS = {"model": parse_model, "hardware": parse_hardware, "workload": parse_workload}


def load_config(path: Union[str, Path], allow_unknown: bool = False) -> Spec:
    """Load one config file, dispatching on its "type" key."""
    path = Path(path)
    source = str(path)
    if not path.is_file():
        _fail(source, "no such config file")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        _fail(source, f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        _fail(source, "top level must be a JSON object")
    kind = _get(data, "type", str, source)
    parser = _PARSERS.get(kind)
    if parser is None:
        _fail(source, f"type must be one of {sorted(_PARSERS)}, got '{kind}'")
    return parser(data, source, allow_unknown)


def model_to_dict(spec: ModelSpec) -> Dict[str, Any]:
    attention: Dict[str, Any] = {"kind": spec.attention.kind}
    if isinstance(spec.attention, GQA):
        attention["num_kv_heads"] = spec.attention.num_kv_heads
    elif isinstance(spec.attention, MLA):
        attention["d_latent"] = spec.attention.d_latent
        attention["d_rope"] = spec.attention.d_rope
    data: Dict[str, Any] = {
        "type": "model",
        "name": spec.name,
        "num_layers": spec.num_layers,
        "d_model": spec.d_model,
        "num_heads": spec.num_heads,
        "head_dim": spec.head_dim,
        "d_ff": spec.d_ff,
        "ffn_gated": spec.ffn_gated,
        "attention": attention,
        "vocab_size": spec.vocab_size,
        "weight_bits": spec.weight_bits,
        "kv_bits": spec.kv_bits,
    }
    if spec.moe is not None:
        data["moe"] = {
            "num_experts": spec.moe.num_experts,
            "top_k": spec.moe.top_k,
            "num_shared_experts": spec.moe.num_shared_experts,
            "d_ff_expert": spec.moe.d_ff_expert,
        }
    return data


def hardware_to_dict(spec: HardwareSpec) -> Dict[str, Any]:
    return {
        "type": "hardware",
        "name": spec.name,
        "peak_flops": {str(bits): rate for bits, rate in sorted(spec.peak_flops.items())},
        "mem_bandwidth": spec.mem_bandwidth,
        "mem_capacity": spec.mem_capacity,
        "num_devices": spec.num_devices,
    }


def workload_to_dict(spec: WorkloadSpec) -> Dict[str, Any]:
    return {
        "type": "workload",
        "name": spec.name,
        "turns": spec.turns,
        "prefill_tokens_per_turn": spec.prefill_tokens_per_turn,
        "decode_tokens_per_turn": spec.decode_tokens_per_turn,
        "carry_context": spec.carry_context,
        "batch_size": spec.batch_size,
    }


def spec_to_dict(spec: Spec) -> Dict[str, Any]:
    if isinstance(spec, ModelSpec):
        return model_to_dict(spec)
    if isinstance(spec, HardwareSpec):
        return hardware_to_dict(spec)
    return workload_to_dict(spec)


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
    expected = {"model": ModelSpec, "hardware": HardwareSpec, "workload": WorkloadSpec}[kind]
    if not isinstance(spec, expected):
        _fail(ref, f"expected a {kind} config, got type '{spec_to_dict(spec)['type']}'")
    return spec
