import dataclasses
import json
import random

import pytest

from caproof.cli import main
from caproof.config import (
    ConfigError,
    dump_config,
    list_catalog,
    load_config,
    parse_config,
    resolve_config,
    spec_to_dict,
)
from caproof.hardware import HardwareSpec
from caproof.model import GQA, MLA, MoESpec, ModelSpec
from caproof.workload import WorkloadSpec
from oracles import random_model


def write(tmp_path, name, data):
    """data as a JSON file; a string is written as the raw text of one."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return path


MINIMAL_MODEL = {
    "type": "model",
    "name": "mini",
    "num_layers": 2,
    "d_model": 64,
    "num_heads": 4,
    "d_ff": 128,
}


def test_minimal_model_fills_defaults(tmp_path):
    spec = load_config(write(tmp_path, "m.json", MINIMAL_MODEL))
    assert isinstance(spec, ModelSpec)
    assert spec.head_dim == 16
    assert spec.weight_bits == 16 and spec.kv_bits == 16
    assert spec.ffn_gated is True
    assert spec.moe is None


def test_moe_invariant_error_names_fields(tmp_path):
    bad = dict(MINIMAL_MODEL, moe={"num_experts": 4, "top_k": 6, "d_ff_expert": 32})
    with pytest.raises(ConfigError, match="top_k.*num_experts"):
        load_config(write(tmp_path, "m.json", bad))


def test_unknown_key_rejected_and_override(tmp_path):
    path = write(tmp_path, "m.json", dict(MINIMAL_MODEL, vocab=100))
    with pytest.raises(ConfigError, match="unknown key 'vocab'"):
        load_config(path)
    spec = load_config(path, allow_unknown=True)
    assert spec.vocab_size == 0


def test_notes_key_always_accepted(tmp_path):
    spec = load_config(write(tmp_path, "m.json", dict(MINIMAL_MODEL, notes="hello")))
    assert spec.name == "mini"


def test_type_errors_name_the_key(tmp_path):
    with pytest.raises(ConfigError, match="'num_layers' must be"):
        load_config(write(tmp_path, "m.json", dict(MINIMAL_MODEL, num_layers="two")))
    with pytest.raises(ConfigError, match="'num_layers' must be an integer"):
        load_config(write(tmp_path, "m.json", dict(MINIMAL_MODEL, num_layers=True)))


def test_missing_required_key(tmp_path):
    data = dict(MINIMAL_MODEL)
    del data["d_model"]
    with pytest.raises(ConfigError, match="missing required key 'd_model'"):
        load_config(write(tmp_path, "m.json", data))


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="no such config file"):
        load_config(tmp_path / "absent.json")
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_attention_kinds_parse(tmp_path):
    gqa = dict(MINIMAL_MODEL, attention={"kind": "gqa", "num_kv_heads": 2})
    spec = load_config(write(tmp_path, "g.json", gqa))
    assert spec.attention == GQA(num_kv_heads=2)
    mla = dict(MINIMAL_MODEL, attention={"kind": "mla", "d_latent": 32})
    spec = load_config(write(tmp_path, "l.json", mla))
    assert spec.attention == MLA(d_latent=32, d_rope=0)
    bad = dict(MINIMAL_MODEL, attention={"kind": "windowed"})
    with pytest.raises(ConfigError, match="attention.kind"):
        load_config(write(tmp_path, "b.json", bad))


def test_hardware_parse_and_string_bit_keys(tmp_path):
    data = {
        "type": "hardware",
        "name": "h",
        "peak_flops": {"16": 1e15, "8": 2e15},
        "mem_bandwidth": 1e12,
        "mem_capacity": 1e11,
    }
    spec = load_config(write(tmp_path, "h.json", data))
    assert isinstance(spec, HardwareSpec)
    assert spec.peak_flops == {16: 1e15, 8: 2e15}
    assert spec.num_devices == 1


def test_workload_parse(tmp_path):
    data = {
        "type": "workload",
        "name": "w",
        "turns": 3,
        "prefill_tokens_per_turn": 10,
        "decode_tokens_per_turn": 2,
    }
    spec = load_config(write(tmp_path, "w.json", data))
    assert isinstance(spec, WorkloadSpec)
    assert spec.carry_context is True and spec.batch_size == 1


def test_unknown_type(tmp_path):
    with pytest.raises(ConfigError, match="type must be one of"):
        load_config(write(tmp_path, "x.json", {"type": "gpu", "name": "x"}))


@pytest.mark.parametrize("kind", ["model", "hardware", "workload"])
def test_catalog_presets_load_and_round_trip(kind, tmp_path):
    names = list_catalog(kind)
    assert names, f"no bundled {kind} presets"
    for name in names:
        spec = resolve_config(name, kind)
        path = tmp_path / f"{name}.json"
        dump_config(spec, path)
        reloaded = load_config(path)
        assert reloaded == spec
        assert spec_to_dict(reloaded) == spec_to_dict(spec)


def test_expected_presets_present():
    assert {"mha-48x2048", "gqa8-48x2048", "mla-48x2048", "dense-70b", "moe-256e"} <= set(
        list_catalog("model")
    )
    assert {"b200-sxm", "unit-device"} <= set(list_catalog("hardware"))
    assert {"chatbot", "coding-agent", "web-use", "computer-use"} <= set(
        list_catalog("workload")
    )


def test_resolve_rejects_wrong_kind(tmp_path):
    path = write(tmp_path, "m.json", MINIMAL_MODEL)
    with pytest.raises(ConfigError, match="expected a hardware config"):
        resolve_config(str(path), "hardware")


def test_resolve_unknown_name_lists_presets():
    with pytest.raises(ConfigError, match="coding-agent"):
        resolve_config("no-such-workload", "workload")


HARDWARE = {"type": "hardware", "name": "h", "peak_flops": {"16": 1e15},
            "mem_bandwidth": 1e12, "mem_capacity": 1e11}
WORKLOAD = {"type": "workload", "name": "w", "turns": 3, "prefill_tokens_per_turn": 10,
            "decode_tokens_per_turn": 2}
MOE_MODEL = dict(MINIMAL_MODEL, moe={"num_experts": 4, "top_k": 2, "d_ff_expert": 32})


def without(data, key):
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("data, named", [
    (without(MINIMAL_MODEL, "num_layers"), "missing required key 'num_layers'"),
    (dict(MINIMAL_MODEL, num_layers="2"), "key 'num_layers' must be int"),
    (without(HARDWARE, "mem_bandwidth"), "missing required key 'mem_bandwidth'"),
    (dict(HARDWARE, mem_capacity="1e11"), "key 'mem_capacity' must be float"),
    (without(WORKLOAD, "turns"), "missing required key 'turns'"),
    (dict(WORKLOAD, batch_size=1.5), "key 'batch_size' must be int"),
    (dict(MOE_MODEL, moe=without(MOE_MODEL["moe"], "d_ff_expert")),
     ".moe: missing required key 'd_ff_expert'"),
    (dict(MOE_MODEL, moe=dict(MOE_MODEL["moe"], top_k=True)),
     ".moe: key 'top_k' must be an integer"),
])
def test_error_names_the_file_once(tmp_path, data, named):
    path = write(tmp_path, "bad.json", data)
    with pytest.raises(ConfigError, match=named) as exc:
        load_config(path)
    assert str(exc.value).count(str(path)) == 1


def test_cli_error_names_the_file_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "bad.json", dict(MINIMAL_MODEL, num_layers="2"))
    monkeypatch.setattr("sys.argv", ["caproof", "analyze", "--model", str(path),
                                     "--hardware", "unit-device", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {path}: key 'num_layers' must be int, got str\n"


@pytest.mark.parametrize("kind, data, message", [
    ("model", [MINIMAL_MODEL], "top level must be a JSON object"),
    ("hardware", dict(HARDWARE, peak_flops={"abc": 1e15}),
     "peak_flops key 'abc' is not an integer bit width"),
    ("hardware", dict(HARDWARE, peak_flops={"16": 2e15, "016": 1e9}),
     "peak_flops key '016' is not an integer bit width"),
    ("hardware", dict(HARDWARE, peak_flops={" 16": 1e15}),
     "peak_flops key ' 16' is not an integer bit width"),
    ("model", dict(MINIMAL_MODEL, attention=[1]), "key 'attention' must be an object, got list"),
    ("model", dict(MINIMAL_MODEL, moe=5), "key 'moe' must be an object, got int"),
    ("hardware", dict(HARDWARE, mem_bandwidth=int("9" * 400)),
     "key 'mem_bandwidth' must be a finite number, got an integer beyond float range"),
    # JSON can escape a lone surrogate, which no artifact could then be written with.
    ("model", dict(MINIMAL_MODEL, name="bad\ud800"),
     "name must be text UTF-8 can encode, got a lone surrogate"),
    ("model", dict(MINIMAL_MODEL, d_model=66),
     "head_dim omitted but d_model is not divisible by num_heads (66 / 4)"),
    # A repeated key, at any depth, which json.loads would overwrite with its last value.
    ("model", json.dumps(MINIMAL_MODEL)[:-1] + ', "num_layers": 3}',
     "invalid JSON: repeated key 'num_layers'"),
    ("model", json.dumps(MINIMAL_MODEL)[:-1]
     + ', "attention": {"kind": "gqa", "num_kv_heads": 2, "num_kv_heads": 4}}',
     "invalid JSON: repeated key 'num_kv_heads'"),
    ("model", json.dumps(MINIMAL_MODEL)[:-1]
     + ', "moe": {"num_experts": 4, "top_k": 2, "d_ff_expert": 32, "top_k": 1}}',
     "invalid JSON: repeated key 'top_k'"),
    ("hardware", '{"type": "hardware", "name": "h", "peak_flops": {"16": 1e15, "16": 2e15}, '
                 '"mem_bandwidth": 1e12, "mem_capacity": 1e11}',
     "invalid JSON: repeated key '16'"),
    # str(None) == "None": a key is a width only if it is its own canonical digits.
    ("hardware", dict(HARDWARE, peak_flops={"None": 1e15, "16": 2e15}),
     "peak_flops key 'None' is not an integer bit width"),
])
def test_malformed_config_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, kind, data,
                                                     message):
    path = write(tmp_path, "bad.json", data)
    refs = {"model": "dense-70b", "hardware": "b200-sxm", kind: str(path)}
    out = tmp_path / "out"
    monkeypatch.setattr("sys.argv", ["caproof", "analyze", "--model", refs["model"],
                                     "--hardware", refs["hardware"], "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_integer_beyond_float_range_fails_without_printing_it():
    """An int too long for str() (over 4,300 digits) still gets its message."""
    with pytest.raises(ConfigError, match="got an integer beyond float range"):
        parse_config(dict(HARDWARE, mem_bandwidth=10**5000), "hw.json")


def test_peak_key_too_long_for_int_is_not_a_bit_width():
    """int() refuses a string of over 4,300 digits; the key still gets its message."""
    with pytest.raises(ConfigError, match="is not an integer bit width"):
        parse_config(dict(HARDWARE, peak_flops={"1" * 5000: 1e15}), "hw.json")


def test_nested_errors_name_the_nested_object(tmp_path):
    bad_moe = dict(MOE_MODEL, moe=dict(MOE_MODEL["moe"], top_k=8))
    with pytest.raises(ConfigError, match=r"m\.json\.moe: top_k \(8\) must not exceed"):
        load_config(write(tmp_path, "m.json", bad_moe))
    bad_gqa = dict(MINIMAL_MODEL, attention={"kind": "gqa", "num_kv_heads": 0})
    with pytest.raises(ConfigError, match=r"m\.json\.attention: num_kv_heads must be >= 1"):
        load_config(write(tmp_path, "m.json", bad_gqa))


@pytest.mark.parametrize("nested, named", [
    ({"moe": dict(MOE_MODEL["moe"], type="moe")}, r"\.moe: unknown key 'type'"),
    ({"moe": dict(MOE_MODEL["moe"], **{"": 1})}, r"\.moe: unknown key ''"),
    ({"attention": {"kind": "mha", "type": "mha"}}, r"\.attention: unknown key 'type'"),
    ({"attention": {"kind": "mla", "d_latent": 8, "kv": 1}}, r"\.attention: unknown key 'kv'"),
])
def test_nested_unknown_keys_rejected(tmp_path, nested, named):
    path = write(tmp_path, "m.json", dict(MINIMAL_MODEL, **nested))
    with pytest.raises(ConfigError, match=named):
        load_config(path)
    assert load_config(path, allow_unknown=True).name == "mini"


def test_moe_null_means_absent(tmp_path):
    spec = load_config(write(tmp_path, "m.json", dict(MINIMAL_MODEL, moe=None)))
    assert spec.moe is None
    assert "moe" not in spec_to_dict(spec)


def test_dump_writes_keys_in_field_order(tmp_path):
    spec = load_config(write(tmp_path, "m.json", MOE_MODEL))
    data = spec_to_dict(spec)
    assert list(data) == ["type"] + [f.name for f in dataclasses.fields(ModelSpec)]
    assert list(data["moe"]) == [f.name for f in dataclasses.fields(MoESpec)]
    assert data["attention"] == {"kind": "mha"}


def test_random_models_round_trip(tmp_path):
    rng = random.Random(4)
    seen = set()
    path = tmp_path / "m.json"
    for _ in range(400):
        spec = random_model(rng)
        seen.add((spec.attention.kind, spec.moe is None, spec.ffn_gated))
        dump_config(spec, path)
        reloaded = load_config(path)
        assert reloaded == spec
        assert spec_to_dict(reloaded) == spec_to_dict(spec)
    assert seen == {(kind, dense, gated) for kind in ("mha", "gqa", "mla")
                    for dense in (True, False) for gated in (True, False)}


@pytest.mark.parametrize("spec", [
    HardwareSpec(name="h1", peak_flops={16: 2.5e15, 4: 1e16, 8: 5e15}, mem_bandwidth=8e12,
                 mem_capacity=1.92e11, num_devices=8),
    HardwareSpec(name="tiny", peak_flops={32: 1.0}, mem_bandwidth=0.5, mem_capacity=3.0),
    WorkloadSpec(name="w1", turns=1, prefill_tokens_per_turn=0, decode_tokens_per_turn=0),
    WorkloadSpec(name="w2", turns=50, prefill_tokens_per_turn=12000,
                 decode_tokens_per_turn=400, carry_context=False, batch_size=64),
])
def test_hand_built_specs_round_trip(spec, tmp_path):
    path = tmp_path / "spec.json"
    dump_config(spec, path)
    reloaded = load_config(path)
    assert reloaded == spec
    assert spec_to_dict(reloaded) == spec_to_dict(spec)


@pytest.mark.parametrize("build", [
    lambda name: ModelSpec(name=name, num_layers=2, d_model=64, num_heads=4, d_ff=128),
    lambda name: HardwareSpec(name=name, peak_flops={16: 1e15}, mem_bandwidth=1e12,
                              mem_capacity=1e11),
    lambda name: WorkloadSpec(name=name, turns=3, prefill_tokens_per_turn=10,
                              decode_tokens_per_turn=2),
], ids=["model", "hardware", "workload"])
def test_constructors_refuse_a_name_holding_a_lone_surrogate(build):
    """A lone surrogate cannot be encoded as UTF-8, so no spec may hold one."""
    build("ok")
    with pytest.raises(ValueError, match="name must be text UTF-8 can encode, got a lone surrogate"):
        build("bad\ud800")


@pytest.mark.parametrize("kind, data, key", [
    ("model", dict(MINIMAL_MODEL, num_layers=10**400), "num_layers"),
    ("model", dict(MINIMAL_MODEL, d_ff=-10**400), "d_ff"),
    ("model", dict(MINIMAL_MODEL, vocab_size=2**53 + 1), "vocab_size"),
    ("workload", dict(WORKLOAD, prefill_tokens_per_turn=10**400), "prefill_tokens_per_turn"),
    ("hardware", dict(HARDWARE, num_devices=10**400), "num_devices"),
])
def test_integers_beyond_two_to_the_53_name_the_file_and_key(tmp_path, capsys, monkeypatch,
                                                            kind, data, key):
    path = write(tmp_path, "big.json", data)
    refs = {"model": "dense-70b", "hardware": "b200-sxm", "workload": None, kind: str(path)}
    command = ["sweep", "--workload", refs["workload"]] if refs["workload"] else ["analyze"]
    out = tmp_path / "out"
    monkeypatch.setattr("sys.argv", ["caproof", *command, "--model", refs["model"],
                                     "--hardware", refs["hardware"], "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: {path}: key '{key}' must be at most 2**53 in magnitude\n")
    assert not out.exists()


def test_integer_bound_is_inclusive(tmp_path):
    spec = load_config(write(tmp_path, "m.json", dict(MINIMAL_MODEL, vocab_size=2**53)))
    assert spec.vocab_size == 2**53


def test_integer_of_too_many_digits_names_the_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MINIMAL_MODEL).replace('"num_layers": 2',
                                                      '"num_layers": 1' + "0" * 5000))
    with pytest.raises(ConfigError, match="invalid JSON: Exceeds the limit") as exc:
        load_config(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("command", ["analyze", "agent-profile"])
def test_sub_byte_capacity_names_the_file(tmp_path, capsys, monkeypatch, command):
    path = write(tmp_path, "hw.json", dict(HARDWARE, mem_capacity=0.5))
    out = tmp_path / "out"
    monkeypatch.setattr("sys.argv", ["caproof", command, "--model", "dense-70b",
                                     "--hardware", str(path), "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: {path}: mem_capacity must be >= 1 byte, got 0.5\n")
    assert not out.exists()
    one_byte = load_config(write(tmp_path, "one.json", dict(HARDWARE, mem_capacity=1)))
    assert one_byte.mem_capacity == 1
