import json
import re
from dataclasses import asdict
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from fedspectrum.rng import substream
from fedspectrum.scenario import (
    Scenario,
    ScenarioParseError,
    ScenarioSchemaError,
    ScenarioValidationError,
    load_scenario,
    place_nodes,
    scenario_digest,
    scenario_from_dict,
    validate_scenario,
)


def write(tmp_path, obj):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_minimal_file_gets_documented_defaults(tmp_path):
    s = load_scenario(write(tmp_path, {"seed": 1, "n_sensors": 14, "n_primary_users": 3}))
    assert s.seed == 1
    assert s.area_size_m == 1000.0
    assert s.carrier_band_mhz == (3550.0, 3700.0)
    assert s.sensor_placement == "grid"
    assert s.channel.pl0_db == 40.0
    assert s.channel.noise_floor_dbm == -100.0
    assert s.schedule.n_training_slots == 2000
    assert s.schedule.n_eval_slots == 2000
    assert s.federation.topology == "isolated"
    assert s.central_xy_m is None


def test_seed_is_required(tmp_path):
    with pytest.raises(ScenarioSchemaError, match="seed"):
        load_scenario(write(tmp_path, {"n_sensors": 5}))


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_scenario("/nonexistent/scenario.json")


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,\n  "n_sensors": }', encoding="utf-8")
    with pytest.raises(ScenarioParseError, match=r"line 2"):
        load_scenario(path)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ScenarioSchemaError, match="n_sensor"):
        load_scenario(write(tmp_path, {"seed": 1, "n_sensor": 5}))


def test_unknown_nested_key_rejected(tmp_path):
    with pytest.raises(ScenarioSchemaError, match=r"channel\.'pl0'"):
        load_scenario(write(tmp_path, {"seed": 1, "channel": {"pl0": 40}}))


@pytest.mark.parametrize(
    "obj",
    [
        {"seed": "one"},
        {"seed": 1, "n_sensors": 2.5},
        {"seed": 1, "sensor_placement": 7},
        {"seed": 1, "carrier_band_mhz": [3550.0]},
        {"seed": 1, "federation": {"include_self_weight": "yes"}},
        {"seed": 1, "schedule": {"window_samples": True}},
    ],
)
def test_wrong_types_rejected(tmp_path, obj):
    with pytest.raises(ScenarioSchemaError):
        load_scenario(write(tmp_path, obj))


def test_validation_names_offending_field(tmp_path):
    with pytest.raises(ScenarioValidationError, match="n_sensors"):
        load_scenario(write(tmp_path, {"seed": 1, "n_sensors": 0}))


def test_validate_collects_violations():
    s = Scenario(seed=1)
    s.schedule.window_samples = 1
    s.pu_traffic.mean_gap_slots = 0.0
    violations = validate_scenario(s)
    assert any("window_samples" in v for v in violations)
    assert any("mean_gap_slots" in v for v in violations)
    assert validate_scenario(Scenario(seed=1)) == []


def test_bad_tag_values_fail_validation(tmp_path):
    with pytest.raises(ScenarioValidationError, match="sensor_placement"):
        load_scenario(write(tmp_path, {"seed": 1, "sensor_placement": "ring"}))
    with pytest.raises(ScenarioValidationError, match="federation.topology"):
        load_scenario(write(tmp_path, {"seed": 1, "federation": {"topology": "mesh"}}))


def test_grid_placement_positions():
    s = Scenario(seed=1, n_sensors=4, n_primary_users=0, area_size_m=100.0)
    placements = place_nodes(s, substream(1, "placement"))
    sensors = [(p.x_m, p.y_m) for p in placements if p.kind == "sensor"]
    assert sensors == [(25.0, 25.0), (75.0, 25.0), (25.0, 75.0), (75.0, 75.0)]
    assert [p.node_id for p in placements if p.kind == "sensor"] == [0, 1, 2, 3]


def test_grid_ignores_rng_seed():
    s = Scenario(seed=1, n_sensors=14)
    a = place_nodes(s, substream(1, "placement"))
    b = place_nodes(s, substream(99, "placement"))
    for pa, pb in zip(a, b):
        if pa.kind == "sensor":
            assert (pa.x_m, pa.y_m) == (pb.x_m, pb.y_m)


def test_placement_ids_unique_and_central_at_center():
    s = Scenario(seed=3)
    placements = place_nodes(s, substream(3, "placement"))
    ids = [p.node_id for p in placements]
    assert len(ids) == len(set(ids)) == s.n_sensors + s.n_primary_users + 1
    central = [p for p in placements if p.kind == "central"]
    assert len(central) == 1
    assert (central[0].x_m, central[0].y_m) == (500.0, 500.0)


def test_central_override():
    s = Scenario(seed=3, central_xy_m=(100.0, 200.0))
    placements = place_nodes(s, substream(3, "placement"))
    central = next(p for p in placements if p.kind == "central")
    assert (central.x_m, central.y_m) == (100.0, 200.0)


def test_uniform_random_within_area_and_deterministic():
    s = Scenario(seed=12, sensor_placement="uniform_random", n_sensors=20)
    a = place_nodes(s, substream(12, "placement"))
    b = place_nodes(s, substream(12, "placement"))
    assert [(p.x_m, p.y_m) for p in a] == [(p.x_m, p.y_m) for p in b]
    for p in a:
        assert 0.0 <= p.x_m <= s.area_size_m
        assert 0.0 <= p.y_m <= s.area_size_m


def test_primary_users_random_even_with_grid_sensors():
    s = Scenario(seed=1, n_primary_users=5)
    a = place_nodes(s, substream(1, "placement"))
    b = place_nodes(s, substream(2, "placement"))
    pus_a = [(p.x_m, p.y_m) for p in a if p.kind == "primary_user"]
    pus_b = [(p.x_m, p.y_m) for p in b if p.kind == "primary_user"]
    assert pus_a != pus_b


def test_digest_stable_and_sensitive():
    a = Scenario(seed=1)
    b = Scenario(seed=1)
    c = Scenario(seed=2)
    assert scenario_digest(a) == scenario_digest(b)
    assert scenario_digest(a) != scenario_digest(c)
    assert len(scenario_digest(a)) == 16


def test_scenario_from_dict_rejects_non_object():
    with pytest.raises(ScenarioSchemaError):
        scenario_from_dict([1, 2, 3])


def test_shipped_scenarios_load():
    for name in ("scenarios/default.json", "scenarios/data_scarce.json"):
        s = load_scenario(name)
        assert validate_scenario(s) == []


SCHEMA_DOC = Path("docs/scenario_schema.md")
DOC_TYPES = {
    "number": float,
    "int": int,
    "string": str,
    "bool": bool,
    "[number, number]": tuple[float, float],
}


def schema_doc_tables():
    """{section: {key: (type, default)}} from the doc's tables; "" is the top level."""
    tables, section = {}, None
    for line in SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = line[3:].strip("`")
            section = "" if heading == "Top level" else heading
        elif line.startswith("| `"):
            key, type_, default = (cell.strip() for cell in line.strip("|").split("|")[:3])
            tables.setdefault(section, {})[key.strip("`")] = (type_, default)
    return tables


def float_fields():
    """Dotted names of every documented number, and of each element of a pair."""
    for section, rows in schema_doc_tables().items():
        for key, (doc_type, _) in rows.items():
            name = f"{section}.{key}" if section else key
            if doc_type == "number":
                yield name
            elif doc_type == "[number, number]":
                yield from (f"{name}.0", f"{name}.1")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("name", list(float_fields()))
def test_non_finite_number_is_rejected_by_field_name(tmp_path, name, bad):
    # Python's json reads NaN, Infinity and -Infinity
    obj = json.loads(Path("scenarios/default.json").read_text(encoding="utf-8"))
    obj["central_xy_m"] = [500.0, 500.0]
    *parents, last = [int(k) if k.isdigit() else k for k in name.split(".")]
    holder = obj
    for key in parents:
        holder = holder[key]
    holder[last] = bad
    field, shown = (name[:-2], holder) if isinstance(last, int) else (name, bad)
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(write(tmp_path, obj))
    assert f"{field}: must be finite (got {shown})" in str(exc.value)


def test_non_finite_number_fails_programmatic_validation():
    s = Scenario(seed=1)
    s.federation.neighbor_radius_m = float("nan")
    assert validate_scenario(s) == ["federation.neighbor_radius_m: must be finite (got nan)"]


def test_schema_doc_tables_match_the_dataclasses():
    tables = schema_doc_tables()
    values = asdict(Scenario(seed=1))
    hints = get_type_hints(Scenario)
    sections = {"": ({k: v for k, v in values.items() if not isinstance(v, dict)}, hints)}
    for name, value in values.items():
        if isinstance(value, dict):
            sections[name] = (value, get_type_hints(hints[name]))
    assert set(tables) == set(sections)
    for section, (defaults, types) in sections.items():
        assert set(tables[section]) == set(defaults), section
        for key, default in defaults.items():
            doc_type, doc_default = tables[section][key]
            assert types[key] in (DOC_TYPES[doc_type], DOC_TYPES[doc_type] | None), key
            if key == "seed":
                assert doc_default == "required"
            else:
                expected = list(default) if isinstance(default, tuple) else default
                assert json.loads(doc_default.strip("`")) == expected, f"{section}.{key}"


def test_schema_doc_example_is_the_default_scenario():
    text = SCHEMA_DOC.read_text(encoding="utf-8").split("## Complete example", 1)[1]
    example = json.loads(text.split("```json", 1)[1].split("```", 1)[0])
    digest = scenario_digest(load_scenario("scenarios/default.json"))
    assert scenario_digest(scenario_from_dict(example)) == digest


# per documented type: what a value must be, and values that are not that
TYPE_ERRORS = {
    "number": ("a number", ["x", True, None]),
    "int": ("an integer", ["x", True, None, 2.5]),
    "string": ("a string", [7, None]),
    "bool": ("a boolean", ["yes", 1, None]),
    "[number, number]": ("a pair of numbers", ["x", True, [1.0], [1.0, "x"]]),
}


@pytest.mark.parametrize(
    "section,key,doc_type",
    [(s, k, t) for s, rows in schema_doc_tables().items() for k, (t, _) in rows.items()],
)
def test_every_documented_key_rejects_other_types_by_name(section, key, doc_type):
    expected, wrong_values = TYPE_ERRORS[doc_type]
    name = f"{section}.{key!r}" if section else repr(key)
    for value in wrong_values:
        obj = {"seed": 1, section: {key: value}} if section else {"seed": 1, key: value}
        with pytest.raises(ScenarioSchemaError, match=f"^key {re.escape(name)} must be {expected}$"):
            scenario_from_dict(obj)
