import functools
import json
import math
import re
import warnings
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedspectrum import scenario
from fedspectrum.engine import run_simulation, sense_run, train_topologies
from fedspectrum.federation import TOPOLOGIES, FederationConfig, build_neighbor_graph
from fedspectrum.radio import ChannelModel, PuTrafficModel
from fedspectrum.rng import substream
from fedspectrum.scenario import (
    MAX_COUNT,
    MAX_WINDOWS,
    Scenario,
    ScenarioParseError,
    ScenarioSchemaError,
    ScenarioValidationError,
    SlotSchedule,
    _RULES,
    load_scenario,
    place_nodes,
    scenario_digest,
    scenario_from_dict,
)
from oracles import neighbor_graph as reference_neighbor_graph
from oracles import place_nodes as reference_place_nodes
from oracles import scenario_leaves, scenario_violations


def write(tmp_path, obj):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def violations(build, *args, **kwargs):
    """The messages of the ScenarioValidationError that ``build(*args,
    **kwargs)`` raises, in order; [] when it builds a scenario."""
    try:
        build(*args, **kwargs)
    except ScenarioValidationError as exc:
        return str(exc).split("; ")
    return []


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


@pytest.mark.parametrize(
    "text,key",
    [
        ('{"seed": 1, "n_sensors": 4, "n_sensors": 9}', "n_sensors"),
        ('{"seed": 1, "channel": {"d0_m": 1.0, "n_exp": 2.0, "d0_m": 5.0}}', "d0_m"),
        ('{"seed": 1, "seed": 1}', "seed"),
    ],
    ids=["top-level", "nested", "same-value"],
)
def test_duplicate_key_rejected(tmp_path, text, key):
    # json.loads alone keeps the last value, so the first would be ignored
    path = tmp_path / "dup.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioSchemaError, match=f"^duplicate key {re.escape(repr(key))}$"):
        load_scenario(path)


@pytest.mark.parametrize(
    "text,reason",
    [
        (b'{"seed": 1, "channel": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "recursion"),
        (b'{"seed": 1, "n_sensors": ' + b"9" * 5000 + b"}", "digits"),
        (b'{"seed": 1, "sensor_placement": "\xff"}', "utf-8"),
    ],
    ids=["deep-nesting", "5000-digit-integer", "not-utf-8"],
)
def test_unreadable_json_is_a_parse_error_naming_the_file(tmp_path, text, reason):
    path = tmp_path / "unreadable.json"
    path.write_bytes(text)
    with pytest.raises(ScenarioParseError) as exc:
        load_scenario(path)
    assert re.match(f"{re.escape(str(path))}: invalid JSON: .*{reason}", str(exc.value))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ScenarioSchemaError, match="n_sensor"):
        load_scenario(write(tmp_path, {"seed": 1, "n_sensor": 5}))


def test_unknown_nested_key_rejected(tmp_path):
    with pytest.raises(ScenarioSchemaError, match=r"channel\.'pl0'"):
        load_scenario(write(tmp_path, {"seed": 1, "channel": {"pl0": 40}}))


@pytest.mark.parametrize(
    "raw,message",
    [
        ([], "scenario root must be a JSON object"),
        ({}, "missing required key 'seed'"),
        ({"channel": {"bogus": 1}}, "missing required key 'seed'"),
        ({"n_sensor": 5}, "unknown key 'n_sensor'"),
        ({"seed": "one", "zeta": 1, "alpha": 2}, "unknown key 'alpha'"),
        ({"seed": 1, "n_sensors": 2.5, "channel": {"bogus": 1}}, "key 'n_sensors' must be an integer"),
        ({"seed": 1, "channel": {"bogus": 1}, "training": 3}, "unknown key channel.'bogus'"),
        ({"seed": 1, "training": 3}, "key 'training' must be an object"),
    ],
)
def test_schema_errors_name_the_first_broken_key(raw, message):
    """Unknown keys at the root first, then the missing seed, then each key
    in field order, nested objects as they come."""
    with pytest.raises(ScenarioSchemaError) as exc:
        scenario_from_dict(raw)
    assert str(exc.value) == message


def test_a_file_is_typed_in_one_walk(monkeypatch):
    """A load types the file's object once, in the constructor: one
    top-level ``_typed`` walk per ``load_scenario``, nested ones below it."""
    walks, typed = [], scenario._typed

    def counted(cls, raw, ctx, bad):
        walks.append(ctx)
        return typed(cls, raw, ctx, bad)

    monkeypatch.setattr(scenario, "_typed", counted)
    load_scenario("scenarios/default.json")
    assert sorted(walks) == ["", "channel.", "federation.", "pu_traffic.", "schedule.", "training."]


def test_validation_names_offending_field(tmp_path):
    with pytest.raises(ScenarioValidationError, match="n_sensors"):
        load_scenario(write(tmp_path, {"seed": 1, "n_sensors": 0}))


def test_validate_collects_violations():
    s = Scenario(seed=1)
    found = violations(
        replace, s, schedule=replace(s.schedule, window_samples=1),
        pu_traffic=replace(s.pu_traffic, mean_gap_slots=0.0),
    )
    assert any("window_samples" in v for v in found)
    assert any("mean_gap_slots" in v for v in found)
    assert violations(Scenario, seed=1) == []


def test_a_scenario_cannot_change_under_a_run():
    # a run holds its scenario by reference: changing the schedule after
    # sensing would evaluate other windows than the digest names
    s = load_scenario("scenarios/data_scarce.json")
    sensing = sense_run(s, 3)
    with pytest.raises(FrozenInstanceError):
        sensing.scenario.schedule.n_eval_slots = 5000
    for obj in (s, s.channel, s.pu_traffic, s.training, s.federation, s.schedule):
        for f in fields(obj):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
    placement = sensing.placements[0]
    assert placement._fields == ("node_id", "kind", "x_m", "y_m")
    for name in placement._fields:
        with pytest.raises(AttributeError):
            setattr(placement, name, getattr(placement, name))
    with pytest.raises(AttributeError):
        sensing.placements.append(sensing.placements[0])
    assert sensing.scenario == load_scenario("scenarios/data_scarce.json")


def test_a_scenario_built_in_python_is_typed_as_a_file_is():
    # an int for a float field, numpy's numbers, a pair given as a list and a
    # config given as a dict are the floats, ints, tuples and configs a file
    # gives: one scenario, one digest
    s = load_scenario("scenarios/data_scarce.json")
    python = replace(s, area_size_m=600.0, seed=5, central_xy_m=(100.0, 100.0))
    band, central = list(s.carrier_band_mhz), [100, np.float64(100.0)]
    spellings = [
        replace(s, area_size_m=600, seed=5, carrier_band_mhz=band, central_xy_m=central),
        replace(s, area_size_m=np.float32(600.0), seed=np.int64(5), central_xy_m=(100, 100)),
        replace(python, seed=np.uint64(5), channel={"n_exp": 2, "shadowing_sigma_db": np.int64(8)},
                schedule=replace(s.schedule, n_eval_slots=np.int32(s.schedule.n_eval_slots))),
    ]
    band[0], central[0] = 3650.0, 5000.0  # the caller's lists, not the scenario's
    for built in spellings:
        values = [built.area_size_m, built.seed, built.schedule.n_eval_slots, built.channel.n_exp]
        assert list(map(type, values + [built.central_xy_m[0]])) == [float, int, int, float, float]
        assert built == python and hash(built) == hash(python)
        assert scenario_digest(built) == scenario_digest(python)
    with pytest.raises(ScenarioSchemaError, match="^key 'channel' must be an object$"):
        replace(s, channel=None)


def test_bad_tag_values_fail_validation(tmp_path):
    with pytest.raises(ScenarioValidationError, match="sensor_placement"):
        load_scenario(write(tmp_path, {"seed": 1, "sensor_placement": "ring"}))
    with pytest.raises(ScenarioValidationError, match="federation.topology"):
        load_scenario(write(tmp_path, {"seed": 1, "federation": {"topology": "mesh"}}))


def test_retired_inverse_distance_weighting_fails_validation():
    # a scenario built in Python with the retired weighting is refused by
    # field name, not run as another weighting
    federation = FederationConfig(weighting="inverse_distance")
    assert violations(Scenario, seed=1, federation=federation) == [
        "federation.weighting: must be one of ('uniform', 'samples') (got 'inverse_distance')"
    ]


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


def test_placement_is_sensors_then_primary_users():
    # the coordinator is not placed: node ids are the sensors, then the users
    s = Scenario(seed=3)
    placements = place_nodes(s, substream(3, "placement"))
    assert [p.node_id for p in placements] == list(range(s.n_sensors + s.n_primary_users))
    kinds = [p.kind for p in placements]
    assert kinds == ["sensor"] * s.n_sensors + ["primary_user"] * s.n_primary_users


def test_central_xy_m_is_descriptive_only():
    # validated and in the digest, but it moves no node and no draw
    s = Scenario(seed=3, sensor_placement="uniform_random")
    moved = replace(s, central_xy_m=(100.0, 200.0))
    assert place_nodes(moved, substream(3, "placement")) == place_nodes(s, substream(3, "placement"))
    assert scenario_digest(moved) != scenario_digest(s)
    outside = violations(replace, s, central_xy_m=(100.0, 2000.0))
    assert outside == ["central_xy_m: must lie inside the area (got [100.0, 2000.0])"]


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


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 14, 15, 16, 17, 400, 401]),
    n_pus=st.integers(0, 7),
    area=st.sampled_from([1.0, 1000.0, 3.7e7, 1e8]) | st.floats(1.0, 1e8),
    placement=st.sampled_from(["grid", "uniform_random"]),
    central=st.booleans(),
    seed=st.sampled_from([0, 5, 2**64 - 1]) | st.integers(0, 2**64 - 1),
)
@example(400, 7, 1.0, "grid", False, 0)
@example(401, 7, 1e8, "uniform_random", True, 2**64 - 1)
def test_place_nodes_is_the_per_node_loop(n, n_pus, area, placement, central, seed):
    # the array draws place every node where one scalar uniform per
    # coordinate put it, bit for bit, and warn of nothing
    s = Scenario(
        seed=seed, n_sensors=n, n_primary_users=n_pus, area_size_m=area,
        sensor_placement=placement, central_xy_m=(area / 3, area) if central else None,
    )
    rng, rng_loop = substream(seed, "placement"), substream(seed, "placement")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            got = place_nodes(s, rng)
    want = reference_place_nodes(s, rng_loop)
    assert [(p.node_id, p.kind) for p in got] == [(p.node_id, p.kind) for p in want]
    assert [(p.x_m.hex(), p.y_m.hex()) for p in got] == [(p.x_m.hex(), p.y_m.hex()) for p in want]
    assert all(type(p.x_m) is type(p.y_m) is float for p in got)
    assert rng.bit_generator.state == rng_loop.bit_generator.state


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
    for name in (
        "scenarios/default.json", "scenarios/data_scarce.json", "bench/scenarios/dense_gossip.json"
    ):
        s = load_scenario(name)
        assert replace(s) == s  # rebuilding validates again


def test_absurd_power_is_rejected_by_field_name(tmp_path):
    # 4000 dBm is 1e400 mW: its windows would be non-finite
    obj = {"seed": 1, "pu_traffic": {"tx_power_dbm": 4000}}
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(write(tmp_path, obj))
    assert str(exc.value) == "pu_traffic.tx_power_dbm: must be >= -300, <= 300 (got 4000.0)"


@pytest.mark.parametrize("sigma", [0.0, 30.0])
@pytest.mark.parametrize("noise", [-300.0, 300.0])
@pytest.mark.parametrize("pl0", [-300.0, 300.0])
@pytest.mark.parametrize("tx", [-300.0, 300.0])
def test_power_bounds_keep_the_windows_finite(tx, pl0, noise, sigma):
    # at every corner of the power bounds the windows are finite and no
    # numpy overflow or invalid-value warning fires
    s = Scenario(
        seed=3, n_sensors=4, schedule=SlotSchedule(30, 30, 10, 10, 64),
        pu_traffic=PuTrafficModel(tx_power_dbm=tx, mean_gap_slots=2.0),
        channel=ChannelModel(pl0_db=pl0, noise_floor_dbm=noise, shadowing_sigma_db=sigma),
    )
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error", RuntimeWarning)
        sensing = sense_run(s, 3)
    assert sensing.truths.any() and np.isfinite(sensing.windows).all()


@pytest.mark.parametrize("n_exp", [0.0, 10.0])
@pytest.mark.parametrize("placement", ["grid", "uniform_random"])
@pytest.mark.parametrize("area", [1.0, 1e8])
def test_geometry_bounds_keep_the_windows_and_the_graph_finite(area, placement, n_exp):
    # at every corner of the area, d0_m and n_exp bounds, and at radii from 0
    # to the largest float, no coordinate, squared distance or path-loss
    # ratio over- or underflows: numpy raises on none of them
    s = Scenario(
        seed=5, n_sensors=9, n_primary_users=2, area_size_m=area, sensor_placement=placement,
        schedule=SlotSchedule(30, 30, 10, 10, 64), pu_traffic=PuTrafficModel(mean_gap_slots=2.0),
        channel=ChannelModel(d0_m=0.001, n_exp=n_exp),
    )
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        sensing = sense_run(s, 5)
        sensors = sensing.placements[: s.n_sensors]
        for radius in [0.0, 5e-324, area / 2, 1e300, 1.7976931348623157e308]:
            table = build_neighbor_graph(sensors, radius)
            for got, want in zip(table, reference_neighbor_graph(sensors, radius), strict=True):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert sensing.truths.any() and np.isfinite(sensing.windows).all()


SCHEMA_DOC = Path("docs/scenario_schema.md")
DOC_TYPES = {
    "number": float,
    "int": int,
    "string": str,
    "bool": bool,
    "[number, number]": tuple[float, float],
}


def schema_doc_tables():
    """{section: {key: (type, default, constraint)}} from the doc's tables; "" is the
    top level."""
    tables, section = {}, None
    for line in SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = line[3:].strip("`")
            section = "" if heading == "Top level" else heading
        elif line.startswith("| `"):
            key, *cells = (cell.strip() for cell in line.strip("|").split("|")[:4])
            tables.setdefault(section, {})[key.strip("`")] = tuple(cells)
    return tables


def float_fields():
    """Dotted names of every documented number, and of each element of a pair."""
    for section, rows in schema_doc_tables().items():
        for key, (doc_type, _, _) in rows.items():
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
    # one message in all: not also the field's bound, nor a cross-field check
    # reading the field (the area around central_xy_m, the band's edge order)
    assert str(exc.value).split("; ") == [f"{field}: must be finite (got {shown})"]


@pytest.mark.parametrize("sign", [1, -1])
def test_integer_beyond_float_range_is_rejected_by_field_name(tmp_path, sign):
    # float() of a 401-digit integer raises OverflowError; it reads as an
    # infinity, as 1e400 does, and fails validation by name
    obj = json.loads(Path("scenarios/default.json").read_text(encoding="utf-8"))
    obj["federation"]["neighbor_radius_m"] = sign * 10**400
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(write(tmp_path, obj))
    shown = "inf" if sign > 0 else "-inf"
    assert f"federation.neighbor_radius_m: must be finite (got {shown})" in str(exc.value)


def test_non_finite_number_fails_programmatic_validation():
    s = Scenario(seed=1)
    federation = replace(s.federation, neighbor_radius_m=float("nan"))
    assert violations(replace, s, federation=federation) == [
        "federation.neighbor_radius_m: must be finite (got nan)"
    ]


def test_cross_field_checks_skip_fields_already_reported():
    def found(**raw):
        return violations(scenario_from_dict, {"seed": 1, **raw})

    nan = float("nan")
    assert found(area_size_m=nan, central_xy_m=[1, 1]) == ["area_size_m: must be finite (got nan)"]
    assert found(area_size_m=-1, central_xy_m=[1, 1]) == [
        "area_size_m: must be >= 1, <= 1e8 (got -1.0)"
    ]
    assert found(carrier_band_mhz=[nan, 1]) == [
        "carrier_band_mhz: must be finite (got [nan, 1.0])"
    ]
    # a count the window check does not read leaves it running
    assert found(n_sensors=10**6, schedule={"window_samples": 10**7}) == [
        "schedule.window_samples: must be <= 1000000 (got 10000000)",
        "n_sensors: 1000000 x 4000 slots is 4000000000 windows, above the limit of 100000000",
    ]


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
            doc_type, doc_default, _ = tables[section][key]
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
    "number": ("a number", ["x", True, None, np.True_]),
    "int": ("an integer", ["x", True, None, 2.5, np.True_, np.float64(2.0)]),
    "string": ("a string", [7, None]),
    "bool": ("a boolean", ["yes", 1, None]),
    "[number, number]": ("a pair of numbers", ["x", True, [1.0], [1.0, "x"]]),
}


@pytest.mark.parametrize(
    "section,key,doc_type",
    [(s, k, t) for s, rows in schema_doc_tables().items() for k, (t, _, _) in rows.items()],
)
@pytest.mark.parametrize("built", ["from-a-file", "in-python"])
def test_every_documented_key_rejects_other_types_by_name(section, key, doc_type, built):
    expected, wrong_values = TYPE_ERRORS[doc_type]
    name = f"{section}.{key!r}" if section else repr(key)
    for value in wrong_values:
        obj = {"seed": 1, section: {key: value}} if section else {"seed": 1, key: value}
        with pytest.raises(ScenarioSchemaError, match=f"^key {re.escape(name)} must be {expected}$"):
            if built == "from-a-file":
                scenario_from_dict(obj)
            else:  # the config holding the value is built first
                leaf = get_type_hints(Scenario)[section](**{key: value}) if section else value
                Scenario(**{"seed": 1, section or key: leaf})


@pytest.mark.parametrize(
    "section,key",
    [
        (s, k)
        for s, rows in schema_doc_tables().items()
        for k, (t, _, _) in rows.items()
        if t == "int" and k != "seed"
    ],
)
def test_every_count_above_the_limit_is_rejected_by_field_name(section, key):
    name = f"{section}.{key}" if section else key

    def found(count):
        raw = {"seed": 1, section: {key: count}} if section else {"seed": 1, key: count}
        return violations(scenario_from_dict, raw)

    assert f"{name}: must be <= {MAX_COUNT} (got {MAX_COUNT + 1})" in found(MAX_COUNT + 1)
    assert not any("must be <=" in v for v in found(MAX_COUNT))
    huge = found(10**400)  # one message per field, no arithmetic on the huge value
    assert huge == [f"{name}: must be <= {MAX_COUNT} (got {10**400})"]


def test_window_tensor_and_chain_block_limits():
    # sensors x slots windows and primary users x slots chain steps, inclusive
    at = Scenario(seed=1, n_sensors=10**6, n_primary_users=10**6, schedule=SlotSchedule(40, 60))
    assert MAX_WINDOWS == 10**8 and violations(replace, at) == []
    # one slot more cannot be built, so no run places its million nodes
    assert violations(replace, at, schedule=SlotSchedule(40, 61)) == [
        "n_sensors: 1000000 x 101 slots is 101000000 windows, above the limit of 100000000",
        "n_primary_users: 1000000 x 101 slots is 101000000 chain steps, above the limit of "
        "100000000",
    ]


def test_schema_doc_states_the_count_limits():
    text = SCHEMA_DOC.read_text(encoding="utf-8")
    assert f"`{MAX_COUNT}`" in text and f"`{MAX_WINDOWS}`" in text


DEFAULT_LEAVES = dict(scenario_leaves(asdict(Scenario(seed=1))))
# one entry per bound: a rule "<op> <limit>, <op> <limit>" gives two
BOUNDS = sorted(
    (name, bound)
    for name, rule in _RULES.items()
    if isinstance(rule, str)
    for bound in rule.split(", ")
)
CHOICES = sorted((name, rule) for name, rule in _RULES.items() if isinstance(rule, tuple))


def with_leaves(raw, leaves):
    """The scenario of the nested dict ``raw`` with each dotted field of
    ``leaves`` set to its value; ScenarioValidationError if that breaks a rule."""
    raw = json.loads(json.dumps(raw))
    for name, value in leaves.items():
        *parents, last = name.split(".")
        holder = raw
        for key in parents:
            holder = holder.setdefault(key, {})
        holder[last] = value
    return scenario_from_dict(raw)


def with_leaf(name, value):
    """A default scenario with the dotted field ``name`` set to ``value``;
    ScenarioValidationError if that breaks a rule."""
    return with_leaves({"seed": 1}, {name: value})


def test_every_rule_names_a_scenario_leaf():
    # a misspelt key would silently check nothing
    assert set(_RULES) <= set(DEFAULT_LEAVES)
    assert BOUNDS and CHOICES and len(dict(BOUNDS)) + len(CHOICES) == len(_RULES)


@pytest.mark.parametrize("name,rule", BOUNDS)
def test_each_bound_accepts_its_limit_and_rejects_the_next_value_past_it(name, rule):
    op, text = rule.split()
    limit = type(DEFAULT_LEAVES[name])(float(text))
    if isinstance(limit, int):
        below, above = limit - 1, limit + 1
    else:
        below, above = math.nextafter(limit, -math.inf), math.nextafter(limit, math.inf)
    inside, outside = {">=": (limit, below), ">": (above, limit), "<=": (limit, above)}[op]
    assert violations(with_leaf, name, inside) == []
    message = f"{name}: must be {_RULES[name]} (got {outside})"
    assert violations(with_leaf, name, outside) == [message]


@pytest.mark.parametrize("name,choices", CHOICES)
def test_each_choice_field_accepts_its_choices_and_rejects_others(name, choices):
    for choice in choices:
        assert violations(with_leaf, name, choice) == []
    assert violations(with_leaf, name, "nope") == [
        f"{name}: must be one of {choices} (got 'nope')"
    ]


def test_doc_constraint_column_states_each_rule():
    for section, rows in schema_doc_tables().items():
        for key, (_, _, constraint) in rows.items():
            name = f"{section}.{key}" if section else key
            rule = _RULES.get(name)
            if isinstance(rule, str):
                assert constraint.startswith(rule), name
            elif isinstance(rule, tuple):
                assert re.findall(r'"(\w+)"', constraint) == list(rule), name
            else:
                assert not re.match("[<>]", constraint) and '"' not in constraint, name


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(-1e3, 1e3)


def broken_values(name, default):
    """A strategy for values of leaf ``name``, of the type of its default,
    that each break one of its rules: one of its bounds, its choices,
    finiteness or the count limit; None for a leaf no value of its type
    breaks on its own."""
    rule, found = _RULES.get(name), []
    if default is None or isinstance(default, tuple):  # a pair; central_xy_m defaults to None
        found.append(st.tuples(NON_FINITE, FINITE | NON_FINITE) | st.tuples(FINITE, NON_FINITE))
    elif isinstance(default, float):
        found.append(NON_FINITE)
    elif type(default) is int and name != "seed":
        found.append(st.integers(min_value=MAX_COUNT + 1))
    if isinstance(rule, tuple):
        found.append(st.text().filter(lambda text: text not in rule))
    bounds = rule.split(", ") if isinstance(rule, str) else []
    for op, text in map(str.split, bounds):
        limit = type(default)(float(text))
        if isinstance(default, int):
            edge = {">=": limit - 1, ">": limit, "<=": limit + 1}[op]
            found.append(st.integers(min_value=edge) if op == "<=" else st.integers(max_value=edge))
        elif op == "<=":
            found.append(st.floats(min_value=limit, exclude_min=True, allow_infinity=False))
        else:
            found.append(st.floats(max_value=limit, exclude_max=op == ">=", allow_infinity=False))
    return st.one_of(found) if found else None


LEAF_BREAKS = {
    name: values
    for name, default in DEFAULT_LEAVES.items()
    if (values := broken_values(name, default)) is not None
}
# one leaf value each that breaks a cross-field rule on an otherwise default scenario
TOO_MANY = st.integers(MAX_WINDOWS // (SlotSchedule().n_training_slots + SlotSchedule().n_eval_slots)
                       + 1, MAX_COUNT)
CROSS_FIELD_BREAKS = {
    "windows": st.tuples(st.just("n_sensors"), TOO_MANY),
    "chain steps": st.tuples(st.just("n_primary_users"), TOO_MANY),
    "band order": st.tuples(
        st.just("carrier_band_mhz"),
        st.tuples(FINITE, FINITE).map(lambda pair: tuple(sorted(pair, reverse=True))),
    ),
    "seed range": st.tuples(st.just("seed"), st.integers(2**64) | st.integers(max_value=-1)),
    "coordinator": st.tuples(
        st.just("central_xy_m"), st.tuples(st.floats(-1e6, 1e6), st.floats(1000.5, 1e6))
    ),
}


def set_leaf(raw, name, value):
    """Set the dotted leaf ``name`` of the nested dict ``raw`` to ``value``."""
    *parents, last = name.split(".")
    for key in parents:
        raw = raw[key]
    raw[last] = value


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_broken_leaves_raise_the_oracles_messages_in_order(data):
    # 1-4 leaves across the nested configs break a bound, a choice,
    # finiteness or the count limit, and maybe a cross-field rule breaks too;
    # a file's dict and dataclasses.replace both raise the walk's messages
    base = Scenario(seed=1)
    raw = asdict(base)
    cross = data.draw(st.sampled_from([None, *CROSS_FIELD_BREAKS]), label="cross-field")
    if cross:
        set_leaf(raw, *data.draw(CROSS_FIELD_BREAKS[cross], label=cross))
    names = data.draw(st.lists(st.sampled_from(sorted(LEAF_BREAKS)), min_size=1, max_size=4,
                               unique=True), label="leaves")
    for name in names:
        set_leaf(raw, name, data.draw(LEAF_BREAKS[name], label=name))
    expected = "; ".join(scenario_violations(raw))
    assert all(any(m.startswith(f"{name}: ") for m in expected.split("; ")) for name in names)
    with pytest.raises(ScenarioValidationError) as from_dict:
        scenario_from_dict(raw)
    assert str(from_dict.value) == expected
    changes = {
        key: replace(getattr(base, key), **value) if isinstance(value, dict) else value
        for key, value in raw.items()
    }
    with pytest.raises(ScenarioValidationError) as replaced:
        replace(base, **changes)
    assert str(replaced.value) == expected


# A second valid value for every Scenario leaf but the seed (the commands take
# it as an argument), with the leaves that give it a meaning: an accepted field
# that no output reads has no meaning to map to.
SECOND_VALUES = {
    "area_size_m": (900.0, {}),
    "n_sensors": (9, {}),
    "n_primary_users": (2, {}),
    "sensor_placement": ("uniform_random", {}),
    "channel.pl0_db": (45.0, {}),
    "channel.d0_m": (2.0, {}),
    "channel.n_exp": (2.5, {}),
    "channel.shadowing_sigma_db": (4.0, {}),
    "channel.noise_floor_dbm": (-95.0, {}),
    "pu_traffic.tx_power_dbm": (10.0, {}),
    "pu_traffic.mean_burst_slots": (10.0, {}),
    "pu_traffic.mean_gap_slots": (30.0, {}),
    "training.learning_rate": (0.5, {}),
    "training.epochs_per_round": (3, {}),
    "training.batch_size": (5, {}),
    "training.init_scale": (0.1, {"training.model_kind": "mlp"}),
    "training.model_kind": ("mlp", {}),
    # gossip runs in every comparison
    "federation.neighbor_radius_m": (250.0, {}),
    "federation.include_self_weight": (False, {}),
    "schedule.n_training_slots": (150, {}),
    "schedule.n_eval_slots": (50, {}),
    "schedule.local_train_period_slots": (20, {}),
    "schedule.federation_period_slots": (60, {}),
    "schedule.window_samples": (32, {}),
}
# Accepted leaves that move no model, confusion count or byte count of a
# comparison, each with a second value and what retires it (ROADMAP items)
INERT_LEAVES = {
    "carrier_band_mhz": ((2400.0, 2483.5), "descriptive only; item 4 removes it"),
    "central_xy_m": ((0.0, 0.0), "no run places the coordinator; item 18"),
    "federation.weighting": ("uniform", "both values weight uniformly; item 6 removes it"),
    "federation.topology": ("gossip", "only `run` reads it, as --topology's default"),
}


def test_every_field_changes_some_output_or_is_a_named_exception():
    # Each leaf, set to its second value on a short data-scarce comparison
    # (200 + 100 slots, all three topologies), changes the models, the
    # confusion counts or the byte counts; each inert leaf changes none, so
    # a field that goes dead, or one that comes alive, fails here.
    base = asdict(load_scenario("scenarios/data_scarce.json"))
    base["schedule"].update(n_training_slots=200, n_eval_slots=100)
    leaves = {name for name, _ in scenario_leaves(base)} - {"seed"}
    assert SECOND_VALUES.keys() | INERT_LEAVES.keys() == leaves
    assert not SECOND_VALUES.keys() & INERT_LEAVES.keys()

    @functools.cache
    def outputs(leaves):
        variant = with_leaves(base, dict(leaves))
        trained = train_topologies(sense_run(variant, 1), TOPOLOGIES)
        runs = [run_simulation(variant, t, 1, trained=trained) for t in TOPOLOGIES]
        return [trained.theta.tobytes()] + [
            (r.confusion.tobytes(), r.traffic.tx_bytes.tobytes(), r.traffic.central_bytes)
            for r in runs
        ]

    for name, (value, condition) in SECOND_VALUES.items():
        given = tuple(condition.items())
        assert outputs(given + ((name, value),)) != outputs(given), name
    for name, (value, _) in INERT_LEAVES.items():
        assert outputs(((name, value),)) == outputs(()), name
