"""Scenario schema: strict JSON loading, validation, and node placement.

A scenario file is a JSON object read straight from the ``Scenario``
dataclass: its field names are the allowed keys, its field types the
accepted value types, and its defaults fill absent keys; nested dataclass
fields are nested objects.  Every key is optional except ``seed``, and
unknown keys are rejected so typos cannot silently fall back to defaults.
``docs/scenario_schema.md`` carries the annotated reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from hashlib import sha256
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .federation import TOPOLOGIES, WEIGHTINGS, FederationConfig
from .radio import ChannelModel, PuTrafficModel
from .rng import MAX_SEED
from .sensing import MODEL_KINDS, TrainingConfig

PLACEMENT_MODES = ("grid", "uniform_random")


class ScenarioParseError(ValueError):
    """The scenario file is not valid JSON."""


class ScenarioSchemaError(ValueError):
    """The scenario JSON has a missing, unknown, or mistyped key."""


class ScenarioValidationError(ValueError):
    """The scenario violates a documented field invariant."""


@dataclass
class SlotSchedule:
    n_training_slots: int = 2000
    n_eval_slots: int = 2000
    local_train_period_slots: int = 50
    federation_period_slots: int = 50
    window_samples: int = 64


@dataclass
class Placement:
    node_id: int
    kind: str  # "sensor" | "primary_user" | "central"
    x_m: float
    y_m: float


@dataclass
class Scenario:
    """Complete description of one experiment."""

    seed: int
    area_size_m: float = 1000.0
    n_sensors: int = 14
    n_primary_users: int = 3
    sensor_placement: str = "grid"
    carrier_band_mhz: tuple[float, float] = (3550.0, 3700.0)
    central_xy_m: tuple[float, float] | None = None
    channel: ChannelModel = field(default_factory=ChannelModel)
    pu_traffic: PuTrafficModel = field(default_factory=PuTrafficModel)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    schedule: SlotSchedule = field(default_factory=SlotSchedule)


def scenario_digest(s: Scenario) -> str:
    """Stable 16-hex-digit fingerprint of the full scenario."""
    canonical = json.dumps(asdict(s), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()[:16]


# what a value of each field type must be, as schema errors word it
_EXPECTED = {
    float: "a number",
    int: "an integer",
    str: "a string",
    bool: "a boolean",
    tuple: "a pair of numbers",
}


def _convert(hint, value):
    """``value`` as field type ``hint``; TypeError when it has another type.

    ``hint`` is float (an int is accepted and stored as a float), int, str,
    bool, a tuple of those, or ``T | None``.  Booleans are not numbers.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # T | None
        return None if value is None else _convert(args[0], value)
    if origin is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise TypeError
        return tuple(map(_convert, args, value))
    allowed = (int, float) if hint is float else hint
    if isinstance(value, bool) and hint is not bool or not isinstance(value, allowed):
        raise TypeError
    return hint(value)


def _read(cls, raw: dict, ctx: str):
    """Dataclass ``cls`` from a JSON object; absent keys take the field defaults.

    Keys, types and defaults all come from the dataclass fields, and nested
    dataclass fields are read from nested objects.  ``ctx``, the dotted path
    of the enclosing objects, prefixes key names in error messages.
    """
    declared = fields(cls)
    unknown = sorted(set(raw) - {f.name for f in declared})
    if unknown:
        raise ScenarioSchemaError(f"unknown key {ctx}{unknown[0]!r}")
    hints = get_type_hints(cls)
    values = {}
    for f in declared:
        hint, key = hints[f.name], f"{ctx}{f.name!r}"
        if f.name not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ScenarioSchemaError(f"missing required key {key}")
        elif is_dataclass(hint):
            if not isinstance(raw[f.name], dict):
                raise ScenarioSchemaError(f"key {key} must be an object")
            values[f.name] = _read(hint, raw[f.name], f"{ctx}{f.name}.")
        else:
            try:
                values[f.name] = _convert(hint, raw[f.name])
            except TypeError:
                named = get_args(hint)[0] if get_origin(hint) is UnionType else hint
                expected = _EXPECTED[get_origin(named) or named]
                raise ScenarioSchemaError(f"key {key} must be {expected}") from None
    return cls(**values)


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from an already-parsed JSON object (strict keys)."""
    if not isinstance(raw, dict):
        raise ScenarioSchemaError("scenario root must be a JSON object")
    return _read(Scenario, raw, "")


def load_scenario(path) -> Scenario:
    """Load, schema-check, and validate a scenario file.

    Raises:
        FileNotFoundError: missing file.
        ScenarioParseError: invalid JSON (message carries line and column).
        ScenarioSchemaError: unknown/missing/mistyped key.
        ScenarioValidationError: a field invariant does not hold.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    scenario = scenario_from_dict(raw)
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError("; ".join(violations))
    return scenario


def _leaves(d: dict, prefix: str = ""):
    """(dotted name, value) of every non-dict value in a nested dict, tuples as lists."""
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", list(value) if isinstance(value, tuple) else value


def validate_scenario(s: Scenario) -> list[str]:
    """All invariant violations, each naming the offending field."""
    v: list[str] = []
    for name, value in _leaves(asdict(s)):
        numbers = value if isinstance(value, list) else [value]
        if any(isinstance(x, float) and not math.isfinite(x) for x in numbers):
            v.append(f"{name}: must be finite (got {value})")
    if not s.area_size_m > 0:
        v.append(f"area_size_m: must be > 0 (got {s.area_size_m})")
    if s.n_sensors < 1:
        v.append(f"n_sensors: must be >= 1 (got {s.n_sensors})")
    if s.n_primary_users < 0:
        v.append(f"n_primary_users: must be >= 0 (got {s.n_primary_users})")
    if s.sensor_placement not in PLACEMENT_MODES:
        v.append(
            f"sensor_placement: must be one of {PLACEMENT_MODES} "
            f"(got {s.sensor_placement!r})"
        )
    if not s.carrier_band_mhz[0] < s.carrier_band_mhz[1]:
        v.append(
            f"carrier_band_mhz: low edge must be below high edge "
            f"(got {list(s.carrier_band_mhz)})"
        )
    if not 0 <= s.seed <= MAX_SEED:
        v.append(f"seed: must fit in 64 unsigned bits (got {s.seed})")
    if s.central_xy_m is not None:
        x, y = s.central_xy_m
        if not (0 <= x <= s.area_size_m and 0 <= y <= s.area_size_m):
            v.append(f"central_xy_m: must lie inside the area (got {[x, y]})")
    if not s.channel.d0_m > 0:
        v.append(f"channel.d0_m: must be > 0 (got {s.channel.d0_m})")
    if s.channel.n_exp < 0:
        v.append(f"channel.n_exp: must be >= 0 (got {s.channel.n_exp})")
    if s.channel.shadowing_sigma_db < 0:
        v.append(
            f"channel.shadowing_sigma_db: must be >= 0 "
            f"(got {s.channel.shadowing_sigma_db})"
        )
    if not s.pu_traffic.mean_burst_slots > 0:
        v.append(
            f"pu_traffic.mean_burst_slots: must be > 0 "
            f"(got {s.pu_traffic.mean_burst_slots})"
        )
    if not s.pu_traffic.mean_gap_slots > 0:
        v.append(
            f"pu_traffic.mean_gap_slots: must be > 0 "
            f"(got {s.pu_traffic.mean_gap_slots})"
        )
    if not s.training.learning_rate > 0:
        v.append(
            f"training.learning_rate: must be > 0 (got {s.training.learning_rate})"
        )
    if s.training.epochs_per_round < 1:
        v.append(
            f"training.epochs_per_round: must be >= 1 "
            f"(got {s.training.epochs_per_round})"
        )
    if s.training.batch_size < 1:
        v.append(f"training.batch_size: must be >= 1 (got {s.training.batch_size})")
    if s.training.init_scale < 0:
        v.append(f"training.init_scale: must be >= 0 (got {s.training.init_scale})")
    if s.training.model_kind not in MODEL_KINDS:
        v.append(
            f"training.model_kind: must be one of {MODEL_KINDS} "
            f"(got {s.training.model_kind!r})"
        )
    if s.federation.topology not in TOPOLOGIES:
        v.append(
            f"federation.topology: must be one of {TOPOLOGIES} "
            f"(got {s.federation.topology!r})"
        )
    if s.federation.neighbor_radius_m < 0:
        v.append(
            f"federation.neighbor_radius_m: must be >= 0 "
            f"(got {s.federation.neighbor_radius_m})"
        )
    if s.federation.weighting not in WEIGHTINGS:
        v.append(
            f"federation.weighting: must be one of {WEIGHTINGS} "
            f"(got {s.federation.weighting!r})"
        )
    if s.schedule.n_training_slots < 0:
        v.append(
            f"schedule.n_training_slots: must be >= 0 "
            f"(got {s.schedule.n_training_slots})"
        )
    if s.schedule.n_eval_slots < 1:
        v.append(
            f"schedule.n_eval_slots: must be >= 1 (got {s.schedule.n_eval_slots})"
        )
    if s.schedule.local_train_period_slots < 1:
        v.append(
            f"schedule.local_train_period_slots: must be >= 1 "
            f"(got {s.schedule.local_train_period_slots})"
        )
    if s.schedule.federation_period_slots < 1:
        v.append(
            f"schedule.federation_period_slots: must be >= 1 "
            f"(got {s.schedule.federation_period_slots})"
        )
    if s.schedule.window_samples < 2:
        v.append(
            f"schedule.window_samples: must be >= 2 (got {s.schedule.window_samples})"
        )
    return v


def place_nodes(s: Scenario, rng: np.random.Generator) -> list[Placement]:
    """Lay out sensors, primary users, and the central node.

    Grid mode fills the nearest square grid with equal margins in row-major
    node-id order and consumes no random draws, so grid sensor positions are
    seed-independent.  Primary users are always uniform over the area.  Node
    ids: sensors ``0..n_sensors-1``, then primary users, then the central
    node.
    """
    placements: list[Placement] = []
    if s.sensor_placement == "grid":
        k = math.ceil(math.sqrt(s.n_sensors))
        cell = s.area_size_m / k
        for i in range(s.n_sensors):
            row, col = divmod(i, k)
            placements.append(
                Placement(i, "sensor", (col + 0.5) * cell, (row + 0.5) * cell)
            )
    else:
        for i in range(s.n_sensors):
            x = rng.uniform(0.0, s.area_size_m)
            y = rng.uniform(0.0, s.area_size_m)
            placements.append(Placement(i, "sensor", x, y))
    for j in range(s.n_primary_users):
        x = rng.uniform(0.0, s.area_size_m)
        y = rng.uniform(0.0, s.area_size_m)
        placements.append(Placement(s.n_sensors + j, "primary_user", x, y))
    if s.central_xy_m is not None:
        cx, cy = s.central_xy_m
    else:
        cx = cy = s.area_size_m / 2.0
    placements.append(
        Placement(s.n_sensors + s.n_primary_users, "central", cx, cy)
    )
    return placements
