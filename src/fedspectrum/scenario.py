"""Scenario schema: strict JSON loading, validation, and node placement.

A scenario file is a flat JSON object; every key is optional except ``seed``
and unknown keys are rejected so typos cannot silently fall back to
defaults.  ``docs/scenario_schema.md`` carries the annotated reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from hashlib import sha256

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


def scenario_to_dict(s: Scenario) -> dict:
    out = asdict(s)
    out["carrier_band_mhz"] = list(s.carrier_band_mhz)
    out["central_xy_m"] = list(s.central_xy_m) if s.central_xy_m is not None else None
    return out


def scenario_digest(s: Scenario) -> str:
    """Stable 16-hex-digit fingerprint of the full scenario."""
    canonical = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _reject_unknown(obj: dict, allowed: set[str], ctx: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioSchemaError(f"unknown key {ctx}{unknown[0]!r}")


def _num(obj: dict, key: str, default: float, ctx: str) -> float:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioSchemaError(f"key {ctx}{key!r} must be a number")
    return float(value)


def _int(obj: dict, key: str, default: int, ctx: str) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioSchemaError(f"key {ctx}{key!r} must be an integer")
    return value


def _str(obj: dict, key: str, default: str, ctx: str) -> str:
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise ScenarioSchemaError(f"key {ctx}{key!r} must be a string")
    return value


def _bool(obj: dict, key: str, default: bool, ctx: str) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioSchemaError(f"key {ctx}{key!r} must be a boolean")
    return value


def _pair(obj: dict, key: str, default, ctx: str):
    value = obj.get(key, default)
    if value is None:
        return None
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ScenarioSchemaError(f"key {ctx}{key!r} must be a pair of numbers")
    return (float(value[0]), float(value[1]))


def _section(obj: dict, key: str) -> dict:
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioSchemaError(f"key {key!r} must be an object")
    return value


_TOP_KEYS = {
    "seed",
    "area_size_m",
    "n_sensors",
    "n_primary_users",
    "sensor_placement",
    "carrier_band_mhz",
    "central_xy_m",
    "channel",
    "pu_traffic",
    "training",
    "federation",
    "schedule",
}
_CHANNEL_KEYS = {"pl0_db", "d0_m", "n_exp", "shadowing_sigma_db", "noise_floor_dbm"}
_TRAFFIC_KEYS = {"tx_power_dbm", "mean_burst_slots", "mean_gap_slots"}
_TRAINING_KEYS = {
    "learning_rate",
    "epochs_per_round",
    "batch_size",
    "init_scale",
    "model_kind",
}
_FEDERATION_KEYS = {
    "topology",
    "neighbor_radius_m",
    "weighting",
    "include_self_weight",
}
_SCHEDULE_KEYS = {
    "n_training_slots",
    "n_eval_slots",
    "local_train_period_slots",
    "federation_period_slots",
    "window_samples",
}


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from an already-parsed JSON object (strict keys)."""
    if not isinstance(raw, dict):
        raise ScenarioSchemaError("scenario root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "")
    if "seed" not in raw:
        raise ScenarioSchemaError("missing required key 'seed'")

    ch = _section(raw, "channel")
    _reject_unknown(ch, _CHANNEL_KEYS, "channel.")
    tr = _section(raw, "pu_traffic")
    _reject_unknown(tr, _TRAFFIC_KEYS, "pu_traffic.")
    tc = _section(raw, "training")
    _reject_unknown(tc, _TRAINING_KEYS, "training.")
    fc = _section(raw, "federation")
    _reject_unknown(fc, _FEDERATION_KEYS, "federation.")
    sc = _section(raw, "schedule")
    _reject_unknown(sc, _SCHEDULE_KEYS, "schedule.")

    defaults = Scenario(seed=0)
    band = _pair(raw, "carrier_band_mhz", list(defaults.carrier_band_mhz), "")
    if band is None:
        raise ScenarioSchemaError("key 'carrier_band_mhz' must be a pair of numbers")
    scenario = Scenario(
        seed=_int(raw, "seed", 0, ""),
        area_size_m=_num(raw, "area_size_m", defaults.area_size_m, ""),
        n_sensors=_int(raw, "n_sensors", defaults.n_sensors, ""),
        n_primary_users=_int(raw, "n_primary_users", defaults.n_primary_users, ""),
        sensor_placement=_str(raw, "sensor_placement", defaults.sensor_placement, ""),
        carrier_band_mhz=band,
        central_xy_m=_pair(raw, "central_xy_m", None, ""),
        channel=ChannelModel(
            pl0_db=_num(ch, "pl0_db", 40.0, "channel."),
            d0_m=_num(ch, "d0_m", 1.0, "channel."),
            n_exp=_num(ch, "n_exp", 3.0, "channel."),
            shadowing_sigma_db=_num(ch, "shadowing_sigma_db", 6.0, "channel."),
            noise_floor_dbm=_num(ch, "noise_floor_dbm", -100.0, "channel."),
        ),
        pu_traffic=PuTrafficModel(
            tx_power_dbm=_num(tr, "tx_power_dbm", 20.0, "pu_traffic."),
            mean_burst_slots=_num(tr, "mean_burst_slots", 20.0, "pu_traffic."),
            mean_gap_slots=_num(tr, "mean_gap_slots", 40.0, "pu_traffic."),
        ),
        training=TrainingConfig(
            learning_rate=_num(tc, "learning_rate", 0.2, "training."),
            epochs_per_round=_int(tc, "epochs_per_round", 4, "training."),
            batch_size=_int(tc, "batch_size", 10, "training."),
            init_scale=_num(tc, "init_scale", 0.5, "training."),
            model_kind=_str(tc, "model_kind", "logistic", "training."),
        ),
        federation=FederationConfig(
            topology=_str(fc, "topology", "isolated", "federation."),
            neighbor_radius_m=_num(fc, "neighbor_radius_m", 300.0, "federation."),
            weighting=_str(fc, "weighting", "samples", "federation."),
            include_self_weight=_bool(fc, "include_self_weight", True, "federation."),
        ),
        schedule=SlotSchedule(
            n_training_slots=_int(sc, "n_training_slots", 2000, "schedule."),
            n_eval_slots=_int(sc, "n_eval_slots", 2000, "schedule."),
            local_train_period_slots=_int(
                sc, "local_train_period_slots", 50, "schedule."
            ),
            federation_period_slots=_int(
                sc, "federation_period_slots", 50, "schedule."
            ),
            window_samples=_int(sc, "window_samples", 64, "schedule."),
        ),
    )
    return scenario


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


def validate_scenario(s: Scenario) -> list[str]:
    """All invariant violations, each naming the offending field."""
    v: list[str] = []
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
