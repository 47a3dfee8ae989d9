"""Scenario schema: strict JSON loading, validation, and node placement.

A scenario file is a JSON object read straight from the ``Scenario``
dataclass: its field names are the allowed keys, its field types the
accepted value types, and its defaults fill absent keys; nested dataclass
fields are nested objects.  Every key is optional except ``seed``; unknown
keys are rejected so typos cannot silently fall back to defaults, and
duplicate keys so no value is silently dropped.  Value bounds and choices
are one table, ``_RULES``, which ``Scenario.__post_init__`` checks in the
same walk that types each value: the dataclasses are frozen, so a Scenario
that exists is valid and stays so, and a variant made with
``dataclasses.replace`` is checked as it is built.  The Scenario is the one
place a rule is checked: the code below it (``sensing.cost_constants``,
``federation.gossip_mixer``, ``sensing.train_rows``) takes its values as
they are.  ``docs/scenario_schema.md`` carries the annotated reference.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache
from hashlib import sha256
from types import UnionType
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .federation import TOPOLOGIES, WEIGHTINGS, FederationConfig
from .radio import ChannelModel, PuTrafficModel
from .rng import MAX_SEED
from .sensing import MODEL_KINDS, TrainingConfig

PLACEMENT_MODES = ("grid", "uniform_random")
# Bounds checked before any work: every integer count but the seed, and the
# run's window tensor (sensors x slots) and chain block (primary users x slots).
MAX_COUNT = 10**6
MAX_WINDOWS = 10**8
# Version of how a scenario and seed become draws (how ``rng`` derives the
# streams and what each yields, in ``radio``); bumped whenever the same
# scenario would draw other numbers, so ``scenario_digest`` tells the two
# apart.  Layout 3 derives the streams by kind and row; layout 4 draws a
# window as one ``obs`` row times the slot's superposed power.
STREAM_LAYOUT = 4


class ScenarioParseError(ValueError):
    """The scenario file is not valid JSON."""


class ScenarioSchemaError(ValueError):
    """The scenario JSON has a missing, unknown, or mistyped key."""


class ScenarioValidationError(ValueError):
    """The scenario violates a documented field invariant."""


@dataclass(frozen=True)
class SlotSchedule:
    n_training_slots: int = 2000
    n_eval_slots: int = 2000
    local_train_period_slots: int = 50
    federation_period_slots: int = 50
    window_samples: int = 64


class Placement(NamedTuple):
    node_id: int
    kind: str  # "sensor" | "primary_user"
    x_m: float
    y_m: float


@dataclass(frozen=True)
class Scenario:
    """Complete description of one experiment, valid once it exists: the
    constructor (and so ``dataclasses.replace``) types and checks every field
    as a scenario file's (``_typed``), then raises ScenarioValidationError
    joining every violation (``_violations``)."""

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

    def __post_init__(self) -> None:
        bad: dict[str, str] = {}
        for name, value in _typed(Scenario, asdict(self), "", bad).items():
            object.__setattr__(self, name, value)
        violations = _violations(self, bad)
        if violations:
            raise ScenarioValidationError("; ".join(violations))


def scenario_digest(s: Scenario) -> str:
    """Stable 16-hex-digit fingerprint of the full scenario and of the stream
    layout that turns it into draws (``STREAM_LAYOUT``)."""
    canonical = json.dumps([STREAM_LAYOUT, asdict(s)], sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()[:16]


# what a value of each field type must be, as schema errors word it
_EXPECTED = {
    float: "a number",
    int: "an integer",
    str: "a string",
    bool: "a boolean",
    tuple: "a pair of numbers",
}


# a dataclass's field types, read once per class
_hints = cache(get_type_hints)
# the values a number field accepts
_NUMBERS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def _convert(hint, value):
    """``value`` as field type ``hint``; TypeError when it has another type.

    ``hint`` is float (an int is accepted and stored as a float; one beyond
    float range becomes an infinity, as JSON's ``1e400`` does, for validation
    to reject), int, str, bool, a tuple of those (from a list or a tuple), or
    ``T | None``.  Booleans are not numbers; numpy's numbers become Python's.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # T | None
        return None if value is None else _convert(args[0], value)
    if origin is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise TypeError
        return tuple(map(_convert, args, value))
    allowed = _NUMBERS.get(hint, hint)
    if isinstance(value, bool) and hint is not bool or not isinstance(value, allowed):
        raise TypeError
    try:
        return hint(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _typed(cls, raw: dict, ctx: str, bad: dict[str, str]) -> dict:
    """The fields of dataclass ``cls`` from the object ``raw`` (a built
    Scenario's ``asdict``, whose nested objects may be a file's), each as its
    type (``_convert``); keys absent from a nested object take the field
    defaults.  The same walk puts in ``bad``, by dotted name, the first rule
    each given value breaks: finite, a count (not the seed) at most
    ``MAX_COUNT``, then its ``_RULES`` bound or choice.

    Keys, types and defaults all come from the dataclass fields, and nested
    dataclass fields are built from nested objects.  ``ctx``, the dotted
    path of the enclosing objects, prefixes key names in error messages.
    """
    declared = fields(cls)
    unknown = sorted(set(raw) - {f.name for f in declared})
    if unknown:
        raise ScenarioSchemaError(f"unknown key {ctx}{unknown[0]!r}")
    hints, values = _hints(cls), {}
    for f in declared:
        hint, key, name = hints[f.name], f"{ctx}{f.name!r}", f"{ctx}{f.name}"
        if f.name not in raw:
            continue
        if is_dataclass(hint):
            if not isinstance(raw[f.name], dict):
                raise ScenarioSchemaError(f"key {key} must be an object")
            values[f.name] = hint(**_typed(hint, raw[f.name], f"{name}.", bad))
        else:
            try:
                values[f.name] = _convert(hint, raw[f.name])
            except TypeError:
                named = get_args(hint)[0] if get_origin(hint) is UnionType else hint
                expected = _EXPECTED[get_origin(named) or named]
                raise ScenarioSchemaError(f"key {key} must be {expected}") from None
            value, rule = values[f.name], _RULES.get(name)
            numbers = value if isinstance(value, tuple) else [value]
            if any(isinstance(x, float) and not math.isfinite(x) for x in numbers):
                shown = list(value) if numbers is value else value
                bad[name] = f"{name}: must be finite (got {shown})"
            elif name != "seed" and isinstance(value, int) and value > MAX_COUNT:
                bad[name] = f"{name}: must be <= {MAX_COUNT} (got {value})"
            elif isinstance(rule, tuple) and value not in rule:
                bad[name] = f"{name}: must be one of {rule} (got {value!r})"
            elif isinstance(rule, str):
                bounds = (bound.split() for bound in rule.split(", "))
                if not all(_OPS[op](value, float(limit)) for op, limit in bounds):
                    bad[name] = f"{name}: must be {rule} (got {value})"
    return values


def scenario_from_dict(raw: dict) -> Scenario:
    """Build a Scenario from an already-parsed JSON object (strict keys): the
    constructor types its values, nested objects included, and checks them
    in one walk; ScenarioValidationError if it breaks a rule."""
    if not isinstance(raw, dict):
        raise ScenarioSchemaError("scenario root must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(Scenario)})
    if unknown:
        raise ScenarioSchemaError(f"unknown key {unknown[0]!r}")
    if "seed" not in raw:
        raise ScenarioSchemaError("missing required key 'seed'")
    return Scenario(**raw)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a repeated key is a schema error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioSchemaError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_scenario(path) -> Scenario:
    """Load and schema-check a scenario file; the Scenario validates itself.

    Raises:
        FileNotFoundError: missing file.
        ScenarioParseError: the file is not UTF-8 JSON that Python can read
            (the message names the file, and the line and column of a syntax
            error).
        ScenarioSchemaError: unknown/missing/mistyped/duplicate key.
        ScenarioValidationError: a field invariant does not hold.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.loads(fh.read(), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ScenarioSchemaError:
        raise
    except (ValueError, RecursionError) as exc:  # bad UTF-8, deep nesting, huge integers
        raise ScenarioParseError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(raw)


# Value rule per field, by its dotted name (``schedule.window_samples``): bounds
# "<op> <limit>[, <op> <limit>]" that are both the check and its message, or
# the tuple of allowed choices.  A field without a rule takes any value of its
# type.  dB powers are bounded to keep linear powers' squares finite, and the
# area, reference distance and path-loss exponent to keep the geometry finite.
_RULES = {
    "area_size_m": ">= 1, <= 1e8",
    "n_sensors": ">= 1",
    "n_primary_users": ">= 0",
    "sensor_placement": PLACEMENT_MODES,
    "channel.pl0_db": ">= -300, <= 300",
    "channel.d0_m": ">= 0.001",
    "channel.n_exp": ">= 0, <= 10",
    "channel.shadowing_sigma_db": ">= 0, <= 30",
    "channel.noise_floor_dbm": ">= -300, <= 300",
    "pu_traffic.tx_power_dbm": ">= -300, <= 300",
    "pu_traffic.mean_burst_slots": "> 0",
    "pu_traffic.mean_gap_slots": "> 0",
    "training.learning_rate": "> 0",
    "training.epochs_per_round": ">= 1",
    "training.batch_size": ">= 1",
    "training.init_scale": ">= 0",
    "training.model_kind": MODEL_KINDS,
    "federation.topology": TOPOLOGIES,
    "federation.neighbor_radius_m": ">= 0",
    "federation.weighting": WEIGHTINGS,
    "schedule.n_training_slots": ">= 0",
    "schedule.n_eval_slots": ">= 1",
    "schedule.local_train_period_slots": ">= 1",
    "schedule.federation_period_slots": ">= 1",
    "schedule.window_samples": ">= 2",
}
_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _violations(s: Scenario, bad: dict[str, str]) -> list[str]:
    """All invariant violations, each naming its field: ``_typed``'s field
    messages ``bad`` in field order, then the cross-field checks, each only
    when no field it reads is in ``bad``."""
    v = list(bad.values())

    def clean(*names: str) -> bool:
        return bad.keys().isdisjoint(names)

    slots = s.schedule.n_training_slots + s.schedule.n_eval_slots
    for name, count, what in (
        ("n_sensors", s.n_sensors, "windows"),
        ("n_primary_users", s.n_primary_users, "chain steps"),
    ):
        reads = (name, "schedule.n_training_slots", "schedule.n_eval_slots")
        if clean(*reads) and count * slots > MAX_WINDOWS:
            v.append(
                f"{name}: {count} x {slots} slots is {count * slots} {what}, "
                f"above the limit of {MAX_WINDOWS}"
            )
    if clean("carrier_band_mhz") and not s.carrier_band_mhz[0] < s.carrier_band_mhz[1]:
        v.append(
            f"carrier_band_mhz: low edge must be below high edge "
            f"(got {list(s.carrier_band_mhz)})"
        )
    if not 0 <= s.seed <= MAX_SEED:
        v.append(f"seed: must fit in 64 unsigned bits (got {s.seed})")
    if s.central_xy_m is not None and clean("central_xy_m", "area_size_m"):
        x, y = s.central_xy_m
        if not (0 <= x <= s.area_size_m and 0 <= y <= s.area_size_m):
            v.append(f"central_xy_m: must lie inside the area (got {[x, y]})")
    return v


def place_nodes(s: Scenario, rng: np.random.Generator) -> tuple[Placement, ...]:
    """Lay out the sensors and the primary users.

    Grid mode fills the nearest square grid with equal margins in row-major
    node-id order and consumes no random draws, so grid sensor positions are
    seed-independent.  Primary users are always uniform over the area.  Each
    random node draws its x then its y, node after node, in one array draw
    per kind.  Node ids: sensors ``0..n_sensors-1``, then primary users; no
    cost depends on where the coordinator stands, so it is not placed.
    """
    n, area = s.n_sensors, s.area_size_m
    if s.sensor_placement == "grid":
        k = math.ceil(math.sqrt(n))
        row, col = np.divmod(np.arange(n), k)
        xy = np.stack([col + 0.5, row + 0.5], axis=1) * (area / k)
    else:
        xy = rng.uniform(0.0, area, size=(n, 2))
    xy = np.concatenate([xy, rng.uniform(0.0, area, size=(s.n_primary_users, 2))])
    kinds = ["sensor"] * n + ["primary_user"] * s.n_primary_users
    return tuple(map(Placement, range(len(kinds)), kinds, *xy.T.tolist()))
