"""Synthetic sparse event-stream corpora with planted, oracle-recoverable signals.

Stands in for real ICU extracts: per-feature Poisson event streams, mixed
categorical/continuous values, stay archetypes that shape feature co-occurrence,
a per-stay severity factor that correlates continuous values, and a planted
feature-value rule that fixes a binary outcome and shifts a regression target.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from typing import Iterator, Optional

import numpy as np

from .errors import InvalidSpec
from .ingest import Stay
from .textvec import atomic_write
from .types import feature_text

SIGNAL_SOURCE = "microbiology"
SIGNAL_VARIABLE = "blood culture"
SIGNAL_VALUE = "growth detected"
SIGNAL_BENIGN = ("no growth", "contaminant")
ANCHOR_SOURCE = "labevents"
ANCHOR_VARIABLE = "creatinine (serum)"
EVENTS_PER_POSITIVE = 2
ARCHETYPE_BOOST = 2.5  # aligned features; others get the total-preserving complement

_BASE_TIME = datetime(2023, 1, 1, 0, 0)

_SOURCES = ("chartevents", "labevents", "inputevents", "outputevents", "procedureevents")
_DURATION_SOURCES = ("inputevents", "procedureevents")

_VARIABLES = (
    "heart rate", "respiratory rate", "oxygen saturation", "systolic blood pressure",
    "diastolic blood pressure", "mean arterial pressure", "temperature", "central venous pressure",
    "potassium", "sodium", "chloride", "bicarbonate", "lactate", "hemoglobin", "hematocrit",
    "platelet count", "white blood cells", "glucose", "bilirubin total", "albumin", "magnesium",
    "phosphate", "urea nitrogen", "anion gap", "urine output", "stool output", "gastric output",
    "chest tube output", "heparin", "propofol", "norepinephrine", "fentanyl", "insulin",
    "vancomycin", "furosemide", "midazolam", "gcs eye opening", "gcs verbal response",
    "gcs motor response", "pupil response", "skin condition", "respiratory pattern",
    "ventilator mode", "capillary refill", "fluid balance",
)
_QUALIFIERS = ("", " (arterial)", " (venous)", " (serum)", " (bedside)", " (daily)", " (hourly)", " (spot)")

_VALUE_ADJ = (
    "clear", "coarse", "diminished", "elevated", "depressed", "irregular", "regular", "brisk",
    "sluggish", "mottled", "warm", "cool", "intact", "impaired", "absent", "present",
    "mild", "moderate", "severe", "trace",
)
_VALUE_NOUN = (
    "breath sounds", "rhythm", "response", "perfusion", "edema", "output", "tone", "reflexes",
    "effort", "secretions", "alignment", "movement", "drainage", "pulses", "coloration", "turgor",
)

_RATE_MULTIPLIERS = (0.6, 0.8, 1.0, 1.2, 1.4, 1.0, 1.0)  # mean exactly 1.0 over the cycle

_STATIC_WARDS = ("micu", "sicu", "ccu", "csru", "tsicu")
_STATIC_DIAGNOSES = ("none", "hypertension", "diabetes", "copd", "chronic kidney disease", "heart failure")


@dataclass(frozen=True)
class GeneratorSpec:
    patients: int
    features: int
    rate: float  # per-feature events per minute
    signal_incidence: float = 0.1
    stay_hours: float = 24.0
    stay_jitter_hours: float = 0.0
    stays_per_patient: int = 1
    cat_fraction: float = 0.4
    n_archetypes: int = 4
    severity_rho: float = 0.8
    cont_target_shift: float = 2.0
    window_minutes: int = 1440

    def __post_init__(self):
        for name, kind in self.__annotations__.items():  # "int" or "float": the module defers annotations
            value = getattr(self, name)
            if kind == "int":
                ok = isinstance(value, numbers.Integral)
            else:
                ok = isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and math.isfinite(value)
            if isinstance(value, bool) or not ok:
                raise InvalidSpec(f"{name} must be {'an integer' if kind == 'int' else 'a finite number'}, "
                                  f"got {value!r}")
        if self.patients < 1:
            raise InvalidSpec("need at least one patient")
        if self.features < 2:
            raise InvalidSpec("need at least two features")
        if self.rate < 0:
            raise InvalidSpec("rate must be non-negative")
        if not 0.0 <= self.signal_incidence <= 1.0:
            raise InvalidSpec("signal incidence must be in [0, 1]")
        if self.stay_hours * 60 < 1 or self.stay_hours - self.stay_jitter_hours <= 0:
            raise InvalidSpec("stays must last at least a minute")
        if not 0.0 <= self.cat_fraction <= 1.0:
            raise InvalidSpec("categorical fraction must be in [0, 1]")
        if self.n_archetypes < 1 or self.stays_per_patient < 1 or self.window_minutes < 1:
            raise InvalidSpec("archetypes, stays per patient, and window must be >= 1")

    @property
    def signal_feature_text(self) -> str:
        return feature_text(SIGNAL_SOURCE, SIGNAL_VARIABLE)

    @property
    def anchor_feature_text(self) -> str:
        return feature_text(ANCHOR_SOURCE, ANCHOR_VARIABLE)


@dataclass(frozen=True)
class FeatureDef:
    source: str
    variable: str
    kind: str  # "cont" | "cat"
    rate_multiplier: float
    mean: float = 0.0
    stddev: float = 1.0
    alphabet: tuple[str, ...] = ()
    probs: tuple[float, ...] = ()
    duration_base: int = 0  # 0 for discrete events


def feature_definitions(spec: GeneratorSpec, seed: int) -> list[FeatureDef]:
    """Deterministic feature table; index 0 is the signal, index 1 the anchor."""
    rng = np.random.default_rng([seed, 1])
    value_pool = [f"{a} {b}" for a in _VALUE_ADJ for b in _VALUE_NOUN]
    pool_order = rng.permutation(len(value_pool))
    pool_cursor = 0

    def next_values(count: int) -> tuple[str, ...]:
        nonlocal pool_cursor
        if pool_cursor + count > len(pool_order):
            raise InvalidSpec("too many categorical features for the value pool")
        picked = tuple(value_pool[i] for i in pool_order[pool_cursor : pool_cursor + count])
        pool_cursor += count
        return picked

    defs = [
        FeatureDef(SIGNAL_SOURCE, SIGNAL_VARIABLE, "cat", 1.0,
                   alphabet=SIGNAL_BENIGN, probs=(0.85, 0.15)),
        FeatureDef(ANCHOR_SOURCE, ANCHOR_VARIABLE, "cont", 1.0, mean=1.0, stddev=0.4),
    ]
    names = [f"{v}{q}" for q in _QUALIFIERS for v in _VARIABLES]
    n_cat = round(max(spec.features - 2, 0) * spec.cat_fraction)
    for i in range(spec.features - 2):
        variable = names[i % len(names)] if i < len(names) else f"{names[i % len(names)]} #{i // len(names)}"
        source = _SOURCES[i % len(_SOURCES)]
        mult = _RATE_MULTIPLIERS[i % len(_RATE_MULTIPLIERS)]
        duration_base = 30 * (1 + i % 12) if source in _DURATION_SOURCES else 0
        if i < n_cat:
            defs.append(FeatureDef(source, variable, "cat", mult,
                                   alphabet=next_values(4), probs=(0.55, 0.25, 0.12, 0.08),
                                   duration_base=duration_base))
        else:
            mean = float(rng.uniform(-2.0, 6.0))
            stddev = float(rng.uniform(0.3, 2.0))
            defs.append(FeatureDef(source, variable, "cont", mult, mean=mean, stddev=stddev,
                                   duration_base=duration_base))
    return defs


def generate_lines(spec: GeneratorSpec, seed: int) -> list[str]:
    """Event-line corpus, byte-for-byte deterministic for a given seed.

    Each stay's lines are written as ``json.dumps`` would write its records, a
    feature's events as one block: the JSON prefix of a (stay, feature) pair is
    built once, values are written as ``json.dumps`` writes them, and one
    ``np.datetime_as_string`` call formats the stay's timestamps.
    """
    return [line for lines in _stays_lines(spec, seed) for line in lines]


def write_corpus(path: str, spec: GeneratorSpec, seed: int) -> None:
    """Write the ``generate_lines`` corpus to ``path``, one stay at a time, each line ending in ``\\n``."""
    atomic_write(path, (("\n".join(lines) + "\n").encode("utf-8") for lines in _stays_lines(spec, seed)))


def write_task_file(path: str, spec: GeneratorSpec, kind: str, seed: int) -> None:
    """Sidecar description of the planted task so labels can be recomputed."""
    payload = {"kind": kind, "generator_seed": seed, "generator_spec": asdict(spec)}
    atomic_write(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def read_task_file(path: str) -> tuple[str, GeneratorSpec, int]:
    """The kind (text), generator spec and generator seed (a non-negative integer) of a task file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise InvalidSpec(f"bad task file: {exc}") from exc
    try:
        kind, spec, seed = payload["kind"], GeneratorSpec(**payload["generator_spec"]), payload["generator_seed"]
    except (KeyError, TypeError) as exc:
        raise InvalidSpec(f"bad task file: {exc}") from exc
    if not isinstance(kind, str):
        raise InvalidSpec(f"bad task file: kind {kind!r} is not text")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise InvalidSpec(f"bad task file: generator_seed {seed!r} is not a non-negative integer")
    return kind, spec, seed


def _stays_lines(spec: GeneratorSpec, seed: int) -> Iterator[list[str]]:
    """Each stay's event lines, stay by stay in corpus order."""
    # each feature with its _feature_json and its category texts as JSON, encoded once per corpus
    features = [(d, _feature_json(d.source, d.variable), [json.dumps(a) for a in d.alphabet])
                for d in feature_definitions(spec, seed)]
    for p in range(spec.patients):
        for k in range(spec.stays_per_patient):
            start = _BASE_TIME + timedelta(hours=(p * 37 + k * 211) % 8760)
            yield _stay_lines(spec, features, seed, p * spec.stays_per_patient + k,
                              f"p{p:05d}", f"s{p:05d}x{k}", start)


def _stay_lines(spec: GeneratorSpec, features: list[tuple[FeatureDef, str, list[str]]], seed: int,
                stay_idx: int, patient_id: str, stay_id: str, start: datetime) -> list[str]:
    """One stay's lines, each the ``json.dumps`` of its record, stably sorted by timestamp."""
    rng = np.random.default_rng([seed, 1000 + stay_idx])
    minutes = int(round((spec.stay_hours + spec.stay_jitter_hours * (2 * rng.random() - 1)) * 60))
    minutes = max(minutes, 1)
    archetype = int(rng.integers(spec.n_archetypes))
    severity = float(rng.standard_normal())
    positive = bool(rng.random() < spec.signal_incidence) if spec.rate > 0 else False

    head = f'{{"patient_id": {json.dumps(patient_id)}, "stay_id": {json.dumps(stay_id)}, "source": '
    prefixes: list[str] = []  # per event: the JSON up to its value
    values: list[str] = []    # per event: its value as JSON
    ends: list[str] = []      # per event: what follows its timestamp's digits
    times: list[np.ndarray] = []

    def emit(feature: str, block_values: list[str], block_times, block_ends: list[str]) -> None:
        """A block of one feature's events: ``feature`` is its ``_feature_json``, the rest one entry per event."""
        prefixes.extend([head + feature] * len(block_values))
        values.extend(block_values)
        ends.extend(block_ends)
        times.append(block_times)

    def emit_static(source: str, variable: str, value) -> None:
        emit(_feature_json(source, variable), [json.dumps(value)], [0], ['", "static": true}'])

    emit_static("demographics", "age", round(float(rng.uniform(18, 90)), 1))
    emit_static("demographics", "sex", str(rng.choice(("female", "male"))))
    emit_static("admissions", "admission ward", str(rng.choice(_STATIC_WARDS)))
    emit_static("history", "prior diagnosis", str(rng.choice(_STATIC_DIAGNOSES)))

    rho = spec.severity_rho
    resid = np.sqrt(max(1.0 - rho * rho, 0.0))
    align_boost = ARCHETYPE_BOOST
    other_boost = (spec.n_archetypes - align_boost) / max(spec.n_archetypes - 1, 1) \
        if spec.n_archetypes > 1 else 1.0
    if other_boost < 0:
        raise InvalidSpec("archetype boost incompatible with archetype count")

    for f_idx, (fdef, feature, categories) in enumerate(features):
        boost = align_boost if spec.n_archetypes > 1 and f_idx % spec.n_archetypes == archetype \
            else (other_boost if spec.n_archetypes > 1 else 1.0)
        lam = spec.rate * fdef.rate_multiplier * boost * minutes
        count = int(rng.poisson(lam)) if lam > 0 else 0
        if count == 0:
            continue
        block_times = rng.integers(0, minutes, size=count)
        # a duration source's durations are at least its base, so every one of its events has one
        block_ends = [f'", "duration_minutes": {d}}}' for d in
                      (fdef.duration_base + rng.integers(0, 30, size=count)).tolist()] \
            if fdef.duration_base else ['"}'] * count
        if fdef.kind == "cont":
            noise = rng.standard_normal(count)
            block = fdef.mean + fdef.stddev * (rho * severity + resid * noise)
            emit(feature, _json_numbers(block, 4), block_times, block_ends)
        else:
            choices = rng.choice(len(fdef.alphabet), size=count, p=fdef.probs)
            emit(feature, [categories[c] for c in choices.tolist()], block_times, block_ends)

    if positive:
        horizon = min(minutes, spec.window_minutes)
        emit(_feature_json(SIGNAL_SOURCE, SIGNAL_VARIABLE), [json.dumps(SIGNAL_VALUE)] * EVENTS_PER_POSITIVE,
             rng.integers(0, horizon, size=EVENTS_PER_POSITIVE), ['"}'] * EVENTS_PER_POSITIVE)

    minute = np.concatenate(times)
    stamps = np.datetime_as_string(np.datetime64(start, "m") + minute.astype("timedelta64[m]"), unit="m")
    lines = [f'{p}{v}, "timestamp": "{t}{e}' for p, v, t, e in zip(prefixes, values, stamps.tolist(), ends)]
    # statics come first at minute 0, and keep their place in a stable sort
    return [lines[i] for i in np.argsort(minute, kind="stable").tolist()]


def _feature_json(source: str, variable: str) -> str:
    """A record's JSON from its source to the opening of its value, as ``json.dumps`` writes it."""
    return f'{json.dumps(source)}, "variable": {json.dumps(variable)}, "value": '


def _json_numbers(values: np.ndarray, digits: int) -> list[str]:
    """``json.dumps(round(v, digits))`` of each value: ``float.__repr__``, as JSON writes a finite float."""
    rounded = [round(v, digits) for v in values.tolist()]
    return list(map(float.__repr__, rounded)) if np.isfinite(values).all() else list(map(json.dumps, rounded))


# ---------------------------------------------------------------------------
# planted-rule oracles


def oracle_label(stay: Stay, spec: GeneratorSpec) -> int:
    """Ground truth: 1 iff the planted feature-value event occurs in the first window."""
    return oracle_presence(stay, spec)


def oracle_presence(stay: Stay, spec: GeneratorSpec) -> int:
    return int(_first_window_rows(stay, spec, spec.signal_feature_text, SIGNAL_VALUE).any())


def oracle_cont_target(stay: Stay, spec: GeneratorSpec) -> float:
    """Regression target: first-window anchor mean, shifted when the signal fires."""
    cols = stay.columns
    rows = np.flatnonzero(_first_window_rows(stay, spec, spec.anchor_feature_text))
    values = cols.value[rows[np.argsort(cols.registry[rows])]]  # registry order, as the mean sums
    base = float(np.mean(values)) if len(values) else 0.0
    return base + spec.cont_target_shift * oracle_label(stay, spec)


def _first_window_rows(stay: Stay, spec: GeneratorSpec, feature: str, value: Optional[str] = None) -> np.ndarray:
    """Rows of the stay's columns that are first-window dynamics of ``feature``.

    With a ``value`` their value must be that text; without, continuous.
    """
    cols = stay.columns
    code = {text: i for i, text in enumerate(cols.texts)}  # -2 matches no row
    hit = (cols.feature == code.get(feature, -2)) & (cols.offset < spec.window_minutes) \
        & (cols.value_code == (-1 if value is None else code.get(value, -2)))
    hit[: cols.n_statics] = False
    return hit
