"""Experiment specifications: validated, serializable run descriptions.

A spec file is YAML with the nested sections ``model``, ``drive``,
``schedules``, ``run`` and optionally ``truth`` / ``output`` (grammar in
the README).  Parsing validates everything against module preconditions
before any work starts, and parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass
from typing import Any

import yaml

from .cud_core import MAX_M, TABLE_RANGE, LfsrConfig, builtin_config, is_primitive
from .errors import ConfigurationError, SpecError
from .prng import SEED_RANGE
from .samplers import (ConstantSchedule, PolynomialSchedule, StepSchedule,
                       solve_polynomial_schedule)

MODELS = ("logistic", "linear", "crossed", "double_well")
TEST_FUNCTIONS = ("coordinate", "square", "indicator")
# Replicate streams pack the replicate index into 20 bits (bench._stream).
MAX_REPLICATES = 1 << 20
# Below this the linear model's X'X / noise_var can overflow float64.
MIN_NOISE_VAR = 1e-12
# Orders a run can generate: the generator table up to the period budget.
M_RANGE = range(TABLE_RANGE.start, MAX_M + 1)
# A schedule label names report rows (CSV fields) and dump files.
LABEL_PATTERN = re.compile(r"[A-Za-z0-9_.+-]+")


@dataclass(frozen=True)
class ScheduleSpec:
    """One step-size schedule; ``solved`` pins endpoints and solves per n."""

    kind: str  # constant | polynomial | solved
    h: float | None = None
    c0: float | None = None
    c1: float | None = None
    h_start: float | None = None
    h_end: float | None = None
    exponent: float = -1.0 / 3.0
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in SECTION_KEYS["schedules"]:
            raise SpecError(f"unknown schedule kind {self.kind!r}")
        needed = [k for k in SECTION_KEYS["schedules"][self.kind]
                  if k not in ("kind", "exponent", "label")]
        if any(getattr(self, k) is None for k in needed):
            raise SpecError(f"{self.kind} schedule needs {' and '.join(needed)}")
        _check_numbers(self, ("h", "c0", "c1", "h_start", "h_end", "exponent"),
                       f"{self.kind} schedule: ")
        try:  # the schedule's own rules, at the shortest run a solved one allows
            self.resolve(2)
        except ConfigurationError as exc:
            raise SpecError(f"{self.kind} schedule: {exc}") from exc
        if not self.label:
            object.__setattr__(self, "label", self._default_label())
        if not isinstance(self.label, str) or not LABEL_PATTERN.fullmatch(self.label):
            raise SpecError(f"schedule label {self.label!r} must match {LABEL_PATTERN.pattern}")

    def _default_label(self) -> str:
        if self.kind == "constant":
            return f"constant_h{self.h:g}"
        if self.kind == "polynomial":
            return f"poly_c0{self.c0:g}_c1{self.c1:g}"
        return f"solved_{self.h_start:g}to{self.h_end:g}"

    def resolve(self, n: int) -> StepSchedule:
        """Concrete schedule for a run of ``n`` total steps."""
        if self.kind == "constant":
            return ConstantSchedule(self.h)
        if self.kind == "polynomial":
            return PolynomialSchedule(self.c0, self.c1, self.exponent)
        return solve_polynomial_schedule(self.h_start, self.h_end, n, self.exponent)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_integers(obj, names, optional=()) -> None:
    """Refuse a field that is not an int; ``optional`` fields may be None."""
    for name in names + optional:
        value = getattr(obj, name)
        if not _is_int(value) and not (value is None and name in optional):
            raise SpecError(f"{name} must be an integer, got {value!r}")


def _check_seed(obj, name, where) -> None:
    """Refuse an integer seed outside ``SEED_RANGE``: it would alias one inside."""
    if getattr(obj, name) not in SEED_RANGE:
        raise SpecError(f"{where}{name} must be in 0..2^64 - 1, got {getattr(obj, name)}")


def _check_numbers(obj, names, where="") -> None:
    """Refuse a field that is set but not a real number; a bool is not one."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and (not isinstance(value, (int, float)) or isinstance(value, bool)):
            raise SpecError(f"{where}{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class TruthSpec:
    """Reference-chain parameters for models without a closed form."""

    h: float
    n_steps: int
    chains: int = 10
    seed: int = 101

    def __post_init__(self):
        _check_integers(self, ("n_steps", "chains", "seed"))
        _check_seed(self, "seed", "truth: ")
        _check_numbers(self, ("h",), "truth: ")
        if not 0 < self.h < math.inf or self.n_steps < 1 or self.chains < 2:
            raise SpecError("truth spec needs a finite h > 0, n_steps >= 1, chains >= 2")


DEFAULT_TRUTH = {
    "logistic": TruthSpec(h=1e-4, n_steps=1 << 22, chains=10, seed=101),
    "crossed": TruthSpec(h=1e-5, n_steps=1 << 22, chains=10, seed=101),
}

# The keys each section of a spec file may hold; model and schedule keys
# depend on the kind.  ``from_dict`` refuses any other key, because the
# run would ignore it.
_DATA_MODEL_KEYS = ("kind", "n_obs", "dim", "data_seed")
SECTION_KEYS = {
    "spec": ("model", "drive", "schedules", "run", "truth", "output"),
    "model": {"logistic": _DATA_MODEL_KEYS, "crossed": _DATA_MODEL_KEYS,
              "linear": _DATA_MODEL_KEYS + ("noise_var",), "double_well": ("kind",)},
    "drive": ("m_values", "offset", "poly_mask"),
    "schedules": {"constant": ("kind", "h", "label"),
                  "polynomial": ("kind", "c0", "c1", "exponent", "label"),
                  "solved": ("kind", "h_start", "h_end", "exponent", "label")},
    "run": ("replicates", "seed", "test_functions", "minibatch", "burn_in_m", "n_override"),
    "truth": ("h", "n_steps", "chains", "seed"),
}


def _section(where: str, section, allowed) -> dict:
    """``section``, once it is a mapping holding only ``allowed`` keys."""
    if not isinstance(section, dict):
        raise SpecError(f"{where}: expected a mapping, got {section!r}")
    if isinstance(allowed, dict):  # keyed by kind; the dataclass refuses an unknown kind
        kind = section.get("kind")
        where = f"{where} (kind {kind})"
        allowed = allowed.get(kind, tuple(section)) if isinstance(kind, str) else tuple(section)
    for key in section:
        if key not in allowed:
            raise SpecError(f"{where}: unknown key {key!r} (allowed: {', '.join(allowed)})")
    return section


def _listed(key: str, value) -> tuple:
    """A list-valued key as a tuple.  A scalar is refused: ``tuple()`` would
    split a string into characters, and a number is not iterable."""
    if not isinstance(value, list):
        raise SpecError(f"{key} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one MSE-comparison experiment."""

    model: str
    m_values: tuple[int, ...]
    schedules: tuple[ScheduleSpec, ...]
    n_obs: int = 20
    dim: int = 10
    noise_var: float = 0.25
    data_seed: int = 1
    seed: int = 0
    replicates: int = 20
    test_functions: tuple[str, ...] = TEST_FUNCTIONS
    minibatch: int | None = None
    offset: int | None = None
    poly_mask: int | None = None
    burn_in_m: int | None = None
    n_override: int | None = None
    truth: TruthSpec | None = None
    output: str | None = None

    def __post_init__(self):
        _check_integers(self, ("n_obs", "dim", "data_seed", "seed", "replicates"),
                        ("minibatch", "offset", "poly_mask", "burn_in_m", "n_override"))
        _check_seed(self, "data_seed", "model: ")
        _check_seed(self, "seed", "run: ")
        _check_numbers(self, ("noise_var",))
        if self.model not in MODELS:
            raise SpecError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.output is not None and not (isinstance(self.output, str) and self.output):
            raise SpecError(f"output must be a nonempty string, got {self.output!r}")
        for key in ("m_values", "test_functions"):
            if not getattr(self, key):
                raise SpecError(f"{key} must be nonempty")
        for m in self.m_values:
            if not _is_int(m) or m not in M_RANGE:
                raise SpecError(f"m_values must be integers in {M_RANGE.start}..{MAX_M} "
                                f"(the generator table up to the period budget), got {m!r}")
        if self.burn_in_m is not None and self.burn_in_m not in M_RANGE:
            raise SpecError(f"burn_in_m={self.burn_in_m} outside {M_RANGE.start}..{MAX_M} "
                            f"(the generator table up to the period budget)")
        if not self.schedules:
            raise SpecError("at least one schedule is required")
        for what, items in (("schedule label", [s.label for s in self.schedules]),
                            ("m_values entry", self.m_values),
                            ("test function", self.test_functions)):
            for item in items:
                if items.count(item) > 1:
                    raise SpecError(f"{what} {item!r} is used more than once")
        if self.truth is not None and self.model not in DEFAULT_TRUTH:
            raise SpecError(f"truth: a {self.model} model has no reference-chain truth")
        if self.replicates < 2:
            raise SpecError("need >= 2 replicates for standard errors")
        if self.replicates >= MAX_REPLICATES:
            raise SpecError(f"replicates must be < {MAX_REPLICATES} (distinct streams)")
        for f in self.test_functions:
            if f not in TEST_FUNCTIONS:
                raise SpecError(f"unknown test function {f!r}")
        if self.model != "double_well" and (self.n_obs < 1 or self.dim < 1):
            raise SpecError("n_obs and dim must be positive")
        if self.model == "linear" and not MIN_NOISE_VAR <= self.noise_var < math.inf:
            raise SpecError(f"noise_var must be finite and >= {MIN_NOISE_VAR:g}, "
                            f"got {self.noise_var!r}")
        if self.minibatch is not None:
            if self.model not in ("logistic", "linear"):
                raise SpecError("minibatch gradients are only wired for data models")
            if not 1 <= self.minibatch <= self.n_obs:
                raise SpecError("minibatch must be in 1..n_obs")
        if self.n_override is not None:
            if self.n_override < 1:
                raise SpecError("n_override must be >= 1")
            if any(self.n_override > (1 << m) - 1 for m in self.m_values):
                raise SpecError("n_override exceeds a drive period")
        mask = self.poly_mask
        if mask is not None:
            if mask <= 0:
                raise SpecError(f"poly_mask must be positive, got {mask!r}")
            if mask.bit_length() - 1 not in self.m_values:
                raise SpecError(
                    f"poly_mask 0x{mask:x} has degree {mask.bit_length() - 1}, "
                    f"which matches no m in {list(self.m_values)}"
                )
            if not is_primitive(mask):
                raise SpecError(f"poly_mask 0x{mask:x} is not primitive")
        for m in self.m_values:  # each cell's checks, with the run's own code
            try:
                if self.offset is not None:  # the one way its generator can fail
                    LfsrConfig.check_offset(self.offset, m)
                self.main_run(m)
            except ConfigurationError as exc:
                raise SpecError(f"m={m}: {exc}") from exc

    @property
    def burn_in_n(self) -> int:
        """Steps of the burn-in run ahead of every main chain (0 without one)."""
        return (1 << self.burn_in_m) - 1 if self.burn_in_m else 0

    def main_run(self, m: int) -> tuple[int, tuple[StepSchedule, ...]]:
        """Order m's main-chain length and step-size schedules, one per spec
        schedule, each resolved over burn-in plus main steps."""
        n_run = (1 << m) - 1 if self.n_override is None else self.n_override
        return n_run, tuple(s.resolve(self.burn_in_n + n_run) for s in self.schedules)

    def cell(self, m: int) -> tuple[LfsrConfig, int, tuple[StepSchedule, ...]]:
        """Order m's drive generator, then its ``main_run(m)``."""
        return (builtin_config(m, self.offset, self.poly_mask), *self.main_run(m))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        def section(name):  # the section's keys that hold a value, tuples as lists
            return {k: list(v) if isinstance(v, tuple) else v
                    for k in SECTION_KEYS[name] if (v := getattr(self, k)) is not None}

        d: dict[str, Any] = {
            "model": {"kind": self.model, **{k: getattr(self, k)
                                             for k in SECTION_KEYS["model"][self.model]
                                             if k != "kind"}},
            "drive": section("drive"),
            "schedules": [
                {k: getattr(s, k) for k in SECTION_KEYS["schedules"][s.kind]
                 if getattr(s, k) is not None}
                for s in self.schedules
            ],
            "run": section("run"),
        }
        if self.truth is not None:
            d["truth"] = asdict(self.truth)
        if self.output is not None:
            d["output"] = self.output
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ExperimentSpec":
        """Parse a spec mapping; a key the run would not use is a SpecError.

        Only the keys present are passed on, so every default lives in the
        dataclass fields.
        """
        try:
            _section("top level", d, SECTION_KEYS["spec"])
            fields: dict[str, Any] = {}
            for name, section in (("model", d["model"]), ("drive", d["drive"]),
                                  ("run", d.get("run", {}))):
                fields.update(_section(name, section, SECTION_KEYS[name]))
            fields["model"] = fields.pop("kind")
            fields["m_values"] = _listed("m_values", fields["m_values"])
            if "test_functions" in fields:
                fields["test_functions"] = _listed("test_functions", fields["test_functions"])
            fields["schedules"] = tuple(
                ScheduleSpec(**_section(f"schedules[{i}]", s, SECTION_KEYS["schedules"]))
                for i, s in enumerate(_listed("schedules", d["schedules"])))
            if "truth" in d:
                fields["truth"] = TruthSpec(**_section("truth", d["truth"], SECTION_KEYS["truth"]))
            if "output" in d:
                fields["output"] = d["output"]
            return cls(**fields)
        except SpecError:
            raise
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed experiment spec: {exc}") from exc

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentSpec":
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise SpecError(f"invalid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError("spec file must contain a mapping")
        return cls.from_dict(data)


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        return ExperimentSpec.from_yaml(fh.read())
