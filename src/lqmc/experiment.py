"""Experiment specifications: validated, serializable run descriptions.

A spec file is YAML with the nested sections ``model``, ``drive``,
``schedules``, ``run`` and optionally ``truth`` / ``output`` (grammar in
the README).  Parsing validates everything against module preconditions
before any work starts, and parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import yaml

from .cud_core import TABLE_RANGE, Gf2Poly, LfsrConfig, is_primitive
from .errors import ConfigurationError, SpecError
from .samplers import (ConstantSchedule, PolynomialSchedule, StepSchedule,
                       solve_polynomial_schedule)

MODELS = ("logistic", "linear", "crossed", "double_well")
TEST_FUNCTIONS = ("coordinate", "square", "indicator")
# Replicate streams pack the replicate index into 20 bits (bench._stream).
MAX_REPLICATES = 1 << 20


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
        if self.kind == "constant":
            if self.h is None or not self.h > 0:
                raise SpecError("constant schedule needs h > 0")
        elif self.kind == "polynomial":
            if self.c0 is None or self.c1 is None:
                raise SpecError("polynomial schedule needs c0 and c1")
            try:
                PolynomialSchedule(self.c0, self.c1, self.exponent)
            except ConfigurationError as exc:
                raise SpecError(f"polynomial schedule: {exc}") from exc
        elif self.kind == "solved":
            if self.h_start is None or self.h_end is None:
                raise SpecError("solved schedule needs h_start and h_end")
            if not self.h_start > self.h_end > 0:
                raise SpecError("solved schedule needs h_start > h_end > 0")
        else:
            raise SpecError(f"unknown schedule kind {self.kind!r}")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

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


@dataclass(frozen=True)
class TruthSpec:
    """Reference-chain parameters for models without a closed form."""

    h: float
    n_steps: int
    chains: int = 10
    seed: int = 101

    def __post_init__(self):
        if not self.h > 0 or self.n_steps < 1 or self.chains < 2:
            raise SpecError("truth spec needs h > 0, n_steps >= 1, chains >= 2")


DEFAULT_TRUTH = {
    "logistic": TruthSpec(h=1e-4, n_steps=1 << 22, chains=10, seed=101),
    "crossed": TruthSpec(h=1e-5, n_steps=1 << 22, chains=10, seed=101),
}


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
        if self.model not in MODELS:
            raise SpecError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if not self.m_values:
            raise SpecError("m_values must be nonempty")
        for m in self.m_values:
            if m not in TABLE_RANGE:
                raise SpecError(
                    f"m={m} outside the generator table range "
                    f"{TABLE_RANGE.start}..{TABLE_RANGE.stop - 1}"
                )
        if self.burn_in_m is not None and self.burn_in_m not in TABLE_RANGE:
            raise SpecError(f"burn_in_m={self.burn_in_m} outside the table range")
        if not self.schedules:
            raise SpecError("at least one schedule is required")
        if self.replicates < 2:
            raise SpecError("need >= 2 replicates for standard errors")
        if self.replicates >= MAX_REPLICATES:
            raise SpecError(f"replicates must be < {MAX_REPLICATES} (distinct streams)")
        for f in self.test_functions:
            if f not in TEST_FUNCTIONS:
                raise SpecError(f"unknown test function {f!r}")
        if self.model != "double_well" and (self.n_obs < 1 or self.dim < 1):
            raise SpecError("n_obs and dim must be positive")
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
            if not isinstance(mask, int) or mask <= 0:
                raise SpecError(f"poly_mask must be a positive integer, got {mask!r}")
            if mask.bit_length() - 1 not in self.m_values:
                raise SpecError(
                    f"poly_mask 0x{mask:x} has degree {mask.bit_length() - 1}, "
                    f"which matches no m in {list(self.m_values)}"
                )
            try:
                primitive = is_primitive(Gf2Poly.from_mask(mask))
            except ConfigurationError as exc:
                raise SpecError(f"poly_mask 0x{mask:x}: {exc}") from exc
            if not primitive:
                raise SpecError(f"poly_mask 0x{mask:x} is not primitive")
        burn_n = (1 << self.burn_in_m) - 1 if self.burn_in_m else 0
        for m in self.m_values:
            try:
                if self.offset is not None:
                    LfsrConfig.check_offset(self.offset, m)
                for sched in self.schedules:
                    sched.resolve(burn_n + (self.n_override or (1 << m) - 1))
            except ConfigurationError as exc:
                raise SpecError(f"m={m}: {exc}") from exc

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "model": {"kind": self.model, "data_seed": self.data_seed},
            "drive": {"m_values": list(self.m_values)},
            "schedules": [
                {k: v for k, v in asdict(s).items() if v is not None}
                for s in self.schedules
            ],
            "run": {
                "replicates": self.replicates,
                "seed": self.seed,
                "test_functions": list(self.test_functions),
            },
        }
        if self.model != "double_well":
            d["model"]["n_obs"] = self.n_obs
            d["model"]["dim"] = self.dim
        if self.model == "linear":
            d["model"]["noise_var"] = self.noise_var
        if self.offset is not None:
            d["drive"]["offset"] = self.offset
        if self.poly_mask is not None:
            d["drive"]["poly_mask"] = self.poly_mask
        if self.minibatch is not None:
            d["run"]["minibatch"] = self.minibatch
        if self.burn_in_m is not None:
            d["run"]["burn_in_m"] = self.burn_in_m
        if self.n_override is not None:
            d["run"]["n_override"] = self.n_override
        if self.truth is not None:
            d["truth"] = asdict(self.truth)
        if self.output is not None:
            d["output"] = self.output
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ExperimentSpec":
        try:
            model = d["model"]
            drive = d["drive"]
            run = d.get("run", {})
            schedules = tuple(ScheduleSpec(**s) for s in d["schedules"])
            truth = TruthSpec(**d["truth"]) if "truth" in d else None
            return cls(
                model=model["kind"],
                m_values=tuple(drive["m_values"]),
                schedules=schedules,
                n_obs=model.get("n_obs", 20),
                dim=model.get("dim", 10),
                noise_var=model.get("noise_var", 0.25),
                data_seed=model.get("data_seed", 1),
                seed=run.get("seed", 0),
                replicates=run.get("replicates", 20),
                test_functions=tuple(run.get("test_functions", TEST_FUNCTIONS)),
                minibatch=run.get("minibatch"),
                offset=drive.get("offset"),
                poly_mask=drive.get("poly_mask"),
                burn_in_m=run.get("burn_in_m"),
                n_override=run.get("n_override"),
                truth=truth,
                output=d.get("output"),
            )
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
