"""Spec parsing, validation, and round-trip serialization."""

import math
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmc.bench import run_comparison
from lqmc.cud_core import MAX_M
from lqmc.errors import ConfigurationError, DivergenceError, SpecError
from lqmc.experiment import (DEFAULT_TRUTH, MODELS, TEST_FUNCTIONS,
                             ExperimentSpec, ScheduleSpec, TruthSpec, load_spec)
from lqmc.samplers import ConstantSchedule, PolynomialSchedule, solve_polynomial_schedule

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


class TestScheduleSpec:
    def test_labels(self):
        assert ScheduleSpec(kind="constant", h=0.01).label == "constant_h0.01"
        assert ScheduleSpec(kind="solved", h_start=0.01, h_end=0.0001).label == \
            "solved_0.01to0.0001"

    def test_solved_resolution_depends_on_n(self):
        s = ScheduleSpec(kind="solved", h_start=0.01, h_end=0.0001)
        short = s.resolve(100).step_sizes(100)
        long = s.resolve(1000).step_sizes(1000)
        assert short[0] == pytest.approx(0.01, rel=1e-10)
        assert short[-1] == pytest.approx(0.0001, rel=1e-10)
        assert long[-1] == pytest.approx(0.0001, rel=1e-10)

    def test_validation(self):
        with pytest.raises(SpecError):
            ScheduleSpec(kind="constant")
        with pytest.raises(SpecError):
            ScheduleSpec(kind="solved", h_start=0.001, h_end=0.01)
        with pytest.raises(SpecError):
            ScheduleSpec(kind="warmup", h=0.1)

    @pytest.mark.parametrize("label", ["a,b", "x/y", "a\nb"], ids=["comma", "slash", "newline"])
    def test_label_outside_its_alphabet_refused(self, label):
        # A label is a field of the report rows and part of the dump file names.
        with pytest.raises(SpecError, match="must match"):
            ScheduleSpec(kind="constant", h=0.01, label=label)
        assert ScheduleSpec(kind="constant", h=1e-5).label == "constant_h1e-05"
        assert ScheduleSpec(kind="polynomial", c0=0.1, c1=-0.5).label == "poly_c00.1_c1-0.5"

    def test_polynomial_coefficients_checked_at_load(self):
        for c0, c1 in ((0.0, 10.0), (-0.1, 10.0), (0.1, -1.0), (0.1, -3.0)):
            with pytest.raises(SpecError):
                ScheduleSpec(kind="polynomial", c0=c0, c1=c1)
        assert ScheduleSpec(kind="polynomial", c0=0.1, c1=-0.5).c1 == -0.5

    @pytest.mark.parametrize("kind, params, build", [
        ("constant", {"h": 0.0}, lambda: ConstantSchedule(0.0)),
        ("polynomial", {"c0": 0.0, "c1": 1.0}, lambda: PolynomialSchedule(0.0, 1.0)),
        ("solved", {"h_start": 1e-4, "h_end": 1e-2},
         lambda: solve_polynomial_schedule(1e-4, 1e-2, 2)),
        ("solved", {"h_start": 1e-2, "h_end": 1e-4, "exponent": 0.5},
         lambda: solve_polynomial_schedule(1e-2, 1e-4, 2, 0.5)),
        ("constant", {"h": math.inf}, lambda: ConstantSchedule(math.inf)),
        ("polynomial", {"c0": 0.1, "c1": math.inf}, lambda: PolynomialSchedule(0.1, math.inf)),
        ("polynomial", {"c0": 0.1, "c1": 1.0, "exponent": math.nan},
         lambda: PolynomialSchedule(0.1, 1.0, math.nan)),
        ("solved", {"h_start": math.inf, "h_end": 1e-4},
         lambda: solve_polynomial_schedule(math.inf, 1e-4, 2)),
        ("solved", {"h_start": 1e-2, "h_end": 1e-4, "exponent": -math.inf},
         lambda: solve_polynomial_schedule(1e-2, 1e-4, 2, -math.inf)),
    ], ids=["constant_h0", "polynomial_c0", "solved_rising", "solved_positive_exponent",
            "constant_h_inf", "polynomial_c1_inf", "polynomial_exponent_nan",
            "solved_h_start_inf", "solved_exponent_-inf"])
    def test_refusal_is_the_schedules_own(self, kind, params, build):
        # Each rule lives in samplers; the spec only names the kind.
        with pytest.raises(ConfigurationError) as own:
            build()
        with pytest.raises(SpecError) as refused:
            ScheduleSpec(kind=kind, **params)
        assert str(refused.value) == f"{kind} schedule: {own.value}"


class TestExperimentSpecValidation:
    def _ok(self, **kw):
        base = dict(model="linear", m_values=(4,), n_obs=5, dim=2,
                    schedules=(ScheduleSpec(kind="constant", h=0.01),))
        base.update(kw)
        return ExperimentSpec(**base)

    def test_valid_baseline(self):
        assert self._ok().model == "linear"

    def test_unknown_model(self):
        with pytest.raises(SpecError):
            self._ok(model="gamma")

    def test_m_outside_table(self):
        with pytest.raises(SpecError):
            self._ok(m_values=(2,))
        with pytest.raises(SpecError):
            self._ok(m_values=(40,))

    def test_m_above_period_budget(self):
        # in the generator table, but its period would not fit
        assert self._ok(m_values=(4, MAX_M)).m_values == (4, MAX_M)
        with pytest.raises(SpecError, match="period budget"):
            self._ok(m_values=(4, MAX_M + 1))
        with pytest.raises(SpecError, match="period budget"):
            self._ok(burn_in_m=32)

    def test_minibatch_bounds(self):
        with pytest.raises(SpecError):
            self._ok(minibatch=50)  # exceeds n_obs=5
        with pytest.raises(SpecError):
            self._ok(model="double_well", minibatch=2)

    def test_replicates_floor(self):
        with pytest.raises(SpecError):
            self._ok(replicates=1)

    def test_replicates_ceiling_keeps_streams_distinct(self):
        with pytest.raises(SpecError):
            self._ok(replicates=1 << 20)
        assert self._ok(replicates=(1 << 20) - 1).replicates == (1 << 20) - 1

    @staticmethod
    def _yaml_with_mask(mask: str) -> str:
        return ("model: {kind: linear, n_obs: 5, dim: 2}\n"
                f"drive: {{m_values: [4, 5], poly_mask: {mask}}}\n"
                "schedules: [{kind: constant, h: 0.01}]\n")

    def test_poly_mask_degree_must_match_an_m(self):
        with pytest.raises(SpecError, match="degree 12"):
            ExperimentSpec.from_yaml(self._yaml_with_mask("0x1053"))
        assert ExperimentSpec.from_yaml(self._yaml_with_mask("0x25")).poly_mask == 0x25

    def test_poly_mask_must_be_primitive(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but has order 5, not 15.
        with pytest.raises(SpecError, match="not primitive"):
            ExperimentSpec.from_yaml(self._yaml_with_mask("0x1F"))
        with pytest.raises(SpecError):
            ExperimentSpec.from_yaml(self._yaml_with_mask("0x12"))  # x divides it

    def test_offset_must_be_coprime_with_every_period(self):
        with pytest.raises(SpecError, match="coprime with 2\\^4-1=15"):
            self._ok(m_values=(5, 4), offset=3)
        assert self._ok(m_values=(5,), offset=3).offset == 3  # 31 is prime

    def test_solved_schedule_needs_two_steps_at_load(self):
        solved = (ScheduleSpec(kind="solved", h_start=0.01, h_end=0.001),)
        with pytest.raises(SpecError, match="n >= 2"):
            self._ok(schedules=solved, n_override=1)
        assert self._ok(schedules=solved, n_override=1, burn_in_m=3).n_override == 1

    def test_numeric_edges_refused_at_load(self):
        # Both used to pass the loader and fail later (found by
        # TestAcceptedSpecsRun): an OverflowError solving the schedule, and
        # a ConfigurationError or LinAlgError building the linear model.
        with pytest.raises(SpecError, match="too close to 0"):
            near_zero = ScheduleSpec(kind="solved", h_start=0.03125, h_end=1e-5,
                                     exponent=-0.0078125)
            self._ok(schedules=(near_zero,))
        for noise_var in (0.0, -1.0, 1.1e-308, float("inf")):
            with pytest.raises(SpecError, match="noise_var"):
                self._ok(noise_var=noise_var)

    def test_unknown_test_function(self):
        with pytest.raises(SpecError):
            self._ok(test_functions=("cube",))

    @pytest.mark.parametrize("schedules, label", [
        ("[{kind: constant, h: 0.01, label: a}, {kind: constant, h: 0.02, label: a}]", "a"),
        ("[{kind: constant, h: 0.01}, {kind: constant, h: 0.01}]", "constant_h0.01"),
    ], ids=["explicit", "default"])
    def test_duplicate_schedule_labels_refused(self, schedules, label):
        # Their report rows, sidecar entries and dumps could not be told apart.
        with pytest.raises(SpecError, match=f"label '{label}' is used more than once"):
            ExperimentSpec.from_yaml(TestUnknownKeys.BASE + f"schedules: {schedules}\n")

    @pytest.mark.parametrize("m_values, run, message", [
        ("[4, 5, 4]", "", "m_values entry 4 is used more than once"),
        ("[4]", "run: {test_functions: [square, coordinate, square]}\n",
         "test function 'square' is used more than once"),
        ("[4]", "run: {test_functions: []}\n", "test_functions must be nonempty"),
    ], ids=["m_values", "test_functions", "no_test_functions"])
    def test_repeated_or_empty_lists_refused(self, m_values, run, message):
        # A repeated m runs its cell twice, a repeated test function writes its
        # rows twice, and no test function steps every chain for an empty report.
        text = ("model: {kind: linear, n_obs: 5, dim: 2}\n"
                f"drive: {{m_values: {m_values}}}\n"
                "schedules: [{kind: constant, h: 0.01}]\n" + run)
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            ExperimentSpec.from_yaml(text)

    @pytest.mark.parametrize("edit, message", [
        ("run: {test_functions: coordinate}\n", "test_functions must be a list, got 'coordinate'"),
        ("run: {test_functions: square}\n", "test_functions must be a list, got 'square'"),
        ("drive: {m_values: 12}\n", "m_values must be a list, got 12"),
        ("drive: {m_values: '4'}\n", "m_values must be a list, got '4'"),
        ("schedules: {kind: constant, h: 0.01}\n",
         "schedules must be a list, got {'kind': 'constant', 'h': 0.01}"),
        ("schedules: constant\n", "schedules must be a list, got 'constant'"),
    ], ids=["test_functions-coordinate", "test_functions-square", "m_values-int",
            "m_values-str", "schedules-mapping", "schedules-str"])
    def test_scalar_for_a_list_refused_naming_key_and_value(self, edit, message):
        # tuple() would split a string into characters ("test function 'o' is
        # used more than once") or fail on a number ("'int' object is not
        # iterable"); a mapping of schedules would be read as its keys.
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            ExperimentSpec.from_yaml(TestUnknownKeys.BASE + edit)

    @pytest.mark.parametrize("value, shown", [("7", "7"), ("[a]", "['a']"),
                                              ("{x: 1}", "{'x': 1}"), ("''", "''")],
                             ids=["int", "list", "mapping", "empty"])
    def test_output_that_is_not_a_path_refused_naming_it(self, value, shown):
        # ``output: 7`` used to write the report to file descriptor 7 and then
        # fail with a TypeError on the sidecar's name, after the whole run.
        message = f"output must be a nonempty string, got {shown}"
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            ExperimentSpec.from_yaml(TestUnknownKeys.BASE + f"output: {value}\n")

    def test_n_override_must_fit_periods(self):
        with pytest.raises(SpecError):
            self._ok(n_override=16)  # 2^4 - 1 = 15
        assert self._ok(n_override=15).n_override == 15


class TestSerialization:
    def test_round_trip_identity(self):
        spec = ExperimentSpec(
            model="crossed", m_values=(10, 14), n_obs=3, dim=5, data_seed=11,
            seed=9, replicates=4, minibatch=None, burn_in_m=None,
            schedules=(ScheduleSpec(kind="constant", h=0.01),
                       ScheduleSpec(kind="solved", h_start=0.01, h_end=0.0001)),
            test_functions=("coordinate",),
            truth=TruthSpec(h=1e-5, n_steps=1000, chains=4, seed=2),
            output="x.csv",
        )
        assert ExperimentSpec.from_yaml(spec.to_yaml()) == spec

    def test_bundled_specs_parse_and_round_trip(self):
        files = sorted(SPEC_DIR.glob("*.yaml"))
        assert len(files) == 10
        for path in files:
            spec = load_spec(path)
            assert ExperimentSpec.from_yaml(spec.to_yaml()) == spec

    def test_malformed_yaml(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_yaml("model: [unclosed")
        with pytest.raises(SpecError):
            ExperimentSpec.from_yaml("- just\n- a list\n")
        with pytest.raises(SpecError):
            ExperimentSpec.from_yaml("model: {kind: linear}\n")  # no drive section

    def test_default_truth_registry(self):
        assert DEFAULT_TRUTH["logistic"].h == 1e-4
        assert DEFAULT_TRUTH["crossed"].h == 1e-5
        assert DEFAULT_TRUTH["logistic"].n_steps == 1 << 22


class TestUnknownKeys:
    BASE = ("model: {kind: logistic, n_obs: 5, dim: 2}\n"
            "drive: {m_values: [4]}\n"
            "schedules: [{kind: constant, h: 0.01}]\n"
            "truth: {h: 0.001, n_steps: 64, chains: 2}\n")

    @pytest.mark.parametrize("edit, message", [
        ("run: {replicate: 3}\n", "run: unknown key 'replicate'"),
        ("drive: {m_values: [4], ofset: 3}\n", "drive: unknown key 'ofset'"),
        ("model: {kind: logistic, dta_seed: 4}\n", "model .kind logistic.: unknown key 'dta_seed'"),
        ("outptu: x.csv\n", "top level: unknown key 'outptu'"),
        ("model: {kind: logistic, noise_var: 0.5}\n", "unknown key 'noise_var'"),
        ("model: {kind: double_well, n_obs: 5}\n", "kind double_well.: unknown key 'n_obs'"),
        ("model: {kind: double_well, dim: 2}\n", "kind double_well.: unknown key 'dim'"),
        ("model: {kind: linear}\n", "a linear model has no reference-chain truth"),
        ("schedules: [{kind: constant, h: 0.01, c0: 1.0}]\n", "unknown key 'c0'"),
        ("run: 3\n", "run: expected a mapping"),
    ], ids=["run-replicate", "drive-ofset", "model-dta_seed", "top-outptu",
            "logistic-noise_var", "double_well-n_obs", "double_well-dim", "linear-truth",
            "constant-c0", "run-not-a-mapping"])
    def test_refused_at_load(self, edit, message):
        # A later YAML key replaces the earlier one of the same name.
        with pytest.raises(SpecError, match=message):
            ExperimentSpec.from_yaml(self.BASE + edit)

    def test_defaults_come_from_the_dataclass(self):
        spec = ExperimentSpec.from_yaml(self.BASE)
        assert (spec.replicates, spec.seed, spec.data_seed) == (20, 0, 1)
        assert spec.test_functions == TEST_FUNCTIONS


class TestRealFields:
    @pytest.mark.parametrize("edit, message", [
        ("schedules: [{kind: constant, h: fast}]\n",
         "constant schedule: h must be a number, got 'fast'"),
        ("schedules: [{kind: constant, h: true}]\n",
         "constant schedule: h must be a number, got True"),
        ("schedules: [{kind: constant, h: 1e-3}]\n",  # YAML 1.1 reads this as a string
         "constant schedule: h must be a number, got '1e-3'"),
        ("schedules: [{kind: polynomial, c0: x, c1: 1.0}]\n",
         "polynomial schedule: c0 must be a number, got 'x'"),
        ("schedules: [{kind: polynomial, c0: 0.1, c1: x}]\n",
         "polynomial schedule: c1 must be a number, got 'x'"),
        ("schedules: [{kind: polynomial, c0: 0.1, c1: 1.0, exponent: x}]\n",
         "polynomial schedule: exponent must be a number, got 'x'"),
        ("schedules: [{kind: solved, h_start: x, h_end: 0.001}]\n",
         "solved schedule: h_start must be a number, got 'x'"),
        ("schedules: [{kind: solved, h_start: 0.01, h_end: true}]\n",
         "solved schedule: h_end must be a number, got True"),
        ("schedules: [{kind: solved, h_start: 0.01, h_end: 0.001, exponent: [-1]}]\n",
         "solved schedule: exponent must be a number, got [-1]"),
        ("schedules: [{kind: [constant], h: 0.01}]\n", "unknown schedule kind ['constant']"),
        ("truth: {h: x, n_steps: 64, chains: 2}\n", "truth: h must be a number, got 'x'"),
        ("truth: {h: true, n_steps: 64, chains: 2}\n", "truth: h must be a number, got True"),
        ("model: {kind: linear, n_obs: 5, dim: 2, noise_var: x}\n",
         "noise_var must be a number, got 'x'"),
        ("model: {kind: linear, n_obs: 5, dim: 2, noise_var: true}\n",
         "noise_var must be a number, got True"),
    ], ids=["h-str", "h-bool", "h-1e-3", "c0-str", "c1-str", "polynomial-exponent-str",
            "h_start-str", "h_end-bool", "solved-exponent-list", "kind-list", "truth-h-str",
            "truth-h-bool", "noise_var-str", "noise_var-bool"])
    def test_non_number_refused_at_load_naming_key_and_value(self, edit, message):
        text = TestUnknownKeys.BASE + edit
        if "noise_var" in edit:  # a linear model, which takes no truth section
            text = text.replace("truth: {h: 0.001, n_steps: 64, chains: 2}\n", "")
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            ExperimentSpec.from_yaml(text)

    @pytest.mark.parametrize("edit, message", [
        ("schedules: [{kind: constant, h: .inf}]\n",
         "constant schedule: step size must be positive and finite, got inf"),
        ("schedules: [{kind: polynomial, c0: .inf, c1: 1.0}]\n",
         "polynomial schedule: c0 must be positive and finite, got inf"),
        ("schedules: [{kind: solved, h_start: 0.01, h_end: 0.001, exponent: -1.0e+300}]\n",
         "solved schedule: exponent -1e+300 is too far from 0 for h_start/h_end = 10 "
         "over 2 steps"),
        ("drive: {m_values: [14]}\n"
         "schedules: [{kind: solved, h_start: 0.01, h_end: 0.001, exponent: -100.0}]\n",
         "m=14: exponent -100 is too far from 0 for h_start/h_end = 10 over 16383 steps"),
        ("truth: {h: .inf, n_steps: 64, chains: 2}\n",
         "truth spec needs a finite h > 0, n_steps >= 1, chains >= 2"),
    ], ids=["h-inf", "c0-inf", "solved-exponent-1e300", "solved-exponent-100-at-m14",
            "truth-h-inf"])
    def test_non_finite_refused_at_load(self, edit, message):
        # An infinite step size used to load and diverge at run time; an
        # exponent of -1e300 divided by zero, and one of -100 overflowed at
        # m = 14, with tracebacks instead of a SpecError.  The other
        # schedule fields: TestScheduleSpec.test_refusal_is_the_schedules_own.
        with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
            ExperimentSpec.from_yaml(TestUnknownKeys.BASE + edit)


class TestIntegerFields:
    @pytest.mark.parametrize("edit, field", [
        ("run: {replicates: 2.5}\n", "replicates"),
        ("run: {minibatch: 2.5}\n", "minibatch"),
        ("run: {seed: 1.5}\n", "seed"),
        ("run: {seed: true}\n", "seed"),
        ("run: {burn_in_m: 4.0}\n", "burn_in_m"),
        ("run: {n_override: 7.5}\n", "n_override"),
        ("drive: {m_values: [4.0]}\n", "m_values"),
        ("drive: {m_values: [4], offset: 2.0}\n", "offset"),
        ("drive: {m_values: [4], poly_mask: 19.0}\n", "poly_mask"),
        ("model: {kind: logistic, n_obs: 5.5, dim: 2}\n", "n_obs"),
        ("model: {kind: logistic, n_obs: 5, dim: true}\n", "dim"),
        ("model: {kind: logistic, n_obs: 5, dim: 2, data_seed: 0.5}\n", "data_seed"),
        ("truth: {h: 0.001, n_steps: 64.0, chains: 2}\n", "n_steps"),
        ("truth: {h: 0.001, n_steps: 64, chains: 2.5}\n", "chains"),
        ("truth: {h: 0.001, n_steps: 64, chains: 2, seed: 1.5}\n", "seed"),
    ], ids=["replicates", "minibatch", "seed-float", "seed-bool", "burn_in_m", "n_override",
            "m_values", "offset", "poly_mask", "n_obs", "dim-bool", "data_seed",
            "truth-n_steps", "truth-chains", "truth-seed"])
    def test_non_integer_refused_at_load(self, edit, field):
        with pytest.raises(SpecError, match=f"{field} must be .*integer"):
            ExperimentSpec.from_yaml(TestUnknownKeys.BASE + edit)


@st.composite
def _spec_fields(draw):
    """ExperimentSpec fields at tiny scale, many of them out of range."""
    model = draw(st.sampled_from(MODELS))
    optional = lambda strategy: draw(st.none() | strategy)  # noqa: E731
    m_values = tuple(draw(st.lists(st.integers(3, 5), min_size=1, max_size=2, unique=True)))
    kind = draw(st.sampled_from(("constant", "polynomial", "solved")))
    step = st.floats(1e-4, 0.05)
    schedule = {
        "constant": lambda: dict(h=draw(step)),
        "polynomial": lambda: dict(c0=draw(step), c1=draw(st.floats(-0.9, 5.0)),
                                   exponent=draw(st.floats(-1.0, 0.3))),
        "solved": lambda: dict(h_start=draw(step), h_end=draw(st.floats(1e-5, 1e-3)),
                               exponent=draw(st.floats(-1.0, 0.3))),
    }[kind]()
    fields = dict(
        model=model, schedules=(dict(kind=kind, **schedule),), replicates=2,
        m_values=m_values, seed=draw(st.integers(0, 3)),
        test_functions=tuple(draw(st.lists(st.sampled_from(TEST_FUNCTIONS), min_size=1,
                                           max_size=3, unique=True))),
        offset=optional(st.integers(1, 12)), burn_in_m=optional(st.integers(3, 5)),
        poly_mask=optional(st.sampled_from(m_values).flatmap(
            lambda m: st.integers(1 << m, (2 << m) - 1))),
        n_override=optional(st.integers(1, 7) | st.integers(1, 31)),
    )
    if model != "double_well":  # only the fields the model uses, as a spec file has
        fields.update(n_obs=draw(st.integers(1, 6)), dim=draw(st.integers(1, 3)),
                      data_seed=draw(st.integers(0, 3)))
    if model in ("logistic", "linear"):
        fields["minibatch"] = optional(st.integers(1, 6))
    if model == "linear":
        fields["noise_var"] = draw(st.floats(0.01, 1.0) | st.floats(-0.5, 1.0))
    if model in DEFAULT_TRUTH:
        fields["truth"] = TruthSpec(h=1e-3, n_steps=64, chains=2, seed=draw(st.integers(0, 3)))
    # rarely, an order in the generator table but above the period budget
    over = draw(st.sampled_from((None,) * 8 + ("m_values", "burn_in_m")))
    if over == "m_values":
        fields["m_values"] += (draw(st.integers(MAX_M + 1, 32)),)
    elif over == "burn_in_m":
        fields["burn_in_m"] = draw(st.integers(MAX_M + 1, 32))
    # at most one integer field replaced by a float or a bool
    bad = draw(st.none() | st.sampled_from(sorted(
        k for k in ("n_obs", "dim", "data_seed", "seed", "replicates", "minibatch", "offset",
                    "burn_in_m", "n_override") if fields.get(k) is not None)))
    if bad is not None:
        fields[bad] = draw(st.sampled_from((float(fields[bad]), fields[bad] + 0.5, True)))
    return fields


class TestAcceptedSpecsRun:
    @settings(max_examples=200, deadline=None)
    @given(_spec_fields())
    def test_every_accepted_spec_runs(self, fields):
        # A spec the loader accepts must not fail on its configuration later.
        try:
            schedules = tuple(ScheduleSpec(**s) for s in fields.pop("schedules"))
            spec = ExperimentSpec(schedules=schedules, **fields)
        except SpecError:
            return
        assert ExperimentSpec.from_yaml(spec.to_yaml()) == spec
        try:
            run_comparison(spec)
        except DivergenceError:
            pass
