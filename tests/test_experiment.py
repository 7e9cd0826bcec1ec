"""Spec parsing, validation, and round-trip serialization."""

import pathlib

import pytest

from lqmc.errors import SpecError
from lqmc.experiment import (DEFAULT_TRUTH, ExperimentSpec, ScheduleSpec,
                             TruthSpec, load_spec)

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

    def test_polynomial_coefficients_checked_at_load(self):
        for c0, c1 in ((0.0, 10.0), (-0.1, 10.0), (0.1, -1.0), (0.1, -3.0)):
            with pytest.raises(SpecError):
                ScheduleSpec(kind="polynomial", c0=c0, c1=c1)
        assert ScheduleSpec(kind="polynomial", c0=0.1, c1=-0.5).c1 == -0.5


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

    def test_unknown_test_function(self):
        with pytest.raises(SpecError):
            self._ok(test_functions=("cube",))

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
