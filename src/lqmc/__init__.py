"""Langevin sampling driven by full-period LFSR sequences, plus a benchmark harness.

Each exported name loads its submodule on first use (PEP 562) and is not cached,
so ``import lqmc``, ``lqmc gen`` and ``lqmc discrepancy`` skip the chain modules.
"""

import importlib

_NAMES = {
    "bench": "MseReport iid_pointset lcg_demo run_comparison smallest_primitive_root",
    "cud_core": "CudSequence LfsrConfig PointSet builtin_config builtin_poly generate_cud "
                "is_primitive lfsr_bitstream lfsr_period overlapping_tuples "
                "star_discrepancy_1d star_discrepancy_2d table_listing",
    "drive": "DriveMatrix GaussianDrive build_drive_matrix coprime_width gaussian_rows "
             "inverse_normal_cdf",
    "errors": "ConfigurationError DataError DivergenceError DomainError LqmcError "
              "SizeError SpecError",
    "experiment": "ExperimentSpec ScheduleSpec TruthSpec load_spec",
    "models": "GroundTruth Potential SyntheticDataset closed_form_posterior "
              "crossed_effects_potential double_well_potential double_well_truth "
              "linear_regression_potential logistic_potential reference_ground_truth "
              "standard_gaussian_potential synthesize_data",
    "prng": "BaselinePrng",
    "samplers": "ChainBatch ChainConfig ChainRun ConstantSchedule PolynomialSchedule "
                "PseudoRandomDrive continue_chain contraction_info coupling_diagnostic "
                "run_chain solve_polynomial_schedule",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
