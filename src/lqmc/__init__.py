"""Langevin sampling driven by full-period LFSR sequences, plus a benchmark harness."""

from .bench import (MseReport, iid_pointset, lcg_demo, run_comparison,
                    smallest_primitive_root)
from .cud_core import (CudSequence, LfsrConfig, PointSet,
                       builtin_config, builtin_poly, generate_cud,
                       is_primitive, lfsr_bitstream, lfsr_period,
                       overlapping_tuples, star_discrepancy_1d,
                       star_discrepancy_2d, table_listing)
from .drive import (DriveMatrix, GaussianDrive, build_drive_matrix,
                    coprime_width, gaussian_rows, inverse_normal_cdf)
from .errors import (ConfigurationError, DataError, DivergenceError,
                     DomainError, LqmcError, SizeError, SpecError)
from .experiment import ExperimentSpec, ScheduleSpec, TruthSpec, load_spec
from .models import (GroundTruth, Potential, SyntheticDataset,
                     closed_form_posterior, crossed_effects_potential,
                     double_well_potential, double_well_truth,
                     linear_regression_potential, logistic_potential,
                     reference_ground_truth, standard_gaussian_potential,
                     synthesize_data)
from .prng import BaselinePrng
from .samplers import (ChainBatch, ChainConfig, ChainRun, ConstantSchedule,
                       PolynomialSchedule, PseudoRandomDrive, continue_chain,
                       contraction_info, coupling_diagnostic, run_chain,
                       solve_polynomial_schedule)

__version__ = "0.1.0"
