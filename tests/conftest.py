"""Shared fixtures: spec files and (cached) reference-run ground truths.

The two reference truths (2^22 steps, 10 chains each) are slow to compute
cold: the crossed one took about 110 s on a 2-vCPU host with
single-threaded BLAS.  They are stored in pytest's JSON cache keyed by
their parameters; delete .pytest_cache to force recomputation.
"""

import pathlib

import pytest

from lqmc import bench, models
from lqmc.experiment import load_spec

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


def spec_path(name: str) -> pathlib.Path:
    return SPEC_DIR / name


def _cached_truth(request, key: str, spec_name: str) -> models.GroundTruth:
    cached = request.config.cache.get(key, None)
    if cached is not None:
        return models.GroundTruth.from_dict(cached)
    spec = load_spec(spec_path(spec_name))
    potential, _ = bench.build_model(spec)
    truth = bench.ground_truth_for(spec, potential)
    request.config.cache.set(key, truth.to_dict())
    return truth


@pytest.fixture(scope="session")
def logistic_truth(request):
    """Reference truth for the logistic desk model (h=1e-4, n=2^22, 10 chains)."""
    return _cached_truth(request, "lqmc/logistic_truth_v1", "logistic_exact_desk.yaml")


@pytest.fixture(scope="session")
def crossed_truth(request):
    """Reference truth for the crossed desk model (h=1e-5, n=2^22, 10 chains)."""
    return _cached_truth(request, "lqmc/crossed_truth_v1", "crossed_desk.yaml")
