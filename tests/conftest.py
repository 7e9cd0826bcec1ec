"""Shared fixtures: spec files and (cached) reference-run ground truths.

The two reference truths (2^22 steps, 10 chains each) are slow to compute
cold: the crossed one took about 110 s on a 2-vCPU host with
single-threaded BLAS.  ``bench.cached_ground_truth`` keeps them as files
under pytest's cache directory (``.pytest_cache/d/lqmc``); delete
.pytest_cache to force recomputation.  Without the cache plugin
(``-p no:cacheprovider``) they are computed cold.
"""

import pathlib

import pytest

from lqmc import bench, models
from lqmc.experiment import load_spec

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


def spec_path(name: str) -> pathlib.Path:
    return SPEC_DIR / name


def _cached_truth(request, file_name: str, spec_name: str) -> models.GroundTruth:
    cache = getattr(request.config, "cache", None)
    path = None if cache is None else cache.mkdir("lqmc") / file_name
    return bench.cached_ground_truth(load_spec(spec_path(spec_name)), path)


@pytest.fixture(scope="session")
def logistic_truth(request):
    """Reference truth for the logistic desk model (h=1e-4, n=2^22, 10 chains)."""
    return _cached_truth(request, "logistic_truth_v1.json", "logistic_exact_desk.yaml")


@pytest.fixture(scope="session")
def crossed_truth(request):
    """Reference truth for the crossed desk model (h=1e-5, n=2^22, 10 chains)."""
    return _cached_truth(request, "crossed_truth_v1.json", "crossed_desk.yaml")
