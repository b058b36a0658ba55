import numpy as np
import pytest
from hypothesis import settings

from pwlcones import EigenTriple, PwlSystem, example_system

# Property tests draw the same examples on every run (derandomize, no example
# database) and are not timed per example, so the suite's outcome and wall
# time do not depend on the run or on the machine's load.
settings.register_profile(
    "pwlcones", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("pwlcones")


@pytest.fixture(scope="session")
def ex1() -> PwlSystem:
    return example_system(1)


@pytest.fixture(scope="session")
def ex2() -> PwlSystem:
    return example_system(2)


@pytest.fixture(scope="session")
def symmetric_center() -> PwlSystem:
    # both shape ratios zero, zero real eigenvalues, unit rotation rates
    zone = EigenTriple(lam=0.0, alpha=0.0, beta=1.0)
    return PwlSystem.from_eigen(minus=zone, plus=zone)


def random_focus_eigen(rng: np.random.Generator, lam_scale=2.0, beta_range=(0.3, 2.0)) -> EigenTriple:
    return EigenTriple(
        lam=float(rng.uniform(-lam_scale, lam_scale)),
        alpha=float(rng.uniform(-lam_scale, lam_scale)),
        beta=float(rng.uniform(*beta_range)),
    )
