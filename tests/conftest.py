import pytest
from hypothesis import HealthCheck, Phase, settings

from rotalg import golden_angle, silver_angle

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    # explain re-runs every failing example to annotate it, which took most
    # of the time a broken sweep needed to report; generate and shrink stay
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def golden():
    return golden_angle()


@pytest.fixture(scope="session")
def silver():
    return silver_angle()
