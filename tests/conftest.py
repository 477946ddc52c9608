import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import radarvitals as rv

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def cfg():
    return rv.RadarConfig()


@pytest.fixture(scope="session")
def small_scene():
    """Short capture with one still person and one static reflector."""
    return rv.Scene(
        statics=(rv.PointReflector(4.0, -10.0, 0.8),),
        targets=(rv.VitalTarget(
            2.0, 30.0, 1.0,
            rv.VitalParams(breath_freq=0.25, heart_freq=1.2)),),
        duration=6.0,
    )


@pytest.fixture(scope="session")
def small_profiles(cfg, small_scene):
    from radarvitals import rangefft, simulate
    cube = simulate.synthesize_cube(small_scene, cfg, snr_db=20.0, seed=7)
    return rangefft.range_fft(cube)


def assert_sorted(a):
    assert np.all(np.diff(a) >= 0)
