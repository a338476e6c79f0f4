from mavnav.metrics import recovery_time, rms
from mavnav.scenarios import run_hover, run_wind_step

# Bounds from a sweep of seeds 0-9 with the default noise and gains:
# 10 s hover position RMS 0.016-0.053 m, wind-step recovery 0-3.69 s.


def test_hover_position_rms():
    log = run_hover(duration=10.0, seed=0)
    assert len(log.t) == 1000
    assert rms(log.position_error()) < 0.08


def test_wind_step_recovery():
    onset = 5.0
    log = run_wind_step(wind_speed=3.0, onset=onset, duration=15.0, seed=0)
    err = log.position_error()
    assert err.max() > 0.1  # the gust pushes the vehicle out of the band
    rec = recovery_time(log.times(), err, onset, threshold=0.1)
    assert rec is not None and rec < 5.0
